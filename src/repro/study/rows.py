"""Row-level study reads: the surviving sessions of one group's study.

:func:`~repro.study.pipeline.build_partial` folds every engine block
into counts and moments. The artifacts that need individual rows —
Section 4.2's per-participant means, vote normality and demographics,
the Figure 3 vote distributions and the CSV data release
(:mod:`repro.study.export`) — read the same blocks here:
:func:`study_rows` reruns the engines over the same RNG streams, applies
the same R1-R7 survivor mask and keeps the rows in participant order
(row ``i``, trial column ``j`` is the ``j``-th video participant ``i``
saw).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.stats import is_normal
from repro.study.design import (
    GROUP_ORDER,
    AbCondition,
    RatingCondition,
    StudyPlan,
    scaled_participants,
)
from repro.study.engine import AbEngine, RatingEngine
from repro.study.filtering import funnel_from_flags
from repro.study.participants import GROUPS
from repro.study.pipeline import ConditionIndex

#: Block arrays kept per surviving trial, besides the condition indices.
TRIAL_COLUMNS = {
    "ab": ("left_is_a", "answers", "votes", "confidence", "replays",
           "durations"),
    "rating": ("speed", "quality", "replays", "durations"),
}


@dataclass
class StudyRows:
    """One group's study as rows.

    The entrant columns cover every participant; ``trials`` maps a
    column name to a ``(kept, videos)`` array over the sessions that
    survived R1-R7: ``indices`` into :attr:`conditions` plus the block
    arrays named in :data:`TRIAL_COLUMNS`.
    """

    group: str
    study: str
    #: Trial conditions by index (rating: the context pools, in order).
    conditions: List[Union[AbCondition, RatingCondition]]
    #: Rating context by condition index (empty for A/B).
    contexts: List[str]
    participant: np.ndarray   # (n,) ids, in participant order
    male: np.ndarray          # (n,) bool
    age_group: List[str]      # (n,)
    flags: np.ndarray         # (7, n) R1..R7 violation flags
    trials: Dict[str, np.ndarray]

    @property
    def valid(self) -> np.ndarray:
        """(n,) bool: survived R1-R7."""
        return funnel_from_flags(self.flags)[0]

    @property
    def kept(self) -> np.ndarray:
        """Ids of the surviving participants (the ``trials`` rows)."""
        return self.participant[self.valid]


def study_rows(
    index: ConditionIndex,
    plan: Optional[StudyPlan] = None,
    group: str = "microworker",
    study: str = "ab",
    seed: int = 0,
    participants_scale: float = 1.0,
) -> StudyRows:
    """One group's study, drawn exactly as ``build_partial`` draws it
    with its default parameters and block size (the arguments mean what
    they mean there)."""
    if participants_scale <= 0:
        raise ValueError("participants_scale must be positive")
    plan = plan if plan is not None else index.plan()
    behavior = GROUPS[group]
    if study == "ab":
        engine = AbEngine(group, plan, lookup=index.lookup)
        count = behavior.participants_ab
        conditions, contexts = list(engine.pool), []

        def condition_indices(block) -> np.ndarray:
            return block.indices
    elif study == "rating":
        engine = RatingEngine(group, plan, lookup=index.lookup)
        count = behavior.participants_rating
        conditions = [c for table in engine.tables for c in table.pool]
        contexts = [table.context for table in engine.tables
                    for _ in table.pool]
        offsets = np.cumsum([0] + [len(t.pool) for t in engine.tables])

        def condition_indices(block) -> np.ndarray:
            # Per-context pool indices -> indices into ``conditions``.
            return np.concatenate(
                [idx + offset for idx, offset in zip(block.indices, offsets)],
                axis=1)
    else:
        raise KeyError(f"unknown study {study!r}")
    blocks = list(engine.blocks(
        scaled_participants(count, participants_scale, group), seed))
    alive = [funnel_from_flags(block.flags)[0] for block in blocks]

    def surviving(arrays) -> np.ndarray:
        return np.concatenate([a[mask] for a, mask in zip(arrays, alive)])

    trials = {"indices": surviving([condition_indices(b) for b in blocks])}
    for name in TRIAL_COLUMNS[study]:
        trials[name] = surviving([getattr(block, name) for block in blocks])
    traits = [block.traits for block in blocks]
    return StudyRows(
        group=group, study=study, conditions=conditions, contexts=contexts,
        participant=np.concatenate(
            [block.start + np.arange(block.size) for block in blocks]),
        male=np.concatenate([t.male for t in traits]),
        age_group=[t.age_names[age] for t in traits
                   for age in t.age_index.tolist()],
        flags=np.concatenate([block.flags for block in blocks], axis=1),
        trials=trials,
    )


def rows_by_study(
    index: ConditionIndex,
    plan: Optional[StudyPlan] = None,
    seed: int = 0,
    participants_scale: float = 1.0,
) -> Dict[Tuple[str, str], StudyRows]:
    """:func:`study_rows` for every group, A/B studies first."""
    return {(group, study): study_rows(index, plan, group, study, seed,
                                       participants_scale)
            for study in ("ab", "rating") for group in GROUP_ORDER}


@dataclass
class GroupBehaviourStats:
    """Section 4.2 numbers for one group and study."""

    group: str
    study: str
    sessions: int
    mean_seconds_per_video: float
    mean_replays: float
    votes_normal: bool
    male_share: float
    age_distribution: List[Tuple[str, float]]


def behaviour_statistics(rows: StudyRows) -> GroupBehaviourStats:
    """Per-video time, replays, vote normality (A/B confidence, rating
    speed score) and demographics of the surviving sessions."""
    valid = rows.valid
    kept = int(valid.sum())
    if not kept:
        raise ValueError("no surviving sessions to analyse")

    def per_session_mean(name: str) -> List[float]:
        return [sum(row) / len(row) for row in rows.trials[name].tolist()]

    votes = rows.trials["confidence" if rows.study == "ab" else "speed"]
    ages = Counter(age for age, ok in zip(rows.age_group, valid) if ok)
    return GroupBehaviourStats(
        group=rows.group,
        study=rows.study,
        sessions=kept,
        mean_seconds_per_video=fmean(per_session_mean("durations")),
        mean_replays=fmean(per_session_mean("replays")),
        votes_normal=is_normal(votes.ravel()),
        male_share=int(rows.male[valid].sum()) / kept,
        age_distribution=sorted((name, count / kept)
                                for name, count in ages.items()),
    )
