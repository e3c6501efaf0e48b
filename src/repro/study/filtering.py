"""Conformance filtering: rules R1-R7 and the Table 3 funnel.

The paper removes a session when (Section 4.1):

* **R1** — a video in the study has not been played;
* **R2** — a video has stalled;
* **R3** — a focus-loss event longer than 10 s occurred;
* **R4** — a vote was placed before the first visual change;
* **R5** — the study took longer than 25 min or a question longer than
  2 min;
* **R6** — the randomly placed control video was answered wrong;
* **R7** — a control question (browser-frame colour) was answered wrong.

Filters are applied in order; Table 3 reports the surviving participant
count after each rule, which :class:`FilterFunnel` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.study.session import (
    FOCUS_LOSS_LIMIT,
    QUESTION_DURATION_LIMIT,
    STUDY_DURATION_LIMIT,
    SessionEvents,
)


def _r1(events: SessionEvents) -> bool:
    return not events.all_videos_played


def _r2(events: SessionEvents) -> bool:
    return events.any_video_stalled


def _r3(events: SessionEvents) -> bool:
    return events.max_focus_loss_s > FOCUS_LOSS_LIMIT


def _r4(events: SessionEvents) -> bool:
    return events.any_vote_before_fvc


def _r5(events: SessionEvents) -> bool:
    return (events.total_duration_s > STUDY_DURATION_LIMIT
            or events.max_question_duration_s > QUESTION_DURATION_LIMIT)


def _r6(events: SessionEvents) -> bool:
    return not events.control_video_correct


def _r7(events: SessionEvents) -> bool:
    return not events.control_questions_correct


#: (rule name, description, violation predicate) in application order.
FILTER_RULES: Tuple[Tuple[str, str, Callable[[SessionEvents], bool]], ...] = (
    ("R1", "a video in the study has not been played", _r1),
    ("R2", "a video has stalled", _r2),
    ("R3", "focus loss longer than 10 s", _r3),
    ("R4", "a vote was placed before the FVC", _r4),
    ("R5", "study longer than 25 min or question longer than 2 min", _r5),
    ("R6", "control video answered wrong", _r6),
    ("R7", "control question answered wrong", _r7),
)


@dataclass
class FilterFunnel:
    """Survivor counts after each rule (one Table 3 row)."""

    group: str
    study: str
    initial: int
    after_rule: List[int] = field(default_factory=list)

    @property
    def final(self) -> int:
        return self.after_rule[-1] if self.after_rule else self.initial

    def as_row(self) -> List[int]:
        """[initial, after R1, ..., after R7] — the Table 3 format."""
        return [self.initial] + list(self.after_rule)

    def removed_by_rule(self) -> List[int]:
        counts = []
        previous = self.initial
        for survivors in self.after_rule:
            counts.append(previous - survivors)
            previous = survivors
        return counts


def apply_filters(sessions: Sequence, group: str = "",
                  study: str = "") -> Tuple[List, FilterFunnel]:
    """Filter sessions with R1-R7 in order, from their event logs.

    ``sessions`` must expose an ``events`` attribute. Returns the
    surviving sessions and the funnel with per-rule survivor counts.
    This is the rules' reference form; the study pipeline uses
    :func:`funnel_from_flags`, which tests pin to it.
    """
    funnel = FilterFunnel(group=group, study=study, initial=len(sessions))
    survivors = list(sessions)
    for _, _, violates in FILTER_RULES:
        survivors = [s for s in survivors if not violates(s.events)]
        funnel.after_rule.append(len(survivors))
    return survivors, funnel


def funnel_from_flags(flags: np.ndarray, group: str = "",
                      study: str = "") -> Tuple[np.ndarray, FilterFunnel]:
    """Vectorized R1-R7 funnel over a ``(7, n)`` violation-flag block.

    The session event logs are realised such that rule ``Ri`` fires
    exactly when violation flag ``i`` of the plan is set (see
    :func:`repro.study.session.events_from_draws`), so the funnel is a
    pure function of the flags. Returns the survivor mask and the
    funnel.
    """
    if flags.shape[0] != len(FILTER_RULES):
        raise ValueError(
            f"expected {len(FILTER_RULES)} flag rows, got {flags.shape[0]}")
    n = int(flags.shape[1])
    funnel = FilterFunnel(group=group, study=study, initial=n)
    alive = np.ones(n, dtype=bool)
    for row in flags:
        alive &= ~row
        funnel.after_rule.append(int(alive.sum()))
    return alive, funnel
