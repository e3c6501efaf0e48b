"""Study pipeline: engine blocks -> mergeable partials -> paper artifacts.

The one production path of the two user studies, decoupled from the
testbed and from per-participant objects:

* :class:`ConditionIndex` reduces ``(ConditionKey, RecordingSummary)``
  pairs — from a live testbed or campaign, or post-hoc from a campaign
  directory — to the few per-condition floats the perception models
  consume (:class:`~repro.study.engine.ConditionStats`).
* :func:`build_partial` runs the vectorized engines over a
  participant-block shard and folds the outcome into a
  :class:`StudyPartial`: Table 3 funnels, A/B vote counts, rating
  moments (Welford) and integer score histograms — all exactly
  mergeable, so study work rides the same lease/partial protocol as
  distributed campaign workers (``repro study --campaign-dir DIR
  --shard I:K``).
* The figure functions (:func:`ab_vote_shares`, :func:`rating_means`,
  :func:`anova_by_setting`, :func:`per_website_differences`,
  :func:`agreement_by_condition`, :func:`correlation_heatmap`) compute
  Figures 3-6, the Figure 5 ANOVA and Section 4.4 from a merged
  partial; :func:`build_report` renders Table 3 and Figures 3-6, and
  :class:`StudyIndex` warms per-condition lookups for the ``repro study
  --serve`` query protocol.

The artifacts that need individual rows (Section 4.2, vote
distributions, the CSV data release) read the same blocks through
:mod:`repro.study.rows`.

Sharding is by participant block (:data:`~repro.study.engine.STUDY_BLOCK`
columns): shard ``(i, k)`` processes exactly the blocks ``b`` with
``b % k == i``, and each block draws from its own RNG-tree stream — so
any partition of the shards merges to the same totals as one sequential
pass (counts exactly; Welford means to float merge order). Partials
whose shards share a block refuse to merge.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.ab import AbShares
from repro.analysis.agreement import ConditionAgreement
from repro.analysis.correlation import METRIC_ORDER, CorrelationHeatmap
from repro.analysis.rating import RatingCell, SettingAnova, WebsiteDifference
from repro.analysis.stats import pearson_r
from repro.analysis.streaming import (
    CountTable,
    StreamingMoments,
    anova_from_moments,
)
from repro.study.design import (
    GROUP_ORDER,
    PAPER_TABLE3,
    SCALE_MAX,
    SCALE_MIN,
    StudyPlan,
    scaled_participants,
)
from repro.study.engine import (
    STUDY_BLOCK,
    AbEngine,
    ConditionStats,
    RatingEngine,
    compute_anchors,
    condition_stats,
)
from repro.study.filtering import FILTER_RULES, FilterFunnel, funnel_from_flags
from repro.study.participants import GROUPS
from repro.study.perception import DEFAULT_PARAMS, PerceptionParams

#: Width of the integer score histograms (scores 10..70, granularity 1).
SCORE_BINS = SCALE_MAX - SCALE_MIN + 1

#: Funnel rows are [initial, after R1, ..., after R7].
FUNNEL_WIDTH = len(FILTER_RULES) + 1

#: Figure 6 context per network (the paper's free-time/plane choice).
CONTEXTS_FOR_NETWORK = {
    "DSL": "free_time", "LTE": "free_time",
    "DA2GC": "plane", "MSS": "plane",
}

_SEP = "|"


def _key(*parts: str) -> str:
    for part in parts:
        if _SEP in part:
            raise ValueError(f"key part {part!r} contains {_SEP!r}")
    return _SEP.join(parts)


class ConditionIndex:
    """Per-condition facts of a campaign, indexed for the study models.

    Holds one :class:`ConditionStats` per (website, network, stack);
    when several seeds recorded the same condition the lowest seed wins,
    so the index is independent of manifest iteration order.
    """

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str, str], ConditionStats] = {}
        self._seeds: Dict[Tuple[str, str, str], int] = {}

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[object, object]]) -> "ConditionIndex":
        """Index ``(ConditionKey, RecordingSummary)`` pairs.

        Accepts anything iterable in that shape: a live campaign's
        ``summary_store()``, a post-hoc ``SummaryStore.open(...)``, or a
        plain list.
        """
        index = cls()
        for key, summary in pairs:
            index.add(int(getattr(key, "seed", 0)), summary)
        return index

    @classmethod
    def from_campaign_dir(
        cls,
        campaign_dir: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        check_behaviour: bool = True,
    ) -> "ConditionIndex":
        """Index a finished campaign directory (post-hoc mode)."""
        from repro.testbed.store import SummaryStore

        store = SummaryStore.open(campaign_dir, cache_dir=cache_dir,
                                  check_behaviour=check_behaviour)
        return cls.from_pairs(store)

    @classmethod
    def from_testbed(cls, testbed, plan: StudyPlan) -> "ConditionIndex":
        """Index a live testbed over a plan's required recordings."""
        index = cls()
        for website, network, stack in plan.required_recordings():
            index.add(0, testbed.recording(website, network, stack))
        return index

    def add(self, seed: int, summary) -> None:
        stats = condition_stats(summary)
        key = (stats.website, stats.network, stats.stack)
        if key not in self._seeds or seed < self._seeds[key]:
            self._seeds[key] = seed
            self._stats[key] = stats

    def lookup(self, website: str, network: str,
               stack: str) -> ConditionStats:
        """The engines' condition lookup; raises on uncovered conditions."""
        try:
            return self._stats[(website, network, stack)]
        except KeyError:
            raise KeyError(
                f"campaign has no recording for "
                f"{website}/{network}/{stack}; the study plan needs "
                f"every (site, network, stack) combination — restrict "
                f"the plan or record the missing condition") from None

    def __contains__(self, key: Tuple[str, str, str]) -> bool:
        return key in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    @property
    def websites(self) -> List[str]:
        return sorted({key[0] for key in self._stats})

    @property
    def networks(self) -> List[str]:
        return sorted({key[1] for key in self._stats})

    @property
    def stacks(self) -> List[str]:
        return sorted({key[2] for key in self._stats})

    def plan(self) -> StudyPlan:
        """A study plan restricted to what this index covers.

        Axis order follows the default plan (the paper's), with any
        extra indexed values appended alphabetically; A/B pairs keep
        only those whose two stacks are both covered.
        """
        base = StudyPlan()

        def ordered(defaults: Sequence[str],
                    present: List[str]) -> Tuple[str, ...]:
            known = [v for v in defaults if v in present]
            return tuple(known + sorted(set(present) - set(defaults)))

        sites = ordered(base.sites, self.websites)
        networks = ordered(base.networks, self.networks)
        stacks = ordered(base.stacks, self.stacks)
        pairs = tuple((a, b) for a, b in base.pairs
                      if a in stacks and b in stacks)
        return StudyPlan(sites=sites, networks=networks, stacks=stacks,
                         pairs=pairs)


def _moments_from_sums(count: int, total: float,
                       total_sq: float) -> StreamingMoments:
    """Welford state from (n, Σx, Σx²) — one block's worth of scores."""
    if count == 0:
        return StreamingMoments()
    mean = total / count
    m2 = max(0.0, total_sq - count * mean * mean)
    return StreamingMoments(count=count, mean=mean, m2=m2)


#: JSON shape of :meth:`StudyPartial.to_state`: a type is a leaf, a
#: one-element list is "list of", ``{str: shape}`` is a string-keyed
#: mapping and any other dict lists required fields.
_MOMENTS_SHAPE = {"count": int, "mean": float, "m2": float}
_TABLE_SHAPE = {"width": int, "rows": {str: [int]}}
_STATE_SHAPE = {
    "sim_behaviour": int,
    "config": {
        "seed": int, "participants_scale": float, "block_size": int,
        "groups": [str], "params": str,
        "plan": {"sites": [str], "networks": [str], "stacks": [str],
                 "pairs": [[str]]},
    },
    "shards": [[int]],
    "funnels": _TABLE_SHAPE,
    "ab_votes": _TABLE_SHAPE,
    "histograms": _TABLE_SHAPE,
    "rating": [{"key": str, "speed": _MOMENTS_SHAPE,
                "quality": _MOMENTS_SHAPE}],
}


def _check_shape(value: object, shape: object, where: str) -> None:
    """Raise ``ValueError`` naming the first field off ``shape``."""
    expected = shape if isinstance(shape, type) else type(shape)
    if type(value) is not expected:
        raise ValueError(
            f"study partial field {where} must be {expected.__name__}, "
            f"got {type(value).__name__}")
    if isinstance(shape, list):
        for position, item in enumerate(value):
            _check_shape(item, shape[0], f"{where}[{position}]")
    elif isinstance(shape, dict) and str in shape:
        for key, item in value.items():
            _check_shape(item, shape[str], f"{where}.{key}")
    elif isinstance(shape, dict):
        for name, field_shape in shape.items():
            if name not in value:
                raise ValueError(
                    f"study partial is missing field {where}.{name}")
            _check_shape(value[name], field_shape, f"{where}.{name}")


@dataclass
class StudyPartial:
    """One shard's mergeable study aggregation.

    All state is either integer counts (:class:`CountTable` — exact
    under any merge order) or Welford moments (exact counts, means to
    float merge order). ``config`` is the merge identity: partials built
    from different seeds, scales, plans or parameter sets refuse to
    merge.
    """

    config: Dict[str, object]
    shards: List[List[int]] = field(default_factory=list)
    funnels: CountTable = field(
        default_factory=lambda: CountTable(FUNNEL_WIDTH))
    #: key ``group|website|network|stack_a|stack_b`` ->
    #: [votes_a, votes_same, votes_b, replay_sum] over surviving sessions.
    ab_votes: CountTable = field(default_factory=lambda: CountTable(4))
    #: key ``group|context|website|network|stack`` ->
    #: {"speed": moments, "quality": moments} over surviving sessions.
    rating: Dict[str, Dict[str, StreamingMoments]] = field(
        default_factory=dict)
    #: key ``which|website|network|stack`` -> integer score histogram of
    #: the internet group's surviving votes (for exact medians).
    histograms: CountTable = field(
        default_factory=lambda: CountTable(SCORE_BINS))

    def rating_cell(self, key: str) -> Dict[str, StreamingMoments]:
        cell = self.rating.get(key)
        if cell is None:
            cell = self.rating[key] = {"speed": StreamingMoments(),
                                       "quality": StreamingMoments()}
        return cell

    def merge(self, other: "StudyPartial") -> "StudyPartial":
        """Fold another shard into this one (returns self).

        Raises ``ValueError`` on a different config, or when the two
        cover a common block: shards ``(i, k)`` and ``(j, l)`` share
        block ``b`` iff ``b ≡ i (mod k)`` and ``b ≡ j (mod l)`` has a
        solution, i.e. iff ``i ≡ j (mod gcd(k, l))``. Merging those
        would count the common blocks twice.
        """
        if other.config != self.config:
            raise ValueError(
                "cannot merge study partials with different configs: "
                f"{self.config!r} vs {other.config!r}")
        for i, k in self.shards:
            for j, l in other.shards:
                if (i - j) % math.gcd(k, l) == 0:
                    raise ValueError(
                        f"study shards {i}:{k} and {j}:{l} overlap; "
                        f"merging them would count shared participant "
                        f"blocks twice")
        self.shards = sorted(self.shards + other.shards)
        self.funnels.merge(other.funnels)
        self.ab_votes.merge(other.ab_votes)
        self.histograms.merge(other.histograms)
        for key, cell in other.rating.items():
            mine = self.rating_cell(key)
            mine["speed"].merge(cell["speed"])
            mine["quality"].merge(cell["quality"])
        return self

    def funnel(self, group: str, study: str) -> Optional[FilterFunnel]:
        row = self.funnels.row(_key(group, study))
        if row is None:
            return None
        return FilterFunnel(group=group, study=study, initial=row[0],
                            after_rule=list(row[1:]))

    # -- state (de)serialization --------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """JSON-serialisable state; ``from_state`` round-trips exactly."""
        from repro.testbed.harness import SIM_BEHAVIOUR_VERSION

        return {
            "kind": "study-partial",
            "version": 1,
            "sim_behaviour": SIM_BEHAVIOUR_VERSION,
            "config": copy.deepcopy(self.config),
            "shards": [list(s) for s in self.shards],
            "funnels": self.funnels.to_json(),
            "ab_votes": self.ab_votes.to_json(),
            "histograms": self.histograms.to_json(),
            "rating": [
                {"key": key,
                 "speed": cell["speed"].to_json(),
                 "quality": cell["quality"].to_json()}
                for key, cell in self.rating.items()
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StudyPartial":
        """Rebuild a partial; ``ValueError`` names any malformed field."""
        if state.get("kind") != "study-partial":
            raise ValueError(
                f"not a study partial (kind={state.get('kind')!r})")
        if state.get("version") != 1:
            raise ValueError(f"unsupported study partial version "
                             f"{state.get('version')!r} (expected 1)")
        _check_shape(state, _STATE_SHAPE, "state")
        for shard in state["shards"]:
            if len(shard) != 2 or not 0 <= shard[0] < shard[1]:
                raise ValueError(f"study partial shard {shard!r} is not "
                                 f"[index, step] with 0 <= index < step")
        partial = cls(
            config=copy.deepcopy(state["config"]),
            shards=[list(shard) for shard in state["shards"]],
            funnels=CountTable.from_json(state["funnels"]),
            ab_votes=CountTable.from_json(state["ab_votes"]),
            histograms=CountTable.from_json(state["histograms"]),
        )
        for entry in state["rating"]:
            partial.rating[entry["key"]] = {
                "speed": StreamingMoments.from_json(entry["speed"]),
                "quality": StreamingMoments.from_json(entry["quality"]),
            }
        return partial

    def write(self, path: Union[str, Path]) -> None:
        """Atomically write the sealed partial state to ``path``."""
        from repro.testbed.store import atomic_write_text, seal_record

        atomic_write_text(path, json.dumps(seal_record(self.to_state())))

    @classmethod
    def load(cls, path: Union[str, Path],
             check_behaviour: bool = True) -> "StudyPartial":
        """Read one sealed partial, verifying checksum and behaviour pin."""
        from repro.testbed.harness import SIM_BEHAVIOUR_VERSION
        from repro.testbed.store import StaleCampaignError, record_intact

        try:
            state = json.loads(Path(path).read_text())
        except json.JSONDecodeError as error:
            raise ValueError(
                f"study partial {path} is torn (invalid JSON: {error}); "
                f"its worker crashed mid-flush") from None
        if not isinstance(state, dict) or not record_intact(state):
            raise ValueError(
                f"study partial {path} failed its checksum")
        recorded = state.get("sim_behaviour")
        if check_behaviour and recorded is not None and \
                recorded != SIM_BEHAVIOUR_VERSION:
            raise StaleCampaignError(
                f"study partial {path} was recorded under "
                f"SIM_BEHAVIOUR_VERSION={recorded}, but the current "
                f"simulator is version {SIM_BEHAVIOUR_VERSION}")
        return cls.from_state(state)


def partial_config(
    plan: StudyPlan,
    seed: int,
    participants_scale: float,
    block_size: int,
    groups: Sequence[str],
    params: PerceptionParams = DEFAULT_PARAMS,
) -> Dict[str, object]:
    """The merge identity shared by all shards of one study run."""
    return {
        "seed": int(seed),
        "participants_scale": float(participants_scale),
        "block_size": int(block_size),
        "groups": list(groups),
        "plan": {
            "sites": list(plan.sites),
            "networks": list(plan.networks),
            "stacks": list(plan.stacks),
            "pairs": [list(pair) for pair in plan.pairs],
        },
        "params": repr(params),
    }


def build_partial(
    index: ConditionIndex,
    plan: Optional[StudyPlan] = None,
    seed: int = 0,
    participants_scale: float = 1.0,
    params: PerceptionParams = DEFAULT_PARAMS,
    groups: Sequence[str] = GROUP_ORDER,
    shard: Tuple[int, int] = (0, 1),
    block_size: int = STUDY_BLOCK,
) -> StudyPartial:
    """Aggregate one participant-block shard of both studies.

    Runs the vectorized engines through the vote draws only — the
    funnel is a pure function of the violation flags, and no aggregate
    reads durations or event logs, so each block's timing tail is never
    drawn — and keeps only aggregates; memory stays O(conditions),
    independent of the participant count.
    """
    if participants_scale <= 0:
        raise ValueError("participants_scale must be positive")
    plan = plan if plan is not None else index.plan()
    partial = StudyPartial(config=partial_config(
        plan, seed, participants_scale, block_size, groups, params))
    partial.shards = [[int(shard[0]), int(shard[1])]]

    for group in groups:
        behavior = GROUPS[group]
        _accumulate_ab(
            partial, index, plan, group,
            scaled_participants(behavior.participants_ab,
                                participants_scale, group),
            seed, params, shard, block_size)
        _accumulate_rating(
            partial, index, plan, group,
            scaled_participants(behavior.participants_rating,
                                participants_scale, group),
            seed, params, shard, block_size)
    return partial


def _accumulate_ab(
    partial: StudyPartial,
    index: ConditionIndex,
    plan: StudyPlan,
    group: str,
    participants: int,
    seed: int,
    params: PerceptionParams,
    shard: Tuple[int, int],
    block_size: int,
) -> None:
    engine = AbEngine(group, plan, params, lookup=index.lookup,
                      block_size=block_size)
    pool = engine.pool
    funnel_key = _key(group, "ab")
    vote_counts = np.zeros((len(pool), 3), dtype=np.int64)
    replay_sums = np.zeros(len(pool), dtype=np.int64)
    saw_any = False

    for block in engine.blocks(participants, seed, shard=shard,
                               through="votes"):
        alive, funnel = funnel_from_flags(block.flags, group, "ab")
        partial.funnels.add_vector(funnel_key, funnel.as_row())
        if not alive.any():
            continue
        saw_any = True
        indices = block.indices[alive].ravel()
        votes = block.votes[alive].ravel().astype(np.int64)
        replays = block.replays[alive].ravel()
        vote_counts += np.bincount(
            indices * 3 + votes,
            minlength=len(pool) * 3).reshape(len(pool), 3)
        replay_sums += np.bincount(
            indices, weights=replays,
            minlength=len(pool)).astype(np.int64)

    if not saw_any:
        return
    for pool_index, condition in enumerate(pool):
        counts = vote_counts[pool_index]
        if not counts.any() and replay_sums[pool_index] == 0:
            continue
        partial.ab_votes.add_vector(
            _key(group, condition.website, condition.network,
                 condition.stack_a, condition.stack_b),
            [int(counts[0]), int(counts[1]), int(counts[2]),
             int(replay_sums[pool_index])],
        )


def _accumulate_rating(
    partial: StudyPartial,
    index: ConditionIndex,
    plan: StudyPlan,
    group: str,
    participants: int,
    seed: int,
    params: PerceptionParams,
    shard: Tuple[int, int],
    block_size: int,
) -> None:
    engine = RatingEngine(group, plan, params, lookup=index.lookup,
                          block_size=block_size)
    funnel_key = _key(group, "rating")
    # Per (context pool index): running (n, Σx, Σx²) per score kind,
    # folded into Welford moments once per condition at the end.
    sums = [
        {which: (np.zeros(len(table.pool), dtype=np.int64),
                 np.zeros(len(table.pool)),
                 np.zeros(len(table.pool)))
         for which in ("speed", "quality")}
        for table in engine.tables
    ]
    hist = [np.zeros((len(table.pool), SCORE_BINS), dtype=np.int64)
            for table in engine.tables] if group == "internet" else None

    for block in engine.blocks(participants, seed, shard=shard,
                               through="votes"):
        alive, funnel = funnel_from_flags(block.flags, group, "rating")
        partial.funnels.add_vector(funnel_key, funnel.as_row())
        if not alive.any():
            continue
        column = 0
        for t, (table, indices) in enumerate(
                zip(engine.tables, block.indices)):
            take = indices.shape[1]
            span = slice(column, column + take)
            column += take
            idx = indices[alive].ravel()
            npool = len(table.pool)
            for which, matrix in (("speed", block.speed),
                                  ("quality", block.quality)):
                scores = matrix[alive, span].ravel()
                count, total, total_sq = sums[t][which]
                count += np.bincount(idx, minlength=npool)
                total += np.bincount(idx, weights=scores,
                                     minlength=npool)
                total_sq += np.bincount(idx, weights=scores * scores,
                                        minlength=npool)
            if hist is not None:
                # Speed-score histogram, for exact internet medians
                # (Figure 3 uses the speed votes).
                scores = block.speed[alive, span].ravel()
                bins = scores.astype(np.int64) - SCALE_MIN
                hist[t] += np.bincount(
                    idx * SCORE_BINS + bins,
                    minlength=npool * SCORE_BINS,
                ).reshape(npool, SCORE_BINS)

    for t, table in enumerate(engine.tables):
        for pool_index, condition in enumerate(table.pool):
            cell_key = _key(group, table.context, condition.website,
                            condition.network, condition.stack)
            for which in ("speed", "quality"):
                count, total, total_sq = sums[t][which]
                if count[pool_index] == 0:
                    continue
                moments = _moments_from_sums(
                    int(count[pool_index]), float(total[pool_index]),
                    float(total_sq[pool_index]))
                partial.rating_cell(cell_key)[which].merge(moments)
            if hist is not None and hist[t][pool_index].any():
                partial.histograms.add_vector(
                    _key("speed", condition.website, condition.network,
                         condition.stack),
                    [int(c) for c in hist[t][pool_index]])


def merge_partials(partials: Sequence[StudyPartial]) -> StudyPartial:
    """Merge shards into one partial (raises on empty or mixed configs)."""
    if not partials:
        raise ValueError("no study partials to merge")
    merged = partials[0]
    for partial in partials[1:]:
        merged.merge(partial)
    return merged


# -- report -------------------------------------------------------------------


def _histogram_median(counts: Sequence[int]) -> Optional[float]:
    """Exact ``statistics.median`` over an integer score histogram."""
    total = sum(counts)
    if total == 0:
        return None
    # The middle element(s) of the sorted expansion: positions
    # (total-1)//2 and total//2 (equal when total is odd).
    lower_pos, upper_pos = (total - 1) // 2, total // 2
    lower = upper = None
    cumulative = 0
    for offset, count in enumerate(counts):
        cumulative += count
        if lower is None and cumulative > lower_pos:
            lower = SCALE_MIN + offset
        if cumulative > upper_pos:
            upper = SCALE_MIN + offset
            break
    return (lower + upper) / 2.0


@dataclass
class StudyReport:
    """Rendered-ready study aggregates from merged partials."""

    funnels: List[FilterFunnel]
    ab_shares: Dict[Tuple[str, str], AbShares]
    rating_cells: List[RatingCell]
    agreement: List[ConditionAgreement]
    heatmap: Optional[CorrelationHeatmap]

    def render(self, reference: bool = True) -> str:
        from repro.report.tables import (
            render_figure3,
            render_figure4,
            render_figure5,
            render_figure6,
            render_table3,
        )

        sections = [render_table3(
            self.funnels, PAPER_TABLE3 if reference else None)]
        if self.agreement:
            sections.append(render_figure3(self.agreement))
        if self.ab_shares:
            sections.append(render_figure4(self.ab_shares))
        if self.rating_cells:
            sections.append(render_figure5(self.rating_cells))
        if self.heatmap is not None:
            sections.append(render_figure6(self.heatmap))
        return "\n\n".join(sections)


def build_report(partial: StudyPartial,
                 index: Optional[ConditionIndex] = None,
                 confidence: float = 0.99) -> StudyReport:
    """Table 3 + Figures 3-6 structures from one (merged) partial.

    ``index`` supplies the technical metrics for the Figure 6
    correlation heatmap; without it the heatmap is omitted.
    """
    funnels: List[FilterFunnel] = []
    for group in partial.config.get("groups", GROUP_ORDER):
        for study in ("ab", "rating"):
            funnel = partial.funnel(str(group), study)
            if funnel is not None:
                funnels.append(funnel)
    return StudyReport(
        funnels=funnels,
        ab_shares=ab_vote_shares(partial),
        rating_cells=rating_means(partial, confidence=confidence),
        agreement=agreement_by_condition(partial, confidence),
        heatmap=correlation_heatmap(partial, index)
        if index is not None else None,
    )


#: Fields of a rating-cell key, in key order.
_RATING_FIELDS = ("group", "context", "website", "network", "stack")


def rating_moments(
    partial: StudyPartial,
    group: str,
    by: Sequence[str],
    which: str = "speed",
    where: Optional[Callable[[Dict[str, str]], bool]] = None,
) -> Dict[Tuple[str, ...], StreamingMoments]:
    """One group's ``which``-score moments, merged down to ``by`` fields.

    Cells merge in partial order, so every figure sees the same floats
    however it groups them. ``where`` filters cells by their key fields.
    """
    if which not in ("speed", "quality"):
        raise KeyError(f"unknown score {which!r}")
    merged: Dict[Tuple[str, ...], StreamingMoments] = {}
    for key, cell in partial.rating.items():
        fields = dict(zip(_RATING_FIELDS, key.split(_SEP)))
        if fields["group"] != group or (where and not where(fields)):
            continue
        merged.setdefault(tuple(fields[name] for name in by),
                          StreamingMoments()).merge(cell[which].copy())
    return merged


def ab_vote_shares(partial: StudyPartial, group: str = "microworker"
                   ) -> Dict[Tuple[str, str], AbShares]:
    """Figure 4: a group's vote shares per (pair label, network), summed
    across websites."""
    sums: Dict[Tuple[str, str], List[int]] = {}
    for key, counts in partial.ab_votes.items():
        cell_group, _, network, stack_a, stack_b = key.split(_SEP)
        if cell_group != group:
            continue
        cell = sums.setdefault((f"{stack_a} vs. {stack_b}", network),
                               [0, 0, 0, 0])
        for position, count in enumerate(counts):
            cell[position] += count
    return {
        (pair_label, network): AbShares(
            pair_label=pair_label, network=network, votes_a=votes[0],
            votes_same=votes[1], votes_b=votes[2],
            mean_replays=votes[3] / total if (total := sum(votes[:3]))
            else 0.0,
        )
        for (pair_label, network), votes in sums.items()
    }


def rating_means(partial: StudyPartial, which: str = "speed",
                 confidence: float = 0.99) -> List[RatingCell]:
    """Figure 5: µWorker mean vote + CI per (context, network, stack)."""
    cells = rating_moments(partial, "microworker",
                           ("context", "network", "stack"), which)
    return [RatingCell(context=context, network=network, stack=stack,
                       ci=moments.ci(confidence))
            for (context, network, stack), moments in sorted(cells.items())]


def anova_by_setting(partial: StudyPartial,
                     which: str = "speed") -> List[SettingAnova]:
    """Figure 5 significance: one-way ANOVA of the µWorker votes over the
    stacks per setting.

    The paper: "using a significance level of 99% ... we do not find any
    significant protocol/network configuration"; at 90% three settings
    differ.
    """
    settings: Dict[Tuple[str, str], List[StreamingMoments]] = {}
    for (context, network, _), moments in rating_moments(
            partial, "microworker", ("context", "network", "stack"),
            which).items():
        settings.setdefault((context, network), []).append(moments)
    return [SettingAnova(context=context, network=network,
                         result=anova_from_moments(stacks))
            for (context, network), stacks in sorted(settings.items())]


#: The Table 1 comparison pairs of the Section 4.4 drill-down.
WEBSITE_STACK_PAIRS = (("QUIC", "TCP"), ("QUIC", "TCP+"), ("TCP+", "TCP"),
                       ("QUIC+BBR", "TCP+BBR"))


def per_website_differences(
    partial: StudyPartial,
    which: str = "speed",
    alpha: float = 0.10,
    stack_pairs: Sequence[Tuple[str, str]] = WEBSITE_STACK_PAIRS,
) -> List[WebsiteDifference]:
    """Section 4.4: websites where one stack is rated significantly better.

    Pairwise Welch tests per website and network, on the µWorker votes
    of every context.
    """
    cells = rating_moments(partial, "microworker",
                           ("website", "network", "stack"), which)
    differences: List[WebsiteDifference] = []
    for website in sorted({key[0] for key in cells}):
        for network in sorted({key[1] for key in cells}):
            for stack_x, stack_y in stack_pairs:
                x = cells.get((website, network, stack_x))
                y = cells.get((website, network, stack_y))
                if x is None or y is None:
                    continue
                p = x.welch_p(y)
                if p >= alpha:
                    continue
                faster, slower = (stack_x, stack_y) if x.mean > y.mean \
                    else (stack_y, stack_x)
                differences.append(WebsiteDifference(
                    website=website, network=network, faster_stack=faster,
                    slower_stack=slower,
                    mean_difference=abs(x.mean - y.mean), p_value=p))
    return differences


def agreement_by_condition(partial: StudyPartial,
                           confidence: float = 0.99
                           ) -> List[ConditionAgreement]:
    """Figure 3: per lab-tested condition, lab/µWorker mean+CI vs the
    Internet median, ordered by the lab mean."""
    by = ("website", "network", "stack")
    lab = rating_moments(partial, "lab", by)
    microworker = rating_moments(partial, "microworker", by)
    rows: List[ConditionAgreement] = []
    for condition in sorted(lab):
        mw = microworker.get(condition)
        hist_row = partial.histograms.row(_key("speed", *condition))
        rows.append(ConditionAgreement(
            condition=condition,
            lab=lab[condition].ci(confidence)
            if lab[condition].count else None,
            microworker=mw.ci(confidence)
            if mw is not None and mw.count else None,
            internet_median=_histogram_median(hist_row)
            if hist_row is not None else None,
        ))
    rows.sort(key=lambda row: row.lab.mean if row.lab else 0.0)
    return rows


def correlation_heatmap(partial: StudyPartial,
                        index: ConditionIndex
                        ) -> Optional[CorrelationHeatmap]:
    """Figure 6: Pearson r of per-site mean µWorker speed votes against
    each technical metric, per (stack, network).

    DSL/LTE use the free-time votes and the plane networks the plane
    votes (:data:`CONTEXTS_FOR_NETWORK`). None when no (stack, network)
    has two sites.
    """
    votes = rating_moments(
        partial, "microworker", ("website", "network", "stack"),
        where=lambda f: CONTEXTS_FOR_NETWORK.get(
            f["network"], f["context"]) == f["context"])
    stacks = sorted({key[2] for key in votes})
    networks = sorted({key[1] for key in votes})
    values: Dict[Tuple[str, str, str], float] = {}
    for stack in stacks:
        for network in networks:
            sites = sorted({key[0] for key in votes
                            if key[1] == network and key[2] == stack})
            if len(sites) < 2:
                continue
            mean_votes = [votes[(site, network, stack)].mean
                          for site in sites]
            for metric in METRIC_ORDER:
                metric_values = [
                    index.lookup(site, network, stack)
                    .selected_metrics[metric]
                    for site in sites
                ]
                values[(stack, metric, network)] = pearson_r(
                    metric_values, mean_votes)
    if not values:
        return None
    return CorrelationHeatmap(values=values, stacks=tuple(stacks),
                              networks=tuple(networks))


# -- warm serve index ---------------------------------------------------------


class StudyIndex:
    """Warm per-condition lookups for ``repro study --serve``.

    Construction does all the work (aggregating the partial into plain
    dicts); :meth:`query` is pure dictionary lookups plus a little
    formatting, so each request answers well inside the latency budget.
    """

    def __init__(self, index: ConditionIndex,
                 partial: Optional[StudyPartial] = None,
                 confidence: float = 0.99):
        self._conditions: Dict[Tuple[str, str, str], ConditionStats] = {}
        self._mos: Dict[Tuple[str, str, str, str, str, str], dict] = {}
        self._ab: Dict[Tuple[str, str, str, str, str], dict] = {}
        self._anchors: Dict[Tuple[str, str], float] = {}
        for website in index.websites:
            for network in index.networks:
                stacks = [stack for stack in index.stacks
                          if (website, network, stack) in index]
                for stack in stacks:
                    self._conditions[(website, network, stack)] = \
                        index.lookup(website, network, stack)
                if stacks:
                    self._anchors.update(compute_anchors(
                        index.lookup, [website], [network], stacks))
        if partial is not None:
            for key, cell in partial.rating.items():
                group, context, website, network, stack = key.split(_SEP)
                for which in ("speed", "quality"):
                    moments = cell[which]
                    if moments.count == 0:
                        continue
                    ci = moments.ci(confidence)
                    self._mos[(group, context, website, network, stack,
                               which)] = {
                        "mos": moments.mean,
                        "n": moments.count,
                        "ci": [ci.lower, ci.upper],
                    }
            for key, counts in partial.ab_votes.items():
                group, website, network, stack_a, stack_b = \
                    key.split(_SEP)
                total = counts[0] + counts[1] + counts[2]
                if total == 0:
                    continue
                self._ab[(group, website, network, stack_a, stack_b)] = {
                    "votes": {"a": counts[0], "same": counts[1],
                              "b": counts[2]},
                    "shares": {
                        "a": counts[0] / total,
                        "same": counts[1] / total,
                        "b": counts[2] / total,
                    },
                    "n": total,
                    "mean_replays": counts[3] / total,
                }

    @property
    def conditions(self) -> int:
        return len(self._conditions)

    def query(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one request; never raises (errors come back as JSON)."""
        try:
            return self._dispatch(request)
        except Exception as error:  # noqa: BLE001 - protocol boundary
            # str(KeyError) wraps its message in quotes; unwrap it.
            message = error.args[0] if isinstance(error, KeyError) \
                and error.args else str(error)
            return {"ok": False, "error": str(message)}

    def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "condition":
            stats = self._condition(request)
            return {"ok": True, "op": "condition",
                    "website": stats.website, "network": stats.network,
                    "stack": stats.stack,
                    "metrics": dict(stats.selected_metrics),
                    "video_duration": stats.video_duration}
        if op == "mos":
            return self._query_mos(request)
        if op == "ab":
            return self._query_ab(request)
        return {"ok": False,
                "error": f"unknown op {op!r}; expected one of "
                         f"ping/condition/mos/ab"}

    def _condition(self, request: Dict[str, object]) -> ConditionStats:
        key = (str(request.get("website")), str(request.get("network")),
               str(request.get("stack")))
        stats = self._conditions.get(key)
        if stats is None:
            raise KeyError(f"unknown condition {'/'.join(key)}")
        return stats

    def _query_mos(self, request: Dict[str, object]) -> Dict[str, object]:
        stats = self._condition(request)
        group = str(request.get("group", "microworker"))
        context = str(request.get("context", "free_time"))
        which = str(request.get("which", "speed"))
        observed = self._mos.get((group, context, stats.website,
                                  stats.network, stats.stack, which))
        # Model prediction is always available (it only needs the
        # condition's SI and the across-stack anchor); observed study
        # moments ride along when the partial covered this cell.
        from repro.study.perception import true_opinion

        anchor = self._anchors.get((stats.website, stats.network),
                                   stats.si)
        predicted = true_opinion(stats.si, context, anchor_si=anchor)
        response: Dict[str, object] = {
            "ok": True, "op": "mos", "website": stats.website,
            "network": stats.network, "stack": stats.stack,
            "context": context, "which": which, "group": group,
            "predicted_mos": predicted,
        }
        if observed is not None:
            response.update(observed)
        return response

    def _ab_cells(self, group, website, network, stack_a, stack_b):
        if website is not None:
            cell = self._ab.get((group, str(website), network,
                                 stack_a, stack_b))
            return [cell] if cell is not None else []
        return [cell for key, cell in self._ab.items()
                if key[0] == group and key[2] == network
                and key[3] == stack_a and key[4] == stack_b]

    def _query_ab(self, request: Dict[str, object]) -> Dict[str, object]:
        group = str(request.get("group", "microworker"))
        network = str(request.get("network"))
        stack_a = str(request.get("stack_a"))
        stack_b = str(request.get("stack_b"))
        website = request.get("website")
        # Vote cells are stored in the study plan's pair orientation;
        # answer the reversed question too by swapping the a/b tallies.
        flipped = False
        cells = self._ab_cells(group, website, network, stack_a, stack_b)
        if not cells:
            cells = self._ab_cells(group, website, network,
                                   stack_b, stack_a)
            flipped = True
        if not cells:
            where = f"{website}/{network}" if website is not None \
                else network
            raise KeyError(f"no A/B votes for {group} {where}/"
                           f"{stack_a} vs {stack_b}")
        votes = {"a": 0, "same": 0, "b": 0}
        replays = 0.0
        for cell in cells:
            for side in votes:
                votes[side] += cell["votes"][side]
            replays += cell["mean_replays"] * cell["n"]
        if flipped:
            votes["a"], votes["b"] = votes["b"], votes["a"]
        total = sum(votes.values())
        return {
            "ok": True, "op": "ab", "group": group, "network": network,
            "stack_a": stack_a, "stack_b": stack_b,
            "website": website,
            "votes": votes,
            "shares": {side: count / total
                       for side, count in votes.items()},
            "n": total,
            "mean_replays": replays / total,
        }
