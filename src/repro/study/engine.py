"""Vectorized study engine: the block-draw contract.

Participants are simulated in fixed-size blocks (:data:`STUDY_BLOCK`
columns). Each ``(study, group)`` pair owns a root entropy —
``spawn_rng(seed, study, group).integers(2**31)`` — and block ``b`` draws
from the RNG-tree child ``SeedSequence(entropy, spawn_key=(b,))``. Within
a block every source of randomness is drawn as one batched call in a
fixed order (the *draw contract* below), so:

* the vectorized kernels and the per-vote scalar reference
  (:mod:`repro.study.reference`) consume byte-identical streams and
  produce exactly equal studies (pinned by ``tests/test_study_equivalence``);
* any block — hence any participant — can be regenerated in isolation,
  which is what lets study work shard across campaign workers.

A/B draw contract per block (``n`` participants × ``V`` videos):

1. traits — 5 batched draws (:func:`~repro.study.participants.draw_trait_block`)
2. violation flags — one ``(7, n)`` uniform block
3. condition order — one row-wise pool permutation
4. side assignment — ``(n, V)`` uniforms
5. vote uniforms (detect / same / guess / confuse) — one ``(4, n, V)`` block
6. undetected-confidence uniforms, detected-confidence noise
7. rusher answers, confidences and durations
8. replays — one Poisson draw with per-trial rates
9. decision-time noise — ``N(0, 0.35)``
10. event-log draws (the R1-R7 event-log reference)

The rating contract is analogous (per-context permutations; two vote-noise
blocks; rusher score blocks; rusher durations, replays, decision-time
noise, event-log draws).

Each contract ends in a *tail* that only durations, rating replays and
event logs read: steps 9-10 on A/B, from rusher durations on in rating.
A caller draws only as far as it reads (``through``, one of
:data:`DRAW_DEPTHS`): :func:`~repro.study.pipeline.build_partial` stops
at ``"votes"``, rows and the reference oracle draw the ``"timing"``
tail, and the event-log reference goes on to ``"events"``. Stopping
early changes no kept draw: each block owns its generator and the tail
is that generator's last draws.

All branch thresholds that involve
transcendentals (the psychometric logistic, the confusion exponential,
the opinion curve) are evaluated through the shared ``*_np`` kernels in
:mod:`repro.study.perception`, never through :mod:`math`, keeping both
paths bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import axes
from repro.study.design import (
    AB_VIDEO_COUNTS,
    RATING_VIDEO_COUNTS,
    AbCondition,
    RatingCondition,
    StudyPlan,
)
from repro.study.participants import (
    GROUPS,
    TraitBlock,
    draw_trait_block,
)
from repro.study.perception import (
    DEFAULT_PARAMS,
    PerceptionParams,
    condition_appeal,
    confusion_probability_np,
    detection_probability_np,
    evidence,
    stall_score_np,
    true_opinion_np,
    quantize_score,
    website_appeal,
)
from repro.study.session import (
    EventDraws,
    draw_event_block,
    draw_violation_block,
    rusher_mask,
)
from repro.util.rng import spawn_rng

#: Participants per block: the sharding granularity of the study RNG tree.
STUDY_BLOCK = 256

#: How far down a block's draw contract a caller reads, shortest first.
DRAW_DEPTHS = ("votes", "timing", "events")

#: Condition-coordinate vote codes.
VOTE_A, VOTE_SAME, VOTE_B = 0, 1, 2
#: Screen-coordinate answer codes (the order of the rusher choice).
ANSWER_LEFT, ANSWER_RIGHT, ANSWER_SAME = 0, 1, 2


@dataclass(frozen=True, slots=True)
class ConditionStats:
    """The per-condition facts the perception models consume.

    A reduction of :class:`~repro.testbed.harness.RecordingSummary` to a
    few floats — small enough to index every condition of a campaign in
    memory, which is what makes warm ``repro study --serve`` lookups
    possible.
    """

    website: str
    network: str
    stack: str
    si: float
    fvc: float
    lvc: float
    vc85: float
    plt: float
    video_duration: float

    @property
    def selected_metrics(self) -> Dict[str, float]:
        """Metric mapping in the shape analyses expect."""
        return {"FVC": self.fvc, "SI": self.si, "VC85": self.vc85,
                "LVC": self.lvc, "PLT": self.plt}


def condition_stats(summary) -> ConditionStats:
    """Reduce a recording summary to :class:`ConditionStats`.

    A recording made off an optional axis's default (split-connection
    proxies, an in-path middlebox chain — see :mod:`repro.axes`) is a
    distinct viewing condition, so its network label is qualified with
    each such axis token in table order (``SAT+LAN@split``,
    ``SAT+LAN@ack-decimate``, ``SAT+LAN@split@adversarial``);
    everything downstream treats it as just another network axis value.
    Default recordings keep their plain label, so existing campaigns
    aggregate identically.
    """
    metrics = summary.selected_metrics
    network = "@".join([summary.network, *axes.non_default(
        axes.tokens_of(summary)).values()])
    return ConditionStats(
        website=summary.website,
        network=network,
        stack=summary.stack,
        si=float(metrics["SI"]),
        fvc=float(metrics["FVC"]),
        lvc=float(metrics["LVC"]),
        vc85=float(metrics["VC85"]),
        plt=float(metrics["PLT"]),
        video_duration=float(summary.video_duration),
    )


def study_entropy(seed: int, study: str, group: str) -> int:
    """Root entropy of one (study, group) block tree."""
    return int(spawn_rng(seed, study, group).integers(2 ** 31))


def block_rng(entropy: int, index: int) -> np.random.Generator:
    """Generator of block ``index`` — random access into the tree."""
    sequence = np.random.SeedSequence(entropy=entropy, spawn_key=(index,))
    # simlint: allow[no-ambient-rng] -- entropy comes from spawn_rng(seed, study, group); spawn_key gives shard workers O(1) random access to any block's stream
    return np.random.default_rng(sequence)


def _check_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
    index, step = int(shard[0]), int(shard[1])
    if step < 1 or not 0 <= index < step:
        raise ValueError(f"shard must be (index, step) with "
                         f"0 <= index < step, got {shard!r}")
    return index, step


def _check_depth(through: str) -> str:
    if through not in DRAW_DEPTHS:
        raise ValueError(f"through must be one of {DRAW_DEPTHS}, "
                         f"got {through!r}")
    return through


def _block_spans(participants: int,
                 block_size: int) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(block_index, start_pid, size)`` covering all participants."""
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    for b in range(-(-participants // block_size)):
        start = b * block_size
        yield b, start, min(block_size, participants - start)


def compute_anchors(lookup: Callable[[str, str, str], ConditionStats],
                    websites: Sequence[str], networks: Sequence[str],
                    stacks: Sequence[str]) -> Dict[Tuple[str, str], float]:
    """Expected pace per (website, network): across-stack median SI.

    The single-stimulus anchor of the rating model — the replacement for
    the testbed-bound ``_AnchorCache`` that works from any lookup.
    """
    anchors: Dict[Tuple[str, str], float] = {}
    for website in websites:
        for network in networks:
            values = sorted(lookup(website, network, stack).si
                            for stack in stacks)
            anchors[(website, network)] = values[len(values) // 2]
    return anchors


# -- A/B engine ---------------------------------------------------------------


@dataclass(slots=True)
class AbDraws:
    """Raw randomness of one A/B block, in contract order."""

    start: int
    traits: TraitBlock
    flags: np.ndarray          # (7, n) bool
    indices: np.ndarray        # (n, V) pool indices
    left_u: np.ndarray         # (n, V)
    detect_u: np.ndarray       # (n, V)
    same_u: np.ndarray         # (n, V)
    guess_u: np.ndarray        # (n, V)
    confuse_u: np.ndarray      # (n, V)
    conf_u: np.ndarray         # (n, V)
    conf_noise: np.ndarray     # (n, V) N(0, 0.08)
    rush_answer: np.ndarray    # (n, V) ints 0..2
    rush_conf: np.ndarray      # (n, V)
    rush_dur_u: np.ndarray     # (n, V)
    replays: np.ndarray        # (n, V) Poisson
    decision_noise: Optional[np.ndarray]  # (n, V) N(0, 0.35); timing tail
    events: Optional[EventDraws]


@dataclass(slots=True)
class AbBlock:
    """One computed A/B block: everything a row or aggregate needs."""

    start: int
    traits: TraitBlock
    flags: np.ndarray        # (7, n) bool
    rusher: np.ndarray       # (n,) bool
    indices: np.ndarray      # (n, V)
    left_is_a: np.ndarray    # (n, V) bool
    votes: np.ndarray        # (n, V) int8, condition coordinates
    answers: np.ndarray      # (n, V) int8, screen coordinates
    confidence: np.ndarray   # (n, V)
    replays: np.ndarray      # (n, V) int
    durations: Optional[np.ndarray]  # (n, V); None without the tail
    events: Optional[EventDraws]

    @property
    def size(self) -> int:
        return int(self.rusher.size)


class AbEngine:
    """Per-(group, plan) A/B study machinery shared by all code paths."""

    def __init__(
        self,
        group: str,
        plan: Optional[StudyPlan] = None,
        params: PerceptionParams = DEFAULT_PARAMS,
        lookup: Optional[Callable[[str, str, str], ConditionStats]] = None,
        block_size: int = STUDY_BLOCK,
    ):
        if lookup is None:
            raise ValueError("AbEngine needs a condition lookup")
        self.group = group
        self.behavior = GROUPS[group]
        self.plan = plan if plan is not None else StudyPlan()
        self.params = params
        self.block_size = block_size
        self.pool: List[AbCondition] = self.plan.ab_pool(group)
        if not self.pool:
            raise ValueError("A/B condition pool is empty")
        self.videos = min(AB_VIDEO_COUNTS[group], len(self.pool))

        stats_a = [lookup(c.website, c.network, c.stack_a)
                   for c in self.pool]
        stats_b = [lookup(c.website, c.network, c.stack_b)
                   for c in self.pool]
        self.signed = np.array(
            [evidence(a.si, b.si, params)
             for a, b in zip(stats_a, stats_b)], dtype=float)
        self.magnitude = np.abs(self.signed)
        self.p_confusion = confusion_probability_np(self.magnitude, params)
        self.video_len = np.array(
            [max(a.video_duration, b.video_duration)
             for a, b in zip(stats_a, stats_b)], dtype=float)
        fast_bonus = np.array(
            [1.3 if c.network in ("DSL", "LTE") else 0.7
             for c in self.pool], dtype=float)
        self.lam = (self.behavior.replay_rate
                    / (1.0 + 2.0 * self.magnitude)) * fast_bonus

    def draw(self, rng: np.random.Generator, start: int, size: int,
             through: str = "timing") -> AbDraws:
        """Draw one block following the contract (see module docstring)."""
        shape = (size, self.videos)
        traits = draw_trait_block(rng, self.behavior, size)
        flags = draw_violation_block(rng, self.behavior, "ab",
                                     traits.diligence)
        perm = rng.permuted(
            np.tile(np.arange(len(self.pool)), (size, 1)), axis=1)
        indices = perm[:, :self.videos]
        left_u = rng.random(shape)
        vote_u = rng.random((4,) + shape)
        conf_u = rng.random(shape)
        conf_noise = rng.normal(0.0, 0.08, shape)
        rush_answer = rng.integers(0, 3, shape)
        rush_conf = rng.random(shape)
        rush_dur_u = rng.random(shape)
        replays = rng.poisson(self.lam[indices])
        decision_noise = events = None
        if _check_depth(through) != "votes":
            decision_noise = rng.normal(0.0, 0.35, shape)
            if through == "events":
                events = draw_event_block(rng, size, self.videos)
        return AbDraws(
            start=start, traits=traits, flags=flags, indices=indices,
            left_u=left_u, detect_u=vote_u[0], same_u=vote_u[1],
            guess_u=vote_u[2], confuse_u=vote_u[3], conf_u=conf_u,
            conf_noise=conf_noise, rush_answer=rush_answer,
            rush_conf=rush_conf, rush_dur_u=rush_dur_u, replays=replays,
            decision_noise=decision_noise, events=events,
        )

    def blocks(
        self,
        participants: int,
        seed: int,
        shard: Tuple[int, int] = (0, 1),
        through: str = "timing",
        compute: Optional[Callable[[AbDraws, "AbEngine"], AbBlock]] = None,
    ) -> Iterator[AbBlock]:
        """Yield computed blocks of this study, in participant order,
        drawn as far down the contract as ``through`` names."""
        if compute is None:
            compute = compute_ab_block
        index, step = _check_shard(shard)
        entropy = study_entropy(seed, "ab", self.group)
        for b, start, size in _block_spans(participants, self.block_size):
            if b % step != index:
                continue
            rng = block_rng(entropy, b)
            yield compute(self.draw(rng, start, size, through), self)


def compute_ab_block(draws: AbDraws, engine: AbEngine) -> AbBlock:
    """Vectorized A/B votes for a whole block at once."""
    params = engine.params
    indices = draws.indices
    signed = engine.signed[indices]
    magnitude = engine.magnitude[indices]
    left_is_a = draws.left_u < 0.5

    p_detect = detection_probability_np(
        magnitude, draws.traits.jnd_threshold[:, None], params)
    detected = draws.detect_u < p_detect
    undetected = ~detected
    same_und = undetected & (draws.same_u < params.undetected_same_prob)
    guess_a = undetected & ~same_und & (draws.guess_u < 0.5)
    confused = detected & (draws.confuse_u < engine.p_confusion[indices])
    vote_a_detected = detected & ((signed > 0) ^ confused)

    votes = np.full(indices.shape, VOTE_B, dtype=np.int8)
    votes[same_und] = VOTE_SAME
    votes[vote_a_detected | guess_a] = VOTE_A

    confidence = np.where(
        detected,
        np.maximum(0.0, np.minimum(
            1.0, 0.4 + 0.5 * magnitude + draws.conf_noise)),
        np.where(same_und, 0.3 + 0.4 * draws.conf_u, 0.4 * draws.conf_u),
    )
    answers = np.where(
        votes == VOTE_SAME, ANSWER_SAME,
        np.where((votes == VOTE_A) == left_is_a,
                 ANSWER_LEFT, ANSWER_RIGHT),
    ).astype(np.int8)

    rusher = rusher_mask(draws.flags)
    rush = rusher[:, None]
    rush_answers = draws.rush_answer.astype(np.int8)
    rush_votes = np.where(
        rush_answers == ANSWER_SAME, VOTE_SAME,
        np.where((rush_answers == ANSWER_LEFT) == left_is_a,
                 VOTE_A, VOTE_B),
    ).astype(np.int8)

    durations = None
    if draws.decision_noise is not None:
        decision = np.exp(np.log(engine.behavior.decision_time_ab)
                          + draws.decision_noise)
        durations = np.where(
            rush, 1.0 + 3.0 * draws.rush_dur_u,
            engine.video_len[indices] * (1 + draws.replays) + decision)
    return AbBlock(
        start=draws.start,
        traits=draws.traits,
        flags=draws.flags,
        rusher=rusher,
        indices=indices,
        left_is_a=left_is_a,
        votes=np.where(rush, rush_votes, votes),
        answers=np.where(rush, rush_answers, answers),
        confidence=np.where(rush, draws.rush_conf, confidence),
        replays=np.where(rush, 0, draws.replays),
        durations=durations,
        events=draws.events,
    )


# -- rating engine ------------------------------------------------------------


@dataclass(slots=True)
class RatingDraws:
    """Raw randomness of one rating block, in contract order."""

    start: int
    traits: TraitBlock
    flags: np.ndarray                     # (7, n) bool
    indices: Tuple[np.ndarray, ...]       # per context, (n, take)
    speed_noise: np.ndarray               # (n, V)
    quality_noise: np.ndarray             # (n, V)
    rush_speed: np.ndarray                # (n, V) ints 10..70
    rush_quality: np.ndarray              # (n, V) ints 10..70
    # The timing tail: None when drawn only through "votes".
    rush_dur_u: Optional[np.ndarray]      # (n, V)
    replays: Optional[np.ndarray]         # (n, V) Poisson
    decision_noise: Optional[np.ndarray]  # (n, V) N(0, 0.35)
    events: Optional[EventDraws]


@dataclass(slots=True)
class RatingBlock:
    """One computed rating block."""

    start: int
    traits: TraitBlock
    flags: np.ndarray         # (7, n) bool
    rusher: np.ndarray        # (n,) bool
    indices: Tuple[np.ndarray, ...]
    speed: np.ndarray         # (n, V) quantized scores
    quality: np.ndarray       # (n, V)
    replays: Optional[np.ndarray]    # (n, V) int; None without the tail
    durations: Optional[np.ndarray]  # (n, V); None without the tail
    events: Optional[EventDraws]

    @property
    def size(self) -> int:
        return int(self.rusher.size)


@dataclass(slots=True)
class RatingContextTable:
    """Per-condition rating model inputs for one context pool."""

    context: str
    take: int
    pool: List[RatingCondition]
    base: np.ndarray            # noise-free opinion incl. appeal
    stall: np.ndarray
    video_len: np.ndarray


class RatingEngine:
    """Per-(group, plan) rating study machinery shared by all paths."""

    def __init__(
        self,
        group: str,
        plan: Optional[StudyPlan] = None,
        params: PerceptionParams = DEFAULT_PARAMS,
        lookup: Optional[Callable[[str, str, str], ConditionStats]] = None,
        block_size: int = STUDY_BLOCK,
    ):
        if lookup is None:
            raise ValueError("RatingEngine needs a condition lookup")
        self.group = group
        self.behavior = GROUPS[group]
        self.plan = plan if plan is not None else StudyPlan()
        self.params = params
        self.block_size = block_size
        self.noise_scale = params.rating_noise_sd \
            * self.behavior.noise_multiplier

        pools = {context: self.plan.rating_pool(group, context)
                 for context in RATING_VIDEO_COUNTS[group]}
        stacks = list(self.plan.stacks)
        # Per (website, network): the across-stack median SI and the
        # appeal offset, each computed once however many pools show it.
        anchors: Dict[Tuple[str, str], float] = {}
        appeals: Dict[Tuple[str, str], float] = {}
        for pool in pools.values():
            for c in pool:
                key = (c.website, c.network)
                if key not in anchors:
                    values = sorted(lookup(c.website, c.network, stack).si
                                    for stack in stacks)
                    anchors[key] = values[len(values) // 2]
                    appeals[key] = website_appeal(c.website, params) \
                        + condition_appeal(c.website, c.network, params)
        self.tables: List[RatingContextTable] = []
        for context, count in RATING_VIDEO_COUNTS[group].items():
            pool = pools[context]
            if not pool:
                raise ValueError(f"rating pool for {context!r} is empty")
            stats = [lookup(c.website, c.network, c.stack) for c in pool]
            si = np.array([s.si for s in stats], dtype=float)
            anchor = np.array(
                [anchors[(c.website, c.network)] for c in pool], dtype=float)
            salience = 1.0 / (1.0 + np.maximum(anchor, 0.0)
                              / params.appeal_salience_scale)
            appeal = np.array(
                [appeals[(c.website, c.network)] for c in pool], dtype=float)
            base = true_opinion_np(si, context, params, anchor) \
                + salience * appeal
            stall = stall_score_np(np.array([s.fvc for s in stats]),
                                   np.array([s.lvc for s in stats]))
            video_len = np.array([s.video_duration for s in stats],
                                 dtype=float)
            self.tables.append(RatingContextTable(
                context=context, take=min(count, len(pool)), pool=pool,
                base=base, stall=stall, video_len=video_len,
            ))
        self.videos = sum(table.take for table in self.tables)

    def draw(self, rng: np.random.Generator, start: int, size: int,
             through: str = "timing") -> RatingDraws:
        """Draw one block following the contract (see module docstring)."""
        shape = (size, self.videos)
        traits = draw_trait_block(rng, self.behavior, size)
        flags = draw_violation_block(rng, self.behavior, "rating",
                                     traits.diligence)
        indices = tuple(
            rng.permuted(np.tile(np.arange(len(table.pool)), (size, 1)),
                         axis=1)[:, :table.take]
            for table in self.tables
        )
        if self.behavior.heavy_tailed:
            speed_noise = rng.standard_t(2, shape) * self.noise_scale
            quality_noise = rng.standard_t(2, shape) * self.noise_scale
        else:
            speed_noise = rng.normal(0.0, self.noise_scale, shape)
            quality_noise = rng.normal(0.0, self.noise_scale, shape)
        rush_speed = rng.integers(10, 71, shape)
        rush_quality = rng.integers(10, 71, shape)
        rush_dur_u = replays = decision_noise = events = None
        if _check_depth(through) != "votes":
            rush_dur_u = rng.random(shape)
            replays = rng.poisson(0.25 * self.behavior.replay_rate, shape)
            decision_noise = rng.normal(0.0, 0.35, shape)
            if through == "events":
                events = draw_event_block(rng, size, self.videos)
        return RatingDraws(
            start=start, traits=traits, flags=flags, indices=indices,
            speed_noise=speed_noise, quality_noise=quality_noise,
            rush_speed=rush_speed, rush_quality=rush_quality,
            rush_dur_u=rush_dur_u, replays=replays,
            decision_noise=decision_noise, events=events,
        )

    def blocks(
        self,
        participants: int,
        seed: int,
        shard: Tuple[int, int] = (0, 1),
        through: str = "timing",
        compute: Optional[Callable[["RatingDraws", "RatingEngine"],
                                   RatingBlock]] = None,
    ) -> Iterator[RatingBlock]:
        """Yield computed blocks of this study, in participant order,
        drawn as far down the contract as ``through`` names."""
        if compute is None:
            compute = compute_rating_block
        index, step = _check_shard(shard)
        entropy = study_entropy(seed, "rating", self.group)
        for b, start, size in _block_spans(participants, self.block_size):
            if b % step != index:
                continue
            rng = block_rng(entropy, b)
            yield compute(self.draw(rng, start, size, through), self)


def compute_rating_block(draws: RatingDraws,
                         engine: RatingEngine) -> RatingBlock:
    """Vectorized rating scores for a whole block at once."""
    params = engine.params
    base = np.concatenate(
        [table.base[idx]
         for table, idx in zip(engine.tables, draws.indices)], axis=1)
    stall = np.concatenate(
        [table.stall[idx]
         for table, idx in zip(engine.tables, draws.indices)], axis=1)

    bias = draws.traits.rating_bias[:, None]
    speed = quantize_score(base + bias + draws.speed_noise)
    quality = quantize_score(
        base + bias - params.quality_stall_penalty * stall
        + draws.quality_noise)

    rusher = rusher_mask(draws.flags)
    rush = rusher[:, None]
    replays = durations = None
    if draws.decision_noise is not None:
        video_len = np.concatenate(
            [table.video_len[idx]
             for table, idx in zip(engine.tables, draws.indices)], axis=1)
        decision = np.exp(np.log(engine.behavior.decision_time_rating)
                          + draws.decision_noise)
        replays = np.where(rush, 0, draws.replays)
        durations = np.where(
            rush, 1.0 + 3.0 * draws.rush_dur_u,
            video_len * (1 + draws.replays) + decision)
    return RatingBlock(
        start=draws.start,
        traits=draws.traits,
        flags=draws.flags,
        rusher=rusher,
        indices=draws.indices,
        speed=np.where(rush, draws.rush_speed.astype(float), speed),
        quality=np.where(rush, draws.rush_quality.astype(float), quality),
        replays=replays,
        durations=durations,
        events=draws.events,
    )
