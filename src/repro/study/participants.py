"""Subject groups and participant behaviour.

Three groups (Section 4.1):

* **Lab** — supervised; diligent by construction (the supervisor checks
  that videos are watched), replays videos the most.
* **µWorker** — paid crowdworkers; a sizeable fraction rushes or cheats
  (votes before the first visual change, loses window focus, fails the
  control video/question), matching the heavy attrition in Table 3.
* **Internet** — volunteers recruited on social media; fewer outright
  cheaters than paid workers but noisy, heavy-tailed votes (their score
  distribution is not normal, which is why the paper falls back to the
  median for this group and ultimately excludes it).

Rule-violation probabilities are calibrated to reproduce the Table 3
funnel in expectation; they are *behaviour generation* parameters — the
filter implementation detects the planted behaviour from the session
event logs, it never reads these flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class ViolationRates:
    """Per-session probabilities of violating each filter rule."""

    not_played: float = 0.0        # R1
    stalled: float = 0.0           # R2 (technical, not cheating)
    focus_loss: float = 0.0        # R3
    vote_before_fvc: float = 0.0   # R4
    overtime: float = 0.0          # R5
    control_video_wrong: float = 0.0    # R6
    control_question_wrong: float = 0.0  # R7


@dataclass(frozen=True)
class GroupBehavior:
    """Static description of one subject group."""

    name: str
    #: Raw participants entering each study (Table 3 '-' column).
    participants_ab: int
    participants_rating: int
    #: Mean decision time added on top of watching the video (seconds).
    decision_time_ab: float
    decision_time_rating: float
    #: Poisson rate of replays for hard (low-evidence) comparisons.
    replay_rate: float
    #: Extra vote noise multiplier relative to the lab group.
    noise_multiplier: float
    #: Heavy-tailed votes (Student-t) instead of Gaussian noise.
    heavy_tailed: bool
    #: Violation rates per study.
    violations_ab: ViolationRates
    violations_rating: ViolationRates
    #: Demographics (Section 4.2).
    male_share: float
    age_groups: Tuple[Tuple[str, float], ...]

    def violations(self, study: str) -> ViolationRates:
        if study == "ab":
            return self.violations_ab
        if study == "rating":
            return self.violations_rating
        raise KeyError(f"unknown study {study!r}")


# Violation rates are the conditional attrition ratios of Table 3.
LAB = GroupBehavior(
    name="lab",
    participants_ab=35,
    participants_rating=35,
    decision_time_ab=6.5,
    decision_time_rating=8.0,
    replay_rate=0.9,
    noise_multiplier=1.0,
    heavy_tailed=False,
    violations_ab=ViolationRates(),
    violations_rating=ViolationRates(),
    male_share=0.78,
    age_groups=(("18-24", 0.60), ("25-44", 0.30), ("45+", 0.10)),
)

MICROWORKER = GroupBehavior(
    name="microworker",
    participants_ab=487,
    participants_rating=1563,
    decision_time_ab=4.0,
    decision_time_rating=5.0,
    replay_rate=0.45,
    noise_multiplier=1.25,
    heavy_tailed=False,
    violations_ab=ViolationRates(
        not_played=0.033, stalled=0.064, focus_loss=0.195,
        vote_before_fvc=0.245, overtime=0.002,
        control_video_wrong=0.108, control_question_wrong=0.025,
    ),
    violations_rating=ViolationRates(
        not_played=0.044, stalled=0.116, focus_loss=0.217,
        vote_before_fvc=0.291, overtime=0.014,
        control_video_wrong=0.086, control_question_wrong=0.066,
    ),
    male_share=0.77,
    age_groups=(("18-24", 0.20), ("25-44", 0.66), ("45+", 0.14)),
)

INTERNET = GroupBehavior(
    name="internet",
    participants_ab=218,
    participants_rating=209,
    decision_time_ab=5.0,
    decision_time_rating=6.5,
    replay_rate=0.6,
    noise_multiplier=1.5,
    heavy_tailed=True,
    violations_ab=ViolationRates(
        not_played=0.005, stalled=0.032, focus_loss=0.067,
        vote_before_fvc=0.128, overtime=0.006,
        control_video_wrong=0.065, control_question_wrong=0.025,
    ),
    violations_rating=ViolationRates(
        not_played=0.024, stalled=0.049, focus_loss=0.113,
        vote_before_fvc=0.116, overtime=0.007,
        control_video_wrong=0.073, control_question_wrong=0.014,
    ),
    male_share=0.76,
    age_groups=(("18-24", 0.55), ("25-44", 0.35), ("45+", 0.10)),
)

GROUPS: Dict[str, GroupBehavior] = {
    "lab": LAB,
    "microworker": MICROWORKER,
    "internet": INTERNET,
}


@dataclass
class Participant:
    """One simulated participant with stable personal traits."""

    participant_id: int
    group: GroupBehavior
    rng: np.random.Generator
    jnd_threshold: float = field(init=False)
    rating_bias: float = field(init=False)
    diligence: float = field(init=False)
    gender: str = field(init=False)
    age_group: str = field(init=False)

    def __post_init__(self) -> None:
        # Traits are drawn once per participant from population priors.
        self.jnd_threshold = max(
            0.05, float(self.rng.normal(0.35, 0.12))
        )
        self.rating_bias = float(self.rng.normal(0.0, 4.0))
        self.diligence = float(self.rng.beta(5, 1.5))
        self.gender = "male" if self.rng.random() < self.group.male_share \
            else "female"
        groups, weights = zip(*self.group.age_groups)
        self.age_group = str(
            self.rng.choice(list(groups), p=np.array(weights) / sum(weights))
        )

    def replay_count(self, evidence_magnitude: float,
                     network: str) -> int:
        """Replays before answering: harder comparisons get replayed.

        The paper observed more replays on *faster* networks regardless of
        group — differences there are harder to spot.
        """
        difficulty = 1.0 / (1.0 + 2.0 * evidence_magnitude)
        fast_bonus = 1.3 if network in ("DSL", "LTE") else 0.7
        lam = self.group.replay_rate * difficulty * fast_bonus
        return int(self.rng.poisson(lam))


@dataclass(slots=True)
class TraitBlock:
    """Stable personal traits of one participant block, as arrays.

    Column ``i`` holds participant ``start + i`` of the block. Drawn in
    one fixed sequence per block (see :mod:`repro.study.engine` for the
    draw contract), so the scalar reference path and the vectorized path
    consume identical values.
    """

    jnd_threshold: np.ndarray
    rating_bias: np.ndarray
    diligence: np.ndarray
    male: np.ndarray
    age_index: np.ndarray
    age_names: Tuple[str, ...]

    @property
    def size(self) -> int:
        return int(self.jnd_threshold.size)


def draw_trait_block(rng: np.random.Generator, group: GroupBehavior,
                     size: int) -> TraitBlock:
    """Draw the population priors for ``size`` participants at once.

    Same priors as :meth:`Participant.__post_init__`, but one batched
    draw per trait instead of five scalar draws per participant. The age
    group is realised as an inverse-CDF lookup on a single uniform.
    """
    jnd = np.maximum(0.05, rng.normal(0.35, 0.12, size))
    bias = rng.normal(0.0, 4.0, size)
    diligence = rng.beta(5.0, 1.5, size)
    male = rng.random(size) < group.male_share
    names, weights = zip(*group.age_groups)
    cumulative = np.cumsum(np.asarray(weights, dtype=float)
                           / float(sum(weights)))
    age_index = np.minimum(
        np.searchsorted(cumulative, rng.random(size), side="right"),
        len(names) - 1,
    )
    return TraitBlock(
        jnd_threshold=jnd,
        rating_bias=bias,
        diligence=diligence,
        male=male,
        age_index=age_index,
        age_names=tuple(str(name) for name in names),
    )
