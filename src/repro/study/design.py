"""Study designs: conditions, contexts, scales and per-group video counts.

Section 4 of the paper:

* **A/B study**: two recordings of the same website over the same network
  but different stacks, side by side; answer "left/right/no difference"
  plus a confidence rating.
* **Rating study**: one recording; rate loading-speed satisfaction and
  loading-process quality on a 7-point linear scale (ITU-T P.851 labels)
  mapped to 10..70 with granularity 1. Contexts: at work / in your free
  time (DSL+LTE videos) and on a plane (DA2GC+MSS videos).

Video counts per group (Section 4.1): Lab 28 A/B and 11+11+5 rating;
µWorker 26 and 11+11+5; Internet 14 and 6+6+3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.netem.profiles import NETWORKS
from repro.transport.config import AB_PAIRS, STACKS
from repro.web.corpus import CORPUS_SITE_NAMES, LAB_SITE_NAMES

#: The seven-point linear scale, mapped to 10..70 (ITU-T P.851 [8]).
SCALE_LABELS = (
    "extremely bad", "bad", "poor", "fair", "good", "excellent", "ideal",
)
SCALE_MIN = 10
SCALE_MAX = 70


def scale_label(score: float) -> str:
    """Nearest label for a 10..70 score."""
    index = int(round((min(max(score, SCALE_MIN), SCALE_MAX) - 10) / 10))
    return SCALE_LABELS[index]


#: Rating-study environments and the networks whose videos they show.
CONTEXTS: Dict[str, Tuple[str, ...]] = {
    "work": ("DSL", "LTE"),
    "free_time": ("DSL", "LTE"),
    "plane": ("DA2GC", "MSS"),
}

#: Videos shown per group in the A/B study.
AB_VIDEO_COUNTS: Dict[str, int] = {
    "lab": 28,
    "microworker": 26,
    "internet": 14,
}

#: Videos shown per group and context in the rating study.
RATING_VIDEO_COUNTS: Dict[str, Dict[str, int]] = {
    "lab": {"work": 11, "free_time": 11, "plane": 5},
    "microworker": {"work": 11, "free_time": 11, "plane": 5},
    "internet": {"work": 6, "free_time": 6, "plane": 3},
}

#: Raw participation per group and study (Table 3, '-' column).
PARTICIPATION: Dict[str, Dict[str, int]] = {
    "lab": {"ab": 35, "rating": 35},
    "microworker": {"ab": 487, "rating": 1563},
    "internet": {"ab": 218, "rating": 209},
}

#: The three subject groups, in Table 3 order.
GROUP_ORDER = ("lab", "microworker", "internet")

#: The paper's Table 3 reference values, for side-by-side reports.
PAPER_TABLE3: Dict[Tuple[str, str], List[int]] = {
    ("lab", "ab"): [35, 35, 35, 35, 35, 35, 35, 35],
    ("lab", "rating"): [35, 35, 35, 35, 35, 35, 35, 35],
    ("microworker", "ab"): [487, 471, 441, 355, 268, 268, 239, 233],
    ("microworker", "rating"): [1563, 1494, 1321, 1034, 733, 723, 661, 614],
    ("internet", "ab"): [218, 217, 210, 196, 171, 170, 159, 155],
    ("internet", "rating"): [209, 204, 194, 172, 152, 151, 140, 138],
}


def scaled_participants(count: int, scale: float, group: str) -> int:
    """Scaled participation for one group.

    Only the supervised lab group is floored at 10 participants (its
    confidence intervals must stay meaningful); µWorker and Internet
    smoke campaigns scale all the way down, so a tiny ``scale`` no
    longer silently inflates their funnels.
    """
    scaled = max(1, int(round(count * scale)))
    if group == "lab":
        return max(10, scaled)
    return scaled


@dataclass(frozen=True)
class AbCondition:
    """One side-by-side comparison: same site and network, two stacks."""

    website: str
    network: str
    stack_a: str
    stack_b: str

    @property
    def pair_label(self) -> str:
        return f"{self.stack_a} vs. {self.stack_b}"

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.website, self.network, self.stack_a, self.stack_b)


@dataclass(frozen=True)
class RatingCondition:
    """One single-stimulus video."""

    website: str
    network: str
    stack: str

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.website, self.network, self.stack)


@dataclass
class StudyPlan:
    """Condition pools for both studies.

    ``sites`` restricts the corpus (the lab group is always further
    restricted to the five lab domains, mirroring Section 4.1).
    """

    sites: Sequence[str] = field(default_factory=lambda: CORPUS_SITE_NAMES)
    networks: Sequence[str] = field(
        default_factory=lambda: tuple(p.name for p in NETWORKS)
    )
    stacks: Sequence[str] = field(
        default_factory=lambda: tuple(s.name for s in STACKS)
    )
    pairs: Sequence[Tuple[str, str]] = field(
        default_factory=lambda: tuple((a.name, b.name) for a, b in AB_PAIRS)
    )

    def sites_for_group(self, group: str) -> List[str]:
        if group == "lab":
            return [s for s in self.sites if s in LAB_SITE_NAMES] or \
                list(LAB_SITE_NAMES)
        return list(self.sites)

    # -- pools ----------------------------------------------------------------

    def ab_pool(self, group: str) -> List[AbCondition]:
        """All A/B conditions available to a group."""
        pool: List[AbCondition] = []
        for site in self.sites_for_group(group):
            for network in self.networks:
                for stack_a, stack_b in self.pairs:
                    pool.append(AbCondition(site, network, stack_a, stack_b))
        return pool

    def rating_pool(self, group: str, context: str) -> List[RatingCondition]:
        """All rating conditions available to a group in one context."""
        if context not in CONTEXTS:
            raise KeyError(f"unknown context {context!r}")
        networks = [n for n in CONTEXTS[context] if n in self.networks]
        pool: List[RatingCondition] = []
        for site in self.sites_for_group(group):
            for network in networks:
                for stack in self.stacks:
                    pool.append(RatingCondition(site, network, stack))
        return pool

    # -- recording requirements ----------------------------------------------------

    def required_recordings(self) -> List[Tuple[str, str, str]]:
        """Every (site, network, stack) the studies may show."""
        needed = set()
        for site in self.sites:
            for network in self.networks:
                for stack in self.stacks:
                    needed.add((site, network, stack))
        return sorted(needed)
