"""Figure 4: A/B vote shares per protocol pair and network.

Computed from merged study partials by
:func:`repro.study.pipeline.ab_vote_shares`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AbShares:
    """Vote shares for one (pair, network) cell of Figure 4."""

    pair_label: str
    network: str
    votes_a: int
    votes_same: int
    votes_b: int
    mean_replays: float

    @property
    def total(self) -> int:
        return self.votes_a + self.votes_same + self.votes_b

    @property
    def share_a(self) -> float:
        return self.votes_a / self.total if self.total else 0.0

    @property
    def share_same(self) -> float:
        return self.votes_same / self.total if self.total else 0.0

    @property
    def share_b(self) -> float:
        return self.votes_b / self.total if self.total else 0.0

    @property
    def preferred(self) -> str:
        """Which side got more votes ("a", "b" or "same")."""
        best = max(("a", self.votes_a), ("same", self.votes_same),
                   ("b", self.votes_b), key=lambda kv: kv[1])
        return best[0]
