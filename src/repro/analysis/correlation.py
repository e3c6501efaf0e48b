"""Figure 6: Pearson correlation of technical metrics with user ratings.

"We calculate Pearson's correlation coefficient of the votes compared to
the technical metrics by first calculating the mean vote for each website
and combining it with the technical metric." High negative values mean
the metric linearly tracks the users' experience; the paper finds SI
best and PLT worst, with magnitudes growing as networks slow down.
Computed from merged study partials by
:func:`repro.study.pipeline.correlation_heatmap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Optional, Tuple

#: Row order of the Figure 6 heatmap.
METRIC_ORDER = ("FVC", "SI", "VC85", "LVC", "PLT")


@dataclass
class CorrelationHeatmap:
    """r values indexed by (stack, metric, network)."""

    values: Dict[Tuple[str, str, str], float]
    stacks: Tuple[str, ...]
    networks: Tuple[str, ...]
    metrics: Tuple[str, ...] = METRIC_ORDER

    def r(self, stack: str, metric: str, network: str) -> Optional[float]:
        return self.values.get((stack, metric, network))

    def best_metric(self, stack: str, network: str) -> Optional[str]:
        """Metric with the strongest (most negative) correlation."""
        candidates = [
            (metric, self.values[(stack, metric, network)])
            for metric in self.metrics
            if (stack, metric, network) in self.values
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda kv: kv[1])[0]

    def mean_r_by_metric(self) -> Dict[str, float]:
        """Average r per metric across all cells (overall ranking)."""
        sums: Dict[str, List[float]] = {}
        for (_, metric, _), r in self.values.items():
            sums.setdefault(metric, []).append(r)
        return {metric: fmean(rs) for metric, rs in sums.items()}
