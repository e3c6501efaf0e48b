"""Figure 5 and Section 4.4: rating means, ANOVA and per-site effects.

Computed from the rating moments of merged study partials by
:func:`repro.study.pipeline.rating_means`,
:func:`~repro.study.pipeline.anova_by_setting` and
:func:`~repro.study.pipeline.per_website_differences`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import AnovaResult, MeanCI


@dataclass
class RatingCell:
    """One bar of Figure 5: (context, network, stack)."""

    context: str
    network: str
    stack: str
    ci: MeanCI

    @property
    def mean(self) -> float:
        return self.ci.mean


@dataclass
class SettingAnova:
    """ANOVA across stacks within one (context, network) setting."""

    context: str
    network: str
    result: Optional[AnovaResult]

    def significant(self, alpha: float) -> bool:
        return self.result is not None and self.result.significant(alpha)


@dataclass
class WebsiteDifference:
    """One significant per-website stack difference (Section 4.4)."""

    website: str
    network: str
    faster_stack: str
    slower_stack: str
    mean_difference: float
    p_value: float
