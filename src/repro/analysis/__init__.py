"""Analyses reproducing the paper's tables and figures.

* :mod:`repro.analysis.stats` — CI, normality, ANOVA, Pearson building
  blocks (scipy-backed).
* :mod:`repro.analysis.ab` — Figure 4 vote shares and replay counts.
* :mod:`repro.analysis.rating` — Figure 5 means/CIs, ANOVA significance
  and Section 4.4's per-website differences.
* :mod:`repro.analysis.agreement` — Figure 3 group agreement.
* :mod:`repro.analysis.correlation` — Figure 6 metric-vs-vote Pearson
  heatmap.

The figure modules hold result types only; the study pipeline
(:mod:`repro.study.pipeline`) computes them from merged partials.
* :mod:`repro.analysis.streaming` — mergeable incremental accumulators
  (moments, histogram, per-axis group-by, pivoted grid reports) for
  O(axes)-memory aggregation of streamed campaign summaries.
"""

from repro.analysis.ab import AbShares
from repro.analysis.agreement import ConditionAgreement
from repro.analysis.correlation import CorrelationHeatmap
from repro.analysis.rating import RatingCell, SettingAnova, WebsiteDifference
from repro.analysis.power import (
    minimum_detectable_effect,
    paper_study_power,
    two_sample_power,
)
from repro.analysis.significance import (
    benjamini_hochberg,
    bonferroni,
    expected_false_positives,
)
from repro.analysis.stats import (
    anova_oneway,
    is_normal,
    mean_ci_from_stats,
    mean_confidence_interval,
    pearson_r,
    welch_ttest_p,
    welch_ttest_p_from_stats,
)
from repro.analysis.streaming import (
    AxisAccumulator,
    GridReport,
    StreamingHistogram,
    StreamingMoments,
    anova_from_moments,
    grid_report,
)

__all__ = [
    "AbShares",
    "RatingCell",
    "SettingAnova",
    "WebsiteDifference",
    "ConditionAgreement",
    "CorrelationHeatmap",
    "mean_confidence_interval",
    "mean_ci_from_stats",
    "is_normal",
    "anova_oneway",
    "anova_from_moments",
    "pearson_r",
    "welch_ttest_p",
    "welch_ttest_p_from_stats",
    "AxisAccumulator",
    "GridReport",
    "grid_report",
    "StreamingHistogram",
    "StreamingMoments",
    "two_sample_power",
    "minimum_detectable_effect",
    "paper_study_power",
    "bonferroni",
    "benjamini_hochberg",
    "expected_false_positives",
]
