"""User-study simulation: the paper's two QoE studies.

The human studies themselves are irreproducible, so this package replaces
the participants with psychometric models (documented and calibrated in
:mod:`repro.study.perception`) while keeping every other part of the
paper's pipeline real: the study designs and video counts
(:mod:`repro.study.design`), the three subject groups with their
behavioural quirks (:mod:`repro.study.participants`) and the seven
conformance filter rules R1-R7 (:mod:`repro.study.filtering`).

Participants are simulated in blocks by the vectorized engines
(:mod:`repro.study.engine`); :mod:`repro.study.pipeline` folds the
blocks into mergeable partials and the paper's Table 3 and Figures 3-6,
and :mod:`repro.study.rows` reads their surviving rows for Section 4.2
and the CSV data release (:mod:`repro.study.export`).
"""

from repro.study.design import (
    AB_VIDEO_COUNTS,
    CONTEXTS,
    GROUP_ORDER,
    PAPER_TABLE3,
    RATING_VIDEO_COUNTS,
    SCALE_LABELS,
    AbCondition,
    RatingCondition,
    StudyPlan,
    scaled_participants,
)
from repro.study.engine import (
    STUDY_BLOCK,
    AbEngine,
    ConditionStats,
    RatingEngine,
    condition_stats,
)
from repro.study.filtering import FILTER_RULES, FilterFunnel, funnel_from_flags
from repro.study.participants import GROUPS, GroupBehavior, Participant
from repro.study.pipeline import (
    ConditionIndex,
    StudyIndex,
    StudyPartial,
    StudyReport,
    ab_vote_shares,
    agreement_by_condition,
    anova_by_setting,
    build_partial,
    build_report,
    correlation_heatmap,
    merge_partials,
    per_website_differences,
    rating_means,
)
from repro.study.rows import StudyRows, behaviour_statistics, study_rows

__all__ = [
    "StudyPlan",
    "AbCondition",
    "RatingCondition",
    "CONTEXTS",
    "SCALE_LABELS",
    "AB_VIDEO_COUNTS",
    "RATING_VIDEO_COUNTS",
    "GROUP_ORDER",
    "PAPER_TABLE3",
    "scaled_participants",
    "FilterFunnel",
    "FILTER_RULES",
    "funnel_from_flags",
    "GROUPS",
    "GroupBehavior",
    "Participant",
    "STUDY_BLOCK",
    "AbEngine",
    "RatingEngine",
    "ConditionStats",
    "condition_stats",
    "ConditionIndex",
    "StudyPartial",
    "StudyIndex",
    "StudyReport",
    "build_partial",
    "build_report",
    "merge_partials",
    "ab_vote_shares",
    "rating_means",
    "anova_by_setting",
    "per_website_differences",
    "agreement_by_condition",
    "correlation_heatmap",
    "StudyRows",
    "study_rows",
    "behaviour_statistics",
]
