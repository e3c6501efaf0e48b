"""repro: a reproduction of "Perceiving QUIC: Do Users Notice or Even
Care?" (Rüth, Wolsing, Wehrle, Hohlfeld — CoNEXT 2019).

The package rebuilds the paper's entire pipeline from scratch:

* :mod:`repro.netem` — packet-level network emulation (Table 2 profiles);
* :mod:`repro.transport` — TCP+TLS 1.3 and QUIC with Cubic/BBRv1
  (Table 1 stacks);
* :mod:`repro.http` — HTTP/2-over-TCP and HTTP/3-over-QUIC mappings;
* :mod:`repro.web` — the 36-site study corpus;
* :mod:`repro.browser` — page loads, visual-progress curves and the
  FVC/LVC/SI/VC85/PLT metrics;
* :mod:`repro.testbed` — cached condition sweeps;
* :mod:`repro.study` — both user studies with simulated participants,
  the R1-R7 conformance filters and the mergeable study pipeline;
* :mod:`repro.analysis` / :mod:`repro.report` — the analyses and ASCII
  renderings of Tables 1-3 and Figures 3-6.

Quickstart::

    from repro import (ConditionIndex, StudyPlan, Testbed, build_partial,
                       build_report)
    testbed = Testbed(runs=7)
    plan = StudyPlan(sites=["wikipedia.org", "gov.uk"])
    testbed.sweep(sites=plan.sites)
    index = ConditionIndex.from_testbed(testbed, plan)
    partial = build_partial(index, plan, seed=1, participants_scale=0.1)
    print(build_report(partial, index).render())   # Table 3, Figs. 3-6
"""

from repro.browser import compute_metrics, load_page, record_website
from repro.netem import NETWORKS, NetworkProfile, network_by_name
from repro.study import (
    ConditionIndex,
    StudyPlan,
    ab_vote_shares,
    agreement_by_condition,
    anova_by_setting,
    behaviour_statistics,
    build_partial,
    build_report,
    correlation_heatmap,
    per_website_differences,
    rating_means,
    study_rows,
)
from repro.testbed import RecordingSummary, Testbed
from repro.transport import STACKS, StackConfig, stack_by_name
from repro.web import build_corpus, build_site

__version__ = "1.0.0"

__all__ = [
    "Testbed",
    "RecordingSummary",
    "StudyPlan",
    "ConditionIndex",
    "build_partial",
    "build_report",
    "study_rows",
    "ab_vote_shares",
    "rating_means",
    "anova_by_setting",
    "per_website_differences",
    "agreement_by_condition",
    "behaviour_statistics",
    "correlation_heatmap",
    "load_page",
    "record_website",
    "compute_metrics",
    "build_corpus",
    "build_site",
    "NETWORKS",
    "NetworkProfile",
    "network_by_name",
    "STACKS",
    "StackConfig",
    "stack_by_name",
    "__version__",
]
