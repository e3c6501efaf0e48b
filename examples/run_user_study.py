#!/usr/bin/env python3
"""Run a miniature version of both user studies end to end.

Reproduces the paper's full pipeline on a reduced scale: record the study
conditions, simulate A/B and rating participants for all three subject
groups, apply the R1-R7 conformance filters (Table 3), print the
vote-share figure (Figure 4) and the rating means with ANOVA verdicts
(Figure 5), and write the CSV data release.

Run:  python examples/run_user_study.py
      (first run simulates a few hundred page loads; results are cached
      under .repro-cache for subsequent runs)
"""

from pathlib import Path

from repro import ConditionIndex, StudyPlan, Testbed
from repro.report import render_figure4, render_figure5, render_table3
from repro.study.export import export_rows
from repro.study.pipeline import (
    anova_by_setting,
    build_partial,
    build_report,
)
from repro.study.rows import rows_by_study

SITES = ["wikipedia.org", "gov.uk", "etsy.com", "spotify.com",
         "apache.org", "wordpress.com"]


def main() -> None:
    print("Recording study conditions (cached after the first run)...")
    testbed = Testbed(runs=5, seed=3)
    plan = StudyPlan(sites=SITES)
    testbed.sweep(sites=SITES)

    print("Simulating participants (3 groups x 2 studies)...\n")
    index = ConditionIndex.from_testbed(testbed, plan)
    partial = build_partial(index, plan, seed=1, participants_scale=0.3)
    report = build_report(partial, index)

    print(render_table3(report.funnels))
    print()

    print(render_figure4(report.ab_shares))
    print()

    print(render_figure5(report.rating_cells))
    print()

    print("ANOVA across stacks per setting (the 'do users care?' test):")
    for setting in anova_by_setting(partial):
        p = setting.result.p_value if setting.result else float("nan")
        verdict = ("significant at 99%" if setting.significant(0.01)
                   else "significant at 90%" if setting.significant(0.10)
                   else "no significant difference")
        print(f"  {setting.context:10s}/{setting.network:6s}: "
              f"p={p:6.3f} -> {verdict}")

    # The paper publishes its study data (study.netray.io); do the same.
    release = Path("results/study-data")
    rows = rows_by_study(index, plan, seed=1, participants_scale=0.3)
    written = export_rows(rows.values(), index, release)
    print(f"\nwrote the study-data release ({len(written)} CSV files) "
          f"to {release}/")

    print("\nTakeaway (paper, Section 5): users *notice* QUIC in direct")
    print("comparison, but in isolation they rate the stacks alike —")
    print("except on slow, lossy networks, where QUIC trends better.")


if __name__ == "__main__":
    main()
