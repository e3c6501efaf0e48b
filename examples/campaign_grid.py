#!/usr/bin/env python3
"""Declarative campaigns with streaming reports.

The paper's grid is 36 sites x 4 networks x 5 stacks; a CampaignSpec
describes any axis product — here a loss sweep over DSL plus a
trace-driven cellular downlink, two seeds each — and the Campaign
executes it over a process pool with live progress. Kill it at any
point and re-run: finished conditions are loaded from the manifest and
the content-addressed cache, never re-simulated.

Results stream rather than batch-load: a GridReport accumulates each
summary as its condition settles (the ``sink`` argument — the
``repro campaign --report`` pipeline as an API), and SummaryStore
reopens the finished campaign directory post-hoc to aggregate again
along a different axis without re-running or holding the grid in
memory.

Run:  python examples/campaign_grid.py
"""

from repro.analysis.streaming import GridReport, grid_report
from repro.netem.profiles import DSL, trace_profile, with_loss
from repro.netem.trace import cellular_like_trace
from repro.report import render_grid
from repro.testbed import (
    Campaign,
    CampaignSpec,
    ProgressPrinter,
    SummaryStore,
)


def main() -> None:
    networks = [
        DSL,                                    # the paper's baseline
        with_loss(DSL, 0.02),                   # loss sweep beyond Table 2
        with_loss(DSL, 0.05),
        trace_profile(                          # trace-driven downlink
            "cell6", cellular_like_trace(6.0, duration_ms=4000, seed=4),
            min_rtt_ms=60.0,
        ),
    ]
    spec = CampaignSpec(
        sites=["gov.uk", "apache.org", "wikipedia.org"],
        networks=networks,
        stacks=["TCP", "QUIC"],
        seeds=[0, 1],                           # repetition axis
        runs=3,
        name="loss-and-trace-demo",
    )
    print(f"{len(spec.conditions())} conditions; "
          f"manifest keyed by spec fingerprint {spec.fingerprint()}")

    # Summaries flow into the report as conditions settle — no
    # post-processing pass over a materialised summary list.
    report = GridReport(rows=("network",), cols="stack", metric="SI")
    campaign = Campaign(spec, cache_dir=".repro-cache")
    result = campaign.run(
        processes=2,
        failure_policy="retry",
        progress=ProgressPrinter(),
        sink=lambda condition, summary: report.add(condition.key, summary),
    )
    print(f"\n{result.counts} in {result.duration_s:.1f}s "
          f"— run me again: everything resumes from "
          f"{campaign.manifest_path}")

    print()
    print(render_grid(report))

    # Post-hoc: reopen the finished campaign directory and pivot along
    # a different axis — one summary in memory at a time, nothing
    # re-simulated.
    store = SummaryStore.open(campaign.campaign_dir,
                              cache_dir=".repro-cache")
    by_site = grid_report(store, rows=("website",), cols="stack",
                          metric="PLT")
    print()
    print(render_grid(by_site))

    # Need the raw summaries rather than an aggregate? Iterate them
    # lazily in sweep order, one summary in memory at a time.
    slowest = max(campaign.iter_summaries(),
                  key=lambda pair: pair[1].si)
    print(f"\nslowest condition by SI: {slowest[0].label} "
          f"({slowest[1].si:.2f} s)")
    # Scaling the same grid over many cooperating workers/hosts:
    # examples/distributed_campaign.py.


if __name__ == "__main__":
    main()
