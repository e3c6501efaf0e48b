"""E-F6 — Figure 6: Pearson correlation of technical metrics with votes.

Regenerates the heatmap (metrics x networks per stack, DSL/LTE from the
free-time context) and asserts the two findings the paper draws from it:
the Speed Index family correlates best and PLT worst, and correlations
strengthen as the network slows down.
"""

from statistics import fmean

from repro.report import render_figure6
from repro.study.pipeline import correlation_heatmap

from benchmarks.conftest import emit


def test_fig6_heatmap(partial, index, benchmark):
    heatmap = benchmark(correlation_heatmap, partial, index)
    means = heatmap.mean_r_by_metric()
    summary = ", ".join(f"{k}={v:.2f}" for k, v in sorted(means.items()))
    emit("figure6", render_figure6(heatmap) +
         f"\n\nmean r per metric: {summary}")

    # All metrics track perception (negative correlation on average).
    assert all(v < 0 for v in means.values())

    # "SI shows the largest correlation ... PLT [has] the worst
    # correlation", comparing the visual-pace family against PLT.
    assert means["SI"] < means["PLT"]
    assert min(means["SI"], means["FVC"], means["VC85"]) < means["PLT"]


def test_fig6_slower_networks_correlate_stronger(partial, index, benchmark):
    heatmap = benchmark(correlation_heatmap, partial, index)

    def mean_r(networks):
        values = [r for (stack, metric, network), r in
                  heatmap.values.items()
                  if network in networks and metric == "SI"]
        return fmean(values) if values else 0.0

    fast = mean_r(("DSL",))
    slow = mean_r(("DA2GC", "MSS"))
    # More negative on the slow networks.
    assert slow < fast + 0.05
