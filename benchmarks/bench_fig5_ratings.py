"""E-F5 — Figure 5: rating means per stack and setting + ANOVA.

Regenerates the bar figure for the µWorker group and asserts the paper's
headline: no protocol/network setting differs significantly at the 99%
level; the plane context is rated poor; work and free time are similar.
"""

from statistics import fmean

from repro.report import render_figure5
from repro.study.pipeline import anova_by_setting, rating_means

from benchmarks.conftest import emit


def test_fig5_rating_means(partial, benchmark):
    cells = benchmark(rating_means, partial)
    text = render_figure5(cells)

    anovas = anova_by_setting(partial)
    lines = [text, "", "One-way ANOVA across stacks per setting:"]
    for setting in anovas:
        p = setting.result.p_value if setting.result else float("nan")
        lines.append(
            f"  {setting.context:10s}/{setting.network:6s} p={p:8.4f} "
            f"sig@99%={setting.significant(0.01)} "
            f"sig@90%={setting.significant(0.10)}"
        )
    emit("figure5", "\n".join(lines))

    # Paper: "we do not find any significant protocol/network
    # configuration" at 99%.
    assert not any(s.significant(0.01) for s in anovas)

    # Plane consistently poor; work/free-time similar on DSL/LTE.
    def mean_for(context):
        return fmean(c.mean for c in cells if c.context == context)

    assert mean_for("plane") < mean_for("work") - 10
    assert abs(mean_for("work") - mean_for("free_time")) < 6


def test_fig5_quality_score_variant(partial, benchmark):
    """The second question (loading-process quality) behaves alike."""
    cells = benchmark(rating_means, partial, which="quality")
    plane = [c.mean for c in cells if c.context == "plane"]
    work = [c.mean for c in cells if c.context == "work"]
    assert fmean(plane) < fmean(work)
