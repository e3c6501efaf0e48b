"""E-F3 — Figure 3: do the three subject groups agree?

Per lab-tested rating condition: lab and µWorker means with 99% CIs and
the Internet median, ordered by the lab mean. The paper's conclusion —
µWorker votes mostly fall inside the lab CIs, Internet votes deviate —
is asserted on the regenerated data.
"""

from repro.analysis.stats import is_normal
from repro.report import render_figure3
from repro.study.pipeline import agreement_by_condition

from benchmarks.conftest import emit


def test_fig3_agreement(partial, benchmark):
    rows = benchmark(agreement_by_condition, partial)
    emit("figure3", render_figure3(rows))
    assert rows

    checkable = [r for r in rows if r.microworker_within_lab_ci is not None]
    agreeing = sum(1 for r in checkable if r.microworker_within_lab_ci)
    # "µWorkers seem to fall mostly within the confidence intervals of
    # the lab study".
    assert agreeing / len(checkable) > 0.6


def test_fig3_vote_distributions(rows, benchmark):
    """Lab and µWorker votes are ~normal; Internet votes are not."""
    def votes(group):
        return rows[(group, "rating")].trials["speed"].ravel().tolist()

    internet_normal = benchmark(is_normal, votes("internet"))
    assert not internet_normal

    # Heavy tails survive the 10..70 clipping as boundary pile-up: the
    # Internet group hits the scale ends far more often.
    def boundary_share(values):
        return sum(1 for v in values if v <= 10 or v >= 70) / len(values)

    assert boundary_share(votes("internet")) > \
        boundary_share(votes("microworker"))
