"""E-F4 — Figure 4: A/B vote shares per protocol pair and network.

Regenerates the stacked-vote figure and asserts the paper's qualitative
findings: QUIC is perceived as faster (against stock and tuned TCP),
differences are hardest to spot on DSL, TCP beats TCP+ on DA2GC but not
on MSS, and replay counts are higher on the fast networks.
"""

from repro.report import render_figure4
from repro.study.pipeline import ab_vote_shares

from benchmarks.conftest import emit


def test_fig4_vote_shares(partial, benchmark):
    shares = benchmark(ab_vote_shares, partial)
    emit("figure4", render_figure4(shares))

    def cell(pair, network):
        return shares[(pair, network)]

    # LTE: the supposedly better variant wins clearly (Section 4.3).
    assert cell("QUIC vs. TCP", "LTE").share_a > 0.5
    assert cell("QUIC vs. TCP+", "LTE").share_a > \
        cell("QUIC vs. TCP+", "LTE").share_b

    # MSS: QUIC preferred across the board, TCP+ beats TCP again.
    assert cell("QUIC vs. TCP", "MSS").share_a > 0.55
    assert cell("QUIC+BBR vs. TCP+BBR", "MSS").share_a > 0.5
    assert cell("TCP+ vs. TCP", "MSS").share_a > \
        cell("TCP+ vs. TCP", "MSS").share_b

    # DA2GC: "TCP is now favored in contrast to our tuned variant".
    assert cell("TCP+ vs. TCP", "DA2GC").share_b > \
        cell("TCP+ vs. TCP", "DA2GC").share_a
    # QUIC does not suffer the same way.
    assert cell("QUIC vs. TCP+", "DA2GC").share_a > \
        cell("QUIC vs. TCP+", "DA2GC").share_b

    # DSL: spotting differences is hard — "no difference" is a large
    # share for the TCP-family comparison.
    assert cell("TCP+ vs. TCP", "DSL").share_same > 0.25


def test_fig4_replays_higher_on_fast_networks(partial, benchmark):
    shares = benchmark(ab_vote_shares, partial)
    fast = [c.mean_replays for (_, n), c in shares.items()
            if n in ("DSL", "LTE")]
    slow = [c.mean_replays for (_, n), c in shares.items()
            if n in ("DA2GC", "MSS")]
    assert sum(fast) / len(fast) > sum(slow) / len(slow)


def test_fig4_lab_group_same_direction(partial, benchmark):
    """The supervised lab group reaches the same qualitative verdicts."""
    shares = benchmark(ab_vote_shares, partial, "lab")
    cell = shares.get(("QUIC vs. TCP", "MSS"))
    if cell is not None and cell.total >= 10:
        assert cell.share_a > cell.share_b
