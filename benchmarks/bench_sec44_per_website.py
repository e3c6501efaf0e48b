"""E-S44 — Section 4.4: per-website significant rating differences.

The paper drills into individual sites: a handful per network differ
significantly (at 90%), mostly in QUIC's favour, and many-host sites
point towards QUIC. Regenerates that drill-down.
"""

from collections import Counter

from repro.study.pipeline import per_website_differences
from repro.web.corpus import build_site

from benchmarks.conftest import emit


def test_sec44_per_website_differences(partial, benchmark):
    diffs = benchmark(per_website_differences, partial)

    lines = ["Section 4.4: websites with significant (90%) rating "
             "differences:"]
    for d in sorted(diffs, key=lambda d: (d.network, d.website)):
        lines.append(
            f"  {d.network:6s} {d.website:18s} {d.faster_stack:9s} over "
            f"{d.slower_stack:9s} (+{d.mean_difference:4.1f} points, "
            f"p={d.p_value:.3f})"
        )
    by_winner = Counter(d.faster_stack for d in diffs)
    lines.append(f"  winners: {dict(by_winner)}")
    emit("sec44_per_website", "\n".join(lines))

    # Only a minority of conditions differ (the paper found 3-8 sites
    # per network out of 36).
    networks = {d.network for d in diffs}
    assert len(diffs) < 80

    # QUIC-family stacks win more often than TCP-family stacks.
    quic_wins = sum(n for stack, n in by_winner.items()
                    if stack.startswith("QUIC"))
    tcp_wins = sum(n for stack, n in by_winner.items()
                   if stack.startswith("TCP"))
    assert quic_wins >= tcp_wins


def test_sec44_quic_sites_are_multi_host(partial, benchmark):
    """'Only many contacted systems seem to point towards QUIC.'"""
    diffs = benchmark(per_website_differences, partial)
    quic_sites = {d.website for d in diffs
                  if d.faster_stack.startswith("QUIC")}
    if quic_sites:
        host_counts = [build_site(site, seed=0).host_count
                       for site in quic_sites]
        assert max(host_counts) >= 3
