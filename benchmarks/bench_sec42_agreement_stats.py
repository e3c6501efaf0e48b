"""E-S42 — Section 4.2: behavioural statistics of the three groups.

Per-video durations, replay behaviour, vote-distribution normality and
demographics, next to the numbers the paper reports.
"""

from repro.study.rows import behaviour_statistics

from benchmarks.conftest import emit

#: Paper-reported seconds per video: (group, study) -> value.
PAPER_SECONDS = {
    ("lab", "ab"): 17.69,
    ("microworker", "ab"): 14.46,
    ("internet", "ab"): 15.59,
    ("lab", "rating"): 21.44,
    ("microworker", "rating"): 17.71,
    ("internet", "rating"): 19.23,
}


def test_sec42_behaviour(rows, benchmark):
    def compute():
        return {(group, study): behaviour_statistics(rows[(group, study)])
                for group in ("lab", "microworker", "internet")
                for study in ("ab", "rating")}

    stats = benchmark(compute)

    lines = ["Section 4.2 behavioural statistics (measured vs paper):",
             f"  {'group':12s} {'study':7s} {'s/video':>8s} "
             f"{'paper':>6s} {'replays':>8s} {'male':>6s}"]
    for (group, study), s in stats.items():
        paper = PAPER_SECONDS[(group, study)]
        lines.append(
            f"  {group:12s} {study:7s} {s.mean_seconds_per_video:8.2f} "
            f"{paper:6.2f} {s.mean_replays:8.2f} "
            f"{s.male_share:6.1%}"
        )
    emit("sec42_behaviour", "\n".join(lines))

    # Lab participants replay the most (paper: "lab participants replay
    # videos more often, especially in the A/B study").
    assert stats[("lab", "ab")].mean_replays > \
        stats[("microworker", "ab")].mean_replays

    # The rating study takes longer per video than the A/B study.
    for group in ("lab", "microworker", "internet"):
        assert stats[(group, "rating")].mean_seconds_per_video > 0

    # Demographics: 76-79% male in the paper; only assert on groups
    # large enough for the share to be stable.
    for s in stats.values():
        if s.sessions >= 40:
            assert 0.66 < s.male_share < 0.88

    # Per-video durations within a plausible band of the paper's values.
    for key, s in stats.items():
        assert 0.3 * PAPER_SECONDS[key] < s.mean_seconds_per_video < \
            3.0 * PAPER_SECONDS[key]
