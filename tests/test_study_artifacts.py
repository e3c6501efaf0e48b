"""Paper-artifact pins: every study artifact stays byte-stable.

Rebuilds the study's paper artifacts on the small shared testbed — the
Table 3 funnel, Figures 3-6, the Figure 5 ANOVA lines, the Section 4.2
and 4.4 lines, the Figure 3 vote-distribution checks and the sha256 of
every CSV of the data release — and compares them against
``tests/data/study_artifacts.json``. The fixture was recorded from the
session-object implementation these artifacts used to come from, so a
mismatch means a change moved a figure. Regenerate it only for an
intentional output change::

    PYTHONPATH=src python tests/test_study_artifacts.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.stats import is_normal
from repro.report import (
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_table3,
)
from repro.study.design import GROUP_ORDER, PAPER_TABLE3, StudyPlan
from repro.study.export import export_rows
from repro.study.pipeline import (
    ConditionIndex,
    ab_vote_shares,
    agreement_by_condition,
    anova_by_setting,
    build_partial,
    build_report,
    correlation_heatmap,
    per_website_differences,
    rating_means,
)
from repro.study.rows import behaviour_statistics, rows_by_study
from repro.testbed.harness import Testbed

FIXTURE_PATH = Path(__file__).parent / "data" / "study_artifacts.json"


def anova_lines(anovas) -> List[str]:
    lines = []
    for setting in anovas:
        p = setting.result.p_value if setting.result else float("nan")
        lines.append(
            f"  {setting.context:10s}/{setting.network:6s} p={p:8.4f} "
            f"sig@99%={setting.significant(0.01)} "
            f"sig@90%={setting.significant(0.10)}")
    return lines


def sec44_lines(diffs) -> List[str]:
    lines = [
        f"  {d.network:6s} {d.website:18s} {d.faster_stack:9s} over "
        f"{d.slower_stack:9s} (+{d.mean_difference:4.1f} points, "
        f"p={d.p_value:.3f})"
        for d in sorted(diffs, key=lambda d: (d.network, d.website))]
    lines.append(
        f"  winners: {dict(Counter(d.faster_stack for d in diffs))}")
    return lines


def sec42_lines(rows) -> List[str]:
    lines = []
    for group in GROUP_ORDER:
        for study in ("ab", "rating"):
            stats = behaviour_statistics(rows[(group, study)])
            ages = ", ".join(f"{name}={share:.6f}"
                             for name, share in stats.age_distribution)
            lines.append(
                f"  {group:12s} {study:7s} n={stats.sessions} "
                f"s/video={stats.mean_seconds_per_video:.6f} "
                f"replays={stats.mean_replays:.6f} "
                f"normal={stats.votes_normal} "
                f"male={stats.male_share:.6f} ages[{ages}]")
    return lines


def vote_distribution_lines(rows) -> List[str]:
    lines = []
    for group in GROUP_ORDER:
        votes = rows[(group, "rating")].trials["speed"].ravel().tolist()
        boundary = sum(1 for v in votes if v <= 10 or v >= 70) / len(votes)
        lines.append(f"{group}: normal={is_normal(votes)} "
                     f"boundary={boundary:.6f} n={len(votes)}")
    return lines


def build_artifacts(testbed: Testbed, config: Dict[str, object],
                    release_dir: Path) -> Dict[str, object]:
    """Every pinned artifact of one study over ``testbed``."""
    plan = StudyPlan(sites=config["sites"])
    index = ConditionIndex.from_testbed(testbed, plan)
    seed, scale = config["seed"], config["participants_scale"]
    partial = build_partial(index, plan, seed=seed,
                            participants_scale=scale)
    rows = rows_by_study(index, plan, seed=seed, participants_scale=scale)
    report = build_report(partial, index)
    heatmap = correlation_heatmap(partial, index)
    means = heatmap.mean_r_by_metric()
    written = export_rows(rows.values(), index, release_dir)
    return {
        "config": config,
        "table3": render_table3(report.funnels, PAPER_TABLE3),
        "figure3": render_figure3(agreement_by_condition(partial)),
        "figure4": render_figure4(ab_vote_shares(partial)),
        "figure4_lab": render_figure4(ab_vote_shares(partial, "lab")),
        "figure5": render_figure5(rating_means(partial)),
        "figure5_quality": render_figure5(rating_means(partial, "quality")),
        "anova": anova_lines(anova_by_setting(partial)),
        "anova_quality": anova_lines(anova_by_setting(partial, "quality")),
        "figure6": render_figure6(heatmap) + "\n\nmean r per metric: "
        + ", ".join(f"{k}={v:.2f}" for k, v in sorted(means.items())),
        "sec42": sec42_lines(rows),
        "sec44": sec44_lines(per_website_differences(partial)),
        "sec44_quality": sec44_lines(
            per_website_differences(partial, "quality", alpha=0.2)),
        "vote_distributions": vote_distribution_lines(rows),
        "csv_sha256": {path.name: hashlib.sha256(path.read_bytes())
                       .hexdigest() for path in written},
    }


def _expected() -> Dict[str, object]:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def artifacts(small_testbed, tmp_path_factory):
    config = _expected()["config"]
    assert config["runs"] == small_testbed.runs
    assert config["testbed_seed"] == small_testbed.seed
    return build_artifacts(small_testbed, config,
                           tmp_path_factory.mktemp("release"))


@pytest.mark.parametrize("name", sorted(set(_expected()) - {"config"}))
def test_artifact_matches_fixture(artifacts, name):
    assert artifacts[name] == _expected()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_study_artifacts.py --write")
    config = _expected()["config"]
    with tempfile.TemporaryDirectory() as tmp:
        testbed = Testbed(runs=config["runs"], seed=config["testbed_seed"],
                          cache_dir=str(Path(tmp) / "cache"))
        testbed.sweep(sites=config["sites"])
        fresh = build_artifacts(testbed, config, Path(tmp) / "release")
    FIXTURE_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {FIXTURE_PATH}")
