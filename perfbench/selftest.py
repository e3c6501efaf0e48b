"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

They run every workload at its minimal size (set-up plus the fewest
repetitions the correctness checks need), untraced and traced, so they
take a few minutes; they are kept out of the repository's tier-1 suite
for that reason.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers that only run on some workloads: per-layer metric -> the
#: workloads where it must be positive (zero everywhere else).
SIM_WORKLOADS = ("ground", "inflight", "impaired")
ONLY_ON = {
    "netem.proxy.self_s": ("impaired",),
    "testbed.produce_summary_s": SIM_WORKLOADS,
    "web.build_site_s": SIM_WORKLOADS,
    "netem.engine.events": SIM_WORKLOADS,
    "netem.link.packets": SIM_WORKLOADS,
    "transport.packets_sent": SIM_WORKLOADS,
    "transport.ranges.adds": SIM_WORKLOADS,
    "http.requests": SIM_WORKLOADS,
    "browser.paints": SIM_WORKLOADS,
}
#: Per-layer metrics that are positive on every workload.
EVERYWHERE = (
    "testbed.store_open_s", "analysis.grid_report_s",
    "study.build_partial_s", "study.participants", "study.partial_io_s",
    "study.merge_s", "study.report_s", "study.index_build_s",
    "study.index_query_s", "study.self_s", "other.self_s",
)


def bench(*args: str, cwd: Path = ROOT,
          env: dict = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=env if env is not None else dict(os.environ))


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    assert tuple(w["name"] for w in CONFIG["workloads"]) == \
        run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == \
        run.PER_LAYER
    names = list(run.WORKLOAD_NAMES) + list(run.END_TO_END) + \
        list(run.PER_LAYER)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_site_sample_comes_from_the_seed():
    assert workloads.draw_sites(3) == workloads.draw_sites(3)
    samples = {tuple(workloads.draw_sites(seed)) for seed in range(1, 30)}
    assert len(samples) > 1
    for sample in samples:
        assert sample[0] == workloads.LAB_ANCHOR
        assert all(site in stratum
                   for site, stratum in zip(sample[1:], workloads.STRATA))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_and_checks(workload):
    result = result_of(bench("--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", "0"))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == run.END_TO_END
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_layer(workload):
    done = bench("--workload", workload, "--seed", "2", "--seconds", "0",
                 "--trace", "1")
    result = result_of(done)
    assert result["correct"] is True
    assert "check tracing_byte_neutral: ok" in done.stdout
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    for name, where in ONLY_ON.items():
        if workload in where:
            assert metrics[name] > 0, name
        else:
            assert metrics[name] == 0, name
    for name in EVERYWHERE:
        assert metrics[name] > 0, name
    if workload == "impaired":
        assert metrics["netem.middlebox.self_s"] > 0
    if workload in SIM_WORKLOADS:
        for layer in ("netem.engine", "netem.link", "transport.tcp",
                      "transport.quic", "transport.ranges", "transport.cc",
                      "http", "browser"):
            assert metrics[f"{layer}.self_s"] > 0, layer
    spans = ROOT / ".perfbench" / f"spans-{workload}-2.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "parent", "name", "start", "end", "tag"}


@pytest.mark.parametrize("variable", run.REFUSED_ENV)
def test_refuses_a_modified_program(variable):
    env = dict(os.environ, **{variable: "1"})
    done = bench("--workload", "posthoc", "--seed", "1", "--seconds", "0",
                 env=env)
    assert done.returncode == 2
    assert variable in done.stderr
    assert not done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "ground", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout
