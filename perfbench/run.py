#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ground --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced repetition, then traced repetitions, and reports the per-layer
metrics plus the tracing overhead (spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``). ``--workload all`` runs
every workload in its own process and prints one table.

Run it from the root of a checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, ``stamp {...}``, is the machine stamp. The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
OUTPUT_DIR = ROOT / ".perfbench"

#: Either would measure a different program (runtime sanitizer, fault
#: injection), so timed runs refuse to start with them set.
REFUSED_ENV = ("REPRO_SANITIZE", "REPRO_FAULT_PLAN")

WORKLOAD_NAMES = ("ground", "inflight", "impaired", "posthoc")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "conditions_per_s": "1/s",
    "loads_per_s": "1/s",
    "tcp_loads_per_s": "1/s",
    "quic_loads_per_s": "1/s",
    "participants_per_s": "1/s",
    "report_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Per-layer metrics (``--trace 1``) and their units. Times and counts
#: are per timed repetition.
PER_LAYER: Dict[str, str] = {
    "netem.engine.self_s": "s",
    "netem.engine.events": "count",
    "netem.link.self_s": "s",
    "netem.link.packets": "count",
    "netem.link.drops": "count",
    "netem.path.self_s": "s",
    "netem.proxy.self_s": "s",
    "netem.middlebox.self_s": "s",
    "transport.tcp.self_s": "s",
    "transport.quic.self_s": "s",
    "transport.ranges.self_s": "s",
    "transport.ranges.adds": "count",
    "transport.ranges.useful_add_ratio": "ratio",
    "transport.cc.self_s": "s",
    "transport.other.self_s": "s",
    "transport.packets_sent": "count",
    "transport.retransmissions": "count",
    "transport.timeouts": "count",
    "transport.retx_ratio": "ratio",
    "http.self_s": "s",
    "http.requests": "count",
    "browser.self_s": "s",
    "browser.paints": "count",
    "web.self_s": "s",
    "web.build_site_s": "s",
    "testbed.self_s": "s",
    "testbed.produce_summary_s": "s",
    "testbed.orchestration_s": "s",
    "testbed.cache_store_s": "s",
    "testbed.store_open_s": "s",
    "analysis.self_s": "s",
    "analysis.grid_report_s": "s",
    "study.self_s": "s",
    "study.build_partial_s": "s",
    "study.participants": "count",
    "study.partial_io_s": "s",
    "study.merge_s": "s",
    "study.report_s": "s",
    "study.index_build_s": "s",
    "study.index_query_s": "s",
    "other.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


# -- machine stamp -------------------------------------------------------------


def calibration_s() -> float:
    """Median time of fifteen runs of a fixed pure-Python loop."""
    times = []
    for _ in range(15):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine_stamp() -> Dict[str, object]:
    import numpy

    from repro.testbed.harness import SIM_BEHAVIOUR_VERSION

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sim_behaviour": SIM_BEHAVIOUR_VERSION,
        "commit": git_commit(),
        "calibration_s": calibration_s(),
    }


# -- one workload --------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end_metrics(runner, reps) -> Dict[str, float]:
    """Medians over the run's repetitions, in reference seconds.

    A page-load rate divides by the sum over conditions of each
    condition's median duration, and the read path sums each stage's
    median time; the latency percentiles pool every request.
    """
    median = statistics.median
    records = [rep.record for rep in reps] if runner.workload.records \
        else runner.setup_records
    durations: Dict[str, List[float]] = {}
    for record in records:
        for fingerprint, (_, _, seconds) in record.settled.items():
            durations.setdefault(fingerprint, []).append(seconds)
    settled = records[0].settled
    typical = {fp: median(durations[fp]) for fp in settled}

    def load_rate(*families: str) -> float:
        chosen = [fp for fp, entry in settled.items()
                  if entry[0] in families]
        return sum(settled[fp][1] for fp in chosen) / \
            sum(typical[fp] for fp in chosen)

    outside_s = median(r.outside_s for r in records)
    latencies = [x for rep in reps for x in rep.serve.latencies_us]
    return {
        "setup_s": median(runner.setup_times),
        "conditions_per_s": len(settled) / (
            outside_s + sum(typical.values())),
        "loads_per_s": load_rate("tcp", "quic"),
        "tcp_loads_per_s": load_rate("tcp"),
        "quic_loads_per_s": load_rate("quic"),
        "participants_per_s": reps[0].read.participants / median(
            rep.read.stage_s["study.build_partial"] for rep in reps),
        "report_s": sum(median(rep.read.stage_s[name] for rep in reps)
                        for name in reps[0].read.stage_s),
        "query_p50_us": percentile(latencies, 50),
        "query_p99_us": percentile(latencies, 99),
    }


def per_layer_metrics(tracer, reps, untraced) -> Dict[str, float]:
    n = len(reps)
    counts = tracer.counts
    spans = tracer.span_totals()
    selfs = tracer.self_times()
    metrics = {f"{layer}.self_s": seconds / n
               for layer, seconds in selfs.items()}
    adds = counts["ranges.adds"]
    sent = counts["transport.packets_sent"]
    campaign_s = spans.get("testbed.campaign_run", 0.0)
    produce_s = tracer.child_time("testbed.campaign_run",
                                  "testbed.produce_summary")
    metrics.update({
        "netem.engine.events": counts["engine.events"] / n,
        "netem.link.packets": counts["link.packets"] / n,
        "netem.link.drops": counts["link.drops"] / n,
        "transport.ranges.adds": adds / n,
        "transport.ranges.useful_add_ratio":
            counts["ranges.useful_adds"] / adds if adds else 0.0,
        "transport.packets_sent": sent / n,
        "transport.retransmissions": counts["transport.retransmissions"] / n,
        "transport.timeouts": counts["transport.timeouts"] / n,
        "transport.retx_ratio":
            counts["transport.retransmissions"] / sent if sent else 0.0,
        "http.requests": counts["http.requests"] / n,
        "browser.paints": counts["browser.paints"] / n,
        "testbed.orchestration_s": (campaign_s - produce_s) / n,
        "study.participants":
            sum(rep.read.participants for rep in reps) / n,
        "trace.overhead_ratio": statistics.median(
            rep.wall_s for rep in reps) / untraced.wall_s - 1.0,
    })
    for metric, span in (
            ("web.build_site_s", "web.build_site"),
            ("testbed.produce_summary_s", "testbed.produce_summary"),
            ("testbed.cache_store_s", "testbed.cache_store"),
            ("testbed.store_open_s", "testbed.store_open"),
            ("analysis.grid_report_s", "analysis.grid_report"),
            ("study.build_partial_s", "study.build_partial"),
            ("study.partial_io_s", "study.partial_io"),
            ("study.merge_s", "study.merge"),
            ("study.report_s", "study.report"),
            ("study.index_build_s", "study.index_build"),
            ("study.index_query_s", "study.index_query")):
        metrics[metric] = spans.get(span, 0.0) / n
    return metrics


def load_pin(workload: str, seed: int,
             sim_behaviour: int) -> Optional[Dict[str, str]]:
    if not PINS.exists():
        return None
    pins = json.loads(PINS.read_text())
    return pins.get(str(sim_behaviour), {}).get(workload, {}).get(str(seed))


def save_pin(workload: str, seed: int, sim_behaviour: int,
             digests: Dict[str, str]) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(str(sim_behaviour), {}).setdefault(
        workload, {})[str(seed)] = digests
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def measure(name: str, seed: int, seconds: float, trace: bool,
            pin: bool) -> Dict[str, object]:
    """Set up, run the timed repetitions, check the outputs."""
    from repro.testbed.harness import SIM_BEHAVIOUR_VERSION

    import workloads
    from tracing import NullTracer, Tracer

    workdir = OUTPUT_DIR / f"work-{os.getpid()}"
    runner = workloads.Runner(workloads.WORKLOADS[name], seed, workdir)
    try:
        runner.setup()
        untraced = runner.rep(NullTracer()) if trace else None
        tracer = Tracer() if trace else NullTracer()
        min_reps = 1 if trace else workloads.MIN_REPS
        reps = []
        if trace:
            tracer.install()
        start = time.perf_counter()
        try:
            # Closed loop: start another repetition only while it is
            # expected to finish inside the measured window.
            while len(reps) < min_reps or (time.perf_counter() - start) \
                    * (len(reps) + 1) / len(reps) <= seconds:
                reps.append(runner.rep(tracer))
        finally:
            if trace:
                tracer.uninstall()
        one_shard = workloads.one_shard_matches(reps[-1].read, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = dict(reps[0].digests,
                   study_grid=runner.setup_records[0].digest)
    checks = {
        "repetitions_identical":
            all(rep.digests == reps[0].digests for rep in reps),
        "setups_identical":
            len({r.digest for r in runner.setup_records}) == 1,
        "two_shard_merge_equals_one_shard": one_shard,
        "well_formed_queries_ok":
            all(rep.serve.failed == 0 for rep in reps),
        "bad_queries_refused":
            all(rep.serve.accepted_bad == 0 for rep in reps),
    }
    if trace:
        checks["tracing_byte_neutral"] = \
            untraced.digests == reps[0].digests
    if pin:
        save_pin(name, seed, SIM_BEHAVIOUR_VERSION, digests)
    pinned = load_pin(name, seed, SIM_BEHAVIOUR_VERSION)
    if pinned is not None:
        checks["matches_pin"] = pinned == digests

    records = [rep.record for rep in reps if rep.record is not None] \
        + runner.setup_records
    attempted = sum(r.conditions for r in records) + \
        sum(rep.serve.attempted for rep in reps)
    failed = sum(r.failed for r in records) + \
        sum(rep.serve.failed for rep in reps)
    if trace:
        metrics = per_layer_metrics(tracer, reps, untraced)
        units = PER_LAYER
        OUTPUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUTPUT_DIR / f"spans-{name}-{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(runner, reps)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    return {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "timed_s": sum(rep.wall_s for rep in reps),
        "refused_bad_queries": sum(rep.serve.refused for rep in reps),
        "checks": checks,
        "digests": digests,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def report(result: Dict[str, object]) -> None:
    """Human-readable lines before the final JSON object."""
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['reps']} repetitions, {result['timed_s']:.2f} s timed, "
          f"{result['refused_bad_queries']} bad queries refused")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:14.6g} {entry['unit']}")
    for check, passed in result["checks"].items():
        print(f"  check {check}: {'ok' if passed else 'FAILED'}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            return fail(f"workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests in "
                             "pins.json as the expected ones")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        return fail(f"no program source at {SRC / 'repro'}; run from the "
                    f"root of a checkout")
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        return fail(f"{', '.join(refused)} set; timed runs measure the "
                    f"unmodified program only")
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    stamp = machine_stamp()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.pin)
    report(result)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
