#!/usr/bin/env python3
"""Same-machine A/B comparison of two commits.

    python3 perfbench/compare.py BASE HEAD [--pairs 10] [--workloads ground,posthoc]

Checks both commits out into temporary ``git worktree``s, puts this
checkout's benchmark (``perfbench/`` and ``BENCHMARK.json``) into both
so that both sides run identical benchmark code, and runs
``perfbench/run.py`` for ``--pairs`` pairs per workload, alternating
which side runs first; pair ``i`` uses seed ``i + 1`` on both sides.

For every (workload, end-to-end metric) it reports each side's median
and quartiles, HEAD/BASE, the share of pairs HEAD won (ties count for
neither side) and BASE's own spread (interquartile range over median),
with a verdict:

* ``gain`` -- HEAD won at least nine tenths of the pairs and the medians
  differ by more than BASE's interquartile range;
* ``regression`` -- HEAD's median is worse than BASE's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- BASE's spread exceeds the bound, unless every HEAD
  run beats every BASE run;
* ``within bound`` -- otherwise.

It refuses to compare when a run fails its correctness checks or when
the machine stamps differ (CPU, cores, Python, numpy, simulator
behaviour version, or calibration medians more than 25 % apart).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STAMP_KEYS = ("cpu", "nproc", "python", "numpy", "sim_behaviour")
CALIBRATION_TOLERANCE = 0.25


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int,
             seconds: int) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One benchmark run: ``(stamp, result)``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"compare: {workload} seed {seed} in {tree} "
                         f"failed (exit {done.returncode}):\n"
                         f"{done.stdout}{done.stderr}")
    stamp = json.loads(lines[-2].split(" ", 1)[1])
    return stamp, json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: List[float], head: List[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, head win share, base spread)`` for paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    win_share = wins / len(base)
    q1, base_median, q3 = quartiles(base)
    head_median = statistics.median(head)
    spread = (q3 - q1) / base_median
    change = sign * (head_median - base_median) / base_median
    every_better = min(sign * h for h in head) > max(sign * b for b in base)
    if every_better or (win_share >= 0.9 and
                        sign * (head_median - base_median) > q3 - q1):
        return "gain", win_share, spread
    if change < -bound:
        return "regression", win_share, spread
    if spread > bound:
        return "unresolved", win_share, spread
    return "within bound", win_share, spread


def check_stamps(stamps: Dict[str, List[Dict[str, object]]]) -> None:
    seen = {json.dumps({k: s[k] for k in STAMP_KEYS}, sort_keys=True)
            for side in stamps.values() for s in side}
    if len(seen) != 1:
        raise SystemExit("compare: machine stamps differ, refusing:\n" +
                         "\n".join(sorted(seen)))
    medians = [statistics.median(s["calibration_s"] for s in side)
               for side in stamps.values()]
    if max(medians) > min(medians) * (1 + CALIBRATION_TOLERANCE):
        raise SystemExit(f"compare: calibration medians differ "
                         f"({medians[0]:.6f} vs {medians[1]:.6f} s), "
                         f"refusing")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in config["workloads"]]
    commits = {"base": git("rev-parse", args.base),
               "head": git("rev-parse", args.head)}
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-compare-"))
    trees = {side: scratch / side for side in commits}
    results: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    stamps: Dict[str, List[Dict[str, object]]] = {s: [] for s in commits}
    try:
        for side, commit in commits.items():
            git("worktree", "add", "--detach", str(trees[side]), commit)
            shutil.rmtree(trees[side] / "perfbench", ignore_errors=True)
            shutil.copytree(BENCH_DIR, trees[side] / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", trees[side])
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in order:
                    stamp, result = run_once(trees[side], workload,
                                             pair + 1, config["run_seconds"])
                    if not result["correct"]:
                        raise SystemExit(
                            f"compare: {side} failed its correctness "
                            f"checks on {workload} seed {pair + 1}")
                    stamps[side].append(stamp)
                    results.setdefault((side, workload), []).append(result)
                    print(f"pair {pair + 1} {workload} {side} done",
                          file=sys.stderr, flush=True)
    finally:
        for tree in trees.values():
            if tree.exists():
                git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(scratch, ignore_errors=True)

    check_stamps(stamps)
    print(f"base {commits['base']}  head {commits['head']}  "
          f"{args.pairs} pairs")
    summary = []
    for workload in workloads:
        for metric in config["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"]
                    for r in results[("base", workload)]]
            head = [r["metrics"][name]["value"]
                    for r in results[("head", workload)]]
            decision, wins, spread = verdict(base, head, metric["better"],
                                             metric["bound"])
            b, h = quartiles(base), quartiles(head)
            summary.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "base": b, "head": h,
                "ratio": h[1] / b[1], "head_wins": wins,
                "base_spread": spread, "verdict": decision})
            print(f"{workload:9s} {name:20s} base {b[1]:.4g} "
                  f"[{b[0]:.4g}, {b[2]:.4g}]  head {h[1]:.4g} "
                  f"[{h[0]:.4g}, {h[2]:.4g}] {metric['unit']:5s} "
                  f"x{h[1] / b[1]:.3f}  wins {wins:.0%}  "
                  f"spread {spread:.3f}  {decision}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
