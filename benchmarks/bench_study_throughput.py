"""E-S1 — Study throughput: scalar reference vs vectorized pipeline.

Measures simulated participants/second for the microworker A/B and
rating studies at a multiple of the paper's participant counts
(``--scale``, default 10x: 4 870 A/B + 15 630 rating participants).

* ``before`` — the per-vote scalar reference kernels
  (:mod:`repro.study.reference`) over the same engine blocks, then the
  R1-R7 funnel — the vote logic of the pre-vectorization pipeline.
* ``after`` — :func:`repro.study.pipeline.build_partial`: the
  vectorized block kernels, folding straight into mergeable
  funnel/vote/moment state.

Both paths draw from the same RNG block tree, so they produce the same
blocks (pinned exactly by tests/test_study_equivalence.py); the
equivalence is what makes the speedup a pure optimization.

Run standalone to merge a ``study_throughput`` snapshot into
``BENCH_hotpath.json`` (schema in benchmarks/README.md):

    PYTHONPATH=src python benchmarks/bench_study_throughput.py --label after

Numbers are machine-dependent: compare labels recorded on the same
machine, only within one ``SIM_BEHAVIOUR_VERSION``.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.study.design import StudyPlan, scaled_participants  # noqa: E402
from repro.study.engine import AbEngine, RatingEngine  # noqa: E402
from repro.study.filtering import funnel_from_flags  # noqa: E402
from repro.study.participants import GROUPS  # noqa: E402
from repro.study.pipeline import ConditionIndex, build_partial  # noqa: E402
from repro.study.reference import (  # noqa: E402
    compute_ab_block_reference,
    compute_rating_block_reference,
)
from repro.testbed.harness import Testbed  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_hotpath.json"

SITES = ["gov.uk", "apache.org"]
GROUP = "microworker"
SEED = 5


def _participants(scale: float) -> tuple:
    behavior = GROUPS[GROUP]
    return (scaled_participants(behavior.participants_ab, scale, GROUP),
            scaled_participants(behavior.participants_rating, scale,
                                GROUP))


def bench_before(index, plan, scale: float) -> dict:
    """Scalar reference kernels + conformance funnel."""
    n_ab, n_rating = _participants(scale)
    start = time.perf_counter()
    for engine, n, compute in (
            (AbEngine(GROUP, plan, lookup=index.lookup), n_ab,
             compute_ab_block_reference),
            (RatingEngine(GROUP, plan, lookup=index.lookup), n_rating,
             compute_rating_block_reference)):
        for block in engine.blocks(n, SEED, compute=compute):
            funnel_from_flags(block.flags)
    elapsed = time.perf_counter() - start
    total = n_ab + n_rating
    return {"participants": total, "seconds": round(elapsed, 3),
            "participants_per_s": round(total / elapsed, 1)}


def bench_after(index, plan, scale: float) -> dict:
    """Vectorized aggregate pipeline (one shard, whole population)."""
    n_ab, n_rating = _participants(scale)
    start = time.perf_counter()
    build_partial(index, plan, seed=SEED, participants_scale=scale,
                  groups=(GROUP,))
    elapsed = time.perf_counter() - start
    total = n_ab + n_rating
    return {"participants": total, "seconds": round(elapsed, 3),
            "participants_per_s": round(total / elapsed, 1)}


def bench_study_throughput(scale: float) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        testbed = Testbed(runs=2, seed=3, cache_dir=tmp)
        testbed.sweep(sites=SITES)
        plan = StudyPlan(sites=SITES)
        index = ConditionIndex.from_testbed(testbed, plan)

        before = bench_before(index, plan, scale)
        after = bench_after(index, plan, scale)
    speedup = round(after["participants_per_s"] /
                    before["participants_per_s"], 2)
    print(f"  before (scalar kernels):  {before['seconds']:7.2f}s "
          f"({before['participants_per_s']:9.1f} participants/s)")
    print(f"  after  (vector pipeline): {after['seconds']:7.2f}s "
          f"({after['participants_per_s']:9.1f} participants/s)")
    print(f"  speedup: {speedup}x")
    return {"scale": scale, "group": GROUP, "before": before,
            "after": after, "speedup": speedup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        help="snapshot label merged into BENCH_hotpath.json")
    parser.add_argument("--output", default=str(BENCH_PATH))
    parser.add_argument("--scale", type=float, default=10.0,
                        help="participant multiple of the paper's "
                             "counts (default: 10)")
    args = parser.parse_args(argv)

    results = bench_study_throughput(args.scale)

    path = Path(args.output)
    doc = {"schema": 1, "benchmarks": {}}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["benchmarks"].setdefault(
        "study_throughput", {})[args.label] = results
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
