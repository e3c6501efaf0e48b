"""Shared definition of the hot-path equivalence grid.

Performance work on the simulator must leave *behaviour* untouched
unless the change is intentional: identical parameters must produce
byte-identical visual curves and metrics. This module defines the small
grid used to pin that down — both stacks, a clean and a lossy network,
two seeds — and the summary serialisation compared against the committed
fixture ``tests/data/equivalence_grid.json``.

The fixture and the two budget files record the
``SIM_BEHAVIOUR_VERSION`` they were generated under; a tier-1 guard test
fails when that disagrees with the running simulator, so an intentional
behaviour change cannot land without regenerating them. To regenerate
all three files (atomically, in one command) after bumping the version::

    PYTHONPATH=src python -m tests.equivalence_grid --regen

(``PYTHONPATH=src:tests python -m equivalence_grid --regen`` is
equivalent.) ``--check`` / ``--budget-check`` / ``--work-check`` verify
without writing; ``--write`` / ``--budget-write`` / ``--work-write``
regenerate one file each.

The **event budget** records the exact ``EventLoop.events_processed`` of
fixed fixture page loads. It catches event-count regressions (an
accidental extra timer per packet) deterministically, without timing
flakiness.

The **work budget** records the exact number of ``RangeSet.add`` calls
of the same loads: the ACK-range and SACK-scoreboard bookkeeping, which
should cost in proportion to the information each ACK newly carries.
Wall time varies by machine; this count does not. A pure optimisation
that lowers it may re-record it with ``--work-write`` (the simulator's
behaviour is unchanged, so the version stays).

Since flow ids became per-load (SIM_BEHAVIOUR_VERSION 13) the grid is
process-history independent and could run in-process; the pytest
wrappers still shell out so the checks cannot be perturbed by whatever
other tests imported or monkeypatched first. See
``tests/test_hotpath_equivalence.py``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.testbed.harness import (
    SIM_BEHAVIOUR_VERSION,
    produce_summary,
    resolve_network,
    resolve_stack,
)

FIXTURE_PATH = Path(__file__).parent / "data" / "equivalence_grid.json"
BUDGET_PATH = Path(__file__).parent / "data" / "event_budget.json"
WORK_BUDGET_PATH = Path(__file__).parent / "data" / "work_budget.json"

#: Both transport stacks x {clean, lossy} network x two seeds.
GRID_SITES = ("gov.uk", "nytimes.com")
GRID_NETWORKS = ("DSL", "MSS")
GRID_STACKS = ("TCP", "QUIC")
GRID_SEEDS = (0, 1)
GRID_RUNS = 2


def condition_id(site: str, network: str, stack: str, seed: int) -> str:
    return f"{site}|{network}|{stack}|s{seed}"


def simulate_grid() -> Dict[str, Dict[str, object]]:
    """Run the grid with the current simulator; exact JSON-able outputs."""
    out: Dict[str, Dict[str, object]] = {}
    for site in GRID_SITES:
        for network in GRID_NETWORKS:
            for stack in GRID_STACKS:
                for seed in GRID_SEEDS:
                    summary = produce_summary(
                        site, resolve_network(network), resolve_stack(stack),
                        corpus_seed=0, seed=seed, runs=GRID_RUNS,
                        timeout=180.0, selection_metric="PLT",
                    )
                    out[condition_id(site, network, stack, seed)] = {
                        "selected_metrics": summary.selected_metrics,
                        "selected_curve": [[t, v] for t, v in
                                           summary.selected_curve],
                        "run_metrics": summary.run_metrics,
                        "mean_retransmissions": summary.mean_retransmissions,
                        "mean_segments_sent": summary.mean_segments_sent,
                        "completed_fraction": summary.completed_fraction,
                    }
    return out


def _write_atomic(path: Path, document: Dict[str, object]) -> None:
    """Serialise and atomically replace ``path`` (no torn files on kill)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(document, indent=1, sort_keys=True) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(blob)
    os.replace(tmp, path)


def load_fixture_document() -> Dict[str, object]:
    return json.loads(FIXTURE_PATH.read_text())


def load_fixture() -> Dict[str, Dict[str, object]]:
    """The fixture's per-condition outputs (without the metadata)."""
    return load_fixture_document()["conditions"]


def fixture_behaviour_version() -> int:
    """The SIM_BEHAVIOUR_VERSION the fixture was generated under."""
    return int(load_fixture_document()["sim_behaviour"])


def budget_behaviour_version() -> int:
    """The SIM_BEHAVIOUR_VERSION the event budget was recorded under."""
    return int(json.loads(BUDGET_PATH.read_text())["sim_behaviour"])


def work_budget_behaviour_version() -> int:
    """The SIM_BEHAVIOUR_VERSION the work budget was recorded under."""
    return int(json.loads(WORK_BUDGET_PATH.read_text())["sim_behaviour"])


def write_fixture() -> None:
    _write_atomic(FIXTURE_PATH, {
        "sim_behaviour": SIM_BEHAVIOUR_VERSION,
        "conditions": simulate_grid(),
    })


def check_fixture() -> List[str]:
    """Condition ids whose current output differs from the fixture."""
    current = simulate_grid()
    fixture = load_fixture()
    return [key for key in fixture if current.get(key) != fixture[key]]


# -- event budget ------------------------------------------------------------

#: Fixed fixture loads whose exact event count is pinned.
BUDGET_CONDITIONS = (
    ("gov.uk", "DSL", "TCP"),
    ("gov.uk", "MSS", "TCP"),
    ("gov.uk", "DSL", "QUIC"),
    ("gov.uk", "MSS", "QUIC"),
)


def _run_budget_loads() -> Iterator[Tuple[str, int]]:
    """Run each fixed fixture page load; yield its key and event count."""
    from repro.browser.engine import PageLoad
    from repro.netem.engine import EventLoop
    from repro.netem.path import NetworkPath
    from repro.netem.profiles import network_by_name
    from repro.transport.config import stack_by_name
    from repro.web.corpus import build_site

    for site_name, network, stack in BUDGET_CONDITIONS:
        loop = EventLoop()
        path = NetworkPath(loop, network_by_name(network), seed=0)
        load = PageLoad(loop, path, stack_by_name(stack),
                        build_site(site_name, seed=0), seed=0)
        load.run()
        yield f"{site_name}|{network}|{stack}", loop.events_processed


def measure_event_budgets() -> Dict[str, int]:
    """events_processed per fixed fixture page load."""
    return dict(_run_budget_loads())


def measure_work_budgets() -> Dict[str, int]:
    """``RangeSet.add`` calls per fixed fixture page load.

    Counted by wrapping the method for the duration of the measurement,
    so the simulator itself carries no counter.
    """
    from repro.transport.ranges import RangeSet

    add = RangeSet.add
    calls = 0

    def counted_add(self, start: int, end: int) -> None:
        nonlocal calls
        calls += 1
        add(self, start, end)

    out: Dict[str, int] = {}
    RangeSet.add = counted_add
    try:
        for key, _events in _run_budget_loads():
            out[key] = calls
            calls = 0
    finally:
        RangeSet.add = add
    return out


def write_budgets() -> None:
    _write_atomic(BUDGET_PATH, {
        "sim_behaviour": SIM_BEHAVIOUR_VERSION,
        "budgets": measure_event_budgets(),
    })


def write_work_budgets() -> None:
    _write_atomic(WORK_BUDGET_PATH, {
        "sim_behaviour": SIM_BEHAVIOUR_VERSION,
        "budgets": measure_work_budgets(),
    })


def _over_budget(path: Path, current: Dict[str, int],
                 unit: str) -> List[str]:
    budgets = json.loads(path.read_text())["budgets"]
    problems = []
    for key, budget in budgets.items():
        count = current.get(key)
        if count is None:
            problems.append(f"{key}: not measured")
        elif count > budget:
            problems.append(f"{key}: {count} {unit} > budget {budget}")
    return problems


def check_budgets() -> List[str]:
    """Human-readable violations of the recorded event budgets."""
    return _over_budget(BUDGET_PATH, measure_event_budgets(), "events")


def check_work_budgets() -> List[str]:
    """Human-readable violations of the recorded work budgets."""
    return _over_budget(WORK_BUDGET_PATH, measure_work_budgets(),
                        "RangeSet.add calls")


def main(argv: List[str]) -> int:
    mode = argv[0] if argv else "--regen"
    if mode == "--regen":
        # Simulate everything first, then replace the files atomically:
        # a failure mid-way leaves the committed fixtures untouched and
        # the files can never record different behaviour versions.
        fixture = {"sim_behaviour": SIM_BEHAVIOUR_VERSION,
                   "conditions": simulate_grid()}
        budgets = {"sim_behaviour": SIM_BEHAVIOUR_VERSION,
                   "budgets": measure_event_budgets()}
        work = {"sim_behaviour": SIM_BEHAVIOUR_VERSION,
                "budgets": measure_work_budgets()}
        _write_atomic(FIXTURE_PATH, fixture)
        _write_atomic(BUDGET_PATH, budgets)
        _write_atomic(WORK_BUDGET_PATH, work)
        print(f"wrote {FIXTURE_PATH}")
        print(f"wrote {BUDGET_PATH}")
        print(f"wrote {WORK_BUDGET_PATH}")
    elif mode == "--write":
        write_fixture()
        print(f"wrote {FIXTURE_PATH}")
    elif mode == "--check":
        diffs = check_fixture()
        if diffs:
            print("DIVERGED: " + ", ".join(diffs))
            return 1
        print("equivalence grid byte-identical")
    elif mode == "--budget-write":
        write_budgets()
        print(f"wrote {BUDGET_PATH}")
    elif mode == "--budget-check":
        problems = check_budgets()
        if problems:
            print("; ".join(problems))
            return 1
        print("event budgets respected")
    elif mode == "--work-write":
        write_work_budgets()
        print(f"wrote {WORK_BUDGET_PATH}")
    elif mode == "--work-check":
        problems = check_work_budgets()
        if problems:
            print("; ".join(problems))
            return 1
        print("work budgets respected")
    else:
        print(f"unknown mode {mode!r}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
