"""Simulator behaviour guard rails.

Three deterministic regression nets:

* **byte-identical behaviour** — the simulator must reproduce the
  committed behaviour fixture (visual curves, SI, per-run metrics,
  retransmission counters) exactly, for both stacks x {clean, lossy}
  networks x two seeds. If this fails, either a change accidentally
  altered behaviour (fix it) or the change was intentional — then
  ``SIM_BEHAVIOUR_VERSION`` must be bumped and the fixtures regenerated
  in the same PR (``python -m tests.equivalence_grid --regen``).
* **event budget** — the exact ``EventLoop.events_processed`` of fixed
  fixture page loads must not exceed the recorded budget. This catches
  accidental event-count regressions (an extra timer per packet, a
  dropped batching optimisation) without any timing flakiness.
* **work budget** — the exact number of ``RangeSet.add`` calls of the
  same loads must not exceed the recorded budget: ACK-range and SACK
  bookkeeping that starts re-walking already-processed ranges fails
  here on any machine.
* **version stamp** — the fixtures record the ``SIM_BEHAVIOUR_VERSION``
  they were generated under; a mismatch with the running simulator
  fails fast, so a behaviour bump cannot land without a fixture regen
  (and a regen cannot land without the bump).

The first three run in a subprocess. Since flow ids became per-load
(version 13) simulation is process-history independent, so this is no
longer a correctness requirement — it just keeps the checks insulated
from whatever other tests imported or monkeypatched first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run_mode(mode: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "equivalence_grid", mode],
        capture_output=True, text=True, env=env, timeout=600,
    )


class TestHotpathEquivalence:
    def test_outputs_byte_identical_to_fixture(self):
        result = _run_mode("--check")
        assert result.returncode == 0, (
            f"equivalence grid diverged from the committed fixture:\n"
            f"{result.stdout}{result.stderr}")

    def test_event_count_within_recorded_budget(self):
        result = _run_mode("--budget-check")
        assert result.returncode == 0, (
            f"event budget exceeded:\n{result.stdout}{result.stderr}")

    def test_range_adds_within_recorded_budget(self):
        result = _run_mode("--work-check")
        assert result.returncode == 0, (
            f"work budget exceeded:\n{result.stdout}{result.stderr}")


class TestBehaviourVersionStamp:
    """The committed fixtures must match the running simulator's version.

    Reads only the fixtures' metadata (no subprocess, no simulation) so
    the guard is effectively free and always runs in tier-1.
    """

    def test_fixture_stamped_with_current_version(self):
        from equivalence_grid import fixture_behaviour_version
        from repro.testbed.harness import SIM_BEHAVIOUR_VERSION

        recorded = fixture_behaviour_version()
        assert recorded == SIM_BEHAVIOUR_VERSION, (
            f"equivalence fixture was generated under SIM_BEHAVIOUR_VERSION="
            f"{recorded} but the simulator is at {SIM_BEHAVIOUR_VERSION}; "
            f"regenerate with 'python -m tests.equivalence_grid --regen'")

    def test_event_budget_stamped_with_current_version(self):
        from equivalence_grid import budget_behaviour_version
        from repro.testbed.harness import SIM_BEHAVIOUR_VERSION

        recorded = budget_behaviour_version()
        assert recorded == SIM_BEHAVIOUR_VERSION, (
            f"event budget was recorded under SIM_BEHAVIOUR_VERSION="
            f"{recorded} but the simulator is at {SIM_BEHAVIOUR_VERSION}; "
            f"regenerate with 'python -m tests.equivalence_grid --regen'")

    def test_work_budget_stamped_with_current_version(self):
        from equivalence_grid import work_budget_behaviour_version
        from repro.testbed.harness import SIM_BEHAVIOUR_VERSION

        recorded = work_budget_behaviour_version()
        assert recorded == SIM_BEHAVIOUR_VERSION, (
            f"work budget was recorded under SIM_BEHAVIOUR_VERSION="
            f"{recorded} but the simulator is at {SIM_BEHAVIOUR_VERSION}; "
            f"regenerate with 'python -m tests.equivalence_grid --regen'")
