"""Chaos matrix (slow): supervised campaigns under every fault class.

The convergence invariant from the failure model: whatever a
deterministic fault plan does to the fleet — kills, torn manifest
lines, frozen heartbeats, lease contention — a supervised campaign
with enough retry budget completes the full grid with zero duplicate
manifest entries, and its merged report renders byte-identically to a
fault-free single-worker run. Runs only with ``REPRO_RUN_SLOW=1``
(see ``conftest.py``); the quick per-fault smokes live in
``test_faults.py``.
"""

import time
from pathlib import Path

import pytest

from repro.report import render_grid
from repro.testbed import faults
from repro.testbed import supervisor as supervisor_module
from repro.testbed.campaign import Campaign, CampaignSpec
from repro.testbed.distributed import (
    LeaseConfig,
    LeaseManager,
    merge_partial_reports,
)
from repro.testbed.store import read_jsonl
from repro.testbed.supervisor import Supervisor

pytestmark = pytest.mark.slow

GRID = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"],
            seeds=[5, 6], runs=2)

FAST = LeaseConfig(ttl_s=30.0, heartbeat_s=5.0, poll_s=0.05)

#: One plan per fault class, plus mixes and two generated plans. Every
#: entry must converge — none may quarantine under a generous budget.
PLANS = [
    "crash:w0@0",            # kill in the adoption window (post-store)
    "crash:w0@1",            # kill mid-grid
    "crash:w0@0:pre",        # kill before anything is stored
    "crash:w1@1",            # kill the other slot
    "torn-write:w0@0",       # truncated manifest line, then kill
    "torn-write:w1@1",
    "stall:w0@0",            # heartbeats freeze (worker may still win)
    "storm:*@0",             # ghost stale lease on first acquire
    "crash:w0@1; torn-write:w1@1",
    "seed:1",                # campaign-RNG-derived plans
    "seed:2",
]


def _spec(name):
    return CampaignSpec(name=name, **GRID)


def _fingerprints(campaign):
    # Through read_jsonl, not raw json.loads: a torn line a killed
    # worker left behind stays in the file forever — readers skip it.
    return [record["fingerprint"]
            for record in read_jsonl(campaign.manifest_path)]


@pytest.fixture(scope="module")
def reference_render(tmp_path_factory):
    cache = tmp_path_factory.mktemp("chaos-reference")
    campaign = Campaign(_spec("chaos"), cache_dir=cache)
    assert campaign.run(processes=1).ok
    return render_grid(merge_partial_reports(campaign.campaign_dir,
                                             cache_dir=cache))


class TestChaosMatrix:
    @pytest.mark.parametrize("plan_text", PLANS)
    def test_supervised_run_converges(self, plan_text, tmp_path,
                                      reference_render):
        campaign = Campaign(_spec("chaos"), cache_dir=tmp_path)
        campaign.write_spec()
        outcome = Supervisor(
            campaign.campaign_dir,
            workers=2,
            cache_dir=tmp_path,
            plan=faults.FaultPlan.parse(plan_text),
            lease=FAST,
            retry_budget=10,  # generous: nothing here may quarantine
            backoff_base=0.05,
            run_kwargs=dict(processes=1, claim_chunk=1, flush_every=1),
        ).run()
        assert outcome.quarantined == []
        assert outcome.gave_up == []
        assert outcome.ok, outcome.describe()
        fingerprints = _fingerprints(campaign)
        assert len(fingerprints) == len(set(fingerprints)) == 4
        assert not list((campaign.campaign_dir / "claims")
                        .glob("*.lease"))
        merged = merge_partial_reports(campaign.campaign_dir,
                                       cache_dir=tmp_path)
        assert not merged.degraded
        assert render_grid(merged) == reference_render


def _hang_if_w0(campaign_dir, cache_dir, worker_id, incarnation,
                plan_text, lease_kwargs, run_kwargs):
    """Entry shim: slot w0's first incarnation plays a hung host —
    grabs a claim, then sleeps without ever heartbeating. Respawned
    incarnations (and w1) run the real worker."""
    if incarnation == "w0":
        leases = LeaseManager(Path(campaign_dir), worker_id,
                              LeaseConfig(**lease_kwargs))
        assert leases.acquire("hung-condition")
        time.sleep(600)
    supervisor_module._real_entry(campaign_dir, cache_dir, worker_id,
                                  incarnation, plan_text, lease_kwargs,
                                  run_kwargs)


class TestStallKill:
    def test_hung_worker_is_killed_blamed_and_respawned(
            self, tmp_path, monkeypatch, reference_render):
        """A live process whose heartbeats stopped must be treated as a
        crash: killed, its leases broken, the slot respawned — the fleet
        must not wait out a hang forever."""
        lease = LeaseConfig(ttl_s=1.0, heartbeat_s=0.2, poll_s=0.05)
        monkeypatch.setattr(supervisor_module, "_real_entry",
                            supervisor_module._supervised_entry,
                            raising=False)
        monkeypatch.setattr(supervisor_module, "_supervised_entry",
                            _hang_if_w0)
        campaign = Campaign(_spec("chaos"), cache_dir=tmp_path)
        campaign.write_spec()
        outcome = Supervisor(
            campaign.campaign_dir,
            workers=2,
            cache_dir=tmp_path,
            lease=lease,
            backoff_base=0.05,
            run_kwargs=dict(processes=1, claim_chunk=1, flush_every=1),
        ).run()
        assert outcome.stalls == 1
        stalled = [e for e in outcome.exits if e.stalled]
        assert stalled[0].worker_id == "w0"
        assert "hung-condition" in stalled[0].blamed
        assert outcome.respawns == 1
        assert outcome.quarantined == []
        assert outcome.ok, outcome.describe()
        fingerprints = _fingerprints(campaign)
        assert len(fingerprints) == len(set(fingerprints)) == 4
        merged = merge_partial_reports(campaign.campaign_dir,
                                       cache_dir=tmp_path)
        assert render_grid(merged) == reference_render
