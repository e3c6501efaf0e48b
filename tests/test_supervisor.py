"""Worker supervision: respawn, quarantine, degraded reporting, status.

The acceptance path for chaos-hardened campaigns: a supervised fleet
with an injected mid-run crash must complete the full grid with zero
duplicate manifest entries and render byte-identically to a fault-free
single-worker run; a condition that keeps killing workers must be
quarantined as ``poisoned`` and reported as degraded coverage, not
retried forever.
"""

import json

import pytest

from repro.analysis.streaming import GridReport
from repro.report import md_grid, render_grid
from repro.testbed import faults
from repro.testbed.campaign import Campaign, CampaignSpec
from repro.testbed.distributed import (
    LeaseConfig,
    merge_partial_reports,
)
from repro.testbed.supervisor import (
    Supervisor,
    SupervisorReport,
    WorkerExit,
    campaign_status,
    quarantined_fingerprints,
    render_status,
)

GRID = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"],
            seeds=[5, 6], runs=2)

FAST = LeaseConfig(ttl_s=30.0, heartbeat_s=5.0, poll_s=0.05)


def _spec(name):
    return CampaignSpec(name=name, **GRID)


def _manifest_lines(campaign):
    return [json.loads(line) for line in open(campaign.manifest_path)]


@pytest.fixture(scope="module")
def reference_render(tmp_path_factory):
    """Fault-free single-worker render of the test grid."""
    cache = tmp_path_factory.mktemp("reference")
    campaign = Campaign(_spec("ref"), cache_dir=cache)
    assert campaign.run(processes=1).ok
    report = merge_partial_reports(campaign.campaign_dir,
                                   cache_dir=cache)
    assert not report.degraded
    return render_grid(report)


class TestKillAndRespawn:
    """The acceptance criterion: crash mid-run, recover, identical."""

    @pytest.fixture(scope="class")
    def supervised(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("supervised")
        campaign = Campaign(_spec("ref"), cache_dir=cache)
        campaign.write_spec()
        supervisor = Supervisor(
            campaign.campaign_dir,
            workers=2,
            cache_dir=cache,
            plan=faults.FaultPlan.parse("crash:w0@1"),
            lease=FAST,
            backoff_base=0.05,
            run_kwargs=dict(processes=1, claim_chunk=1, flush_every=1),
        )
        outcome = supervisor.run()
        return dict(campaign=campaign, outcome=outcome, cache=cache)

    def test_crash_respawn_accounting(self, supervised):
        outcome = supervised["outcome"]
        assert outcome.crashes == 1
        assert outcome.respawns == 1
        assert outcome.quarantined == []
        assert outcome.gave_up == []
        crashed = [e for e in outcome.exits if e.crashed]
        assert len(crashed) == 1
        assert crashed[0].exit_code == faults.CRASH_EXIT_CODE
        assert crashed[0].worker_id == "w0"
        assert outcome.ok

    def test_grid_completes_without_duplicates(self, supervised):
        lines = _manifest_lines(supervised["campaign"])
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 4
        assert not list((supervised["campaign"].campaign_dir
                         / "claims").glob("*.lease"))

    def test_merged_report_identical_to_fault_free(self, supervised,
                                                   reference_render):
        merged = merge_partial_reports(
            supervised["campaign"].campaign_dir,
            cache_dir=supervised["cache"])
        assert not merged.degraded
        assert render_grid(merged) == reference_render
        assert "coverage" not in merged.to_json()

    def test_status_reports_healthy_finished_dir(self, supervised):
        status = campaign_status(
            str(supervised["campaign"].campaign_dir),
            ttl_s=FAST.ttl_s)
        assert status["conditions"]["expected"] == 4
        assert status["conditions"]["done"] == 4
        assert status["conditions"]["pending"] == 0
        assert status["leases"]["held"] == 0
        assert status["leases"]["stale"] == 0
        assert status["quarantined"] == []
        assert status["torn_manifest_lines"] == 0
        text = render_status(status)
        assert "4/4 done" in text
        assert "WARNING" not in text


class TestQuarantine:
    """A condition that keeps killing workers is poisoned, not retried
    forever — and the report says so instead of failing."""

    @pytest.fixture(scope="class")
    def poisoned(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("poisoned")
        campaign = Campaign(_spec("poison"), cache_dir=cache)
        campaign.write_spec()
        supervisor = Supervisor(
            campaign.campaign_dir,
            workers=1,
            cache_dir=cache,
            # Pre-simulation kill: nothing stored, so a retry would
            # genuinely re-run (and re-die on) the condition.
            plan=faults.FaultPlan.parse("crash:w0@0:pre"),
            lease=FAST,
            retry_budget=1,
            backoff_base=0.05,
            run_kwargs=dict(processes=1, claim_chunk=1, flush_every=1),
        )
        outcome = supervisor.run()
        return dict(campaign=campaign, outcome=outcome, cache=cache)

    def test_condition_quarantined_after_budget(self, poisoned):
        outcome = poisoned["outcome"]
        assert outcome.crashes == 1
        assert len(outcome.quarantined) == 1
        assert not outcome.ok
        assert quarantined_fingerprints(
            poisoned["campaign"].campaign_dir) == outcome.quarantined

    def test_poisoned_condition_settles_in_manifest(self, poisoned):
        lines = _manifest_lines(poisoned["campaign"])
        by_fingerprint = {line["fingerprint"]: line["status"]
                          for line in lines}
        fingerprint = poisoned["outcome"].quarantined[0]
        assert by_fingerprint[fingerprint] == "poisoned"
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 4

    def test_merged_report_marks_degraded_coverage(self, poisoned):
        merged = merge_partial_reports(
            poisoned["campaign"].campaign_dir,
            cache_dir=poisoned["cache"])
        assert merged.degraded
        assert merged.expected == 4
        assert len(merged.missing) == 1
        coverage = merged.to_json()["coverage"]
        assert coverage == {"expected": 4, "missing": merged.missing}
        assert "DEGRADED" in render_grid(merged)
        assert "DEGRADED" in md_grid(merged)

    def test_status_shows_poisoned(self, poisoned):
        status = campaign_status(
            str(poisoned["campaign"].campaign_dir), ttl_s=FAST.ttl_s)
        assert status["quarantined"] == \
            poisoned["outcome"].quarantined
        assert status["conditions"]["statuses"]["poisoned"] == 1
        assert "quarantined (1)" in render_status(status)

    def test_late_worker_skips_quarantined_condition(self, poisoned):
        """A worker joining after quarantine settles the poisoned
        condition from the manifest without touching it."""
        from repro.testbed.distributed import run_worker

        campaign = Campaign(_spec("poison"),
                            cache_dir=poisoned["cache"])
        result = run_worker(campaign, worker_id="late", lease=FAST,
                            processes=1)
        statuses = {r.condition.fingerprint(): r.status
                    for r in result.results}
        fingerprint = poisoned["outcome"].quarantined[0]
        assert statuses[fingerprint] == "poisoned"
        assert not result.ok  # poisoned is never ok
        lines = _manifest_lines(poisoned["campaign"])
        assert len(lines) == len({l["fingerprint"] for l in lines})


class TestAbortRetiresSlot:
    """Regression: a worker stopped by ``failure_policy="abort"`` exited
    3, a crash, so the supervisor respawned the slot and every
    incarnation re-ran the failing condition (4 attempts and 4 failed
    lines at ``max_respawns=3``). An abort now exits 2 and retires."""

    def test_abort_is_not_respawned(self, tmp_path, monkeypatch):
        import repro.testbed.campaign as campaign_mod

        def always_fail(*args, **kwargs):
            raise RuntimeError("condition always fails")

        # Forked workers inherit the patch.
        monkeypatch.setattr(campaign_mod, "produce_summary", always_fail)
        campaign = Campaign(CampaignSpec(
            name="abort", sites=["gov.uk"], networks=["DSL"],
            stacks=["TCP"], seeds=[5], runs=1), cache_dir=tmp_path)
        campaign.write_spec()
        outcome = Supervisor(
            campaign.campaign_dir,
            workers=1,
            cache_dir=tmp_path,
            lease=FAST,
            max_respawns=3,
            backoff_base=0.05,
            run_kwargs=dict(failure_policy="abort", processes=1),
        ).run()
        assert (outcome.crashes, outcome.respawns) == (0, 0)
        assert [e.exit_code for e in outcome.exits] == [2]
        assert not outcome.ok
        assert [line["status"] for line in _manifest_lines(campaign)] \
            == ["failed"]


class TestFleetWorkerIds:
    """Regression: every supervised fleet named its workers ``w0``,
    ``w1``, ..., so two fleets on one directory (two hosts, each with
    its own supervisor) stamped the same ids, overwrote each other's
    ``partials/`` shard and could delete each other's live leases.
    Ids are now ``<base>-<incarnation>``."""

    def test_two_fleets_on_one_dir_keep_distinct_ids(self, tmp_path):
        import threading

        campaign = Campaign(_spec("fleets"), cache_dir=tmp_path)
        campaign.write_spec()

        def fleet(base):
            Supervisor(
                campaign.campaign_dir,
                workers=1,
                cache_dir=tmp_path,
                lease=FAST,
                backoff_base=0.05,
                run_kwargs=dict(processes=1, claim_chunk=1,
                                flush_every=1),
                worker_id=base,
            ).run()

        threads = [threading.Thread(target=fleet, args=(base,))
                   for base in ("hostA", "hostB")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)

        lines = _manifest_lines(campaign)
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 4
        stamped = {}
        for line in lines:
            stamped.setdefault(line["worker"], set()).add(
                line["fingerprint"])
        assert set(stamped) <= {"hostA-w0", "hostB-w0"}
        partials = campaign.campaign_dir / "partials"
        shards = {path.stem: set(json.loads(path.read_text())
                                 ["fingerprints"])
                  for path in partials.glob("*.json")}
        # Each worker's shard covers exactly the lines it stamped.
        assert shards == stamped
        merged = merge_partial_reports(campaign.campaign_dir,
                                       cache_dir=tmp_path)
        assert not merged.degraded


class TestSupervisorValidation:
    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="worker"):
            Supervisor(tmp_path, workers=0)
        with pytest.raises(ValueError, match="retry_budget"):
            Supervisor(tmp_path, retry_budget=0)

    def test_report_describe_mentions_counts(self):
        report = SupervisorReport(workers=2)
        report.exits.append(WorkerExit(
            slot="w0", worker_id="w0",
            exit_code=faults.CRASH_EXIT_CODE, blamed=("fp",)))
        report.exits.append(WorkerExit(
            slot="w0", worker_id="w0.r1", exit_code=0))
        report.respawns = 1
        text = report.describe()
        assert "1 crash(es)" in text
        assert "1 respawn(s)" in text
        assert "w0.r1: exit 0" in text

    def test_worker_exit_classification(self):
        assert WorkerExit("w0", "w0", 70).crashed
        assert WorkerExit("w0", "w0", None).crashed
        assert WorkerExit("w0", "w0", 0, stalled=True).crashed
        assert not WorkerExit("w0", "w0", 0).crashed
        assert not WorkerExit("w0", "w0", 2).crashed


class TestStatusCli:
    def test_cli_status_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["campaign", "--sites", "gov.uk", "--networks",
                     "DSL", "--stacks", "TCP", "--seeds", "5",
                     "--runs", "1", "--cache-dir", cache,
                     "--name", "status-cli", "--quiet",
                     "--processes", "1"]) == 0
        campaign_dir = str(next(
            (tmp_path / "cache" / "campaigns").iterdir()))
        capsys.readouterr()
        assert main(["campaign", "--status", campaign_dir]) == 0
        out = capsys.readouterr().out
        assert "1/1 done" in out
        assert main(["campaign", "--status", campaign_dir,
                     "--format", "json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["conditions"]["done"] == 1
        assert status["quarantined"] == []

    def test_cli_bad_fault_plan_rejected(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="inject-faults"):
            main(["campaign", "--workers", "2", "--inject-faults",
                  "explode:w0@1", "--cache-dir", str(tmp_path)])


class TestGridReportCoverage:
    def test_mark_coverage_does_not_survive_state_round_trip(self):
        report = GridReport()
        report.mark_coverage(4, ["b", "a"])
        assert report.missing == ["a", "b"]
        rebuilt = GridReport.from_state(report.to_state())
        assert not rebuilt.degraded
        assert rebuilt.missing == []

    def test_complete_report_renders_without_footer(self):
        report = GridReport()
        report.mark_coverage(4, [])
        assert not report.degraded
        assert "coverage" not in report.to_json()
