"""Distributed campaign workers: leases, no double-simulation, merging.

The acceptance path for multi-host scale-out: cooperative workers
sharing one campaign directory must never simulate a condition twice,
their merged partial aggregates must reproduce the single-worker
report, and a crashed worker's stale lease must be reclaimed.
"""

import json
import os
import threading
import time

import pytest

import repro.testbed.harness as harness_mod
from repro.analysis.streaming import GridReport
from repro.report import render_grid
from repro.testbed import faults
from repro.testbed.campaign import (
    Campaign,
    CampaignSpec,
    ConditionResult,
    spec_from_json,
)
from repro.testbed.distributed import (
    ClaimQueue,
    LeaseConfig,
    LeaseManager,
    PartialAggregator,
    default_worker_id,
    join_campaign,
    merge_partial_reports,
    run_worker,
)
from repro.testbed.store import StaleCampaignError, SummaryStore

GRID = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"],
            seeds=[5, 6], runs=2)

#: Fast protocol timings for tests (poll in tens of milliseconds).
FAST = LeaseConfig(ttl_s=30.0, heartbeat_s=5.0, poll_s=0.05)


def _spec(name="dist"):
    return CampaignSpec(name=name, **GRID)


def _assert_json_close(left, right, rel=1e-9):
    """Structural equality with float tolerance: merging shards may
    reorder floating-point additions (Chan vs Welford), so moments can
    differ in the last ulp while everything else matches exactly."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            _assert_json_close(left[key], right[key], rel)
    elif isinstance(left, list):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_json_close(a, b, rel)
    elif isinstance(left, float):
        assert left == pytest.approx(right, rel=rel)
    else:
        assert left == right


class TestLeaseManager:
    def test_exclusive_acquire_and_release(self, tmp_path):
        alice = LeaseManager(tmp_path, "alice", FAST)
        bob = LeaseManager(tmp_path, "bob", FAST)
        assert alice.acquire("fp")
        assert alice.acquire("fp")  # idempotent for the holder
        assert not bob.acquire("fp")
        assert bob.holder("fp")["worker"] == "alice"
        alice.release("fp")
        assert bob.acquire("fp")
        assert bob.holder("fp")["worker"] == "bob"

    def test_release_all(self, tmp_path):
        alice = LeaseManager(tmp_path, "alice", FAST)
        for fingerprint in ("a", "b", "c"):
            assert alice.acquire(fingerprint)
        assert alice.held_count() == 3
        alice.release_all()
        assert alice.held_count() == 0
        assert not list((tmp_path / "claims").glob("*.lease"))

    def test_fresh_lease_not_stale(self, tmp_path):
        alice = LeaseManager(tmp_path, "alice", FAST)
        bob = LeaseManager(tmp_path, "bob", FAST)
        alice.acquire("fp")
        assert not bob.is_stale("fp")
        assert not bob.break_stale("fp")
        assert not bob.acquire("fp")

    def test_stale_lease_broken_once(self, tmp_path):
        alice = LeaseManager(tmp_path, "alice", FAST)
        bob = LeaseManager(tmp_path, "bob", FAST)
        carol = LeaseManager(tmp_path, "carol", FAST)
        alice.acquire("fp")
        old = time.time() - FAST.ttl_s - 5
        os.utime(alice.path("fp"), (old, old))
        assert bob.is_stale("fp")
        # Exactly one breaker wins the rename; both can then race
        # acquire and exactly one wins that too.
        broke = [bob.break_stale("fp"), carol.break_stale("fp")]
        assert broke.count(True) == 1
        got = [bob.acquire("fp"), carol.acquire("fp")]
        assert got.count(True) == 1

    def test_release_spares_a_reclaimed_peers_lease(self, tmp_path):
        """A worker whose lease was broken while it stalled must not
        unlink the reclaimer's fresh lease when it finally releases."""
        alice = LeaseManager(tmp_path, "alice", FAST)
        bob = LeaseManager(tmp_path, "bob", FAST)
        alice.acquire("fp")
        old = time.time() - FAST.ttl_s - 5
        os.utime(alice.path("fp"), (old, old))
        assert bob.break_stale("fp") and bob.acquire("fp")
        alice.release("fp")  # the stalled worker wakes up and releases
        assert bob.holder("fp")["worker"] == "bob"  # still intact
        assert alice.held_count() == 0
        bob.release("fp")
        assert bob.holder("fp") is None

    def test_heartbeat_refreshes_mtime(self, tmp_path):
        alice = LeaseManager(tmp_path, "alice", FAST)
        alice.acquire("fp")
        old = time.time() - FAST.ttl_s - 5
        os.utime(alice.path("fp"), (old, old))
        assert alice.is_stale("fp")
        alice.heartbeat()
        assert not alice.is_stale("fp")

    def test_lease_config_validation(self):
        with pytest.raises(ValueError):
            LeaseConfig(ttl_s=0.0)
        with pytest.raises(ValueError):
            LeaseConfig(ttl_s=10.0, heartbeat_s=10.0)
        with pytest.raises(ValueError):
            LeaseConfig(poll_s=-1.0)


class TestSpecRoundTrip:
    def test_describe_round_trips_exactly(self):
        from repro.netem.profiles import DSL, trace_profile, with_loss
        from repro.netem.trace import constant_rate_trace

        spec = CampaignSpec(
            sites=["gov.uk", "apache.org"],
            networks=[DSL, with_loss(DSL, 0.02),
                      trace_profile("steady4", constant_rate_trace(4.0),
                                    min_rtt_ms=60.0)],
            stacks=["TCP", "QUIC+BBR"],
            seeds=[0, 7], runs=3, timeout=90.0, name="round-trip",
        )
        rebuilt = spec_from_json(
            json.loads(json.dumps(spec.describe())))
        assert rebuilt.fingerprint() == spec.fingerprint()
        assert [p.name for p in rebuilt.networks] == \
            [p.name for p in spec.networks]

    def test_legacy_spec_json_resolves_names(self):
        spec = _spec()
        data = spec.describe()
        del data["axes"]  # spec.json written before full payloads
        rebuilt = spec_from_json(data)
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_legacy_spec_json_with_derived_profile_rejected(self):
        from repro.netem.profiles import DSL, with_loss

        spec = CampaignSpec(sites=["gov.uk"],
                            networks=[with_loss(DSL, 0.02)],
                            stacks=["TCP"], runs=1)
        data = spec.describe()
        del data["axes"]
        with pytest.raises(ValueError, match="cannot be resolved"):
            spec_from_json(data)


class TestJoin:
    def test_join_rebuilds_equivalent_campaign(self, tmp_path):
        original = Campaign(_spec(), cache_dir=tmp_path)
        original.write_spec()
        joined = join_campaign(original.campaign_dir)
        assert joined.spec.fingerprint() == original.spec.fingerprint()
        assert joined.campaign_dir == original.campaign_dir
        assert joined.cache.directory == original.cache.directory

    def test_join_missing_spec_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            join_campaign(tmp_path / "nope")

    def test_join_refuses_stale_behaviour_dir(self, tmp_path,
                                              monkeypatch):
        original = Campaign(_spec(), cache_dir=tmp_path)
        original.write_spec()
        monkeypatch.setattr(harness_mod, "SIM_BEHAVIOUR_VERSION",
                            harness_mod.SIM_BEHAVIOUR_VERSION + 1)
        with pytest.raises(StaleCampaignError):
            join_campaign(original.campaign_dir)

    def test_join_refuses_tampered_spec(self, tmp_path):
        original = Campaign(_spec(), cache_dir=tmp_path)
        spec_path = original.write_spec()
        data = json.loads(spec_path.read_text())
        data["runs"] = 99  # grid no longer matches the fingerprint
        spec_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="fingerprint"):
            join_campaign(original.campaign_dir)

    def test_default_worker_id_unique_per_process(self):
        assert str(os.getpid()) in default_worker_id()

    def test_worker_ids_sanitized_for_filesystem_use(self, tmp_path):
        """Ids become path components (lease tombstones, partial
        files); a '/' must not break reclaim or hide partials."""
        from repro.testbed.distributed import sanitize_worker_id

        assert sanitize_worker_id("team/a b") == "team-a-b"
        assert sanitize_worker_id("") == "worker"
        leases = LeaseManager(tmp_path, "team/a", FAST)
        assert leases.worker_id == "team-a"
        assert leases.acquire("fp")
        old = time.time() - FAST.ttl_s - 5
        os.utime(leases.path("fp"), (old, old))
        other = LeaseManager(tmp_path, "x/y", FAST)
        assert other.break_stale("fp") and other.acquire("fp")


class TestTwoJoiners:
    """The acceptance criterion: concurrent workers, one shared dir."""

    @pytest.fixture(scope="class")
    def shared_run(self, tmp_path_factory):
        """Two concurrent workers over one fresh campaign directory,
        plus a single-worker reference run with a live report sink."""
        base = tmp_path_factory.mktemp("dist")
        reference_report = GridReport()
        reference = Campaign(_spec(), cache_dir=base / "single")
        reference_result = reference.run(
            processes=1,
            sink=lambda c, s: reference_report.add(c.key, s))
        assert reference_result.ok

        shared_cache = base / "shared"
        results = {}

        def work(worker_id):
            campaign = Campaign(_spec(), cache_dir=shared_cache)
            results[worker_id] = run_worker(
                campaign, worker_id=worker_id, lease=FAST,
                processes=1, flush_every=1, claim_chunk=1)

        threads = [threading.Thread(target=work, args=(wid,))
                   for wid in ("w1", "w2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        campaign = Campaign(_spec(), cache_dir=shared_cache)
        return dict(results=results, campaign=campaign,
                    reference_report=reference_report,
                    reference=reference)

    def test_both_workers_finish_ok(self, shared_run):
        for result in shared_run["results"].values():
            assert result.ok
            assert len(result.results) == 4

    def test_no_condition_simulated_twice(self, shared_run):
        """Zero duplicate manifest entries across both workers."""
        manifest = shared_run["campaign"].manifest_path
        lines = [json.loads(line) for line in open(manifest)]
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 4
        assert all(line["status"] == "simulated" for line in lines)
        # Every line is attributed to the worker that simulated it.
        assert {line["worker"] for line in lines} <= {"w1", "w2"}
        # And each worker's "simulated" count matches its attribution.
        by_worker = {wid: sum(l["worker"] == wid for l in lines)
                     for wid in ("w1", "w2")}
        for wid, result in shared_run["results"].items():
            assert result.counts.get("simulated", 0) == by_worker[wid]

    def test_every_condition_settled_exactly_once_overall(self,
                                                          shared_run):
        total_simulated = sum(
            result.counts.get("simulated", 0)
            for result in shared_run["results"].values())
        assert total_simulated == 4

    def test_cache_bytes_identical_to_single_worker(self, shared_run):
        single_dir = shared_run["reference"].cache.directory
        shared_dir = shared_run["campaign"].cache.directory
        single = sorted(p.name for p in single_dir.glob("*.json"))
        shared = sorted(p.name for p in shared_dir.glob("*.json"))
        assert single == shared and len(single) == 4
        for name in single:
            assert (single_dir / name).read_bytes() == \
                (shared_dir / name).read_bytes()

    def test_merged_report_identical_to_single_worker(self, shared_run):
        """Partial shards + merge == one sequential worker's report."""
        merged = merge_partial_reports(
            shared_run["campaign"].campaign_dir)
        reference = shared_run["reference_report"]
        assert render_grid(merged) == render_grid(reference)
        _assert_json_close(merged.to_json(), reference.to_json())

    def test_posthoc_from_partials_matches_summary_stream(self,
                                                          shared_run):
        campaign_dir = shared_run["campaign"].campaign_dir
        store = SummaryStore.open(
            campaign_dir, cache_dir=shared_run["campaign"].cache.directory)
        streamed = GridReport().consume(store)
        merged = merge_partial_reports(
            campaign_dir, cache_dir=shared_run["campaign"].cache.directory)
        assert render_grid(merged) == render_grid(streamed)

    def test_no_claims_left_behind(self, shared_run):
        claims = shared_run["campaign"].campaign_dir / "claims"
        assert not list(claims.glob("*.lease"))

    def test_partials_cover_grid_disjointly(self, shared_run):
        store = SummaryStore.open(
            shared_run["campaign"].campaign_dir,
            cache_dir=shared_run["campaign"].cache.directory)
        covered = []
        for path in store.partial_paths():
            covered.extend(store.load_partial_state(path)["fingerprints"])
        assert len(covered) == len(set(covered)) == 4

    def test_mismatched_partial_config_rejected(self, shared_run):
        with pytest.raises(ValueError, match="pivot config"):
            merge_partial_reports(
                shared_run["campaign"].campaign_dir,
                report=GridReport(rows=("website",), cols="stack"),
                cache_dir=shared_run["campaign"].cache.directory)

    def test_overlapping_shards_never_double_count(self, shared_run,
                                                   tmp_path):
        """A condition covered by two shards (cache pruned and
        re-simulated, frozen worker resumed after reclaim, ...) must
        contribute its samples exactly once to the merged report."""
        import shutil

        source = shared_run["campaign"].campaign_dir
        clone = tmp_path / "overlap"
        shutil.copytree(source, clone)
        # Duplicate one worker's shard under another worker id: every
        # one of its fingerprints is now claimed by two partials.
        partials = sorted((clone / "partials").glob("*.json"))
        duplicate = json.loads(partials[0].read_text())
        duplicate["worker"] = "impostor"
        (clone / "partials" / "impostor.json").write_text(
            json.dumps(duplicate))
        merged = merge_partial_reports(
            clone, cache_dir=shared_run["campaign"].cache.directory)
        assert render_grid(merged) == \
            render_grid(shared_run["reference_report"])


class TestStaleReclaim:
    def test_crashed_workers_condition_resimulated(self, tmp_path):
        """A killed worker's stale lease is reclaimed and its condition
        simulated by the surviving worker."""
        spec = _spec("reclaim")
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.write_spec()
        condition = spec.conditions()[0]
        ghost = LeaseManager(campaign.campaign_dir, "ghost", FAST)
        assert ghost.acquire(condition.fingerprint())
        old = time.time() - FAST.ttl_s - 5
        os.utime(ghost.path(condition.fingerprint()), (old, old))

        survivor = Campaign(spec, cache_dir=tmp_path)
        result = run_worker(survivor, worker_id="survivor", lease=FAST,
                            processes=1)
        assert result.ok
        assert result.counts == {"simulated": 4}
        lines = [json.loads(line)
                 for line in open(campaign.manifest_path)]
        assert sum(line["fingerprint"] == condition.fingerprint()
                   for line in lines) == 1
        assert not list(
            (campaign.campaign_dir / "claims").glob("*.lease"))

    def test_live_lease_makes_worker_wait_for_shared_result(
            self, tmp_path):
        """A condition a live peer holds is never re-simulated: the
        worker polls until the peer *commits* (cache store + manifest
        line) and settles it as "shared"."""
        from repro.testbed.campaign import ConditionResult

        spec = _spec("shared-wait")
        holder_campaign = Campaign(spec, cache_dir=tmp_path,
                                   worker="peer")
        holder_campaign.write_spec()
        condition = spec.conditions()[0]
        peer = LeaseManager(holder_campaign.campaign_dir, "peer", FAST)
        assert peer.acquire(condition.fingerprint())

        def deliver():
            # The "peer" records and commits while the worker waits.
            time.sleep(0.4)
            holder_campaign.cache.store(
                condition.label, condition.fingerprint(),
                condition.produce())
            holder_campaign._append_manifest(
                ConditionResult(condition, "simulated"))
            peer.release(condition.fingerprint())

        delivery = threading.Thread(target=deliver)
        delivery.start()
        worker = Campaign(spec, cache_dir=tmp_path)
        result = run_worker(worker, worker_id="waiter", lease=FAST,
                            processes=1)
        delivery.join(timeout=60)
        assert result.ok
        assert result.counts == {"simulated": 3, "shared": 1}
        statuses = {r.condition.fingerprint(): r.status
                    for r in result.results}
        assert statuses[condition.fingerprint()] == "shared"

    def test_peer_killed_between_store_and_manifest_append(
            self, tmp_path):
        """A recording whose worker died before its manifest line
        landed must not silently settle as "shared" (the manifest
        would omit it); the survivor adopts it — a cache hit, no
        re-simulation — and commits the missing line itself."""
        import repro.testbed.campaign as campaign_mod

        spec = _spec("torn-commit")
        ghost_campaign = Campaign(spec, cache_dir=tmp_path)
        ghost_campaign.write_spec()
        condition = spec.conditions()[0]
        # The ghost stored the recording and then died: stale lease,
        # no manifest line.
        ghost_campaign.cache.store(condition.label,
                                   condition.fingerprint(),
                                   condition.produce())
        ghost = LeaseManager(ghost_campaign.campaign_dir, "ghost", FAST)
        assert ghost.acquire(condition.fingerprint())
        old = time.time() - FAST.ttl_s - 5
        os.utime(ghost.path(condition.fingerprint()), (old, old))

        produced = []
        real = campaign_mod.produce_summary

        def counting(website, profile, stack, **kwargs):
            produced.append(website)
            return real(website, profile, stack, **kwargs)

        campaign_mod.produce_summary = counting
        try:
            survivor = Campaign(spec, cache_dir=tmp_path)
            result = run_worker(survivor, worker_id="survivor",
                                lease=FAST, processes=1)
        finally:
            campaign_mod.produce_summary = real
        assert result.ok
        # The ghost's condition was adopted, not re-produced.
        assert len(produced) == 3
        lines = [json.loads(line)
                 for line in open(ghost_campaign.manifest_path)]
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 4
        assert condition.fingerprint() in fingerprints


class TestAdoption:
    def test_concurrent_joiners_adopt_orphan_recordings_once(
            self, tmp_path):
        """Recordings present in the cache with no manifest line (a
        crash window) are adopted under a lease: N joiners produce
        exactly one manifest line per condition, never duplicates."""
        spec = _spec("adopt")
        seeder = Campaign(spec, cache_dir=tmp_path)
        seeder.write_spec()
        for condition in spec.conditions():
            seeder.cache.store(condition.label, condition.fingerprint(),
                               condition.produce())
        results = {}

        def work(worker_id):
            campaign = Campaign(spec, cache_dir=tmp_path)
            results[worker_id] = run_worker(
                campaign, worker_id=worker_id, lease=FAST, processes=1)

        threads = [threading.Thread(target=work, args=(wid,))
                   for wid in ("a1", "a2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(result.ok for result in results.values())
        lines = [json.loads(line)
                 for line in open(seeder.manifest_path)]
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 4
        assert all(line["status"] == "cached" for line in lines)
        assert not list(
            (seeder.campaign_dir / "claims").glob("*.lease"))


class TestPartialAggregator:
    def test_flush_writes_behaviour_stamp_and_fingerprints(
            self, tmp_path):
        spec = _spec("partial")
        campaign = Campaign(spec, cache_dir=tmp_path)
        result = run_worker(campaign, worker_id="solo", lease=FAST,
                            processes=1, flush_every=1)
        assert result.ok
        partial_path = campaign.campaign_dir / "partials" / "solo.json"
        state = json.loads(partial_path.read_text())
        assert state["worker"] == "solo"
        assert state["sim_behaviour"] == harness_mod.SIM_BEHAVIOUR_VERSION
        assert len(state["fingerprints"]) == 4
        shard = GridReport.from_state(state["report"])
        assert not shard.is_empty

    def test_stale_partial_rejected(self, tmp_path, monkeypatch):
        spec = _spec("stale-partial")
        campaign = Campaign(spec, cache_dir=tmp_path)
        run_worker(campaign, worker_id="solo", lease=FAST, processes=1)
        store = SummaryStore.open(campaign.campaign_dir,
                                  cache_dir=tmp_path)
        paths = store.partial_paths()
        assert len(paths) == 1
        monkeypatch.setattr(harness_mod, "SIM_BEHAVIOUR_VERSION",
                            harness_mod.SIM_BEHAVIOUR_VERSION + 1)
        with pytest.raises(StaleCampaignError):
            store.load_partial_state(paths[0])
        # Historical inspection remains possible on request.
        assert store.load_partial_state(
            paths[0], check_behaviour=False)["worker"] == "solo"

    def test_worker_without_recordings_writes_no_partial(self, tmp_path):
        spec = _spec("nothing-to-do")
        Campaign(spec, cache_dir=tmp_path).run(processes=1)
        late = Campaign(spec, cache_dir=tmp_path)
        result = run_worker(late, worker_id="late", lease=FAST,
                            processes=1)
        assert result.counts == {"resumed": 4}
        assert not (late.campaign_dir / "partials" / "late.json").exists()
        # merge still reports the whole grid from the summaries.
        merged = merge_partial_reports(late.campaign_dir,
                                       cache_dir=tmp_path)
        assert not merged.is_empty

    def test_claim_chunk_validation(self, tmp_path):
        campaign = Campaign(_spec("chunk"), cache_dir=tmp_path)
        leases = LeaseManager(campaign.campaign_dir, "w", FAST)
        with pytest.raises(ValueError, match="claim_chunk"):
            ClaimQueue(campaign, leases, claim_chunk=0)

    def test_partial_aggregator_skips_unrecorded(self, tmp_path):
        campaign = Campaign(_spec("skip-unrecorded"), cache_dir=tmp_path)
        aggregator = PartialAggregator(campaign, "w", flush_every=1)
        aggregator.add(campaign.spec.conditions()[0])  # nothing cached
        assert aggregator.fingerprints == []
        aggregator.close()
        assert not aggregator.path.exists()


class TestDistributedCli:
    def test_cli_workers_join_and_partial_report(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["campaign", "--sites", "gov.uk", "--networks",
                     "DSL", "--stacks", "TCP", "QUIC", "--runs", "1",
                     "--workers", "2", "--lease-poll", "0.05",
                     "--cache-dir", cache, "--name", "cli-dist",
                     "--quiet"]) == 0
        campaigns = list((tmp_path / "cache" / "campaigns").iterdir())
        assert len(campaigns) == 1
        campaign_dir = str(campaigns[0])
        capsys.readouterr()

        # Joining the finished dir is a pure resume; no re-simulation.
        assert main(["campaign", "--join", campaign_dir,
                     "--cache-dir", cache, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "2 resumed" in out

        # Post-hoc report merged from the worker partials.
        assert main(["campaign", "--campaign-dir", campaign_dir,
                     "--cache-dir", cache, "--from-partials"]) == 0
        out = capsys.readouterr().out
        assert "TCP" in out and "QUIC" in out and "±" in out

    def test_cli_join_rejects_axis_flags(self, tmp_path):
        from repro.cli import main

        for flags in (["--sites", "gov.uk"], ["--seeds", "1", "2"],
                      ["--runs", "3"], ["--timeout", "60"],
                      ["--metric", "SI"], ["--name", "renamed"]):
            with pytest.raises(SystemExit, match="conflicts with --join"):
                main(["campaign", "--join", str(tmp_path)] + flags)

    def test_cli_join_missing_dir_errors(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no campaign spec"):
            main(["campaign", "--join", str(tmp_path / "nope")])

    def test_cli_bad_lease_config_rejected(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="heartbeat"):
            main(["campaign", "--join", str(tmp_path), "--lease-ttl",
                  "5", "--lease-heartbeat", "10"])

    def test_cli_bad_claim_chunk_rejected(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="claim-chunk"):
            main(["campaign", "--sites", "gov.uk", "--networks", "DSL",
                  "--stacks", "TCP", "--runs", "1", "--workers", "1",
                  "--claim-chunk", "0",
                  "--cache-dir", str(tmp_path / "cache")])
        assert not (tmp_path / "cache").exists()  # nothing was spawned

    def test_cli_workers_leave_plain_run_bytes(self, tmp_path, capsys):
        """A fault-free ``--workers 2`` fleet records byte-identical
        cache files to a plain run, with exactly one manifest line per
        fingerprint, and its workers' partials follow the report
        flags."""
        from repro.cli import main

        grid = ["campaign", "--sites", "gov.uk", "--networks", "DSL",
                "--stacks", "TCP", "QUIC", "--seeds", "5", "6",
                "--runs", "1", "--processes", "1", "--quiet",
                "--name", "fleet-bytes"]
        assert main(grid + ["--cache-dir", str(tmp_path / "plain")]) == 0
        assert main(grid + ["--cache-dir", str(tmp_path / "fleet"),
                            "--workers", "2", "--claim-chunk", "1",
                            "--lease-poll", "0.05", "--report",
                            "--pivot", "seed,stack"]) == 0
        captured = capsys.readouterr()
        assert "cannot merge worker partials" not in captured.err
        assert "seed" in captured.out and "±" in captured.out

        def recordings(name):
            return {path.name: path.read_bytes()
                    for path in (tmp_path / name).glob("*.json")}

        plain = recordings("plain")
        assert len(plain) == 4
        assert recordings("fleet") == plain
        campaign_dir, = (tmp_path / "fleet" / "campaigns").iterdir()
        fingerprints = [json.loads(line)["fingerprint"] for line
                        in open(campaign_dir / "manifest.jsonl")]
        assert len(fingerprints) == len(set(fingerprints)) == 4


class TestAtomicAcquire:
    """Regression: a worker killed between the old O_EXCL create and
    its first body write left an empty husk lease — unattributable, so
    nobody could blame it and it blocked the condition for a full TTL.
    Acquire now publishes a complete body atomically via link()."""

    def test_lease_appears_fully_formed_with_fresh_heartbeat(
            self, tmp_path, monkeypatch):
        real_link = os.link
        published = []

        def spying_link(src, dst, *args, **kwargs):
            if str(dst).endswith(".lease"):
                # At publish time the body must already be complete
                # and the target must not exist yet.
                with open(src) as handle:
                    published.append(
                        (json.load(handle), os.path.exists(dst)))
            return real_link(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "link", spying_link)
        leases = LeaseManager(tmp_path, "w0", FAST)
        before = time.time()
        assert leases.acquire("fp")
        (body, dst_existed), = published
        assert not dst_existed
        assert body["worker"] == "w0"
        assert body["pid"] == os.getpid()
        assert body["host"]
        # The link is the initial heartbeat: never stale-at-birth.
        assert leases.path("fp").stat().st_mtime >= before - 1.0
        assert not leases.is_stale("fp")
        assert leases.holder("fp")["worker"] == "w0"

    def test_no_temp_files_leak_on_win_or_loss(self, tmp_path):
        winner = LeaseManager(tmp_path, "w0", FAST)
        loser = LeaseManager(tmp_path, "w1", FAST)
        assert winner.acquire("fp")
        assert not loser.acquire("fp")
        leftovers = [path.name for path
                     in (tmp_path / "claims").iterdir()
                     if path.name != "fp.lease"]
        assert leftovers == []
        # The losing acquire must not have disturbed the holder.
        assert winner.holds("fp")
        assert loser.holder("fp")["worker"] == "w0"


class TestSelectRace:
    """Regression: ``select`` read the manifest tail, then raced for
    leases. A peer that appended its line and released its lease in
    between lost that lease to us, and the condition ran again: a cache
    hit settled as "simulated", so a duplicate manifest line landed.
    The fix re-checks ``committed()`` while *holding* the lease."""

    def test_peer_commit_after_snapshot_is_deferred(self, tmp_path,
                                                    monkeypatch):
        spec = _spec("select-race")
        ours = Campaign(spec, cache_dir=tmp_path)
        ours.write_spec()
        peer = Campaign(spec, cache_dir=tmp_path, worker="peer")
        condition = spec.conditions()[0]
        leases = LeaseManager(ours.campaign_dir, "us", FAST)
        queue = ClaimQueue(ours, leases)
        snapshot = queue._refresh_committed
        committed = []

        def snapshot_then_peer_commits():
            snapshot()
            if not committed:
                # Deterministic interleaving: the peer appends its line
                # and releases its lease right after our snapshot.
                committed.append(condition.fingerprint())
                peer._append_manifest(
                    ConditionResult(condition, "simulated"))

        monkeypatch.setattr(queue, "_refresh_committed",
                            snapshot_then_peer_commits)
        mine, deferred = queue.select([condition])
        assert committed and mine == [] and deferred == [condition]
        assert not leases.holds(condition.fingerprint())
        assert not leases.path(condition.fingerprint()).exists()
        # The next poll settles it as the peer's.
        assert queue.wait(deferred) == ([condition], [], [])


class TestAdoptionRace:
    """Regression: two joiners scanning the same orphaned recording
    (cache stored, no manifest line — the crash window) could both
    append a line: one adopted, appended "cached" and released, then
    the other won the freed adopt lease and appended again. The fix
    re-checks ``committed()`` while *holding* the adopt lease."""

    def test_peer_commit_between_check_and_adopt_is_not_duplicated(
            self, tmp_path):
        spec = _spec("adoption-race")
        seeder = Campaign(spec, cache_dir=tmp_path)
        assert seeder.run(processes=1).ok
        # Wind back to the crash window: recordings in the cache, no
        # manifest lines, so every condition is adoptable.
        seeder.manifest_path.unlink()

        peer = Campaign(spec, cache_dir=tmp_path)
        conditions = {c.fingerprint(): c for c in spec.conditions()}
        committed = []

        def peer_commits(fingerprint, **_):
            # Deterministic interleaving of the race: the peer adopts,
            # appends its line and releases in the window between our
            # committed() snapshot check and our adopt win.
            if fingerprint not in committed:
                committed.append(fingerprint)
                peer._append_manifest(ConditionResult(
                    conditions[fingerprint], "cached"))

        faults.install(faults.FaultPlan(),
                       hooks={"pre-adopt": peer_commits})
        try:
            ours = Campaign(spec, cache_dir=tmp_path)
            result = run_worker(ours, worker_id="racer", lease=FAST,
                                processes=1)
        finally:
            faults.uninstall()

        assert result.ok
        assert len(committed) == 4  # the hook fired for every orphan
        statuses = {r.condition.fingerprint(): r.status
                    for r in result.results}
        # Every condition settled against the peer's line — we never
        # appended a duplicate on top of it.
        assert set(statuses.values()) == {"resumed"}
        lines = [json.loads(line)
                 for line in open(ours.manifest_path)]
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 4
        assert {line["status"] for line in lines} == {"cached"}
