"""SummaryStore: streaming results path, live and post-hoc."""

import json
import os

import pytest

import repro.testbed.campaign as campaign_mod
import repro.testbed.harness as harness_mod
from repro.testbed.campaign import Campaign, CampaignSpec
from repro.testbed.store import (
    ConditionKey,
    StaleCampaignError,
    SummaryStore,
    atomic_write_text,
)

GRID = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"],
            seeds=[5, 6], runs=2)


@pytest.fixture(scope="module")
def finished_campaign(tmp_path_factory):
    """A real, tiny, fully-recorded campaign directory on disk."""
    cache = tmp_path_factory.mktemp("store-cache")
    campaign = Campaign(CampaignSpec(name="store", **GRID),
                        cache_dir=cache)
    result = campaign.run(processes=1)
    assert result.ok
    return campaign


class TestConditionKey:
    def test_condition_key_axes(self, finished_campaign):
        condition = finished_campaign.spec.conditions()[0]
        key = condition.key
        assert key.website == "gov.uk"
        assert key.network == "DSL"
        assert key.stack == "TCP"
        assert key.seed == 5
        assert key.label == condition.label
        assert key.fingerprint == condition.fingerprint()
        assert key.axes(("network", "stack")) == ("DSL", "TCP")

    def test_unknown_axis_rejected(self, finished_campaign):
        key = finished_campaign.spec.conditions()[0].key
        with pytest.raises(KeyError):
            key.axis("bogus")


class TestLiveStore:
    def test_iter_summaries_lazy_pairs_in_sweep_order(
            self, finished_campaign):
        pairs = list(finished_campaign.iter_summaries())
        # Sweep order: site -> network -> stack -> seed.
        assert [(c.stack.name, c.seed) for c, _ in pairs] == \
            [("TCP", 5), ("TCP", 6), ("QUIC", 5), ("QUIC", 6)]
        assert [s.stack for _, s in pairs] == \
            ["TCP", "TCP", "QUIC", "QUIC"]
        assert all(s.website == "gov.uk" for _, s in pairs)

    def test_summary_store_matches_iter_summaries(self, finished_campaign):
        store = finished_campaign.summary_store()
        assert len(store) == 4
        from_store = {k.fingerprint: s.to_json() for k, s in store}
        from_iter = {c.fingerprint(): s.to_json()
                     for c, s in finished_campaign.iter_summaries()}
        assert from_store == from_iter

    def test_iter_summaries_match_cache_entries(self, finished_campaign):
        """The whole-grid list is gone; streaming yields exactly the
        cached recording of each condition, in sweep order."""
        assert not hasattr(finished_campaign, "summaries")
        streamed = [(c.label, s.to_json())
                    for c, s in finished_campaign.iter_summaries()]
        cached = [(c.label,
                   finished_campaign.cache.load(c.label,
                                                c.fingerprint()).to_json())
                  for c in finished_campaign.spec.conditions()]
        assert streamed == cached

    def test_iter_summaries_raises_on_unrecorded(self, tmp_path):
        campaign = Campaign(CampaignSpec(name="unrun", **GRID),
                            cache_dir=tmp_path)
        with pytest.raises(KeyError):
            list(campaign.iter_summaries())

    def test_store_skips_missing_by_default(self, tmp_path):
        campaign = Campaign(CampaignSpec(name="unrun2", **GRID),
                            cache_dir=tmp_path)
        store = campaign.summary_store()
        assert list(store) == []
        with pytest.raises(KeyError):
            list(store.iter_summaries(missing="raise"))
        with pytest.raises(ValueError):
            list(store.iter_summaries(missing="ignore"))


class TestSink:
    def test_sink_streams_each_condition_once(self, tmp_path):
        spec = CampaignSpec(name="sink", **GRID)
        seen = []
        result = Campaign(spec, cache_dir=tmp_path).run(
            processes=1,
            sink=lambda c, s: seen.append((c.key.fingerprint,
                                           s.to_json())))
        assert result.ok
        assert len(seen) == 4
        assert len({fp for fp, _ in seen}) == 4

    def test_sink_fed_on_pure_resume(self, tmp_path):
        spec = CampaignSpec(name="sink-resume", **GRID)
        Campaign(spec, cache_dir=tmp_path).run(processes=1)
        seen = []
        result = Campaign(spec, cache_dir=tmp_path).run(
            processes=1, sink=lambda c, s: seen.append(c.key))
        assert result.counts == {"resumed": 4}
        assert len(seen) == 4

    def test_sink_matches_store_contents(self, tmp_path):
        spec = CampaignSpec(name="sink-eq", **GRID)
        campaign = Campaign(spec, cache_dir=tmp_path)
        streamed = {}
        campaign.run(processes=1,
                     sink=lambda c, s: streamed.update(
                         {c.key.fingerprint: s.to_json()}))
        stored = {k.fingerprint: s.to_json()
                  for k, s in campaign.summary_store()}
        assert streamed == stored

    def test_failed_conditions_not_sunk(self, tmp_path, monkeypatch):
        def flaky(website, profile, stack, **kwargs):
            if stack.name == "QUIC":
                raise RuntimeError("boom")
            return real(website, profile, stack, **kwargs)

        real = harness_mod.produce_summary
        monkeypatch.setattr(campaign_mod, "produce_summary", flaky)
        spec = CampaignSpec(name="sink-fail", **GRID)
        seen = []
        result = Campaign(spec, cache_dir=tmp_path).run(
            processes=1, failure_policy="skip",
            sink=lambda c, s: seen.append(c.key))
        assert not result.ok
        assert {k.stack for k in seen} == {"TCP"}


class TestPostHoc:
    def test_open_round_trip_without_resimulation(self, finished_campaign,
                                                  monkeypatch):
        """Reopening the campaign dir yields byte-identical summaries
        and never calls produce_summary."""
        def forbidden(*args, **kwargs):
            raise AssertionError("post-hoc store must not re-simulate")

        monkeypatch.setattr(harness_mod, "produce_summary", forbidden)
        monkeypatch.setattr(campaign_mod, "produce_summary", forbidden)

        store = SummaryStore.open(finished_campaign.campaign_dir)
        pairs = list(store)
        assert len(pairs) == 4
        live = {k.fingerprint: s.to_json()
                for k, s in finished_campaign.summary_store()}
        posthoc = {k.fingerprint: s.to_json() for k, s in pairs}
        assert posthoc == live
        for key, _ in pairs:
            assert isinstance(key, ConditionKey)
            assert key.website == "gov.uk"
            assert key.seed in (5, 6)

    def test_open_uses_manifest_axis_fields(self, finished_campaign):
        """keys() must not need to load summaries on new manifests."""
        store = SummaryStore.open(finished_campaign.campaign_dir)
        real_load = store.cache.load
        calls = []

        def counting(label, fingerprint):
            calls.append(label)
            return real_load(label, fingerprint)

        store.cache.load = counting
        keys = store.keys()
        assert len(keys) == 4
        assert calls == []

    def test_open_legacy_manifest_without_axis_fields(
            self, finished_campaign, tmp_path, caplog):
        """Manifests written before the axis fields predate version
        stamps too, so open() refuses them; opened unchecked, their
        axis-less lines are skipped and logged like torn lines, never
        reconstructed from the summaries."""
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        stripped = []
        for line in finished_campaign.manifest_path.read_text().splitlines():
            record = json.loads(line)
            # Manifests that predate the axis fields also predate the
            # record checksum and the behaviour stamp.
            for field in ("website", "network", "stack", "seed", "crc",
                          "sim_behaviour"):
                record.pop(field, None)
            stripped.append(json.dumps(record))
        (legacy_dir / "manifest.jsonl").write_text(
            "\n".join(stripped) + "\n")
        with pytest.raises(StaleCampaignError, match="no SIM_BEHAVIOUR"):
            SummaryStore.open(
                legacy_dir, cache_dir=finished_campaign.cache.directory)
        store = SummaryStore.open(
            legacy_dir, cache_dir=finished_campaign.cache.directory,
            check_behaviour=False)
        with caplog.at_level("WARNING", logger="repro.testbed.store"):
            assert store.keys() == []
            assert caplog.text.count("without axis fields") == 4
        assert list(store) == []
        # recorded_count still reports the manifest's claim, so callers
        # can tell "nothing recorded" from "nothing readable".
        assert store.recorded_count() == 4

    def test_open_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SummaryStore.open(tmp_path / "nope")

    def test_failed_status_not_listed(self, tmp_path, monkeypatch):
        def always_fail(website, profile, stack, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(campaign_mod, "produce_summary", always_fail)
        campaign = Campaign(CampaignSpec(name="allfail", **GRID),
                            cache_dir=tmp_path)
        campaign.run(processes=1, failure_policy="skip")
        store = SummaryStore.open(campaign.campaign_dir)
        assert store.keys() == []
        assert list(store) == []

    def test_open_checks_recorded_behaviour_version(self, finished_campaign,
                                                    monkeypatch):
        """A dir recorded under an older SIM_BEHAVIOUR_VERSION must not
        be silently analysed as if it were current output."""
        store = SummaryStore.open(finished_campaign.campaign_dir)
        assert store.recorded_behaviour_version() == \
            harness_mod.SIM_BEHAVIOUR_VERSION
        # The simulator's behaviour changes in some future PR...
        monkeypatch.setattr(harness_mod, "SIM_BEHAVIOUR_VERSION",
                            harness_mod.SIM_BEHAVIOUR_VERSION + 1)
        with pytest.raises(StaleCampaignError, match="re-run"):
            SummaryStore.open(finished_campaign.campaign_dir)
        # ... but historical inspection stays possible on request.
        stale = SummaryStore.open(finished_campaign.campaign_dir,
                                  check_behaviour=False)
        assert len(list(stale)) == 4

    def test_open_refuses_unstamped_legacy_dir(self, finished_campaign,
                                               tmp_path):
        """Dirs from before version stamping carry no marker; they were
        recorded by an older simulator, so open() refuses them."""
        legacy_dir = tmp_path / "legacy-version"
        legacy_dir.mkdir()
        stripped = []
        for line in finished_campaign.manifest_path.read_text().splitlines():
            record = json.loads(line)
            # Unstamped manifests also predate the record checksum.
            for field in ("sim_behaviour", "crc"):
                record.pop(field, None)
            stripped.append(json.dumps(record))
        (legacy_dir / "manifest.jsonl").write_text(
            "\n".join(stripped) + "\n")
        with pytest.raises(StaleCampaignError, match="re-run"):
            SummaryStore.open(
                legacy_dir, cache_dir=finished_campaign.cache.directory)
        store = SummaryStore.open(
            legacy_dir, cache_dir=finished_campaign.cache.directory,
            check_behaviour=False)
        assert store.recorded_behaviour_version() is None
        assert len(list(store)) == 4

    def test_grid_report_from_posthoc_store(self, finished_campaign):
        """The acceptance path: Table-style pivot from a dir on disk."""
        from repro.analysis.streaming import grid_report
        from repro.report import render_grid

        store = SummaryStore.open(finished_campaign.campaign_dir)
        report = grid_report(store, rows=("network",), cols="stack")
        out = render_grid(report)
        assert "DSL" in out
        assert "TCP" in out and "QUIC" in out
        assert "±" in out


class TestAtomicWriteText:
    """The one publish helper: a failed write leaves the old file and no
    temp file; concurrent writers of one path never share a temp."""

    def test_failed_write_keeps_old_file_and_leaves_no_temp(
            self, tmp_path, monkeypatch):
        target = tmp_path / "study_partials" / "shard.json"
        atomic_write_text(target, "old")

        def full_disk(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert [path.name for path in target.parent.iterdir()] == \
            ["shard.json"]

    def test_writers_use_private_temp_files(self, tmp_path, monkeypatch):
        temps = []
        real_replace = os.replace

        def spying_replace(src, dst):
            temps.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)
        target = tmp_path / "shard.json"
        atomic_write_text(target, "a")
        atomic_write_text(target, "b")
        assert target.read_text() == "b"
        assert len(set(temps)) == 2
