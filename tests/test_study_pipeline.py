"""Streaming study pipeline: partials, merge algebra, report, serve."""

import copy
import io
import json
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import repro.util.rng
from repro.analysis.streaming import grid_report
from repro.cli import _parse_shard, serve_study_queries
from repro.study.design import GROUP_ORDER, StudyPlan, scaled_participants
from repro.study.engine import AbEngine, RatingEngine
from repro.study.export import VOTE_NAMES
from repro.study.filtering import FILTER_RULES, apply_filters, funnel_from_flags
from repro.study.participants import GROUPS
from repro.study.pipeline import (
    ConditionIndex,
    StudyIndex,
    StudyPartial,
    _histogram_median,
    _key,
    build_partial,
    build_report,
    merge_partials,
)
from repro.study.rows import rows_by_study
from repro.study.session import ViolationPlan, events_from_draws
from repro.testbed.harness import RecordingSummary
from repro.testbed.store import ConditionKey, seal_record

from tests.conftest import SMALL_SITES

SCALE = 0.05
SEED = 5


@pytest.fixture(scope="module")
def index(small_testbed):
    plan = StudyPlan(sites=SMALL_SITES)
    return ConditionIndex.from_testbed(small_testbed, plan)


@pytest.fixture(scope="module")
def plan():
    return StudyPlan(sites=SMALL_SITES)


@pytest.fixture(scope="module")
def partial(index, plan):
    return build_partial(index, plan, seed=SEED,
                         participants_scale=SCALE)


class TestConditionIndex:
    def test_covers_grid(self, index, plan):
        assert len(index) == len(plan.sites) * len(plan.networks) * \
            len(plan.stacks)
        assert index.websites == sorted(SMALL_SITES)

    def test_lookup_missing_is_loud(self, index):
        with pytest.raises(KeyError, match="no recording"):
            index.lookup("nosuch.example", "DSL", "TCP")

    def test_derived_plan_preserves_order(self, index):
        derived = index.plan()
        base = StudyPlan()
        assert derived.networks == base.networks
        assert derived.stacks == base.stacks
        assert derived.pairs == base.pairs
        assert set(derived.sites) == set(SMALL_SITES)

    def test_lowest_seed_wins(self):
        class FakeSummary:
            def __init__(self, si):
                self.website, self.network, self.stack = \
                    "w.example", "DSL", "TCP"
                self.selected_metrics = {
                    "SI": si, "FVC": si, "LVC": si, "VC85": si,
                    "PLT": si}
                self.video_duration = si

        index = ConditionIndex()
        index.add(7, FakeSummary(1.0))
        index.add(2, FakeSummary(2.0))  # lower seed replaces
        index.add(9, FakeSummary(3.0))  # higher seed is ignored
        assert index.lookup("w.example", "DSL", "TCP").si == 2.0

    def test_middlebox_recordings_do_not_collide(self):
        """A clean and a middlebox recording of the same site/network/
        stack/seed are distinct viewing conditions: both are indexed,
        each under its own network qualifier."""
        def summary(plt, **axes):
            return RecordingSummary(
                website="w.example", network="SAT+LAN", stack="TCP",
                runs=1, selection_metric="PLT",
                selected_metrics={"SI": plt, "FVC": plt, "LVC": plt,
                                  "VC85": plt, "PLT": plt},
                selected_curve=[(0.0, 0.0), (plt, 1.0)],
                run_metrics=[{"PLT": plt}], mean_retransmissions=0.0,
                mean_segments_sent=1.0, completed_fraction=1.0, **axes)

        key = ConditionKey(website="w.example", network="SAT+LAN",
                           stack="TCP", seed=0, label="l", fingerprint="f")
        index = ConditionIndex.from_pairs([
            (key, summary(0.4)),
            (key, summary(7.7, middleboxes="ack-decimate")),
            (key, summary(1.5, path="split")),
            (key, summary(9.0, path="split", middleboxes="adversarial")),
        ])
        assert len(index) == 4
        assert index.lookup("w.example", "SAT+LAN", "TCP").plt == 0.4
        assert index.lookup(
            "w.example", "SAT+LAN@ack-decimate", "TCP").plt == 7.7
        assert index.lookup("w.example", "SAT+LAN@split", "TCP").plt == 1.5
        assert index.lookup(
            "w.example", "SAT+LAN@split@adversarial", "TCP").plt == 9.0


#: ``spawn_rng`` calls one ``build_partial`` makes over the small fixture:
#: one study entropy per (study, group), 6, plus two appeal offsets per
#: distinct (website, network) of each group's rating pools, 2 x 20.
#: Recomputing both offsets for every rating pool entry made it 306.
SPAWN_RNG_PER_PARTIAL = 46


class _CallCounter:
    """Counts calls to a function, wherever a module bound it by name."""

    def __init__(self, monkeypatch, owner, name: str):
        self.calls = 0
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(name) is original:
                monkeypatch.setattr(module, name, counting)


class TestReadPathWork:
    """A machine-free work gate on the study read path: grid report ->
    partials -> report -> serve index. Wall time varies by machine;
    these call counts do not."""

    @pytest.fixture
    def counters(self, monkeypatch):
        return {
            "t.ppf": _CallCounter(monkeypatch, scipy_stats.t, "ppf"),
            "pearsonr": _CallCounter(monkeypatch, scipy_stats, "pearsonr"),
            "spawn_rng": _CallCounter(monkeypatch, repro.util.rng,
                                      "spawn_rng"),
        }

    def test_read_path_makes_no_scipy_dispatch(self, small_testbed, index,
                                               plan, counters):
        pairs = [
            (ConditionKey(website=website, network=network, stack=stack,
                          seed=0, label="", fingerprint=""),
             small_testbed.recording(website, network, stack))
            for website, network, stack in plan.required_recordings()]
        grid_report(pairs).to_json()
        shards = [build_partial(index, plan, seed=SEED,
                                participants_scale=SCALE, shard=(i, 2))
                  for i in range(2)]
        merged = merge_partials(shards)
        assert "Figure 6" in build_report(merged, index).render()
        StudyIndex(index, merged)
        assert counters["t.ppf"].calls == 0
        assert counters["pearsonr"].calls == 0

    def test_spawn_rng_calls_per_partial(self, index, plan, counters):
        build_partial(index, plan, seed=SEED, participants_scale=SCALE)
        assert counters["spawn_rng"].calls == SPAWN_RNG_PER_PARTIAL


@dataclass
class LoggedSession:
    row: int
    events: object


def _event_logs(block):
    """One realised R1-R7 event log per participant of a block."""
    return [LoggedSession(i, events_from_draws(
        ViolationPlan.from_flags(block.flags[:, i]), block.durations[i],
        block.events.focus_u[i], block.events.total_u[i],
        block.events.question_u[i], block.events.color_codes[i]))
        for i in range(block.size)]


class TestPartialAgainstClassicCampaign:
    """The aggregates must agree exactly with the classic, session-shaped
    reading of the same blocks: R1-R7 over realised event logs, and the
    surviving rows."""

    @pytest.fixture(scope="class")
    def rows(self, index, plan):
        return rows_by_study(index, plan, seed=SEED,
                             participants_scale=SCALE)

    def test_funnels_identical(self, partial, index, plan, rows):
        """funnel_from_flags == apply_filters over the event logs, at
        full Table 3 participation so every rule removes someone."""
        removed = np.zeros(len(FILTER_RULES), dtype=int)
        for group in GROUP_ORDER:
            for engine_cls, study in ((AbEngine, "ab"),
                                      (RatingEngine, "rating")):
                engine = engine_cls(group, plan, lookup=index.lookup)
                count = getattr(GROUPS[group], f"participants_{study}")
                for block in engine.blocks(count, SEED, through="events"):
                    alive, funnel = funnel_from_flags(block.flags)
                    survivors, reference = apply_filters(
                        _event_logs(block))
                    assert reference.as_row() == funnel.as_row()
                    assert [log.row for log in survivors] == \
                        np.flatnonzero(alive).tolist()
                    removed += funnel.removed_by_rule()
                assert funnel_from_flags(rows[(group, study)].flags)[1] \
                    .as_row() == partial.funnel(group, study).as_row()
        assert (removed > 0).all(), removed

    def test_ab_votes_identical(self, partial, rows):
        reference = Counter()
        for group in GROUP_ORDER:
            part = rows[(group, "ab")]
            for index, vote in zip(part.trials["indices"].ravel().tolist(),
                                   part.trials["votes"].ravel().tolist()):
                c = part.conditions[index]
                key = _key(group, c.website, c.network, c.stack_a,
                           c.stack_b)
                reference[(key, VOTE_NAMES[vote])] += 1
        for key, counts in partial.ab_votes.items():
            assert counts[0] == reference[(key, "a")]
            assert counts[1] == reference[(key, "same")]
            assert counts[2] == reference[(key, "b")]
        total = sum(sum(c[:3]) for _, c in partial.ab_votes.items())
        assert total == sum(reference.values())

    def test_rating_moments_identical(self, partial, rows):
        reference = {}
        for group in GROUP_ORDER:
            part = rows[(group, "rating")]
            for index, speed, quality in zip(
                    part.trials["indices"].ravel().tolist(),
                    part.trials["speed"].ravel().tolist(),
                    part.trials["quality"].ravel().tolist()):
                c = part.conditions[index]
                key = _key(group, part.contexts[index], c.website,
                           c.network, c.stack)
                cell = reference.setdefault(
                    key, {"speed": [], "quality": []})
                cell["speed"].append(speed)
                cell["quality"].append(quality)
        assert set(reference) == set(partial.rating)
        for key, cell in partial.rating.items():
            for which in ("speed", "quality"):
                values = reference[key][which]
                moments = cell[which]
                assert moments.count == len(values)
                assert moments.mean == pytest.approx(
                    statistics.fmean(values), abs=1e-9)

    def test_internet_medians_exact(self, partial, rows):
        part = rows[("internet", "rating")]
        scores = {}
        for index, speed in zip(part.trials["indices"].ravel().tolist(),
                                part.trials["speed"].ravel().tolist()):
            scores.setdefault(part.conditions[index].key, []).append(speed)
        for key, counts in partial.histograms.items():
            _, website, network, stack = key.split("|")
            values = scores[(website, network, stack)]
            assert _histogram_median(counts) == \
                statistics.median(values)


class TestMergeAlgebra:
    @pytest.fixture(scope="class")
    def shards(self, index, plan):
        return [build_partial(index, plan, seed=SEED,
                              participants_scale=SCALE, shard=(i, 3),
                              block_size=8) for i in range(3)]

    @pytest.fixture(scope="class")
    def whole(self, index, plan):
        return build_partial(index, plan, seed=SEED,
                             participants_scale=SCALE, block_size=8)

    def _rebuild(self, shards):
        return [StudyPartial.from_state(s.to_state()) for s in shards]

    def test_merge_equals_sequential(self, shards, whole):
        merged = merge_partials(self._rebuild(shards))
        assert merged.funnels.to_json() == whole.funnels.to_json()
        assert merged.ab_votes.to_json() == whole.ab_votes.to_json()
        assert merged.histograms.to_json() == \
            whole.histograms.to_json()
        assert set(merged.rating) == set(whole.rating)
        for key, cell in whole.rating.items():
            for which in ("speed", "quality"):
                a, b = cell[which], merged.rating[key][which]
                assert a.count == b.count
                assert a.mean == pytest.approx(b.mean, abs=1e-9)
                assert a.m2 == pytest.approx(b.m2, abs=1e-6)

    def test_merge_order_independent(self, shards, whole):
        forward = merge_partials(self._rebuild(shards))
        backward = merge_partials(self._rebuild(shards)[::-1])
        assert forward.funnels.to_json() == backward.funnels.to_json()
        assert forward.ab_votes.to_json() == \
            backward.ab_votes.to_json()
        for key, cell in forward.rating.items():
            for which in ("speed", "quality"):
                assert cell[which].count == \
                    backward.rating[key][which].count

    def test_shard_union_recorded(self, shards):
        merged = merge_partials(self._rebuild(shards))
        assert merged.shards == [[0, 3], [1, 3], [2, 3]]

    def test_config_mismatch_rejected(self, index, plan, shards):
        other = build_partial(index, plan, seed=SEED + 1,
                              participants_scale=SCALE, shard=(0, 3),
                              block_size=8)
        with pytest.raises(ValueError, match="different configs"):
            merge_partials([self._rebuild(shards)[0], other])

    def test_state_round_trip(self, shards):
        state = shards[0].to_state()
        clone = StudyPartial.from_state(state)
        assert clone.to_state() == state

    def test_state_does_not_alias_config(self, shards):
        """Mutating a state never changes a partial's merge identity."""
        partial = StudyPartial.from_state(shards[0].to_state())
        identity = copy.deepcopy(partial.config)
        state = partial.to_state()
        state["config"]["plan"]["sites"].append("example.org")
        state["config"]["groups"].clear()
        assert partial.config == identity
        source = shards[0].to_state()
        rebuilt = StudyPartial.from_state(source)
        source["config"]["plan"]["networks"].append("LTE")
        source["config"]["groups"].append("lab")
        assert rebuilt.config == identity

    def test_sealed_write_and_load(self, shards, tmp_path):
        path = tmp_path / "study_partials" / "w0.json"
        shards[0].write(path)
        loaded = StudyPartial.load(path)
        assert loaded.to_state() == shards[0].to_state()
        # A torn write (truncated JSON) is loud, not silent.
        path.write_text(path.read_text()[:40])
        with pytest.raises(ValueError, match="torn"):
            StudyPartial.load(path)

    def test_checksum_tamper_detected(self, shards, tmp_path):
        path = tmp_path / "w1.json"
        shards[0].write(path)
        record = json.loads(path.read_text())
        record["config"]["seed"] = 999
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="checksum"):
            StudyPartial.load(path)


    def _funnel(self, index, plan, *shards):
        partials = [build_partial(index, plan, seed=SEED,
                                  participants_scale=SCALE, shard=shard,
                                  block_size=8, groups=("microworker",))
                    for shard in shards]
        return merge_partials(partials).funnel("microworker", "ab").as_row()

    @pytest.mark.parametrize("shards,named", [
        (((0, 2), (0, 2), (1, 2)), "0:2 and 0:2"),
        (((0, 1), (1, 2)), "0:1 and 1:2"),
        (((1, 4), (0, 2), (3, 6)), "1:4 and 3:6"),
    ])
    def test_overlapping_shards_refuse_to_merge(self, index, plan, shards,
                                                named):
        """Shards (i, k) and (j, l) share blocks iff i ≡ j (mod gcd);
        merging them used to double-count those blocks silently."""
        with pytest.raises(ValueError, match=f"shards {named} overlap"):
            self._funnel(index, plan, *shards)

    def test_disjoint_mixed_steps_merge_exactly(self, index, plan):
        single = self._funnel(index, plan, (0, 1))
        assert single == [24, 24, 23, 21, 16, 16, 15, 14]
        assert self._funnel(index, plan, (0, 4), (2, 4), (1, 2)) == single
        assert self._funnel(index, plan, (1, 2), (0, 2)) == single


def _record_paths(value, prefix=()):
    """Every (path, value) below the root of a JSON record."""
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,), item
        yield from _record_paths(item, prefix + (key,))


def _at(record, path):
    for key in path:
        record = record[key]
    return record


#: One value of each JSON type; a mutation picks one of another type.
JSON_VALUES = (None, True, "x", 7, 1.5, [], {})


class TestPartialLoader:
    """``StudyPartial.load`` either returns the partial that was written
    or raises ``ValueError`` (``StaleCampaignError`` included) — never a
    ``KeyError``/``TypeError`` traceback, never a different partial."""

    @pytest.fixture(scope="class")
    def original(self, index, plan):
        return build_partial(index, plan, seed=SEED,
                             participants_scale=SCALE, block_size=8,
                             shard=(1, 3))

    def _check(self, original, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "partial.json"
            path.write_bytes(text if isinstance(text, bytes)
                             else text.encode("utf-8"))
            try:
                loaded = StudyPartial.load(path)
            except ValueError:
                return
        assert loaded.to_state() == original.to_state()

    def test_missing_field_is_named(self, original):
        state = original.to_state()
        del state["funnels"]
        with pytest.raises(ValueError, match="missing field state.funnels"):
            StudyPartial.from_state(state)

    def test_wrong_type_is_named(self, original):
        state = copy.deepcopy(original.to_state())
        state["config"]["seed"] = "5"
        with pytest.raises(ValueError,
                           match="state.config.seed must be int, got str"):
            StudyPartial.from_state(state)

    def test_unknown_version_refused(self, original):
        state = original.to_state()
        state["version"] = 2
        with pytest.raises(ValueError, match="version 2"):
            StudyPartial.from_state(state)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzz_sealed_bytes(self, original, data):
        """Truncations and bit flips of a sealed file."""
        raw = json.dumps(seal_record(original.to_state())).encode("utf-8")
        position = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:position]
        else:
            bit = data.draw(st.integers(0, 7))
            raw = raw[:position] + bytes([raw[position] ^ (1 << bit)]) \
                + raw[position + 1:]
        self._check(original, raw)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzz_structure(self, original, data):
        """Deleted fields and wrong-typed values, sealed and unsealed.

        A sealed record is mutated after sealing (the checksum must
        catch it) or re-sealed (the field checks must); an unsealed one
        carries no checksum. Count rows (``rows`` entries) are data, not
        fields: deleting one from an unsealed record is undetectable by
        design, so deletions there target sealed records only.
        """
        state = copy.deepcopy(original.to_state())
        paths = list(_record_paths(state))
        path, value = paths[data.draw(st.integers(0, len(paths) - 1))]
        parent = _at(state, path[:-1])
        mode = data.draw(st.sampled_from(
            ("sealed-after", "resealed", "unsealed")))
        deletable = isinstance(parent, dict) and (
            mode == "sealed-after" or path[-2:-1] != ("rows",))
        sealed = seal_record(state) if mode == "sealed-after" else None
        target = _at(sealed, path[:-1]) if sealed else parent
        if deletable and data.draw(st.booleans()):
            del target[path[-1]]
        else:
            target[path[-1]] = data.draw(st.sampled_from(
                [v for v in JSON_VALUES if type(v) is not type(value)]))
        record = sealed if sealed else (
            seal_record(state) if mode == "resealed" else state)
        self._check(original, json.dumps(record))


class TestReport:
    def test_report_sections(self, partial, index):
        report = build_report(partial, index)
        assert len(report.funnels) == len(GROUP_ORDER) * 2
        assert report.ab_shares
        assert report.rating_cells
        assert report.agreement
        assert report.heatmap is not None
        text = report.render()
        assert "Table 3" in text
        assert "Figure 4" in text
        assert "Figure 6" in text

    def test_funnel_width(self, partial):
        row = partial.funnel("microworker", "ab").as_row()
        assert len(row) == len(FILTER_RULES) + 1
        # Funnels are monotone non-increasing.
        assert all(a >= b for a, b in zip(row, row[1:]))


class TestHistogramMedian:
    @pytest.mark.parametrize("values", [
        [10], [10, 70], [30, 30, 40], [10, 20, 30, 40],
        [70] * 5 + [10] * 5, list(range(10, 71)),
    ])
    def test_matches_statistics_median(self, values):
        import statistics

        counts = [0] * 61
        for value in values:
            counts[value - 10] += 1
        assert _histogram_median(counts) == statistics.median(values)

    def test_empty(self):
        assert _histogram_median([0] * 61) is None


class TestServe:
    @pytest.fixture(scope="class")
    def study_index(self, index, partial):
        return StudyIndex(index, partial)

    def test_mos_matches_partial(self, study_index, partial):
        key, cell = next(
            (key, cell) for key, cell in partial.rating.items()
            if key.startswith("microworker|free_time"))
        _, context, website, network, stack = key.split("|")
        response = study_index.query({
            "op": "mos", "website": website, "network": network,
            "stack": stack, "context": context,
        })
        assert response["ok"]
        assert response["mos"] == pytest.approx(cell["speed"].mean)
        assert response["n"] == cell["speed"].count
        assert "predicted_mos" in response

    def test_ab_shares_sum_to_one(self, study_index, partial):
        key, _ = next(iter(partial.ab_votes.items()))
        group, website, network, stack_a, stack_b = key.split("|")
        response = study_index.query({
            "op": "ab", "group": group, "network": network,
            "stack_a": stack_a, "stack_b": stack_b,
        })
        assert response["ok"]
        assert sum(response["shares"].values()) == pytest.approx(1.0)
        assert response["n"] == sum(response["votes"].values())

    def test_ab_reversed_pair_swaps_sides(self, study_index, partial):
        """Cells are stored in plan orientation; the reversed query
        must answer with the a/b tallies swapped, not a KeyError."""
        key, _ = next(iter(partial.ab_votes.items()))
        group, website, network, stack_a, stack_b = key.split("|")
        forward = study_index.query({
            "op": "ab", "group": group, "network": network,
            "stack_a": stack_a, "stack_b": stack_b,
        })
        reverse = study_index.query({
            "op": "ab", "group": group, "network": network,
            "stack_a": stack_b, "stack_b": stack_a,
        })
        assert reverse["ok"]
        assert reverse["votes"]["a"] == forward["votes"]["b"]
        assert reverse["votes"]["b"] == forward["votes"]["a"]
        assert reverse["votes"]["same"] == forward["votes"]["same"]
        assert reverse["n"] == forward["n"]

    def test_unknown_condition_is_error(self, study_index):
        response = study_index.query({
            "op": "mos", "website": "nosuch.example",
            "network": "DSL", "stack": "TCP",
        })
        assert response["ok"] is False
        assert "unknown condition" in response["error"]

    def test_unknown_op_is_error(self, study_index):
        response = study_index.query({"op": "frobnicate"})
        assert response["ok"] is False

    def test_serve_loop_round_trip(self, study_index):
        requests = "\n".join([
            json.dumps({"op": "ping"}),
            "",
            "not json",
            json.dumps({"op": "condition",
                        "website": sorted(SMALL_SITES)[0],
                        "network": "DSL", "stack": "TCP"}),
            "quit",
            json.dumps({"op": "ping"}),  # after quit: never answered
        ])
        out = io.StringIO()
        answered = serve_study_queries(
            study_index, io.StringIO(requests), out)
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert answered == 3
        assert responses[0]["ok"] is True
        assert responses[1]["ok"] is False
        assert responses[2]["ok"] is True
        assert responses[2]["metrics"]["SI"] > 0

    def test_warm_query_latency(self, study_index):
        """The paper-scale serve budget is <10 ms per warm query; the
        tier-1 bound is generous for loaded CI machines."""
        out = io.StringIO()
        requests = "\n".join(json.dumps({"op": "ping"})
                             for _ in range(50))
        serve_study_queries(study_index, io.StringIO(requests), out)
        latencies = [json.loads(line)["latency_ms"]
                     for line in out.getvalue().splitlines()]
        assert sorted(latencies)[len(latencies) // 2] < 50.0


class TestScaledParticipants:
    def test_lab_floor_applies_to_lab_only(self):
        # Regression: the min-10 floor exists so the tiny lab group
        # stays statistically usable at small scales; it must not
        # inflate the crowd groups.
        assert scaled_participants(35, 0.05, "lab") == 10
        assert scaled_participants(487, 0.005, "microworker") == 2
        assert scaled_participants(218, 0.005, "internet") == 1
        assert scaled_participants(487, 1.0, "microworker") == 487

    def test_scale_up(self):
        assert scaled_participants(487, 10.0, "microworker") == 4870


class TestShardParsing:
    def test_valid(self):
        assert _parse_shard("0:1") == (0, 1)
        assert _parse_shard("2:5") == (2, 5)

    @pytest.mark.parametrize("text", ["", "3", "a:b", "1:0", "2:2",
                                      "-1:3"])
    def test_invalid(self, text):
        with pytest.raises(SystemExit):
            _parse_shard(text)
