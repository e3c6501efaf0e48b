"""Streaming accumulators: incremental + merge == batch statistics."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.analysis.stats import (
    anova_oneway,
    mean_confidence_interval,
    welch_ttest_p,
    welch_ttest_p_from_stats,
)
from repro.analysis.streaming import (
    AxisAccumulator,
    GridReport,
    StreamingHistogram,
    StreamingMoments,
    anova_from_moments,
    grid_report,
)
from repro.testbed.harness import (
    SIM_BEHAVIOUR_VERSION,
    RecordingCache,
    RecordingSummary,
)
from repro.testbed.store import ConditionKey, SummaryStore, append_record

APPROX = dict(rel=1e-9, abs=1e-12)


def _datasets():
    """A spread of sizes/scales/shapes for property-style checks."""
    rng = np.random.default_rng(0)
    return [
        list(rng.normal(50.0, 5.0, size=n)) for n in (2, 3, 17, 256)
    ] + [
        list(rng.lognormal(1.0, 0.8, size=101)),
        list(rng.uniform(-3.0, 3.0, size=64)),
        [5.0, 5.0, 5.0, 5.0],           # zero variance
        [7.25],                          # single sample
    ]


def _split_points(n):
    return sorted({0, 1, n // 3, n // 2, n - 1, n}) if n > 1 else [0]


class TestStreamingMoments:
    @pytest.mark.parametrize("index", range(len(_datasets())))
    def test_incremental_matches_batch_ci(self, index):
        data = _datasets()[index]
        moments = StreamingMoments()
        moments.add_many(data)
        batch = mean_confidence_interval(data)
        ci = moments.ci()
        assert ci.n == batch.n
        assert ci.mean == pytest.approx(batch.mean, **APPROX)
        assert ci.lower == pytest.approx(batch.lower, **APPROX)
        assert ci.upper == pytest.approx(batch.upper, **APPROX)
        assert ci.confidence == batch.confidence

    @pytest.mark.parametrize("index", range(len(_datasets())))
    def test_merge_of_partials_matches_batch(self, index):
        """Any split of the stream, aggregated per-part and merged,
        equals the single-pass (and hence the batch) result."""
        data = _datasets()[index]
        for split in _split_points(len(data)):
            left, right = StreamingMoments(), StreamingMoments()
            left.add_many(data[:split])
            right.add_many(data[split:])
            merged = left.merge(right)
            batch = mean_confidence_interval(data)
            assert merged.count == batch.n
            ci = merged.ci()
            assert ci.mean == pytest.approx(batch.mean, **APPROX)
            assert ci.lower == pytest.approx(batch.lower, **APPROX)
            assert ci.upper == pytest.approx(batch.upper, **APPROX)

    def test_variance_matches_numpy(self):
        data = _datasets()[2]
        moments = StreamingMoments()
        moments.add_many(data)
        assert moments.variance == pytest.approx(
            float(np.var(data, ddof=1)), **APPROX)

    def test_merge_with_empty_is_identity(self):
        moments = StreamingMoments()
        moments.add_many([1.0, 2.0, 3.0])
        before = (moments.count, moments.mean, moments.m2)
        moments.merge(StreamingMoments())
        assert (moments.count, moments.mean, moments.m2) == before
        empty = StreamingMoments()
        empty.merge(moments)
        assert empty.count == 3
        assert empty.mean == pytest.approx(2.0)

    def test_welch_p_matches_batch(self):
        rng = np.random.default_rng(1)
        a = list(rng.normal(0.0, 1.0, 40))
        b = list(rng.normal(0.5, 2.0, 25))
        ma, mb = StreamingMoments(), StreamingMoments()
        ma.add_many(a)
        mb.add_many(b)
        assert ma.welch_p(mb) == pytest.approx(welch_ttest_p(a, b),
                                               **APPROX)

    def test_welch_from_stats_degenerate_cases(self):
        assert welch_ttest_p_from_stats(1, 0.0, 0.0, 5, 1.0, 1.0) == 1.0
        assert welch_ttest_p_from_stats(5, 1.0, 0.0, 5, 2.0, 0.0) == 0.0
        assert welch_ttest_p_from_stats(5, 1.0, 0.0, 5, 1.0, 0.0) == 1.0
        assert welch_ttest_p([1.0, 1.0], [2.0, 2.0]) == 0.0

    def test_json_round_trip(self):
        moments = StreamingMoments()
        moments.add_many([1.5, 2.5, 9.0])
        restored = StreamingMoments.from_json(
            json.loads(json.dumps(moments.to_json())))
        assert restored.count == moments.count
        assert restored.mean == moments.mean
        assert restored.m2 == moments.m2


class TestAnovaFromMoments:
    def _moments(self, groups):
        out = []
        for group in groups:
            m = StreamingMoments()
            m.add_many(group)
            out.append(m)
        return out

    def test_matches_batch_anova(self):
        rng = np.random.default_rng(2)
        groups = [list(rng.normal(50 + shift, 5, size=n))
                  for shift, n in ((0, 30), (4, 45), (-2, 12))]
        batch = anova_oneway(groups)
        streamed = anova_from_moments(self._moments(groups))
        assert streamed is not None and batch is not None
        assert streamed.f_statistic == pytest.approx(
            batch.f_statistic, **APPROX)
        assert streamed.p_value == pytest.approx(batch.p_value, **APPROX)
        assert streamed.group_sizes == batch.group_sizes

    def test_merged_partials_match_batch_anova(self):
        """Per-worker shards of each group merge into the batch result."""
        rng = np.random.default_rng(3)
        groups = [list(rng.normal(10, 2, 40)),
                  list(rng.normal(12, 2, 33))]
        shards = []
        for group in groups:
            first, second = StreamingMoments(), StreamingMoments()
            first.add_many(group[:15])
            second.add_many(group[15:])
            shards.append(first.merge(second))
        batch = anova_oneway(groups)
        streamed = anova_from_moments(shards)
        assert streamed.f_statistic == pytest.approx(
            batch.f_statistic, **APPROX)
        assert streamed.p_value == pytest.approx(batch.p_value, **APPROX)

    def test_degenerate_matches_batch(self):
        assert anova_from_moments(self._moments([[1.0], [2.0]])) is None
        assert anova_oneway([[1.0], [2.0]]) is None
        constant = [[1.0, 1.0], [1.0, 1.0]]
        assert anova_from_moments(self._moments(constant)) is None
        assert anova_oneway(constant) is None


class TestStreamingHistogram:
    def test_quantiles_within_bin_width(self):
        rng = np.random.default_rng(4)
        data = rng.normal(2.0, 0.5, size=2000)
        hist = StreamingHistogram(bin_width=0.05)
        hist.add_many(data)
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            exact = float(np.quantile(data, q))
            assert abs(hist.quantile(q) - exact) <= 0.05 + 1e-12, q

    def test_extremes_exact(self):
        hist = StreamingHistogram(bin_width=0.1)
        hist.add_many([3.0, 1.25, 7.5])
        assert hist.quantile(0.0) == 1.25
        assert hist.quantile(1.0) == 7.5

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(5)
        data = list(rng.uniform(0, 10, size=500))
        whole = StreamingHistogram(bin_width=0.2)
        whole.add_many(data)
        left = StreamingHistogram(bin_width=0.2)
        right = StreamingHistogram(bin_width=0.2)
        left.add_many(data[:123])
        right.add_many(data[123:])
        left.merge(right)
        assert left.count == whole.count
        assert left._bins == whole._bins
        assert left.minimum == whole.minimum
        assert left.maximum == whole.maximum

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram(0.1).merge(StreamingHistogram(0.2))

    def test_empty_and_bad_inputs(self):
        hist = StreamingHistogram()
        with pytest.raises(ValueError):
            hist.quantile(0.5)
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            StreamingHistogram(bin_width=0.0)


# -- group-by and grid reports over synthetic summaries ----------------------


def _pair(website, network, stack, seed, si_samples,
          curve=((0.1, 0.5), (0.4, 1.0))):
    key = ConditionKey(website=website, network=network, stack=stack,
                       seed=seed, label=f"{website}_{network}_{stack}_s{seed}",
                       fingerprint=f"fp-{website}-{network}-{stack}-{seed}")
    metrics = [{"SI": si, "PLT": si * 2.0, "FVC": si / 2.0,
                "LVC": si * 3.0, "VC85": si * 1.5} for si in si_samples]
    summary = RecordingSummary(
        website=website, network=network, stack=stack,
        runs=len(si_samples), selection_metric="PLT",
        selected_metrics=dict(metrics[0]),
        selected_curve=list(curve),
        run_metrics=metrics,
        mean_retransmissions=0.0, mean_segments_sent=10.0,
        completed_fraction=1.0,
    )
    return key, summary


def _synthetic_pairs():
    rng = np.random.default_rng(6)
    pairs = []
    for website in ("a.org", "b.org"):
        for network in ("DSL", "LTE"):
            for stack in ("TCP", "QUIC"):
                for seed in (0, 1):
                    base = 1.0 + (network == "LTE") * 2.0 \
                        - (stack == "QUIC") * 0.4
                    samples = list(rng.normal(base, 0.1, size=3))
                    pairs.append(_pair(website, network, stack, seed,
                                       samples))
    return pairs


class TestAxisAccumulator:
    def test_groups_match_batch(self):
        pairs = _synthetic_pairs()
        acc = AxisAccumulator(axes=("network", "stack"), metric="SI")
        acc.consume(pairs)
        raw = {}
        for key, summary in pairs:
            raw.setdefault((key.network, key.stack), []).extend(
                summary.metric_samples("SI"))
        assert set(acc.groups) == set(raw)
        for group, samples in raw.items():
            batch = mean_confidence_interval(samples)
            ci = acc.groups[group].ci()
            assert ci.mean == pytest.approx(batch.mean, **APPROX)
            assert ci.lower == pytest.approx(batch.lower, **APPROX)

    def test_merge_matches_single_pass(self):
        pairs = _synthetic_pairs()
        whole = AxisAccumulator(axes=("stack",), metric="PLT")
        whole.consume(pairs)
        left = AxisAccumulator(axes=("stack",), metric="PLT")
        right = AxisAccumulator(axes=("stack",), metric="PLT")
        left.consume(pairs[:7])
        right.consume(pairs[7:])
        left.merge(right)
        assert set(left.groups) == set(whole.groups)
        for group in whole.groups:
            assert left.groups[group].count == whole.groups[group].count
            assert left.groups[group].mean == pytest.approx(
                whole.groups[group].mean, **APPROX)

    def test_anova_over_groups(self):
        pairs = _synthetic_pairs()
        acc = AxisAccumulator(axes=("network",), metric="SI")
        acc.consume(pairs)
        result = acc.anova()
        assert result is not None
        assert result.significant(0.01)  # DSL vs LTE differ by design

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            AxisAccumulator(axes=("protocol",))


class TestGridReport:
    def test_cells_and_significance(self):
        report = grid_report(_synthetic_pairs(), rows=("network",),
                            cols="stack", metric="SI")
        assert report.row_keys() == [("DSL",), ("LTE",)]
        assert report.columns() == ["TCP", "QUIC"]
        assert report.baseline_column() == "TCP"
        base = report.cell(("DSL",), "TCP")
        assert base.p_vs_baseline is None and not base.significant
        quic = report.cell(("DSL",), "QUIC")
        assert quic.p_vs_baseline is not None
        assert quic.significant  # 0.4s SI gap at sigma=0.1
        raw_tcp, raw_quic = [], []
        for key, summary in _synthetic_pairs():
            if key.network == "DSL":
                (raw_tcp if key.stack == "TCP" else raw_quic).extend(
                    summary.metric_samples("SI"))
        assert quic.p_vs_baseline == pytest.approx(
            welch_ttest_p(raw_quic, raw_tcp), **APPROX)

    def test_merge_matches_single_pass(self):
        pairs = _synthetic_pairs()
        whole = grid_report(pairs)
        left = grid_report(pairs[:5])
        right = grid_report(pairs[5:])
        left.merge(right)
        assert left.row_keys() == whole.row_keys()
        assert left.columns() == whole.columns()
        for row in whole.row_keys():
            for col in whole.columns():
                a, b = left.cell(row, col), whole.cell(row, col)
                assert a.ci.n == b.ci.n
                assert a.ci.mean == pytest.approx(b.ci.mean, **APPROX)

    def test_to_json_shape(self):
        report = grid_report(_synthetic_pairs())
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["metric"] == "SI"
        assert doc["columns"] == ["TCP", "QUIC"]
        cell = doc["rows"][0]["cells"]["QUIC"]
        assert set(cell) == {"mean", "lower", "upper", "n",
                             "p_vs_baseline", "significant"}

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            GridReport(rows=("stack",), cols="stack")
        with pytest.raises(ValueError):
            GridReport(rows=("bogus",))

    def test_empty_report(self):
        report = GridReport()
        assert report.is_empty
        assert report.baseline_column() is None
        assert report.cell((), "TCP") is None


def _write_campaign(root, sites=20):
    """A finished synthetic campaign (sites x 4 networks x 5 stacks):
    summaries in the cache, manifest lines stamped with the current
    ``SIM_BEHAVIOUR_VERSION`` so ``SummaryStore.open`` accepts it."""
    cache = RecordingCache(root)
    campaign_dir = root / "campaigns" / "synthetic"
    campaign_dir.mkdir(parents=True)
    curve = [(0.05 * point, min(1.0, 0.02 * point)) for point in range(60)]
    for site in range(sites):
        for network in ("DSL", "LTE", "DA2GC", "MSS"):
            for stack in ("TCP", "TCP+", "TCPBBR", "QUIC", "QUICBBR"):
                key, summary = _pair(
                    f"site{site:03d}.example", network, stack, 0,
                    [1.0 + 0.01 * run + 0.001 * site for run in range(5)],
                    curve=curve)
                cache.store(key.label, key.fingerprint, summary)
                append_record(campaign_dir / "manifest.jsonl", {
                    "fingerprint": key.fingerprint, "label": key.label,
                    "website": key.website, "network": key.network,
                    "stack": key.stack, "seed": key.seed,
                    "sim_behaviour": SIM_BEHAVIOUR_VERSION,
                    "status": "simulated",
                })
    return campaign_dir


def _traced_peak(compute):
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridReportOverStore:
    def test_streaming_peak_at_most_half_of_batch(self, tmp_path):
        """Draining the store one summary at a time peaks well below
        materialising the whole grid first. The streaming peak still
        grows with the grid (the manifest's keys are held), so this
        bounds the ratio rather than claiming O(axes)."""
        store = SummaryStore.open(_write_campaign(tmp_path))
        assert len(store) == 400
        streaming = _traced_peak(lambda: grid_report(store))
        batch = _traced_peak(lambda: grid_report(list(store)))
        assert streaming * 2 <= batch, (streaming, batch)


class TestStateSerialization:
    """State round-trips: the basis for per-worker partial aggregates
    flushed to disk by distributed campaign workers."""

    def test_grid_report_state_round_trip(self):
        report = grid_report(_synthetic_pairs(), rows=("network", "seed"),
                             cols="stack", metric="PLT", confidence=0.95)
        rebuilt = GridReport.from_state(
            json.loads(json.dumps(report.to_state())))
        assert rebuilt.config() == report.config()
        assert rebuilt.row_keys() == report.row_keys()
        assert rebuilt.columns() == report.columns()
        assert rebuilt.to_json() == report.to_json()

    def test_rebuilt_report_keeps_accumulating(self):
        pairs = _synthetic_pairs()
        interrupted = grid_report(pairs[:7])
        rebuilt = GridReport.from_state(
            json.loads(json.dumps(interrupted.to_state())))
        rebuilt.consume(pairs[7:])
        whole = grid_report(pairs)
        assert rebuilt.to_json() == whole.to_json()

    def test_rebuilt_report_still_merges(self):
        pairs = _synthetic_pairs()
        left = grid_report(pairs[:5])
        right = GridReport.from_state(
            json.loads(json.dumps(grid_report(pairs[5:]).to_state())))
        merged = left.merge(right)
        whole = grid_report(pairs)
        for row in whole.row_keys():
            for col in whole.columns():
                assert merged.cell(row, col).ci.mean == pytest.approx(
                    whole.cell(row, col).ci.mean, **APPROX)

    def test_state_preserves_int_vs_str_axis_values(self):
        report = grid_report(_synthetic_pairs(), rows=("seed",),
                             cols="stack")
        rebuilt = GridReport.from_state(
            json.loads(json.dumps(report.to_state())))
        assert rebuilt.row_keys() == [(0,), (1,)]
        assert all(isinstance(row[0], int)
                   for row in rebuilt.row_keys())

    def test_axis_accumulator_round_trip(self):
        accumulator = AxisAccumulator(axes=("network", "stack"),
                                      metric="SI")
        accumulator.consume(_synthetic_pairs())
        rebuilt = AxisAccumulator.from_json(
            json.loads(json.dumps(accumulator.to_json())))
        assert rebuilt.axes == accumulator.axes
        assert rebuilt.metric == accumulator.metric
        assert {g: m.to_json() for g, m in rebuilt.items()} == \
            {g: m.to_json() for g, m in accumulator.items()}

    def test_histogram_round_trip(self):
        histogram = StreamingHistogram(bin_width=0.25)
        histogram.add_many(_datasets()[2])
        rebuilt = StreamingHistogram.from_json(
            json.loads(json.dumps(histogram.to_json())))
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert rebuilt.quantile(q) == histogram.quantile(q)
        rebuilt.merge(histogram)
        assert rebuilt.count == 2 * histogram.count

    def test_empty_histogram_round_trip(self):
        rebuilt = StreamingHistogram.from_json(
            json.loads(json.dumps(StreamingHistogram(0.1).to_json())))
        assert rebuilt.count == 0
        assert math.isinf(rebuilt.minimum)
        assert math.isinf(rebuilt.maximum)


class TestGridRendering:
    def test_render_grid_text(self):
        from repro.report import render_grid

        out = render_grid(grid_report(_synthetic_pairs()))
        assert "network" in out.splitlines()[1]
        assert "TCP" in out and "QUIC" in out
        assert "±" in out
        assert "*" in out  # significance mark present

    def test_render_grid_empty(self):
        from repro.report import md_grid, render_grid

        assert "no recorded conditions" in render_grid(GridReport())
        assert "no recorded conditions" in md_grid(GridReport())

    def test_md_grid(self):
        from repro.report import md_grid

        out = md_grid(grid_report(_synthetic_pairs()))
        lines = out.splitlines()
        assert lines[0].startswith("### ")
        assert "| network | TCP | QUIC |" in out
        assert "±" in out
