"""Mergeable incremental accumulators for streaming aggregation.

The batch analyses load every sample into memory before computing a
statistic; these accumulators consume a stream of values (or of
``(ConditionKey, RecordingSummary)`` pairs from
:class:`repro.testbed.store.SummaryStore`) and keep only sufficient
statistics, so aggregating an N-condition campaign grid costs O(axes)
memory instead of O(N). Every accumulator has a ``merge()`` that
combines two partial aggregations exactly — the building block for
per-worker partial aggregation when campaign workers are distributed
across hosts.

Equality with the batch layer is part of the contract and is pinned by
tests: :meth:`StreamingMoments.ci` matches
:func:`~repro.analysis.stats.mean_confidence_interval`,
:func:`anova_from_moments` matches
:func:`~repro.analysis.stats.anova_oneway`, and the Welch marks in
:class:`GridReport` match :func:`~repro.analysis.stats.welch_ttest_p`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from scipy import stats as scipy_stats

from repro.analysis.stats import (
    AnovaResult,
    MeanCI,
    mean_ci_from_stats,
    welch_ttest_p_from_stats,
)
from repro.axes import AXIS_NAMES


class StreamingMoments:
    """Count / mean / M2 accumulator (Welford), exactly mergeable.

    ``merge`` uses the parallel (Chan et al.) update, so splitting a
    stream across workers and merging the partials gives the same
    moments as one sequential pass.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self, count: int = 0, mean: float = 0.0, m2: float = 0.0):
        self.count = count
        self.mean = mean
        self.m2 = m2

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold another accumulator into this one (returns self)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2 = \
                other.count, other.mean, other.m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        return self

    def copy(self) -> "StreamingMoments":
        return StreamingMoments(self.count, self.mean, self.m2)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 below two samples."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def ci(self, confidence: float = 0.99) -> MeanCI:
        """Student-t CI, identical to the batch ``mean_confidence_interval``."""
        return mean_ci_from_stats(self.count, self.mean, self.std,
                                  confidence)

    def welch_p(self, other: "StreamingMoments") -> float:
        """Welch's t-test p-value against another group's moments."""
        return welch_ttest_p_from_stats(
            self.count, self.mean, self.variance,
            other.count, other.mean, other.variance)

    def to_json(self) -> Dict[str, float]:
        return {"count": self.count, "mean": self.mean, "m2": self.m2}

    @classmethod
    def from_json(cls, data: Dict[str, float]) -> "StreamingMoments":
        return cls(int(data["count"]), float(data["mean"]),
                   float(data["m2"]))

    def __repr__(self) -> str:
        return (f"StreamingMoments(count={self.count}, "
                f"mean={self.mean:.6g}, m2={self.m2:.6g})")


class StreamingHistogram:
    """Fixed-width binned histogram with mergeable counts.

    Quantiles interpolate linearly inside the hit bin, so the error of
    :meth:`quantile` is bounded by one ``bin_width``; min and max are
    tracked exactly. Two histograms merge exactly when their bin widths
    match.
    """

    __slots__ = ("bin_width", "count", "minimum", "maximum", "_bins")

    def __init__(self, bin_width: float = 0.1):
        if bin_width <= 0.0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._bins: Dict[int, int] = {}

    def add(self, value: float) -> None:
        index = math.floor(value / self.bin_width)
        self._bins[index] = self._bins.get(index, 0) + 1
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        if other.bin_width != self.bin_width:
            raise ValueError(
                f"cannot merge histograms with bin widths "
                f"{self.bin_width} and {other.bin_width}")
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (error at most one bin width)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            raise ValueError("empty histogram has no quantiles")
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        target = q * self.count
        cumulative = 0
        for index in sorted(self._bins):
            in_bin = self._bins[index]
            if cumulative + in_bin >= target:
                fraction = (target - cumulative) / in_bin
                estimate = (index + fraction) * self.bin_width
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += in_bin
        return self.maximum

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable state; ``from_json`` round-trips exactly."""
        return {
            "bin_width": self.bin_width,
            "count": self.count,
            "minimum": None if math.isinf(self.minimum) else self.minimum,
            "maximum": None if math.isinf(self.maximum) else self.maximum,
            "bins": {str(index): count
                     for index, count in self._bins.items()},
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "StreamingHistogram":
        histogram = cls(bin_width=float(data["bin_width"]))
        histogram.count = int(data["count"])
        minimum, maximum = data.get("minimum"), data.get("maximum")
        histogram.minimum = math.inf if minimum is None else float(minimum)
        histogram.maximum = -math.inf if maximum is None else float(maximum)
        histogram._bins = {int(index): int(count)
                           for index, count in dict(data["bins"]).items()}
        return histogram


class CountTable:
    """Mergeable table of fixed-width integer count vectors.

    Rows are keyed by strings; each row is a vector of ``width``
    non-negative integer counts. Merging adds rows elementwise, so any
    sharding of a count stream merges back to the sequential totals
    exactly — the integer counterpart of :class:`StreamingMoments` used
    by the study pipeline for filter funnels, A/B vote counts and score
    histograms.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = int(width)
        self.rows: Dict[str, List[int]] = {}

    def add(self, key: str, index: int, count: int = 1) -> None:
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [0] * self.width
        row[index] += int(count)

    def add_vector(self, key: str, counts: Sequence[int]) -> None:
        if len(counts) != self.width:
            raise ValueError(
                f"expected a vector of width {self.width}, "
                f"got {len(counts)}")
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [0] * self.width
        for index, count in enumerate(counts):
            row[index] += int(count)

    def row(self, key: str) -> Optional[List[int]]:
        counts = self.rows.get(key)
        return list(counts) if counts is not None else None

    def items(self) -> Iterator[Tuple[str, List[int]]]:
        return iter(self.rows.items())

    def __len__(self) -> int:
        return len(self.rows)

    def merge(self, other: "CountTable") -> "CountTable":
        """Fold another table into this one (returns self)."""
        if other.width != self.width:
            raise ValueError(
                f"cannot merge count tables of widths "
                f"{self.width} and {other.width}")
        for key, counts in other.rows.items():
            row = self.rows.get(key)
            if row is None:
                self.rows[key] = list(counts)
            else:
                for index, count in enumerate(counts):
                    row[index] += count
        return self

    def to_json(self) -> Dict[str, object]:
        return {"width": self.width,
                "rows": {key: list(counts)
                         for key, counts in self.rows.items()}}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CountTable":
        table = cls(int(data["width"]))
        for key, counts in dict(data["rows"]).items():
            table.add_vector(str(key), [int(c) for c in counts])
        return table


def anova_from_moments(
        groups: Sequence[StreamingMoments]) -> Optional[AnovaResult]:
    """One-way ANOVA from per-group moments; matches ``anova_oneway``.

    Groups below two samples are dropped, and None is returned when
    fewer than two usable groups remain or every group is degenerate —
    the same semantics as the batch function.
    """
    usable = [g for g in groups if g.count >= 2]
    if len(usable) < 2:
        return None
    if all(g.m2 == 0.0 for g in usable):
        return None
    total = sum(g.count for g in usable)
    grand_mean = sum(g.count * g.mean for g in usable) / total
    ss_between = sum(g.count * (g.mean - grand_mean) ** 2 for g in usable)
    ss_within = sum(g.m2 for g in usable)
    df_between = len(usable) - 1
    df_within = total - len(usable)
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    if math.isnan(f_stat):
        return None
    p_value = float(scipy_stats.f.sf(f_stat, df_between, df_within))
    return AnovaResult(
        f_statistic=float(f_stat),
        p_value=p_value,
        group_sizes=tuple(g.count for g in usable),
    )


# -- per-axis group-by -------------------------------------------------------


def _check_axes(names: Sequence[str]) -> Tuple[str, ...]:
    for name in names:
        if name not in AXIS_NAMES:
            raise ValueError(
                f"unknown condition axis {name!r}; "
                f"expected one of {AXIS_NAMES}")
    return tuple(names)


class AxisAccumulator:
    """Streaming group-by over condition axes for one metric.

    Feeds each summary's per-run metric samples into a
    :class:`StreamingMoments` keyed by the requested axis values; memory
    is O(distinct groups) regardless of grid size.
    """

    def __init__(self, axes: Sequence[str] = ("network", "stack"),
                 metric: str = "SI"):
        self.axes = _check_axes(axes)
        self.metric = metric
        self.groups: Dict[Tuple[object, ...], StreamingMoments] = {}

    def add(self, key: object, summary: object) -> None:
        """Accumulate one ``(ConditionKey, RecordingSummary)`` pair."""
        group = tuple(getattr(key, axis) for axis in self.axes)
        moments = self.groups.get(group)
        if moments is None:
            moments = self.groups[group] = StreamingMoments()
        moments.add_many(summary.metric_samples(self.metric))

    def consume(self, pairs: Iterable[Tuple[object, object]]) -> None:
        for key, summary in pairs:
            self.add(key, summary)

    def merge(self, other: "AxisAccumulator") -> "AxisAccumulator":
        if other.axes != self.axes or other.metric != self.metric:
            raise ValueError("can only merge identically-configured "
                             "accumulators")
        for group, moments in other.groups.items():
            mine = self.groups.get(group)
            if mine is None:
                self.groups[group] = moments.copy()
            else:
                mine.merge(moments)
        return self

    def anova(self) -> Optional[AnovaResult]:
        """One-way ANOVA across the accumulated groups."""
        return anova_from_moments(list(self.groups.values()))

    def items(self) -> Iterator[Tuple[Tuple[object, ...], StreamingMoments]]:
        return iter(self.groups.items())

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable state: axes/metric plus per-group moments.

        Axis values are strings or ints (see ``ConditionKey``), so the
        JSON round-trip reconstructs group keys exactly — the basis for
        flushing a worker's partial aggregation to disk and merging it
        on another host.
        """
        return {
            "axes": list(self.axes),
            "metric": self.metric,
            "groups": [{"group": list(group), "moments": moments.to_json()}
                       for group, moments in self.groups.items()],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "AxisAccumulator":
        accumulator = cls(axes=tuple(data["axes"]),
                          metric=str(data["metric"]))
        for entry in data["groups"]:
            accumulator.groups[tuple(entry["group"])] = \
                StreamingMoments.from_json(entry["moments"])
        return accumulator


# -- pivoted grid reports ----------------------------------------------------


@dataclass(frozen=True)
class GridCellStat:
    """One rendered pivot cell: interval plus baseline comparison."""

    ci: MeanCI
    p_vs_baseline: Optional[float]
    alpha: float

    @property
    def significant(self) -> bool:
        """True when Welch's test against the baseline column rejects."""
        return self.p_vs_baseline is not None \
            and self.p_vs_baseline < self.alpha

    @property
    def mark(self) -> str:
        return "*" if self.significant else ""


class GridReport:
    """Streaming Table 1/2-style pivot of campaign axes.

    Rows are the product of ``rows`` axes (e.g. network profile),
    columns the values of the ``cols`` axis (e.g. stack); each cell
    accumulates the per-run samples of ``metric`` into mergeable
    moments, rendered as mean ± CI with a Welch significance mark
    against the ``baseline`` column (default: the first column seen).
    Row and column order follow first appearance in the stream, which
    for a campaign is the spec's deterministic sweep order.
    """

    def __init__(
        self,
        rows: Sequence[str] = ("network",),
        cols: str = "stack",
        metric: str = "SI",
        confidence: float = 0.99,
        baseline: Optional[str] = None,
    ):
        self.row_axes = _check_axes(
            (rows,) if isinstance(rows, str) else rows)
        self.col_axis = _check_axes((cols,))[0]
        if self.col_axis in self.row_axes:
            raise ValueError(
                f"column axis {cols!r} also appears in rows {rows!r}")
        self.metric = metric
        self.confidence = confidence
        self.baseline = baseline
        self._cells: Dict[Tuple[Tuple[object, ...], object],
                          StreamingMoments] = {}
        # Insertion-ordered sets (dict keys) of row tuples / col values.
        self._row_order: Dict[Tuple[object, ...], None] = {}
        self._col_order: Dict[object, None] = {}
        # Degraded-coverage marks (set by mark_coverage): condition
        # labels the campaign spec expects but nothing recorded.
        self.missing: List[str] = []
        self.expected: Optional[int] = None

    @property
    def alpha(self) -> float:
        return 1.0 - self.confidence

    # -- accumulation --------------------------------------------------------

    def add(self, key: object, summary: object) -> None:
        """Accumulate one ``(ConditionKey, RecordingSummary)`` pair."""
        row = tuple(getattr(key, axis) for axis in self.row_axes)
        col = getattr(key, self.col_axis)
        self._row_order.setdefault(row)
        self._col_order.setdefault(col)
        moments = self._cells.get((row, col))
        if moments is None:
            moments = self._cells[(row, col)] = StreamingMoments()
        moments.add_many(summary.metric_samples(self.metric))

    def consume(self, pairs: Iterable[Tuple[object, object]]) \
            -> "GridReport":
        """Drain an iterable of pairs (e.g. a ``SummaryStore``)."""
        for key, summary in pairs:
            self.add(key, summary)
        return self

    def merge(self, other: "GridReport") -> "GridReport":
        """Fold a partial report (another worker's shard) into this one."""
        if (other.row_axes, other.col_axis, other.metric) != \
                (self.row_axes, self.col_axis, self.metric):
            raise ValueError("can only merge identically-configured "
                             "reports")
        for row in other._row_order:
            self._row_order.setdefault(row)
        for col in other._col_order:
            self._col_order.setdefault(col)
        for cell_key, moments in other._cells.items():
            mine = self._cells.get(cell_key)
            if mine is None:
                self._cells[cell_key] = moments.copy()
            else:
                mine.merge(moments)
        return self

    def mark_coverage(self, expected: int,
                      missing: Sequence[str]) -> "GridReport":
        """Record which expected conditions this report does *not* cover.

        Set by degraded-mode mergers (crashed workers, quarantined
        conditions — see ``merge_partial_reports``): ``expected`` is the
        spec's condition count, ``missing`` the labels with no recording
        behind them. Coverage is presentation metadata, not accumulator
        state — it does not survive ``to_state`` and never affects
        ``merge`` identity, so a degraded report still merges and, once
        the gaps are re-simulated, renders byte-identically to a
        fault-free run.
        """
        self.expected = int(expected)
        self.missing = sorted(missing)
        return self

    @property
    def degraded(self) -> bool:
        """True when the report is known to miss expected conditions."""
        return bool(self.missing)

    def reorder(self, keys: Iterable[object]) -> "GridReport":
        """Reorder rows/columns to follow ``keys``' first appearance.

        Merged reports inherit row/column order from whichever shard
        merged first — which for distributed (and especially chaos)
        runs depends on worker timing. Reordering to the campaign
        spec's deterministic sweep order makes the render independent
        of execution history, so a crash-and-recover run is
        byte-identical to a fault-free one. Keys absent from the data
        are ignored; rows/columns the keys don't name keep their
        relative order at the end. Note the default baseline column is
        the *first* column, so reordering also pins which column the
        Welch marks compare against.
        """
        row_order: Dict[Tuple[object, ...], None] = {}
        col_order: Dict[object, None] = {}
        for key in keys:
            row = tuple(getattr(key, axis) for axis in self.row_axes)
            col = getattr(key, self.col_axis)
            if row in self._row_order:
                row_order.setdefault(row)
            if col in self._col_order:
                col_order.setdefault(col)
        for row in self._row_order:
            row_order.setdefault(row)
        for col in self._col_order:
            col_order.setdefault(col)
        self._row_order = row_order
        self._col_order = col_order
        return self

    # -- readout -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._cells

    def row_keys(self) -> List[Tuple[object, ...]]:
        return list(self._row_order)

    def columns(self) -> List[object]:
        return list(self._col_order)

    def baseline_column(self) -> Optional[object]:
        if self.baseline is not None:
            return self.baseline
        return next(iter(self._col_order), None)

    def moments(self, row: Tuple[object, ...],
                col: object) -> Optional[StreamingMoments]:
        return self._cells.get((row, col))

    def cell(self, row: Tuple[object, ...],
             col: object) -> Optional[GridCellStat]:
        """CI + Welch-vs-baseline for one cell (None when empty)."""
        moments = self._cells.get((row, col))
        if moments is None:
            return None
        baseline = self.baseline_column()
        p: Optional[float] = None
        if baseline is not None and col != baseline:
            base = self._cells.get((row, baseline))
            if base is not None:
                p = moments.welch_p(base)
        return GridCellStat(ci=moments.ci(self.confidence),
                            p_vs_baseline=p, alpha=self.alpha)

    # -- state (de)serialization ---------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Full internal state as a JSON-serialisable document.

        Unlike :meth:`to_json` (a rendered readout), this round-trips
        the accumulator itself: ``GridReport.from_state(r.to_state())``
        yields a report that accumulates, merges and renders identically
        to ``r``. It is what distributed campaign workers flush to
        ``partials/<worker>.json`` so a leader on another host can
        :meth:`merge` their shards.
        """
        return {
            "row_axes": list(self.row_axes),
            "col_axis": self.col_axis,
            "metric": self.metric,
            "confidence": self.confidence,
            "baseline": self.baseline,
            "row_order": [list(row) for row in self._row_order],
            "col_order": list(self._col_order),
            "cells": [{"row": list(row), "col": col,
                       "moments": moments.to_json()}
                      for (row, col), moments in self._cells.items()],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "GridReport":
        """Rebuild a report from :meth:`to_state` output.

        Axis values are strings or ints (``ConditionKey`` axes), so the
        JSON round-trip reconstructs row/column keys exactly.
        """
        report = cls(
            rows=tuple(state["row_axes"]),
            cols=str(state["col_axis"]),
            metric=str(state["metric"]),
            confidence=float(state["confidence"]),
            baseline=state.get("baseline"),
        )
        for row in state["row_order"]:
            report._row_order.setdefault(tuple(row))
        for col in state["col_order"]:
            report._col_order.setdefault(col)
        for cell in state["cells"]:
            report._cells[(tuple(cell["row"]), cell["col"])] = \
                StreamingMoments.from_json(cell["moments"])
        return report

    def config(self) -> Tuple[Tuple[str, ...], str, str, float]:
        """The identity that decides whether two reports can merge."""
        return (self.row_axes, self.col_axis, self.metric,
                self.confidence)

    def to_json(self) -> Dict[str, object]:
        """JSON document mirroring the rendered pivot."""
        rows_out: List[Dict[str, object]] = []
        for row in self._row_order:
            cells: Dict[str, object] = {}
            for col in self._col_order:
                stat = self.cell(row, col)
                if stat is None:
                    cells[str(col)] = None
                    continue
                cells[str(col)] = {
                    "mean": stat.ci.mean,
                    "lower": stat.ci.lower,
                    "upper": stat.ci.upper,
                    "n": stat.ci.n,
                    "p_vs_baseline": stat.p_vs_baseline,
                    "significant": stat.significant,
                }
            rows_out.append({
                "row": dict(zip(self.row_axes, row)),
                "cells": cells,
            })
        document: Dict[str, object] = {
            "metric": self.metric,
            "confidence": self.confidence,
            "row_axes": list(self.row_axes),
            "col_axis": self.col_axis,
            "baseline": self.baseline_column(),
            "columns": [str(c) for c in self._col_order],
            "rows": rows_out,
        }
        if self.missing:
            # Only a *degraded* report carries the coverage block, so a
            # fully-recovered chaos run stays byte-identical to a
            # fault-free one.
            document["coverage"] = {
                "expected": self.expected,
                "missing": list(self.missing),
            }
        return document


def grid_report(
    pairs: Iterable[Tuple[object, object]],
    rows: Sequence[str] = ("network",),
    cols: str = "stack",
    metric: str = "SI",
    confidence: float = 0.99,
    baseline: Optional[str] = None,
) -> GridReport:
    """Build a :class:`GridReport` by draining an iterable of pairs."""
    report = GridReport(rows=rows, cols=cols, metric=metric,
                        confidence=confidence, baseline=baseline)
    return report.consume(pairs)
