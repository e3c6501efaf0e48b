"""Statistical building blocks used by the paper's analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import special as scipy_special
from scipy import stats as scipy_stats


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a symmetric confidence interval."""

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int

    @property
    def halfwidth(self) -> float:
        return (self.upper - self.lower) / 2.0

    def overlaps(self, other: "MeanCI") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def mean_ci_from_stats(n: int, mean: float, sd: float,
                       confidence: float = 0.99) -> MeanCI:
    """Student-t CI from sufficient statistics (n, mean, sample sd).

    The moments-based twin of :func:`mean_confidence_interval`, shared
    with the streaming accumulators in :mod:`repro.analysis.streaming`
    so incremental and batch aggregation produce the same interval.
    """
    if n < 1:
        raise ValueError("need at least one value")
    if n == 1:
        return MeanCI(mean, mean, mean, confidence, 1)
    sem = sd / math.sqrt(n)
    if sem == 0.0:
        return MeanCI(mean, mean, mean, confidence, int(n))
    # The ufunc behind ``scipy.stats.t.ppf``, bit for bit, without its
    # ~100 µs of per-call argument checking.
    t_crit = float(scipy_special.stdtrit(n - 1, (1 + confidence) / 2.0))
    half = t_crit * sem
    return MeanCI(mean, mean - half, mean + half, confidence, int(n))


def mean_confidence_interval(values: Sequence[float],
                             confidence: float = 0.99) -> MeanCI:
    """Student-t confidence interval for the mean (paper uses 99%)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("need at least one value")
    mean = float(data.mean())
    sd = float(data.std(ddof=1)) if data.size > 1 else 0.0
    return mean_ci_from_stats(int(data.size), mean, sd, confidence)


def is_normal(values: Sequence[float], alpha: float = 0.05) -> bool:
    """Shapiro-Wilk normality check (True = cannot reject normality).

    The paper reports lab and µWorker votes as normally distributed and
    Internet votes as not; this is the test behind that statement.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size < 3:
        return True
    if float(data.std()) == 0.0:
        return True
    # Shapiro-Wilk is defined for n <= 5000; subsample deterministically.
    if data.size > 5000:
        step = data.size // 5000 + 1
        data = data[::step]
    _, p_value = scipy_stats.shapiro(data)
    return bool(p_value > alpha)


@dataclass(frozen=True)
class AnovaResult:
    """One-way ANOVA over k groups."""

    f_statistic: float
    p_value: float
    group_sizes: Tuple[int, ...]

    def significant(self, alpha: float) -> bool:
        return self.p_value < alpha


def anova_oneway(groups: Sequence[Sequence[float]]) -> Optional[AnovaResult]:
    """One-way ANOVA; None when fewer than two non-degenerate groups."""
    usable = [np.asarray(list(g), dtype=float) for g in groups]
    usable = [g for g in usable if g.size >= 2]
    if len(usable) < 2:
        return None
    if all(float(g.std()) == 0.0 for g in usable):
        return None
    f_stat, p_value = scipy_stats.f_oneway(*usable)
    if math.isnan(f_stat):
        return None
    return AnovaResult(
        f_statistic=float(f_stat),
        p_value=float(p_value),
        group_sizes=tuple(g.size for g in usable),
    )


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0.0 for constant or single-point
    input, where r is undefined.

    The arithmetic of ``scipy.stats.pearsonr`` (scipy 1.17) step for
    step — centre, scale by the max-abs deviation before the norm, dot
    the normalised vectors, clip, round at n == 2 — so it returns the
    same float, without ~0.5 ms of dispatch and p-value work per call.
    """
    ax = np.asarray(list(x), dtype=float)
    ay = np.asarray(list(y), dtype=float)
    if ax.size != ay.size:
        raise ValueError("x and y must have equal length")
    if ax.size < 2 or (ax == ax[0]).all() or (ay == ay[0]).all():
        return 0.0
    xm = ax - ax.mean()
    ym = ay - ay.mean()
    xmax = np.abs(xm).max()
    ymax = np.abs(ym).max()
    norm_x = xmax * np.linalg.norm(xm / xmax, ord=2, axis=-1)
    norm_y = ymax * np.linalg.norm(ym / ymax, ord=2, axis=-1)
    r = float(np.clip((xm / norm_x) @ (ym / norm_y), -1.0, 1.0))
    return float(np.round(r)) if ax.size == 2 else r


def welch_ttest_p_from_stats(n1: int, mean1: float, var1: float,
                             n2: int, mean2: float, var2: float) -> float:
    """Welch's t-test p-value from sufficient statistics.

    ``var*`` are sample variances (ddof=1). Matches
    :func:`welch_ttest_p` on the same data, but needs only (n, mean,
    variance) per group, so streaming accumulators can compute
    significance marks without retaining raw samples.
    """
    if n1 < 2 or n2 < 2:
        return 1.0
    if var1 == 0.0 and var2 == 0.0:
        return 0.0 if mean1 != mean2 else 1.0
    _, p = scipy_stats.ttest_ind_from_stats(
        mean1, math.sqrt(var1), n1, mean2, math.sqrt(var2), n2,
        equal_var=False)
    return float(p) if not math.isnan(float(p)) else 1.0


def welch_ttest_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Welch's t-test p-value (per-website significance, Section 4.4)."""
    aa = np.asarray(list(a), dtype=float)
    bb = np.asarray(list(b), dtype=float)
    if aa.size < 2 or bb.size < 2:
        return 1.0
    return welch_ttest_p_from_stats(
        int(aa.size), float(aa.mean()), float(aa.var(ddof=1)),
        int(bb.size), float(bb.mean()), float(bb.var(ddof=1)))
