"""Statistics building blocks and the figure analyses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.analysis.stats import (
    anova_oneway,
    is_normal,
    mean_ci_from_stats,
    mean_confidence_interval,
    pearson_r,
    welch_ttest_p,
)
from repro.analysis.streaming import StreamingMoments
from repro.study.design import SCALE_MIN, StudyPlan
from repro.study.pipeline import (
    SCORE_BINS,
    ConditionIndex,
    StudyPartial,
    _key,
    ab_vote_shares,
    agreement_by_condition,
    anova_by_setting,
    correlation_heatmap,
    per_website_differences,
    rating_means,
)
from repro.study.rows import StudyRows, behaviour_statistics

from tests.conftest import SMALL_SITES


class TestMeanCI:
    def test_mean_and_symmetry(self):
        ci = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert ci.mean == pytest.approx(3.0)
        assert ci.upper - ci.mean == pytest.approx(ci.mean - ci.lower)

    def test_higher_confidence_wider(self):
        data = list(np.random.default_rng(0).normal(0, 1, 30))
        narrow = mean_confidence_interval(data, confidence=0.90)
        wide = mean_confidence_interval(data, confidence=0.99)
        assert wide.halfwidth > narrow.halfwidth

    def test_single_value(self):
        ci = mean_confidence_interval([5.0])
        assert ci.mean == ci.lower == ci.upper == 5.0

    def test_coverage_property(self):
        """~99% of 99% CIs must contain the true mean."""
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(300):
            sample = rng.normal(10.0, 2.0, size=25)
            ci = mean_confidence_interval(sample, confidence=0.99)
            hits += ci.contains(10.0)
        assert hits / 300 > 0.95

    def test_overlaps(self):
        a = mean_confidence_interval([1, 2, 3])
        b = mean_confidence_interval([2, 3, 4])
        c = mean_confidence_interval([100, 101, 102])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])


class TestNormality:
    def test_gaussian_accepted(self):
        data = np.random.default_rng(2).normal(50, 5, size=400)
        assert is_normal(data)

    def test_heavy_tail_rejected(self):
        data = np.random.default_rng(2).standard_t(1, size=400)
        assert not is_normal(data)

    def test_degenerate_treated_as_normal(self):
        assert is_normal([5.0, 5.0, 5.0, 5.0])
        assert is_normal([1.0])


class TestAnova:
    def test_detects_difference(self):
        rng = np.random.default_rng(3)
        a = rng.normal(50, 5, 100)
        b = rng.normal(60, 5, 100)
        result = anova_oneway([a, b])
        assert result is not None
        assert result.significant(0.01)

    def test_no_difference(self):
        rng = np.random.default_rng(3)
        groups = [rng.normal(50, 5, 100) for _ in range(5)]
        result = anova_oneway(groups)
        assert result is not None
        assert not result.significant(0.01)

    def test_degenerate_returns_none(self):
        assert anova_oneway([[1.0], [2.0]]) is None
        assert anova_oneway([[1.0, 1.0], [1.0, 1.0]]) is None


class TestPearson:
    def test_perfect_negative(self):
        assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_uncorrelated_near_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        assert abs(pearson_r(x, y)) < 0.15

    def test_degenerate_returns_zero(self):
        assert pearson_r([1, 1, 1], [1, 2, 3]) == 0.0
        assert pearson_r([1], [2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1])


#: Orders of magnitude the kernel properties sweep (1e-3 … 1e4).
SCALES = st.integers(-3, 4).map(lambda e: 10.0 ** e)
#: Two values at least 1e-3 apart, in either order.
DISTINCT_PAIRS = st.tuples(
    st.floats(-1e4, 1e4), st.floats(1e-3, 1e4), st.booleans()).map(
        lambda v: (v[0], v[0] + v[1] if v[2] else v[0] - v[1]))


class TestKernelsAgainstScipy:
    """The numpy kernels that replaced per-call scipy dispatch.

    Exact identity with the installed scipy is proven by the perfbench
    digests; these properties hold the kernels to scipy within rel
    1e-12, so a newer scipy with a reordered sum still passes.
    """

    @given(st.integers(2, 64), SCALES, SCALES, st.floats(-3.0, 3.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_pearson_matches_scipy(self, n, scale_x, scale_y, slope, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, scale_x, n) + rng.normal(0.0, scale_x)
        y = (slope * x / scale_x + rng.normal(0.0, 1.0, n)) * scale_y
        expected = float(scipy_stats.pearsonr(x, y)[0])
        assert pearson_r(x, y) == pytest.approx(expected, rel=1e-12,
                                                abs=1e-15)

    @given(DISTINCT_PAIRS, DISTINCT_PAIRS)
    def test_two_points_give_exact_sign(self, x, y):
        sign = 1.0 if (x[1] > x[0]) == (y[1] > y[0]) else -1.0
        assert pearson_r(x, y) == sign

    @given(st.integers(2, 64), st.floats(-1e4, 1e4),
           st.integers(0, 2 ** 32 - 1))
    def test_constant_input_gives_zero(self, n, value, seed):
        other = np.random.default_rng(seed).normal(size=n)
        assert pearson_r([value] * n, other) == 0.0
        assert pearson_r(other, [value] * n) == 0.0

    def test_constant_with_inexact_mean_gives_zero(self):
        # mean([0.1] * 3) != 0.1, so a nonzero std must not leak a nan.
        assert pearson_r([0.1] * 3, [1.0, 2.0, 3.0]) == 0.0

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_t_critical_value_equals_scipy(self, confidence):
        q = (1 + confidence) / 2.0
        for df in range(1, 2001):
            n = df + 1
            # sd / sqrt(n) == 1.0 exactly, so the upper bound is t_crit.
            ci = mean_ci_from_stats(n, 0.0, math.sqrt(n), confidence)
            assert ci.upper == float(scipy_stats.t.ppf(q, df)), df


class TestWelch:
    def test_separated_groups_significant(self):
        rng = np.random.default_rng(5)
        p = welch_ttest_p(rng.normal(0, 1, 50), rng.normal(3, 1, 50))
        assert p < 0.01

    def test_same_groups_not_significant(self):
        rng = np.random.default_rng(5)
        p = welch_ttest_p(rng.normal(0, 1, 50), rng.normal(0, 1, 50))
        assert p > 0.1


# -- synthetic study partials ------------------------------------------------

def ab_votes(partial, votes, network="DSL", pair=("QUIC", "TCP"),
             website="w.org", replays=0, group="microworker"):
    """Fold one participant's A/B votes ("a"/"same"/"b") into a partial."""
    partial.ab_votes.add_vector(
        _key(group, website, network, *pair),
        [votes.count("a"), votes.count("same"), votes.count("b"),
         replays * len(votes)])
    return partial


def rating_votes(partial, scores, context="work", network="DSL",
                 stack="TCP", website="w.org", group="microworker",
                 quality=None):
    """Fold one participant's rating scores into a partial."""
    cell = partial.rating_cell(
        _key(group, context, website, network, stack))
    cell["speed"].merge(moments(scores))
    cell["quality"].merge(moments(scores if quality is None else quality))
    if group == "internet":
        histogram = [0] * SCORE_BINS
        for score in scores:
            histogram[int(score) - SCALE_MIN] += 1
        partial.histograms.add_vector(
            _key("speed", website, network, stack), histogram)
    return partial


def moments(values):
    accumulator = StreamingMoments()
    accumulator.add_many(values)
    return accumulator


def empty_partial():
    return StudyPartial(config={})


class TestAbShares:
    def test_share_computation(self):
        partial = ab_votes(empty_partial(), ["a", "a", "same", "b"])
        cell = ab_vote_shares(partial)[("QUIC vs. TCP", "DSL")]
        assert cell.votes_a == 2
        assert cell.votes_same == 1
        assert cell.votes_b == 1
        assert cell.share_a == pytest.approx(0.5)
        assert cell.preferred == "a"

    def test_replay_average(self):
        partial = ab_votes(empty_partial(), ["a"], replays=2)
        ab_votes(partial, ["b"], replays=0)
        cell = ab_vote_shares(partial)[("QUIC vs. TCP", "DSL")]
        assert cell.mean_replays == pytest.approx(1.0)


class TestRatingAnalysis:
    def test_rating_means_cells(self):
        partial = rating_votes(empty_partial(), [50, 60], stack="TCP")
        rating_votes(partial, [30, 40], stack="QUIC")
        by_stack = {c.stack: c for c in rating_means(partial)}
        assert by_stack["TCP"].mean == pytest.approx(55.0)
        assert by_stack["QUIC"].mean == pytest.approx(35.0)

    def test_anova_by_setting_detects_stack_gap(self):
        rng = np.random.default_rng(6)
        partial = empty_partial()
        for _ in range(40):
            rating_votes(partial, list(rng.normal(55, 4, 3)), stack="TCP")
            rating_votes(partial, list(rng.normal(40, 4, 3)), stack="QUIC")
        results = anova_by_setting(partial)
        assert len(results) == 1
        assert results[0].significant(0.01)

    def test_per_website_differences(self):
        rng = np.random.default_rng(7)
        partial = empty_partial()
        for _ in range(30):
            rating_votes(partial, list(rng.normal(60, 3, 3)), stack="QUIC",
                         website="fast.org")
            rating_votes(partial, list(rng.normal(45, 3, 3)), stack="TCP",
                         website="fast.org")
        diffs = per_website_differences(partial, alpha=0.05)
        assert any(d.website == "fast.org" and d.faster_stack == "QUIC"
                   for d in diffs)

    def test_quality_score_selector(self):
        partial = rating_votes(empty_partial(), [50], quality=[20])
        cells = rating_means(partial, which="quality")
        assert cells[0].mean == 20


def rows_of_sessions(scores, durations=20.0, male=False):
    """Synthetic rating rows: one surviving session per score list."""
    n = len(scores)
    return StudyRows(
        group="test", study="rating", conditions=[], contexts=[],
        participant=np.arange(n), male=np.full(n, male),
        age_group=["25-44"] * n, flags=np.zeros((7, n), dtype=bool),
        trials={"indices": np.zeros((n, len(scores[0])), dtype=int),
                "speed": np.array(scores, dtype=float),
                "replays": np.zeros((n, len(scores[0])), dtype=int),
                "durations": np.full((n, len(scores[0])), durations)})


class TestAgreement:
    def test_agreement_rows(self):
        partial = rating_votes(empty_partial(), [50, 52], group="lab")
        rating_votes(partial, [48, 51], group="lab")
        rating_votes(partial, [49, 53])
        rating_votes(partial, [20, 70, 50], group="internet")
        rows = agreement_by_condition(partial)
        assert len(rows) == 1
        row = rows[0]
        assert row.lab is not None
        assert row.microworker_within_lab_ci is not None
        assert row.internet_median == 50

    def test_behaviour_statistics(self):
        stats = behaviour_statistics(rows_of_sessions([[50, 60], [55, 65]]))
        assert stats.sessions == 2
        assert stats.mean_seconds_per_video == pytest.approx(20.0)
        assert stats.male_share == 0.0

    def test_behaviour_statistics_empty(self):
        rows = rows_of_sessions([[50]])
        rows.flags[0] = True
        rows.trials = {name: column[:0]
                       for name, column in rows.trials.items()}
        with pytest.raises(ValueError):
            behaviour_statistics(rows)


@pytest.fixture(scope="module")
def index(small_testbed):
    return ConditionIndex.from_testbed(small_testbed,
                                       StudyPlan(sites=SMALL_SITES))


class TestCorrelationHeatmap:
    def test_heatmap_from_testbed(self, index):
        """Votes constructed to follow SI must correlate negatively."""
        partial = empty_partial()
        for website in ("gov.uk", "apache.org"):
            for stack in ("TCP", "QUIC"):
                si = index.lookup(website, "MSS", stack).si
                score = max(10, min(70, 70 - 2 * si))
                for _ in range(3):
                    rating_votes(partial, [score], context="plane",
                                 network="MSS", stack=stack,
                                 website=website)
        heatmap = correlation_heatmap(partial, index)
        r = heatmap.r("TCP", "SI", "MSS")
        assert r is not None
        assert r < 0

    def test_mean_r_by_metric(self, index):
        partial = empty_partial()
        for website in ("gov.uk", "apache.org"):
            si = index.lookup(website, "MSS", "TCP").si
            rating_votes(partial, [70 - si], context="plane",
                         network="MSS", website=website)
        heatmap = correlation_heatmap(partial, index)
        means = heatmap.mean_r_by_metric()
        assert set(means) <= {"FVC", "SI", "VC85", "LVC", "PLT"}
