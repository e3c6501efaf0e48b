"""End-to-end integration: paper findings on the small shared testbed.

These tests assert the qualitative *shapes* that make the reproduction
faithful: who wins where, and what the study machinery concludes.

The full grid/study cases (whole-grid loops, 120-150-participant
simulated studies) are ``slow`` — opt in with ``REPRO_RUN_SLOW=1``.
Tier-1 keeps one small smoke per area so the pipeline itself stays
guarded on every run.
"""

import pytest

from repro.analysis.stats import is_normal
from repro.study.design import PAPER_TABLE3, StudyPlan
from repro.study.pipeline import (
    ConditionIndex,
    ab_vote_shares,
    anova_by_setting,
    build_partial,
    correlation_heatmap,
    rating_means,
)
from repro.study.rows import behaviour_statistics, study_rows

from tests.conftest import SMALL_SITES


@pytest.fixture(scope="module")
def plan():
    return StudyPlan(sites=SMALL_SITES)


@pytest.fixture(scope="module")
def index(small_testbed, plan):
    return ConditionIndex.from_testbed(small_testbed, plan)


def scale_for(group, study, participants):
    """Participant scale that yields ``participants`` entrants."""
    return participants / PAPER_TABLE3[(group, study)][0]


def microworker_partial(index, plan, study, participants, seed):
    """One microworker study's partial (the other study rides along)."""
    return build_partial(
        index, plan, seed=seed, groups=("microworker",),
        participants_scale=scale_for("microworker", study, participants))


@pytest.fixture(scope="module")
def filtered_ab(index, plan):
    return microworker_partial(index, plan, "ab", 120, 42)


@pytest.fixture(scope="module")
def filtered_rating(index, plan):
    return microworker_partial(index, plan, "rating", 150, 43)


class TestTechnicalSmoke:
    """Tier-1: the paper's headline orderings on a single site."""

    def test_quic_beats_stock_tcp_on_lte(self, small_testbed):
        site = SMALL_SITES[0]
        quic = small_testbed.recording(site, "LTE", "QUIC").si
        tcp = small_testbed.recording(site, "LTE", "TCP").si
        assert quic < tcp

    def test_networks_order_load_times(self, small_testbed):
        site = SMALL_SITES[0]
        dsl = small_testbed.recording(site, "DSL", "TCP").si
        lte = small_testbed.recording(site, "LTE", "TCP").si
        mss = small_testbed.recording(site, "MSS", "TCP").si
        assert dsl < lte < mss


class TestStudySmoke:
    """Tier-1: the study machinery runs end to end at small scale."""

    def test_ab_pipeline(self, index, plan):
        partial = microworker_partial(index, plan, "ab", 30, 42)
        shares = ab_vote_shares(partial)
        assert shares
        assert all(cell.total > 0 for cell in shares.values())

    def test_rating_pipeline(self, index, plan):
        partial = microworker_partial(index, plan, "rating", 30, 43)
        cells = rating_means(partial)
        assert cells
        assert all(0.0 <= cell.mean <= 100.0 for cell in cells)


@pytest.mark.slow
class TestTechnicalShape:
    """The transport-level orderings the paper's videos encode."""

    def test_quic_beats_stock_tcp_on_lte(self, small_testbed):
        for site in SMALL_SITES:
            quic = small_testbed.recording(site, "LTE", "QUIC").si
            tcp = small_testbed.recording(site, "LTE", "TCP").si
            assert quic < tcp, site

    def test_quic_si_competitive_on_mss(self, small_testbed):
        """On the lossy satellite network QUIC's design pays off."""
        wins = 0
        for site in SMALL_SITES:
            quic = small_testbed.recording(site, "MSS", "QUIC").si
            tcp = small_testbed.recording(site, "MSS", "TCP").si
            wins += quic < tcp
        assert wins >= len(SMALL_SITES) - 1

    def test_dsl_differences_small(self, small_testbed):
        """On fast DSL the stacks are within a perceptual whisker."""
        for site in SMALL_SITES:
            values = [small_testbed.recording(site, "DSL", stack).si
                      for stack in ("TCP", "TCP+", "QUIC")]
            assert max(values) - min(values) < 0.4

    def test_networks_order_load_times(self, small_testbed):
        for site in SMALL_SITES:
            dsl = small_testbed.recording(site, "DSL", "TCP").si
            lte = small_testbed.recording(site, "LTE", "TCP").si
            mss = small_testbed.recording(site, "MSS", "TCP").si
            assert dsl < lte < mss


@pytest.mark.slow
class TestAbFindings:
    def test_quic_preferred_on_slow_networks(self, filtered_ab):
        shares = ab_vote_shares(filtered_ab)
        cell = shares[("QUIC vs. TCP", "MSS")]
        assert cell.share_a > 0.5
        assert cell.share_a > cell.share_b

    def test_quic_preferred_on_lte(self, filtered_ab):
        shares = ab_vote_shares(filtered_ab)
        cell = shares[("QUIC vs. TCP", "LTE")]
        assert cell.share_a > cell.share_b

    def test_dsl_mostly_no_difference(self, filtered_ab):
        """TCP+ vs TCP on DSL: hard to tell apart."""
        shares = ab_vote_shares(filtered_ab)
        cell = shares[("TCP+ vs. TCP", "DSL")]
        assert cell.share_same > 0.25

    def test_replays_higher_on_fast_networks(self, filtered_ab):
        shares = ab_vote_shares(filtered_ab)
        fast = [c.mean_replays for (_, net), c in shares.items()
                if net in ("DSL", "LTE")]
        slow = [c.mean_replays for (_, net), c in shares.items()
                if net in ("DA2GC", "MSS")]
        assert sum(fast) / len(fast) > sum(slow) / len(slow)


@pytest.mark.slow
class TestRatingFindings:
    def test_no_significant_protocol_effect_at_99(self, filtered_rating):
        """The paper's headline: in isolation, stacks are rated alike."""
        for setting in anova_by_setting(filtered_rating):
            assert not setting.significant(0.01), (
                f"{setting.context}/{setting.network} unexpectedly "
                f"significant: p={setting.result.p_value}"
            )

    def test_plane_rated_poor(self, filtered_rating):
        cells = rating_means(filtered_rating)
        plane = [c.mean for c in cells if c.context == "plane"]
        work_dsl = [c.mean for c in cells
                    if c.context == "work" and c.network == "DSL"]
        assert max(plane) < min(work_dsl)
        assert all(m < 45 for m in plane)

    def test_microworker_votes_normal(self, filtered_rating):
        votes = sum(cell.ci.n for cell in rating_means(filtered_rating)
                    if cell.context == "work")
        # Gaussian-ish vote noise: Shapiro should usually accept on
        # moderate samples (the paper reports µWorker data as normal).
        assert votes > 100

    def test_internet_votes_heavy_tailed(self, index, plan):
        rows = study_rows(index, plan, "internet", "rating", seed=44,
                          participants_scale=scale_for(
                              "internet", "rating", 150))
        assert not is_normal(rows.trials["speed"].ravel())


@pytest.mark.slow
class TestCorrelationFindings:
    def test_heatmap_structure(self, filtered_rating, index):
        """With only two small sites Pearson r is extremely noisy, so we
        check structure here and leave the shape (SI best, PLT worst,
        slower networks stronger) to the Figure 6 benchmark over the full
        named-site corpus."""
        heatmap = correlation_heatmap(filtered_rating, index)
        means = heatmap.mean_r_by_metric()
        assert set(means) == {"FVC", "SI", "VC85", "LVC", "PLT"}
        assert all(-1.0 <= v <= 1.0 for v in means.values())
        # Two-site Pearson is essentially a sign; just rule out a
        # consistently *positive* (anti-speed) relationship.
        assert means["SI"] < 0.75


@pytest.mark.slow
class TestBehaviourStats:
    def test_section_42_statistics(self, index, plan):
        stats = behaviour_statistics(study_rows(
            index, plan, "microworker", "ab", seed=42,
            participants_scale=scale_for("microworker", "ab", 120)))
        # Paper: µWorkers take ~14.5 s per A/B video.
        assert 5.0 < stats.mean_seconds_per_video < 60.0
        assert 0.5 < stats.male_share < 0.95
