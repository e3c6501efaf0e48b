"""A/B and rating study engines and rows against the shared small testbed."""

import numpy as np
import pytest

from repro.study.design import (
    AB_VIDEO_COUNTS,
    PAPER_TABLE3,
    RATING_VIDEO_COUNTS,
    StudyPlan,
)
from repro.study.engine import VOTE_A, VOTE_B, VOTE_SAME
from repro.study.export import ANSWER_NAMES
from repro.study.pipeline import ConditionIndex, build_partial
from repro.study.rows import study_rows

from tests.conftest import SMALL_SITES


@pytest.fixture(scope="module")
def plan():
    return StudyPlan(sites=SMALL_SITES)


@pytest.fixture(scope="module")
def index(small_testbed, plan):
    return ConditionIndex.from_testbed(small_testbed, plan)


def rows_of(index, plan, group, study, participants, seed):
    """Rows of a study with exactly ``participants`` entrants."""
    scale = participants / PAPER_TABLE3[(group, study)][0]
    rows = study_rows(index, plan, group, study, seed=seed,
                      participants_scale=scale)
    assert rows.participant.size == participants
    return rows


@pytest.fixture(scope="module")
def ab_rows(index, plan):
    return rows_of(index, plan, "microworker", "ab", 40, 11)


@pytest.fixture(scope="module")
def rating_rows(index, plan):
    return rows_of(index, plan, "microworker", "rating", 40, 11)


class TestAbStudy:
    def test_session_count(self, ab_rows):
        assert ab_rows.participant.tolist() == list(range(40))
        assert ab_rows.trials["votes"].shape[0] == int(ab_rows.valid.sum())

    def test_trials_per_session(self, ab_rows, plan):
        pool_size = len(plan.ab_pool("microworker"))
        expected = min(AB_VIDEO_COUNTS["microworker"], pool_size)
        for name, column in ab_rows.trials.items():
            assert column.shape[1] == expected, name

    def test_no_duplicate_conditions_within_session(self, ab_rows):
        for row in ab_rows.trials["indices"]:
            assert len(set(row.tolist())) == len(row)

    def test_vote_values(self, ab_rows):
        trials = ab_rows.trials
        assert set(np.unique(trials["answers"]).tolist()) <= {0, 1, 2}
        assert set(np.unique(trials["votes"]).tolist()) <= \
            {VOTE_A, VOTE_SAME, VOTE_B}
        assert ((trials["confidence"] >= 0.0)
                & (trials["confidence"] <= 1.0)).all()
        assert (trials["replays"] >= 0).all()
        assert (trials["durations"] > 0).all()

    def test_left_right_translation(self, ab_rows):
        """answer/left_is_a/vote must be mutually consistent."""
        trials = ab_rows.trials
        for answer, left_is_a, vote in zip(
                trials["answers"].ravel().tolist(),
                trials["left_is_a"].ravel().tolist(),
                trials["votes"].ravel().tolist()):
            name = ANSWER_NAMES[answer]
            if name == "same":
                assert vote == VOTE_SAME
            elif name == "left":
                assert vote == (VOTE_A if left_is_a else VOTE_B)
            else:
                assert vote == (VOTE_B if left_is_a else VOTE_A)

    def test_side_assignment_randomised(self, ab_rows):
        sides = ab_rows.trials["left_is_a"]
        assert 0.3 < sides.mean() < 0.7

    def test_deterministic_given_seed(self, index, plan):
        a = rows_of(index, plan, "microworker", "ab", 5, 3)
        b = rows_of(index, plan, "microworker", "ab", 5, 3)
        assert a.trials["votes"].tolist() == b.trials["votes"].tolist()
        assert a.flags.tolist() == b.flags.tolist()

    def test_seed_changes_votes(self, index, plan):
        a = rows_of(index, plan, "microworker", "ab", 5, 3)
        b = rows_of(index, plan, "microworker", "ab", 5, 4)
        assert a.trials["votes"].tolist() != b.trials["votes"].tolist()

    def test_lab_defaults_to_lab_sites(self, index):
        plan_full = StudyPlan(sites=["gov.uk", "apache.org"])
        rows = rows_of(index, plan_full, "lab", "ab", 10, 0)
        sites = {rows.conditions[i].website
                 for i in rows.trials["indices"].ravel().tolist()}
        assert sites <= {"gov.uk"}  # the only lab site in this plan


class TestRatingStudy:
    def test_trials_cover_contexts(self, rating_rows):
        contexts = {rating_rows.contexts[i] for i in
                    rating_rows.trials["indices"].ravel().tolist()}
        assert contexts == {"work", "free_time", "plane"}

    def test_context_counts(self, rating_rows, plan):
        counts = RATING_VIDEO_COUNTS["microworker"]
        for row in rating_rows.trials["indices"].tolist():
            by_context = {}
            for index in row:
                context = rating_rows.contexts[index]
                by_context[context] = by_context.get(context, 0) + 1
            for context, expected in counts.items():
                pool = len(plan.rating_pool("microworker", context))
                assert by_context[context] == min(expected, pool)

    def test_scores_on_scale(self, rating_rows):
        for which in ("speed", "quality"):
            scores = rating_rows.trials[which]
            assert ((scores >= 10) & (scores <= 70)).all()

    def test_plane_uses_inflight_networks(self, rating_rows):
        for index in rating_rows.trials["indices"].ravel().tolist():
            network = rating_rows.conditions[index].network
            if rating_rows.contexts[index] == "plane":
                assert network in ("DA2GC", "MSS")
            else:
                assert network in ("DSL", "LTE")

    def test_plane_rated_worse_than_work(self, rating_rows):
        contexts = np.array(rating_rows.contexts)[
            rating_rows.trials["indices"]]
        speed = rating_rows.trials["speed"]
        work = speed[contexts == "work"]
        plane = speed[contexts == "plane"]
        assert work.mean() > plane.mean() + 5


class TestCampaign:
    def test_small_campaign_end_to_end(self, index, plan):
        partial = build_partial(index, plan, seed=1,
                                participants_scale=0.03)
        assert len(partial.funnels) == 6
        funnel = partial.funnel("microworker", "ab")
        assert funnel.initial >= 10
        assert funnel.final <= funnel.initial
        # Lab sessions are never filtered (supervised study).
        lab_funnel = partial.funnel("lab", "ab")
        assert lab_funnel.final == lab_funnel.initial

    def test_paper_reference_shape(self):
        for (group, study), row in PAPER_TABLE3.items():
            assert len(row) == 8
            assert row == sorted(row, reverse=True)

    def test_invalid_scale(self, index, plan):
        with pytest.raises(ValueError):
            build_partial(index, plan, participants_scale=0.0)


class TestFunnelCalibration:
    def test_microworker_funnel_tracks_table3(self, index, plan):
        """With the full participant count the simulated funnel lands
        near the paper's Table 3 row."""
        partial = build_partial(index, plan, seed=5,
                                groups=("microworker",))
        paper = PAPER_TABLE3[("microworker", "ab")]
        ours = partial.funnel("microworker", "ab").as_row()
        assert ours[0] == paper[0]
        # Final survivors within 25% of the paper.
        assert abs(ours[-1] - paper[-1]) / paper[-1] < 0.25
