"""Whole-study orchestration details: groups, funnels, participation."""

import pytest

from repro.study.design import GROUP_ORDER, PAPER_TABLE3, StudyPlan
from repro.study.pipeline import ConditionIndex, build_partial
from repro.study.rows import rows_by_study

from tests.conftest import SMALL_SITES


@pytest.fixture(scope="module")
def plan():
    return StudyPlan(sites=SMALL_SITES)


@pytest.fixture(scope="module")
def index(small_testbed, plan):
    return ConditionIndex.from_testbed(small_testbed, plan)


@pytest.fixture(scope="module")
def partial(index, plan):
    return build_partial(index, plan, seed=5, participants_scale=0.05)


@pytest.fixture(scope="module")
def rows(index, plan):
    return rows_by_study(index, plan, seed=5, participants_scale=0.05)


class TestCampaign:
    def test_groups_covered(self, partial, rows):
        assert partial.config["groups"] == list(GROUP_ORDER)
        assert set(rows) == {(group, study) for group in GROUP_ORDER
                             for study in ("ab", "rating")}

    def test_filtered_subsets(self, partial, rows):
        for (group, study), part in rows.items():
            kept = set(part.kept.tolist())
            assert kept <= set(part.participant.tolist())
            funnel = partial.funnel(group, study)
            assert funnel.initial == part.participant.size
            assert funnel.final == len(kept)

    def test_funnels_indexed(self, partial):
        funnel = partial.funnel("internet", "rating")
        assert funnel.group == "internet"
        assert partial.funnel("internet", "nonsense") is None

    def test_minimum_participants_floor(self, partial):
        # scale 0.05 of lab's 35 would be < 2; the floor keeps it >= 10.
        assert partial.funnel("lab", "ab").initial >= 10

    def test_deterministic(self, index, plan):
        a = build_partial(index, plan, seed=9, participants_scale=0.03)
        b = build_partial(index, plan, seed=9, participants_scale=0.03)
        assert a.to_state() == b.to_state()

    def test_group_subset(self, index, plan):
        lab_only = build_partial(index, plan, seed=1,
                                 participants_scale=0.03, groups=("lab",))
        assert [key for key, _ in lab_only.funnels.items()] == \
            ["lab|ab", "lab|rating"]


class TestPaperReference:
    def test_all_rows_present(self):
        groups = {g for g, _ in PAPER_TABLE3}
        assert groups == {"lab", "microworker", "internet"}
        studies = {s for _, s in PAPER_TABLE3}
        assert studies == {"ab", "rating"}

    def test_microworker_rating_row_matches_paper(self):
        assert PAPER_TABLE3[("microworker", "rating")] == \
            [1563, 1494, 1321, 1034, 733, 723, 661, 614]
