"""Study-data release CSVs and markdown reports."""

import csv
import io

import pytest

from repro.report.markdown import md_table
from repro.study.design import StudyPlan
from repro.study.export import (
    ab_votes_csv,
    conditions_csv,
    export_rows,
    participants_csv,
    rating_votes_csv,
)
from repro.study.pipeline import ConditionIndex, build_partial
from repro.study.rows import rows_by_study

from tests.conftest import SMALL_SITES


@pytest.fixture(scope="module")
def index(small_testbed):
    return ConditionIndex.from_testbed(small_testbed,
                                       StudyPlan(sites=SMALL_SITES))


@pytest.fixture(scope="module")
def partial(index):
    return build_partial(index, seed=3, participants_scale=0.05)


@pytest.fixture(scope="module")
def study_rows(index):
    return rows_by_study(index, seed=3, participants_scale=0.05)


def parse(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCsvExport:
    def test_ab_votes_rows(self, study_rows):
        study = study_rows[("microworker", "ab")]
        rows = parse(ab_votes_csv(study))
        assert len(rows) == study.trials["votes"].size
        assert set(rows[0]) == {
            "participant", "group", "website", "network", "stack_a",
            "stack_b", "left_is_a", "answer", "vote", "confidence",
            "replays", "duration_s",
        }
        assert all(r["vote"] in ("a", "b", "same") for r in rows)

    def test_rating_votes_rows(self, study_rows):
        rows = parse(rating_votes_csv(study_rows[("microworker", "rating")]))
        assert rows
        for row in rows[:20]:
            assert 10 <= float(row["speed_score"]) <= 70
            assert row["context"] in ("work", "free_time", "plane")

    def test_participants_valid_flag(self, study_rows, partial):
        study = study_rows[("microworker", "ab")]
        rows = parse(participants_csv(study))
        funnel = partial.funnel("microworker", "ab")
        assert len(rows) == funnel.initial
        valid = sum(int(r["valid"]) for r in rows)
        assert valid == funnel.final == study.trials["votes"].shape[0]

    def test_conditions_metrics(self, index):
        rows = parse(conditions_csv(index, [("gov.uk", "DSL", "TCP")]))
        assert len(rows) == 1
        assert float(rows[0]["SI"]) > 0
        assert float(rows[0]["PLT"]) >= float(rows[0]["LVC"]) - 1e6

    def test_export_campaign_writes_files(self, study_rows, index,
                                          tmp_path):
        written = export_rows(study_rows.values(), index, tmp_path)
        names = {p.name for p in written}
        assert "ab_votes_microworker.csv" in names
        assert "rating_votes_internet.csv" in names
        assert "participants_lab_ab.csv" in names
        assert "conditions.csv" in names
        for path in written:
            assert path.stat().st_size > 0
        conditions = parse((tmp_path / "conditions.csv").read_text())
        assert {r["website"] for r in conditions} <= set(SMALL_SITES)


class TestMarkdown:
    def test_md_table_shape(self):
        text = md_table(("a", "b"), [(1, 2), (3, 4)])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4
