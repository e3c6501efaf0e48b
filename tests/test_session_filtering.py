"""Session event logs, violation draws and the R1-R7 conformance filters."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.study.filtering import FILTER_RULES, apply_filters
from repro.study.participants import GROUPS, MICROWORKER, Participant
from repro.study.rows import StudyRows, behaviour_statistics
from repro.study.session import (
    FOCUS_LOSS_LIMIT,
    QUESTION_DURATION_LIMIT,
    STUDY_DURATION_LIMIT,
    SessionEvents,
    ViolationPlan,
    draw_violation_block,
    events_from_draws,
)


@dataclass
class FakeSession:
    events: SessionEvents


def clean_events(**overrides):
    events = SessionEvents(
        all_videos_played=True,
        any_video_stalled=False,
        max_focus_loss_s=2.0,
        any_vote_before_fvc=False,
        total_duration_s=600.0,
        max_question_duration_s=30.0,
        control_video_correct=True,
        control_questions_correct=True,
    )
    for key, value in overrides.items():
        setattr(events, key, value)
    return events


class TestRules:
    def test_clean_session_survives_all(self):
        survivors, funnel = apply_filters([FakeSession(clean_events())],
                                          "g", "s")
        assert len(survivors) == 1
        assert funnel.as_row() == [1] + [1] * 7

    @pytest.mark.parametrize("override,rule_index", [
        ({"all_videos_played": False}, 0),            # R1
        ({"any_video_stalled": True}, 1),             # R2
        ({"max_focus_loss_s": 11.0}, 2),              # R3
        ({"any_vote_before_fvc": True}, 3),           # R4
        ({"total_duration_s": STUDY_DURATION_LIMIT + 1}, 4),   # R5
        ({"max_question_duration_s": QUESTION_DURATION_LIMIT + 1}, 4),
        ({"control_video_correct": False}, 5),        # R6
        ({"control_questions_correct": False}, 6),    # R7
    ])
    def test_each_rule_filters(self, override, rule_index):
        session = FakeSession(clean_events(**override))
        survivors, funnel = apply_filters([session], "g", "s")
        assert survivors == []
        removed = funnel.removed_by_rule()
        assert removed[rule_index] == 1
        assert sum(removed) == 1

    def test_focus_loss_boundary(self):
        at_limit = FakeSession(clean_events(max_focus_loss_s=FOCUS_LOSS_LIMIT))
        survivors, _ = apply_filters([at_limit], "g", "s")
        assert survivors  # exactly 10 s is still acceptable

    def test_rules_applied_in_order(self):
        """A session violating R1 and R6 is counted against R1 only."""
        session = FakeSession(clean_events(all_videos_played=False,
                                           control_video_correct=False))
        _, funnel = apply_filters([session], "g", "s")
        removed = funnel.removed_by_rule()
        assert removed[0] == 1
        assert removed[5] == 0

    def test_rule_count_and_names(self):
        assert [name for name, _, _ in FILTER_RULES] == \
            ["R1", "R2", "R3", "R4", "R5", "R6", "R7"]

    def test_funnel_final(self):
        sessions = [FakeSession(clean_events()) for _ in range(5)]
        sessions.append(FakeSession(clean_events(any_video_stalled=True)))
        survivors, funnel = apply_filters(sessions, "g", "s")
        assert funnel.initial == 6
        assert funnel.final == 5
        assert len(survivors) == 5


class TestViolationPlan:
    def test_lab_never_violates(self):
        rng = np.random.default_rng(0)
        flags = draw_violation_block(rng, GROUPS["lab"], "ab",
                                     np.full(100, 0.5))
        assert not flags.any()

    def test_microworker_rates_roughly_calibrated(self):
        """Across many draws the expected funnel is near Table 3."""
        rng = np.random.default_rng(1)
        n = 3000
        diligence = np.array([np.random.default_rng(i).beta(5, 1.5)
                              for i in range(n)])
        flags = draw_violation_block(rng, MICROWORKER, "rating", diligence)
        focus_rate = flags[2].sum() / n
        rates = MICROWORKER.violations("rating")
        assert focus_rate == pytest.approx(rates.focus_loss, abs=0.06)

    def test_rusher_definition(self):
        assert ViolationPlan(vote_before_fvc=True).is_rusher
        assert ViolationPlan(control_video_wrong=True).is_rusher
        assert not ViolationPlan(stalled=True).is_rusher

    def test_any_flag(self):
        assert not ViolationPlan().any
        assert ViolationPlan(overtime=True).any


def realise_log(plan, durations, rng):
    """One participant's log from freshly drawn event randomness."""
    return events_from_draws(
        plan, np.asarray(durations, dtype=float), rng.random(),
        rng.random(), rng.random(),
        rng.integers(0, 3, len(durations)))


class TestRealizeEvents:
    def test_clean_plan_realises_clean_log(self):
        rng = np.random.default_rng(0)
        events = realise_log(ViolationPlan(), [10.0, 12.0], rng)
        assert events.all_videos_played
        assert events.max_focus_loss_s <= FOCUS_LOSS_LIMIT
        assert events.total_duration_s <= STUDY_DURATION_LIMIT
        assert events.control_video_correct

    def test_focus_loss_realised_above_threshold(self):
        rng = np.random.default_rng(0)
        events = realise_log(ViolationPlan(focus_loss=True), [10.0], rng)
        assert events.max_focus_loss_s > FOCUS_LOSS_LIMIT

    def test_overtime_realised(self):
        rng = np.random.default_rng(0)
        events = realise_log(ViolationPlan(overtime=True), [10.0], rng)
        assert events.total_duration_s > STUDY_DURATION_LIMIT

    def test_frame_colors_per_trial(self):
        rng = np.random.default_rng(0)
        events = realise_log(ViolationPlan(), [10.0] * 7, rng)
        assert len(events.frame_colors) == 7
        assert set(events.frame_colors) <= {"red", "green", "blue"}

    def test_detection_matches_plan(self):
        """Generated logs must be detected by exactly the planned rules."""
        rng = np.random.default_rng(3)
        plan = ViolationPlan(focus_loss=True, control_question_wrong=True)
        events = realise_log(plan, [10.0], rng)
        violated = [name for name, _, check in FILTER_RULES if check(events)]
        assert violated == ["R3", "R7"]


class TestParticipants:
    def test_traits_deterministic_per_rng(self):
        a = Participant(0, MICROWORKER, np.random.default_rng(5))
        b = Participant(0, MICROWORKER, np.random.default_rng(5))
        assert a.jnd_threshold == b.jnd_threshold
        assert a.rating_bias == b.rating_bias

    def test_threshold_positive(self):
        for i in range(50):
            p = Participant(i, MICROWORKER, np.random.default_rng(i))
            assert p.jnd_threshold >= 0.05

    def test_replays_higher_on_fast_networks(self):
        p = Participant(0, GROUPS["lab"], np.random.default_rng(1))
        fast = sum(p.replay_count(0.1, "DSL") for _ in range(300))
        slow = sum(p.replay_count(0.1, "MSS") for _ in range(300))
        assert fast > slow

    def test_replays_higher_for_hard_comparisons(self):
        p = Participant(0, GROUPS["lab"], np.random.default_rng(1))
        hard = sum(p.replay_count(0.05, "DSL") for _ in range(300))
        easy = sum(p.replay_count(3.0, "DSL") for _ in range(300))
        assert hard > easy

    def test_demographics_aggregation(self):
        rows = StudyRows(
            group="g", study="rating", conditions=[], contexts=[],
            participant=np.arange(3), male=np.array([True, False, True]),
            age_group=["18-24", "25-44", "18-24"],
            flags=np.zeros((7, 3), dtype=bool),
            trials={"indices": np.zeros((3, 1), dtype=int),
                    "speed": np.full((3, 1), 50.0),
                    "replays": np.zeros((3, 1), dtype=int),
                    "durations": np.full((3, 1), 20.0)})
        stats = behaviour_statistics(rows)
        assert stats.male_share == pytest.approx(2 / 3)
        assert stats.age_distribution == [("18-24", 2 / 3),
                                          ("25-44", 1 / 3)]

    def test_group_demographics_match_paper(self):
        """76-79% male across groups (Section 4.2)."""
        rng_factory = np.random.default_rng(7)
        participants = [
            Participant(i, MICROWORKER,
                        np.random.default_rng(int(rng_factory.integers(1e9))))
            for i in range(2000)
        ]
        male = sum(1 for p in participants if p.gender == "male") / 2000
        assert 0.72 < male < 0.82
        mid_age = sum(1 for p in participants
                      if p.age_group == "25-44") / 2000
        assert 0.58 < mid_age < 0.74
