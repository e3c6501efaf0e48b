"""Session event logs: the TheFragebogen-style instrumentation.

The study frontend records, per participant session: video play/stall
events, window focus, vote timestamps relative to the video's first
visual change, total and per-question durations, and the outcomes of the
embedded control video and control questions. The R1-R7 filters of
:mod:`repro.study.filtering` are specified over these logs.

The engines draw each block's violation flags first
(:func:`draw_violation_block`: a rusher who votes before the first
visual change also produces garbage votes), so the funnel is a pure
function of the flags and production code never builds a log.
:func:`events_from_draws` realises the concrete log of one participant
from the block's flags and event draws; together with
:func:`~repro.study.filtering.apply_filters` it is the R1-R7 reference
the vectorized funnel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.study.participants import GroupBehavior

#: R3 threshold: focus loss longer than this (seconds) invalidates.
FOCUS_LOSS_LIMIT = 10.0
#: R5 thresholds.
STUDY_DURATION_LIMIT = 25 * 60.0
QUESTION_DURATION_LIMIT = 2 * 60.0

#: Colour-blind-safe browser-frame palette for the control question.
FRAME_COLORS = ("red", "green", "blue")


@dataclass(frozen=True)
class ViolationPlan:
    """Which filter rules this session will violate."""

    not_played: bool = False          # R1
    stalled: bool = False             # R2
    focus_loss: bool = False          # R3
    vote_before_fvc: bool = False     # R4
    overtime: bool = False            # R5
    control_video_wrong: bool = False  # R6
    control_question_wrong: bool = False  # R7

    @property
    def is_rusher(self) -> bool:
        """Does this participant click through without watching?"""
        return self.vote_before_fvc or self.control_video_wrong

    @property
    def any(self) -> bool:
        return any((self.not_played, self.stalled, self.focus_loss,
                    self.vote_before_fvc, self.overtime,
                    self.control_video_wrong, self.control_question_wrong))

    @staticmethod
    def from_flags(flags: np.ndarray) -> "ViolationPlan":
        """Build a plan from one R1..R7 column of a violation block."""
        return ViolationPlan(*(bool(flag) for flag in flags))


#: R1..R7 field order of a violation block row; True marks technical
#: violations (stalls, overtime) that do not scale with carelessness.
RULE_TECHNICAL = (False, True, False, False, True, False, False)


def draw_violation_block(rng: np.random.Generator, group: GroupBehavior,
                         study: str, diligence: np.ndarray) -> np.ndarray:
    """Violation flags of one block: a ``(7, n)`` boolean matrix.

    Row ``i`` is rule ``R(i+1)``; column ``j`` is participant ``j`` of
    the block (whose diligence is ``diligence[j]``). Behavioural
    violations scale with the participant's carelessness; technical
    ones (stalls, overtime) do not.
    """
    rates = group.violations(study)
    values = (rates.not_played, rates.stalled, rates.focus_loss,
              rates.vote_before_fvc, rates.overtime,
              rates.control_video_wrong, rates.control_question_wrong)
    carelessness = np.minimum(2.0, (1.0 - diligence) / 0.25)
    uniforms = rng.random((len(values), diligence.size))
    flags = np.zeros_like(uniforms, dtype=bool)
    for i, (rate, technical) in enumerate(zip(values, RULE_TECHNICAL)):
        if technical:
            flags[i] = uniforms[i] < rate
        elif rate > 0:
            scaled = np.minimum(rate * (0.4 + 0.6 * carelessness), 0.97)
            flags[i] = uniforms[i] < scaled
    return flags


def rusher_mask(flags: np.ndarray) -> np.ndarray:
    """Per-participant :attr:`ViolationPlan.is_rusher` from a block."""
    return flags[3] | flags[5]


@dataclass(slots=True)
class EventDraws:
    """Raw randomness behind a block's session event logs."""

    focus_u: np.ndarray      # (n,) uniform
    total_u: np.ndarray      # (n,) uniform
    question_u: np.ndarray   # (n,) uniform
    color_codes: np.ndarray  # (n, trials) ints into FRAME_COLORS


def draw_event_block(rng: np.random.Generator, size: int,
                     trials: int) -> EventDraws:
    """Draw the event-log randomness for one block, fixed shape."""
    return EventDraws(
        focus_u=rng.random(size),
        total_u=rng.random(size),
        question_u=rng.random(size),
        color_codes=rng.integers(0, len(FRAME_COLORS), (size, trials)),
    )


@dataclass
class SessionEvents:
    """Behavioural log of one participant session."""

    all_videos_played: bool = True
    any_video_stalled: bool = False
    max_focus_loss_s: float = 0.0
    any_vote_before_fvc: bool = False
    total_duration_s: float = 0.0
    max_question_duration_s: float = 0.0
    control_video_correct: bool = True
    control_questions_correct: bool = True
    frame_colors: List[str] = field(default_factory=list)


def events_from_draws(
    plan: ViolationPlan,
    durations: np.ndarray,
    focus_u: float,
    total_u: float,
    question_u: float,
    color_codes: np.ndarray,
) -> SessionEvents:
    """Event log from pre-drawn block randomness.

    Uniforms are drawn unconditionally (fixed shape) and mapped into
    ranges here, so rule ``Ri`` fires on the log exactly when flag ``i``
    of ``plan`` is set.
    """
    events = SessionEvents()
    events.all_videos_played = not plan.not_played
    events.any_video_stalled = plan.stalled
    if plan.focus_loss:
        events.max_focus_loss_s = \
            FOCUS_LOSS_LIMIT + 1.0 + float(focus_u) * 119.0
    else:
        events.max_focus_loss_s = float(focus_u) * (FOCUS_LOSS_LIMIT * 0.8)
    events.any_vote_before_fvc = plan.vote_before_fvc
    events.control_video_correct = not plan.control_video_wrong
    events.control_questions_correct = not plan.control_question_wrong

    base_total = float(np.sum(durations))
    if plan.overtime:
        events.total_duration_s = \
            STUDY_DURATION_LIMIT + 30.0 + float(total_u) * 570.0
        events.max_question_duration_s = \
            QUESTION_DURATION_LIMIT + 5.0 + float(question_u) * 55.0
    else:
        events.total_duration_s = min(base_total,
                                      STUDY_DURATION_LIMIT * 0.9)
        longest = float(np.max(durations)) if durations.size else 10.0
        events.max_question_duration_s = min(
            longest, QUESTION_DURATION_LIMIT * 0.9)
    events.frame_colors = [FRAME_COLORS[int(code)] for code in color_codes]
    return events
