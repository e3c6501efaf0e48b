"""Scalar reference path of the study engine.

The per-vote counterpart of the vectorized kernels in
:mod:`repro.study.engine`: it consumes the *same* block draws and walks
them one trial at a time with plain Python branching — the readable
specification of the vote logic, and the oracle the vectorized kernels
are tested against.

Both paths must produce **exactly** equal blocks (bit-identical floats);
``tests/test_study_equivalence.py`` pins this. To keep that guarantee
cheap to maintain, every transcendental (the psychometric logistic, the
confusion exponential, the opinion curve, the log-normal decision time)
is evaluated through the shared numpy kernels here too — only the
per-trial arithmetic, comparisons and branching are scalar, which is
exactly the part the vectorized path replaces.
"""

from __future__ import annotations

import numpy as np

from repro.study.engine import (
    ANSWER_LEFT,
    ANSWER_SAME,
    AbBlock,
    AbDraws,
    AbEngine,
    RatingBlock,
    RatingDraws,
    RatingEngine,
    VOTE_A,
    VOTE_B,
    VOTE_SAME,
)
from repro.study.perception import detection_probability_np, quantize_score
from repro.study.session import rusher_mask


def _vote_from_answer(answer: int, left_is_a: bool) -> int:
    """Screen-coordinate answer -> condition-coordinate vote."""
    if answer == ANSWER_SAME:
        return VOTE_SAME
    return VOTE_A if (answer == ANSWER_LEFT) == left_is_a else VOTE_B


def _answer_from_vote(vote: int, left_is_a: bool) -> int:
    if vote == VOTE_SAME:
        return ANSWER_SAME
    return ANSWER_LEFT if (vote == VOTE_A) == left_is_a \
        else 1 - ANSWER_LEFT


def compute_ab_block_reference(draws: AbDraws, engine: AbEngine) -> AbBlock:
    """One-vote-at-a-time A/B computation over shared block draws."""
    params = engine.params
    n, videos = draws.indices.shape
    rusher = rusher_mask(draws.flags)
    left_is_a = draws.left_u < 0.5

    # Shared transcendental kernels (see module docstring).
    p_detect = detection_probability_np(
        engine.magnitude[draws.indices],
        draws.traits.jnd_threshold[:, None], params)
    decision = np.exp(np.log(engine.behavior.decision_time_ab)
                      + draws.decision_noise)

    votes = np.empty((n, videos), dtype=np.int8)
    answers = np.empty((n, videos), dtype=np.int8)
    confidence = np.empty((n, videos), dtype=float)
    replays = np.empty((n, videos), dtype=draws.replays.dtype)
    durations = np.empty((n, videos), dtype=float)

    for i in range(n):
        for j in range(videos):
            index = int(draws.indices[i, j])
            left_a = bool(left_is_a[i, j])
            if rusher[i]:
                answer = int(draws.rush_answer[i, j])
                votes[i, j] = _vote_from_answer(answer, left_a)
                answers[i, j] = answer
                confidence[i, j] = draws.rush_conf[i, j]
                replays[i, j] = 0
                durations[i, j] = 1.0 + 3.0 * draws.rush_dur_u[i, j]
                continue

            if draws.detect_u[i, j] < p_detect[i, j]:
                confused = draws.confuse_u[i, j] < engine.p_confusion[index]
                vote = VOTE_A if (engine.signed[index] > 0) != confused \
                    else VOTE_B
                conf = max(0.0, min(
                    1.0,
                    0.4 + 0.5 * engine.magnitude[index]
                    + draws.conf_noise[i, j]))
            elif draws.same_u[i, j] < params.undetected_same_prob:
                vote = VOTE_SAME
                conf = 0.3 + 0.4 * draws.conf_u[i, j]
            else:
                vote = VOTE_A if draws.guess_u[i, j] < 0.5 else VOTE_B
                conf = 0.4 * draws.conf_u[i, j]

            votes[i, j] = vote
            answers[i, j] = _answer_from_vote(vote, left_a)
            confidence[i, j] = conf
            replays[i, j] = draws.replays[i, j]
            durations[i, j] = engine.video_len[index] \
                * (1 + draws.replays[i, j]) + decision[i, j]

    return AbBlock(
        start=draws.start, traits=draws.traits, flags=draws.flags,
        rusher=rusher, indices=draws.indices, left_is_a=left_is_a,
        votes=votes, answers=answers, confidence=confidence,
        replays=replays, durations=durations, events=draws.events,
    )


def compute_rating_block_reference(draws: RatingDraws,
                                   engine: RatingEngine) -> RatingBlock:
    """One-vote-at-a-time rating computation over shared block draws."""
    params = engine.params
    rusher = rusher_mask(draws.flags)
    n = draws.traits.size

    # Shared per-condition tables and transcendental kernels.
    base = np.concatenate(
        [table.base[idx]
         for table, idx in zip(engine.tables, draws.indices)], axis=1)
    stall = np.concatenate(
        [table.stall[idx]
         for table, idx in zip(engine.tables, draws.indices)], axis=1)
    video_len = np.concatenate(
        [table.video_len[idx]
         for table, idx in zip(engine.tables, draws.indices)], axis=1)
    decision = np.exp(np.log(engine.behavior.decision_time_rating)
                      + draws.decision_noise)

    videos = base.shape[1]
    speed = np.empty((n, videos), dtype=float)
    quality = np.empty((n, videos), dtype=float)
    replays = np.empty((n, videos), dtype=draws.replays.dtype)
    durations = np.empty((n, videos), dtype=float)

    for i in range(n):
        bias = draws.traits.rating_bias[i]
        for j in range(videos):
            if rusher[i]:
                speed[i, j] = float(draws.rush_speed[i, j])
                quality[i, j] = float(draws.rush_quality[i, j])
                replays[i, j] = 0
                durations[i, j] = 1.0 + 3.0 * draws.rush_dur_u[i, j]
                continue
            raw_speed = base[i, j] + bias + draws.speed_noise[i, j]
            raw_quality = base[i, j] + bias \
                - params.quality_stall_penalty * stall[i, j] \
                + draws.quality_noise[i, j]
            speed[i, j] = float(quantize_score(raw_speed))
            quality[i, j] = float(quantize_score(raw_quality))
            replays[i, j] = draws.replays[i, j]
            durations[i, j] = video_len[i, j] \
                * (1 + draws.replays[i, j]) + decision[i, j]

    return RatingBlock(
        start=draws.start, traits=draws.traits, flags=draws.flags,
        rusher=rusher, indices=draws.indices, speed=speed,
        quality=quality, replays=replays, durations=durations,
        events=draws.events,
    )
