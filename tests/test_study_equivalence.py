"""Scalar-vs-vectorized study equivalence.

The vectorized block kernels (:mod:`repro.study.engine`) must produce
*exactly* the blocks of the per-vote scalar reference kernels
(:mod:`repro.study.reference`): both consume the same block-draw
streams, so every block array — traits, violation flags, condition
indices, side assignment, votes/answers or scores, confidences, replays
and durations — has to match bit for bit. This is the study-layer
analogue of ``test_hotpath_equivalence.py``: any divergence is a silent
behaviour change and must fail loudly here.
"""

import numpy as np
import pytest

from repro.study.design import StudyPlan
from repro.study.engine import AbEngine, RatingEngine
from repro.study.pipeline import ConditionIndex
from repro.study.reference import (
    compute_ab_block_reference,
    compute_rating_block_reference,
)

from tests.conftest import SMALL_SITES

#: Small enough to stay fast, prime-ish so the last block is partial.
PARTICIPANTS = 23
#: Forces multi-block coverage (23 participants -> 3 blocks).
BLOCK_SIZE = 8

GROUPS = ("lab", "microworker", "internet")
SEEDS = (0, 11)

TRAIT_FIELDS = ("jnd_threshold", "rating_bias", "diligence", "male",
                "age_index")
AB_FIELDS = ("start", "flags", "rusher", "indices", "left_is_a", "votes",
             "answers", "confidence", "replays", "durations")
RATING_FIELDS = ("start", "flags", "rusher", "indices", "speed",
                 "quality", "replays", "durations")


@pytest.fixture(scope="module")
def index(small_testbed):
    return ConditionIndex.from_testbed(small_testbed,
                                       StudyPlan(sites=SMALL_SITES))


def _group_seed_matrix(smoke):
    """The full group × seed grid, with everything except the ``smoke``
    combination in the slow tier (``REPRO_RUN_SLOW=1``) — tier-1 keeps
    one scalar-vs-vectorized pin per study type."""
    params = []
    for group in GROUPS:
        for seed in SEEDS:
            marks = () if (group, seed) == smoke else (pytest.mark.slow,)
            params.append(pytest.param(group, seed, marks=marks))
    return params


def _assert_identical(value_a, value_b, where):
    if isinstance(value_a, tuple):
        assert len(value_a) == len(value_b), where
        for part_a, part_b in zip(value_a, value_b):
            _assert_identical(part_a, part_b, where)
        return
    if isinstance(value_a, np.ndarray):
        assert value_a.dtype == value_b.dtype, where
    np.testing.assert_array_equal(value_a, value_b, err_msg=where)


def _assert_blocks_identical(engine_cls, compute_reference, index, group,
                             seed, fields):
    engine = engine_cls(group, StudyPlan(sites=SMALL_SITES),
                        lookup=index.lookup, block_size=BLOCK_SIZE)
    fast = list(engine.blocks(PARTICIPANTS, seed))
    slow = list(engine.blocks(PARTICIPANTS, seed,
                              compute=compute_reference))
    assert len(fast) == len(slow) == 3
    for a, b in zip(fast, slow):
        for name in fields:
            _assert_identical(getattr(a, name), getattr(b, name), name)
        for name in TRAIT_FIELDS:
            _assert_identical(getattr(a.traits, name),
                              getattr(b.traits, name), name)
        assert a.traits.age_names == b.traits.age_names


@pytest.mark.parametrize(
    "group,seed", _group_seed_matrix(smoke=("microworker", 0)))
def test_ab_study_identical(index, group, seed):
    _assert_blocks_identical(AbEngine, compute_ab_block_reference, index,
                             group, seed, AB_FIELDS)


@pytest.mark.parametrize(
    "group,seed", _group_seed_matrix(smoke=("lab", 11)))
def test_rating_study_identical(index, group, seed):
    _assert_blocks_identical(RatingEngine, compute_rating_block_reference,
                             index, group, seed, RATING_FIELDS)


def test_block_size_invariance(index):
    """Different block sizes partition the same streams differently, so
    results legitimately differ — but the default must be stable."""
    engine = AbEngine("microworker", StudyPlan(sites=SMALL_SITES),
                      lookup=index.lookup)
    a = [block.votes for block in engine.blocks(12, 4)]
    b = [block.votes for block in engine.blocks(12, 4)]
    _assert_identical(tuple(a), tuple(b), "votes")


#: Block fields the aggregates of ``build_partial`` read, per engine.
AGGREGATE_FIELDS = {
    AbEngine: ("start", "flags", "indices", "votes", "replays"),
    RatingEngine: ("start", "flags", "indices", "speed", "quality"),
}


@pytest.mark.parametrize("engine_cls", [AbEngine, RatingEngine])
@pytest.mark.parametrize("group", GROUPS)
def test_aggregate_blocks_match_full_draws(index, engine_cls, group):
    """Stopping a block's draws before the timing tail leaves every
    field the aggregates read unchanged, in every shard."""
    engine = engine_cls(group, StudyPlan(sites=SMALL_SITES),
                        lookup=index.lookup, block_size=BLOCK_SIZE)
    seed = SEEDS[1]
    covered = []
    for shard in ((0, 2), (1, 2)):
        votes_only = list(engine.blocks(PARTICIPANTS, seed, shard=shard,
                                        through="votes"))
        full = list(engine.blocks(PARTICIPANTS, seed, shard=shard))
        assert len(votes_only) == len(full) >= 1
        for a, b in zip(votes_only, full):
            for name in AGGREGATE_FIELDS[engine_cls]:
                _assert_identical(getattr(a, name), getattr(b, name), name)
            assert a.durations is None and b.durations is not None
            covered.append(a.start)
    assert sorted(covered) == [0, BLOCK_SIZE, 2 * BLOCK_SIZE]


def test_unknown_draw_depth_rejected(index):
    engine = AbEngine("lab", StudyPlan(sites=SMALL_SITES),
                      lookup=index.lookup)
    with pytest.raises(ValueError, match="through"):
        next(engine.blocks(4, 0, through="durations"))
