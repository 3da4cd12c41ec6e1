"""Draw-level identity of the lane-parallel PCG64 against numpy itself.

``repro.parallel.pcg`` re-implements SeedSequence spawning and the PCG64
output function so whole batches of per-sample generators can advance in
lockstep.  These tests pin it bit-for-bit to ``op_rng``'s real numpy
generators across many (seed, epoch, sample, op) keys -- any drift here
invalidates every byte-identity claim downstream.
"""

import numpy as np
import pytest

from repro.parallel.pcg import LaneGenerators, components_supported, seed_state_words
from repro.utils.rng import op_rng

#: PCG64's 128-bit LCG multiplier, as published with the generator.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

KEYS = [
    (0, 0, 0, 0),
    (0, 0, 1, 0),
    (7, 0, 123, 2),
    (42, 3, 999, 1),
    (1234567, 11, 31337, 4),
    (2**31, 100, 2**20, 3),
]


def reference_state(seed, epoch, sample_id, op_index):
    """The (state, inc) a real ``op_rng`` PCG64 would start from.

    A pure-Python single-sample twin of :meth:`LaneGenerators.for_op`,
    triangulating the batch path against NumPy itself.
    """
    words = seed_state_words(seed, epoch, np.array([sample_id]), op_index)[:, 0]
    mask = (1 << 128) - 1
    initstate = (int(words[0]) << 64) | int(words[1])
    initseq = (int(words[2]) << 64) | int(words[3])
    inc = ((initseq << 1) | 1) & mask
    state = inc & mask  # 0 * mult + inc
    state = (state + initstate) & mask
    state = (state * PCG64_MULTIPLIER + inc) & mask
    return state, inc


@pytest.mark.parametrize("seed,epoch,sample_id,op_index", KEYS)
def test_seed_state_matches_seedsequence(seed, epoch, sample_id, op_index):
    expected = np.random.SeedSequence(
        [seed, epoch, sample_id, op_index]
    ).generate_state(4, np.uint64)
    got = seed_state_words(seed, epoch, np.array([sample_id]), op_index)[:, 0]
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("seed,epoch,sample_id,op_index", KEYS)
def test_random_stream_matches_numpy(seed, epoch, sample_id, op_index):
    rng = op_rng(seed, epoch, sample_id, op_index)
    lanes = LaneGenerators.for_op(seed, epoch, np.array([sample_id]), op_index)
    idx = np.array([0])
    for _ in range(50):
        assert lanes.random(idx)[0] == rng.random()


@pytest.mark.parametrize("seed,epoch,sample_id,op_index", KEYS)
def test_uniform_stream_matches_numpy(seed, epoch, sample_id, op_index):
    rng = op_rng(seed, epoch, sample_id, op_index)
    lanes = LaneGenerators.for_op(seed, epoch, np.array([sample_id]), op_index)
    idx = np.array([0])
    for low, high in [(-0.3, 0.4), (0.0, 1.0), (2.5, 9.5)] * 5:
        assert lanes.uniform(low, high, idx)[0] == rng.uniform(low, high)


@pytest.mark.parametrize("seed,epoch,sample_id,op_index", KEYS)
def test_integers_stream_matches_numpy(seed, epoch, sample_id, op_index):
    rng = op_rng(seed, epoch, sample_id, op_index)
    lanes = LaneGenerators.for_op(seed, epoch, np.array([sample_id]), op_index)
    idx = np.array([0])
    for high in [2, 7, 100, 2**16 + 1, 13]:
        expected = int(rng.integers(0, high))
        got = int(lanes.integers(np.array([high]), idx)[0])
        assert got == expected


def test_integers_then_random_buffer_interleaving():
    """The 32-bit buffer must persist across mixed draw kinds, as numpy's does."""
    key = (3, 1, 55, 2)
    rng = op_rng(*key)
    lanes = LaneGenerators.for_op(key[0], key[1], np.array([key[2]]), key[3])
    idx = np.array([0])
    expected = [
        int(rng.integers(0, 10)),
        rng.random(),
        int(rng.integers(0, 10)),
        rng.uniform(-1.0, 1.0),
        int(rng.integers(0, 4)),
    ]
    got = [
        int(lanes.integers(np.array([10]), idx)[0]),
        lanes.random(idx)[0],
        int(lanes.integers(np.array([10]), idx)[0]),
        lanes.uniform(-1.0, 1.0, idx)[0],
        int(lanes.integers(np.array([4]), idx)[0]),
    ]
    assert got == expected


def test_integers_range_one_consumes_no_draw():
    """A single-outcome range (high == 1) must not consume a draw."""
    key = (5, 0, 9, 1)
    rng = op_rng(*key)
    lanes = LaneGenerators.for_op(key[0], key[1], np.array([key[2]]), key[3])
    idx = np.array([0])
    assert int(rng.integers(0, 1)) == 0
    assert int(lanes.integers(np.array([1]), idx)[0]) == 0
    # The streams must still be aligned afterwards.
    assert lanes.random(idx)[0] == rng.random()


def test_many_lanes_advance_independently():
    seed, epoch, op_index = 11, 2, 1
    ids = np.arange(64)
    lanes = LaneGenerators.for_op(seed, epoch, ids, op_index)
    singles = [op_rng(seed, epoch, int(s), op_index) for s in ids]
    for _ in range(10):
        batch = lanes.random(np.arange(64))
        expected = [rng.random() for rng in singles]
        assert batch.tolist() == expected


def test_reference_state_matches_lanes():
    seed, epoch, sample_id, op_index = 21, 4, 77, 3
    state, inc = reference_state(seed, epoch, sample_id, op_index)
    lanes = LaneGenerators.for_op(seed, epoch, np.array([sample_id]), op_index)
    assert (int(lanes.state_hi[0]) << 64) | int(lanes.state_lo[0]) == state
    assert (int(lanes.inc_hi[0]) << 64) | int(lanes.inc_lo[0]) == inc


def test_components_supported_bounds():
    assert components_supported(0, 2**32 - 1, 5)
    assert not components_supported(2**32)
    assert not components_supported(-1)
