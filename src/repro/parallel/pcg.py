"""Vectorized, bit-exact emulation of the profiler's RNG derivation.

The sequential profiling path derives one ``np.random.Generator`` per
(seed, epoch, sample, op) via :func:`repro.utils.rng.op_rng`; generator
construction (SeedSequence hashing + PCG64 seeding) dominates record
building.  This module re-implements exactly that derivation -- NumPy's
``SeedSequence`` entropy-mixing hash, PCG64 (XSL-RR 128/64) seeding and
stepping, and the ``Generator`` draw paths the preprocessing ops use
(``random``, ``uniform``, 32-bit-buffered Lemire ``integers``) -- over
whole *batches* of sample lanes at once with uint64 array arithmetic.

Bit-identity with the sequential path is a hard contract, enforced by
``tests/parallel`` and the ``make bench`` determinism gate: every draw a
lane produces equals the draw the corresponding ``op_rng`` generator
would have produced, to the last bit.  The emulation never touches
NumPy's own RNG machinery (and nothing here reads wall time), so the
module stays inside the DET01/DET02 lint envelope.
"""

import dataclasses
from typing import List, Tuple

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence mixing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# PCG64 128-bit LCG multiplier (pcg64.h PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)

#: 2**-53, the double conversion factor Generator.random() uses.
_TO_DOUBLE = 1.0 / 9007199254740992.0


def components_supported(*components: int) -> bool:
    """Whether the lanes can emulate an ``op_rng`` keyed on *components*.

    The batch path handles the common case of 32-bit non-negative key
    components (each coerces to exactly one SeedSequence entropy word).
    Callers fall back to the sequential reference path otherwise.
    """
    return all(0 <= c <= _M32 for c in components)


def _hash_constants(count: int, init: int, mult: int) -> List[Tuple[int, int]]:
    """(xor, multiply) constant pairs for ``count`` sequential hash calls.

    SeedSequence's hash mixes each value with an evolving constant: the
    value is XORed with the constant *before* it advances and multiplied
    by it *after*.  The constant stream is data-independent, so it can be
    precomputed once per batch.
    """
    pairs = []
    const = init
    for _ in range(count):
        advanced = (const * mult) & _M32
        pairs.append((const, advanced))
        const = advanced
    return pairs


def _hashmix(value: np.ndarray, pair: Tuple[int, int]) -> np.ndarray:
    xor_const, mul_const = pair
    value = value ^ np.uint32(xor_const)
    value = value * np.uint32(mul_const)
    return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(_XSHIFT))


def seed_state_words(
    seed: int, epoch: int, sample_ids: np.ndarray, op_index: int
) -> np.ndarray:
    """``SeedSequence([seed, epoch, id, op]).generate_state(4, uint64)``
    for every id in *sample_ids* at once.

    Returns a ``(4, n)`` uint64 array; column *i* equals what NumPy's
    SeedSequence would generate for lane *i* (asserted bit-for-bit by the
    parallel test suite).
    """
    if not components_supported(seed, epoch, op_index):
        raise ValueError(
            "seed/epoch/op_index must be 32-bit non-negative ints, got "
            f"({seed}, {epoch}, {op_index})"
        )
    ids = np.asarray(sample_ids, dtype=np.uint32)
    n = ids.shape[0]
    entropy = [
        np.full(n, seed, dtype=np.uint32),
        np.full(n, epoch, dtype=np.uint32),
        ids,
        np.full(n, op_index, dtype=np.uint32),
    ]

    # mix_entropy: 4 fill hashes + 4*3 pairwise mixing hashes.
    pairs = _hash_constants(_POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1), _INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i], pairs[i]) for i in range(_POOL_SIZE)]
    k = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], pairs[k]))
                k += 1

    # generate_state(4, uint64) == 8 uint32 words viewed little-endian.
    out_pairs = _hash_constants(2 * _POOL_SIZE, _INIT_B, _MULT_B)
    words32 = [
        _hashmix(pool[i % _POOL_SIZE], out_pairs[i]) for i in range(2 * _POOL_SIZE)
    ]
    words = np.empty((4, n), dtype=np.uint64)
    for w in range(4):
        words[w] = words32[2 * w].astype(np.uint64) | (
            words32[2 * w + 1].astype(np.uint64) << np.uint64(32)
        )
    return words


def _umul64(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128 multiply as (hi, lo) via 32-bit limbs."""
    a0 = a & np.uint64(_M32)
    a1 = a >> np.uint64(32)
    b0 = b & np.uint64(_M32)
    b1 = b >> np.uint64(32)
    m00 = a0 * b0
    m01 = a0 * b1
    m10 = a1 * b0
    m11 = a1 * b1
    mid = (m00 >> np.uint64(32)) + (m01 & np.uint64(_M32)) + (m10 & np.uint64(_M32))
    lo = (m00 & np.uint64(_M32)) | (mid << np.uint64(32))
    hi = m11 + (m01 >> np.uint64(32)) + (m10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, lo


def _rotr64(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    # (64 - r) & 63 keeps the r == 0 lanes well-defined: x | x == x.
    return (x >> r) | (x << ((np.uint64(64) - r) & np.uint64(63)))


@dataclasses.dataclass
class LaneGenerators:
    """One PCG64 stream per sample lane, advanced with array arithmetic.

    Mirrors ``np.random.Generator(np.random.PCG64(seed_seq))`` exactly,
    including the 32-bit output buffer ``integers`` draws consume (NumPy
    serves bounded ranges below 2**32 from buffered halves of the 64-bit
    stream; the buffer survives interleaved ``random``/``uniform`` calls).
    """

    state_hi: np.ndarray
    state_lo: np.ndarray
    inc_hi: np.ndarray
    inc_lo: np.ndarray
    has_uint32: np.ndarray
    buffered: np.ndarray

    @classmethod
    def for_op(
        cls, seed: int, epoch: int, sample_ids: np.ndarray, op_index: int
    ) -> "LaneGenerators":
        """Lanes equivalent to ``op_rng(seed, epoch, id, op_index)``."""
        words = seed_state_words(seed, epoch, sample_ids, op_index)
        # pcg64_set_seed: state <- words[0:2], seq <- words[2:4];
        # inc = (seq << 1) | 1, then srandom: step, += initstate, step.
        inc_hi = (words[2] << np.uint64(1)) | (words[3] >> np.uint64(63))
        inc_lo = (words[3] << np.uint64(1)) | np.uint64(1)
        n = words.shape[1]
        lanes = cls(
            state_hi=np.zeros(n, dtype=np.uint64),
            state_lo=np.zeros(n, dtype=np.uint64),
            inc_hi=inc_hi,
            inc_lo=inc_lo,
            has_uint32=np.zeros(n, dtype=bool),
            buffered=np.zeros(n, dtype=np.uint64),
        )
        lanes._step_all()
        carry = lanes.state_lo > (lanes.state_lo + words[1])
        lanes.state_lo = lanes.state_lo + words[1]
        lanes.state_hi = lanes.state_hi + words[0] + carry.astype(np.uint64)
        lanes._step_all()
        return lanes

    def __len__(self) -> int:
        return int(self.state_hi.shape[0])

    def _step(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Advance lanes *idx*: state = state * MULT + inc (mod 2**128)."""
        hi = self.state_hi[idx]
        lo = self.state_lo[idx]
        p_hi, p_lo = _umul64(lo, _PCG_MULT_LO)
        p_hi = p_hi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        inc_lo = self.inc_lo[idx]
        new_lo = p_lo + inc_lo
        carry = new_lo < p_lo
        new_hi = p_hi + self.inc_hi[idx] + carry.astype(np.uint64)
        self.state_hi[idx] = new_hi
        self.state_lo[idx] = new_lo
        return new_hi, new_lo

    def _step_all(self) -> None:
        self._step(np.arange(len(self)))

    def next64(self, idx: np.ndarray) -> np.ndarray:
        """The next raw 64-bit output for lanes *idx* (XSL-RR 128/64)."""
        hi, lo = self._step(idx)
        return _rotr64(hi ^ lo, hi >> np.uint64(58))

    def next32(self, idx: np.ndarray) -> np.ndarray:
        """The next buffered 32-bit output for lanes *idx* (as uint64)."""
        out = np.empty(idx.shape[0], dtype=np.uint64)
        use_buf = self.has_uint32[idx]
        buffered_lanes = idx[use_buf]
        out[use_buf] = self.buffered[buffered_lanes]
        self.has_uint32[buffered_lanes] = False
        fresh_lanes = idx[~use_buf]
        if fresh_lanes.shape[0]:
            raw = self.next64(fresh_lanes)
            out[~use_buf] = raw & np.uint64(_M32)
            self.buffered[fresh_lanes] = raw >> np.uint64(32)
            self.has_uint32[fresh_lanes] = True
        return out

    def random(self, idx: np.ndarray) -> np.ndarray:
        """``Generator.random()`` for lanes *idx*: a float64 in [0, 1)."""
        return (self.next64(idx) >> np.uint64(11)).astype(np.float64) * _TO_DOUBLE

    def uniform(self, low: float, high: float, idx: np.ndarray) -> np.ndarray:
        """``Generator.uniform(low, high)`` for lanes *idx*."""
        return low + (high - low) * self.random(idx)

    def integers(self, high: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``Generator.integers(0, high)`` per lane (high exclusive).

        *high* gives each lane its own exclusive bound (>= 1, <= 2**32);
        lanes with ``high == 1`` return 0 without consuming a draw, as
        NumPy's bounded fill does.  Bias is removed with Lemire rejection
        over the buffered 32-bit stream, matching NumPy draw-for-draw.
        """
        high = np.asarray(high, dtype=np.uint64)
        if high.shape != idx.shape:
            raise ValueError(f"bounds shape {high.shape} != lanes shape {idx.shape}")
        if high.shape[0] and (int(high.min()) < 1 or int(high.max()) > _M32 + 1):
            raise ValueError("integers() bounds must be in [1, 2**32]")
        result = np.zeros(idx.shape[0], dtype=np.int64)
        rng = high - np.uint64(1)  # inclusive range, NumPy's internal form
        drawing = rng > 0
        draw_idx = idx[drawing]
        if not draw_idx.shape[0]:
            return result
        rng = rng[drawing]
        rng_excl = rng + np.uint64(1)
        threshold = (np.uint64(_M32) - rng) % rng_excl
        m = self.next32(draw_idx) * rng_excl
        rejected = (m & np.uint64(_M32)) < threshold
        while np.any(rejected):
            m[rejected] = self.next32(draw_idx[rejected]) * rng_excl[rejected]
            rejected = (m & np.uint64(_M32)) < threshold
        result[drawing] = (m >> np.uint64(32)).astype(np.int64)
        return result

