"""Reproducible random streams.

Every replication owns private generators derived from
(master_seed, replication_index) through SeedSequence spawn keys, so a
replication's randomness never depends on scheduling, batching or thread
count. Stream 0 drives the continuous path (theta's uniform when theta is
random, wear increments, the post-change uniforms and the arrival uniforms),
stream 1 the per-shock marks (magnitude, jump size). Keeping marks on their
own stream pins the j-th shock of a replication to the same magnitude and
jump across model variants run with the same master seed, which is what
makes paired-seed comparisons monotone.

Stream `s` of replication `rep` is `PCG64` seeded by
`SeedSequence(master_seed, spawn_key=(rep, s))`. Building one SeedSequence
object per stream costs about ten times as much as the generator itself, so
the same hash (numpy's SeedSequence, O'Neill's seed_seq design for PCG) is
computed here with uint32 array arithmetic for aligned blocks of replication
indices at once, and each block of PCG64 seed states is cached. The states
are bit-identical to the SeedSequence ones, so every stream is unchanged.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

PATH_STREAM = 0
MARK_STREAM = 1

# Replications per hashed block. A power of two, so no block straddles a
# multiple of 2**32 and every index in a block splits into the same number of
# uint32 words with the same high words.
_BLOCK_BITS = 12
_BLOCK = 1 << _BLOCK_BITS

# numpy.random.SeedSequence constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[np.ndarray]:
    """Little-endian uint32 words of n >= 0 as SeedSequence splits an int (0 -> one word)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return [np.array([w], dtype=np.uint32) for w in words]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mix_entropy(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy on broadcastable uint32 word arrays.

    The hash constant's sequence does not depend on the data, so each word
    position is one vector operation over all replications of a block.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    mixer = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst], hashmix(mixer[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = _mix(mixer[i_dst], hashmix(word))
    return mixer


@functools.lru_cache(maxsize=16)
def _state_block(master_seed: int, stream: int, block: int) -> np.ndarray:
    """Read-only (_BLOCK, 4) uint64 PCG64 seed states of one block's replications.

    Row i equals SeedSequence(master_seed, spawn_key=(block*_BLOCK + i, stream))
    .generate_state(4, np.uint64).
    """
    seed_words = _uint32_words(master_seed)
    # With a spawn key, SeedSequence pads the run entropy to the pool size.
    seed_words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(seed_words))
    first = block << _BLOCK_BITS
    rep_words = _uint32_words(first)
    rep_words[0] = rep_words[0] + np.arange(_BLOCK, dtype=np.uint32)
    pool = _mix_entropy(seed_words + rep_words + _uint32_words(stream))

    # generate_state(4, uint64): 8 uint32 words drawn cyclically from the pool.
    hash_const = _INIT_B
    state = np.empty((_BLOCK, 8), dtype=np.uint32)
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    out = state.astype("<u4").view("<u8").astype(np.uint64)
    out.flags.writeable = False
    return out


class _PrecomputedSeed(ISeedSequence):
    """One stream's PCG64 seed state, as computed by SeedSequence.generate_state(4, uint64)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed only holds the 4 uint64 words PCG64 reads")
        return self.state


def replication_stream(master_seed: int, rep_index: int, stream: int) -> Generator:
    """Generator for one replication's stream; deterministic in all arguments."""
    master_seed = operator.index(master_seed)
    rep_index = operator.index(rep_index)
    stream = operator.index(stream)
    if master_seed < 0 or rep_index < 0 or stream < 0:
        raise ValueError("master_seed, rep_index and stream must be nonnegative")
    states = _state_block(master_seed, stream, rep_index >> _BLOCK_BITS)
    return Generator(PCG64(_PrecomputedSeed(states[rep_index & (_BLOCK - 1)])))
