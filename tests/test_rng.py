import pickle

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from shockwear.rng import _BLOCK, MARK_STREAM, replication_stream
from shockwear.simulate import _MARKS

SEEDS = [0, 1, 20260808, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7]
REPS = [0, 1, _BLOCK - 1, _BLOCK, 2**32 - 1, 2**32]
STREAMS = [0, 1, 2]


def reference_stream(master_seed, rep_index, stream):
    return Generator(PCG64(SeedSequence(master_seed, spawn_key=(rep_index, stream))))


@pytest.mark.parametrize("master_seed", SEEDS)
def test_streams_equal_seedsequence(master_seed):
    for rep in REPS:
        for stream in STREAMS:
            got = replication_stream(master_seed, rep, stream)
            ref = reference_stream(master_seed, rep, stream)
            assert np.array_equal(got.random(64), ref.random(64)), (rep, stream)
            assert np.array_equal(got.gamma(0.005, 1 / 1.2, size=256),
                                  ref.gamma(0.005, 1 / 1.2, size=256)), (rep, stream)


def test_every_row_of_a_block_equals_seedsequence():
    for rep in range(3 * _BLOCK - 5, 4 * _BLOCK + 5):
        got = replication_stream(20260808, rep, 1).bit_generator.state
        assert got == reference_stream(20260808, rep, 1).bit_generator.state, rep


@pytest.mark.parametrize("args", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_negative_arguments_raise(args):
    with pytest.raises(ValueError):
        replication_stream(*args)


def test_numpy_integer_arguments():
    got = replication_stream(np.uint64(7), np.int64(_BLOCK + 3), np.int8(1))
    assert np.array_equal(got.random(8), reference_stream(7, _BLOCK + 3, 1).random(8))


def test_generator_pickles():
    g = replication_stream(20260808, 12345, 0)
    g.random(10)
    clone = pickle.loads(pickle.dumps(g))
    assert np.array_equal(clone.random(32), g.random(32))
    assert np.array_equal(clone.normal(size=5), g.normal(size=5))


@pytest.mark.parametrize("a, b", [(0, 5), (5, 0), (1, 1), (1, 6), (7, 2), (3, _MARKS + 9),
                                  (_MARKS, _MARKS), (2 * _MARKS + 1, 3)])
def test_normal_draws_concatenate(a, b):
    # The engine's mark buffers draw a stream's normals in calls of any size;
    # the bytes stay those of one call per arrival only because numpy's normal
    # sampler carries no state between values.
    split = replication_stream(20260808, 12345, MARK_STREAM)
    whole = replication_stream(20260808, 12345, MARK_STREAM)
    parts = np.concatenate([split.normal(size=a), split.normal(size=b)])
    assert parts.tobytes() == whole.normal(size=a + b).tobytes()
    assert split.bit_generator.state == whole.bit_generator.state
