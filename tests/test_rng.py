import numpy as np
import pytest

import emprice as ep
from emprice.rng import resample_blocks, substream_states, uniform_draws

# int seeds, tuples with negative (masked to 64 bits) and multi-word (>= 2**32)
# components, paths shorter and longer than SeedSequence's 4-word pool
PATHS = [
    (0,),
    (7,),
    (-1,),
    (2**64 - 1,),
    (3, -5),
    (2**40 + 3, 11, -1),
    (2025, 0, 1, 999),
    (1, 2, 3, 4, 5, 6),
]


@pytest.mark.parametrize("path", PATHS)
def test_states_equal_seed_sequence_pcg64(path):
    states = substream_states(path, range(1001))
    assert len(states) == 1001
    for b, state in enumerate(states):
        assert state == np.random.PCG64(np.random.SeedSequence([p & (2**64 - 1) for p in (*path, b)])).state
        assert state == ep.substream(*path, b).bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 37, 500])
@pytest.mark.parametrize("path", [(7,), (3, -5), (2**40 + 3, 11, -1)])
def test_resample_rows_equal_substream_draws(path, n):
    draws = range(60, 130)  # crosses 64
    # blocks of 16 rows, the last one short, all from one generator
    blocks = list(resample_blocks(substream_states(path, range(130))[60:], n, 16))
    assert [b.shape for b in blocks] == [(16, n)] * 4 + [(6, n)]
    idx = np.concatenate(blocks)
    for row, b in zip(idx, draws):
        assert np.array_equal(row, ep.substream(*path, b).integers(0, n, size=n))


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        substream_states((), 10)


def test_axes_cover_every_path_in_product_order():
    path = (2**40 + 3, -1)
    states = substream_states(path, [0, 5, 2], range(3, 6))
    want = [(i, r) for i in (0, 5, 2) for r in range(3, 6)]
    assert len(states) == len(want)
    for state, index in zip(states, want):
        assert state == ep.substream(*path, *index).bit_generator.state
    assert substream_states(path) == [ep.substream(*path).bit_generator.state]
    assert substream_states(path, [1, 2], []) == []


@pytest.mark.parametrize("axis", [[-1], [2**32], [0, 2**33]])
def test_indices_outside_one_word_rejected(axis):
    with pytest.raises(ValueError):
        substream_states((7,), range(2), axis)


def test_uniform_draws_equal_substream_draws():
    paths = [(9, 1, i, r) for i in range(3) for r in range(4, 6)]
    sizes = [0, 1, 5, 64, 3, 300]
    got = uniform_draws(substream_states((9, 1), range(3), range(4, 6)), sizes)
    want = np.concatenate([ep.substream(*p).random(n) for p, n in zip(paths, sizes)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
