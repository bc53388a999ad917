import numpy as np
import pytest

import emprice as ep
from emprice.rng import resample_blocks, substream_states

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
    states = substream_states(path, 1001)
    assert len(states) == 1001
    for b, state in enumerate(states):
        assert state == np.random.PCG64(np.random.SeedSequence([p & (2**64 - 1) for p in (*path, b)])).state
        assert state == ep.substream(*path, b).bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 37, 500])
@pytest.mark.parametrize("path", [(7,), (3, -5), (2**40 + 3, 11, -1)])
def test_resample_rows_equal_substream_draws(path, n):
    draws = range(60, 130)  # crosses 64
    # blocks of 16 rows, the last one short, all from one generator
    blocks = list(resample_blocks(substream_states(path, 130)[60:], n, 16))
    assert [b.shape for b in blocks] == [(16, n)] * 4 + [(6, n)]
    idx = np.concatenate(blocks)
    for row, b in zip(idx, draws):
        assert np.array_equal(row, ep.substream(*path, b).integers(0, n, size=n))


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        substream_states((), 10)
