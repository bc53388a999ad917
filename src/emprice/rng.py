"""Seedable random streams with independent, addressable substreams.

All randomness in the package flows through :func:`substream`. A stream is a
numpy ``Generator`` backed by PCG64 and keyed by an integer path
``(seed, i0, i1, ...)`` hashed through ``numpy.random.SeedSequence``. Distinct
paths give statistically independent streams, so parallel replications can be
assigned their own path and reproduce bit-identically regardless of worker
count or execution order.

Conventions used elsewhere in the package:

- ``draw_sample(F, n, seed)`` uses path ``(seed,)``.
- bootstrap draw ``b`` of an inference call seeded with ``s`` uses
  ``(*path(s), b)`` where ``path(s)`` is ``(s,)`` for an integer seed or the
  tuple itself when the caller passes one.
- the Monte Carlo harness seeds replication ``r`` of cell ``(d, i)`` with the
  tuple ``(seed, d, i, r)``, hence its bootstrap draws use ``(seed, d, i, r, b)``.

Neither bootstrap draws nor Monte Carlo sample draws build one generator per
stream. :func:`substream_states` computes the PCG64 state of every
``substream(*path, *index)``, for each index in the product of its index
axes, in one vectorized pass: numpy's documented ``SeedSequence`` algorithm
(4-word pool, ``hashmix``/``mix``, ``generate_state(4, uint64)``) in uint32
arithmetic over the indices, then PCG64's ``srandom`` step. Its hash
constants do not depend on the data, so they are computed once and each
source word updates all of its destination pool words in one operation;
the 8 output words come from one operation too. The states are
then loaded one at a time into a single generator, built once per call:
:func:`resample_blocks` calls ``integers(0, n, size=n)`` on each, so each row
of indices is exactly the one ``substream(*path, b).integers(0, n, size=n)``
gives, and :func:`uniform_draws` calls ``random``, so the harness's samples
are exactly those of ``substream(seed, d, i, r).random(n)``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["substream", "seed_path", "substream_states", "resample_blocks", "uniform_draws"]

_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1

# numpy.random.SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# the pool words a source word updates while the pool mixes
_OTHERS = [[i for i in range(_POOL_SIZE) if i != i_src] for i_src in range(_POOL_SIZE)]
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_path(seed: int | tuple[int, ...]) -> tuple[int, ...]:
    """Normalize a user seed (int or tuple of ints) into a stream path."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    path = tuple(int(s) for s in seed)
    if not path:
        raise ValueError("seed path must not be empty")
    return path


def substream(*path: int) -> np.random.Generator:
    """Return the PCG64 generator addressed by the integer path.

    Negative components are mapped into the unsigned 64-bit range so any
    64-bit integer is a valid seed.
    """
    if not path:
        raise ValueError("substream requires at least one path component")
    words = [int(p) & _U64 for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's split of a non-negative int: 32-bit words, low word first."""
    words = [value & _U32]
    value >>= 32
    while value:
        words.append(value & _U32)
        value >>= 32
    return words


@functools.lru_cache(maxsize=16)
def _hash_constants(first: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant of ``count`` ``hashmix`` steps, and the one
    after them, as a read-only (count + 1, 1) uint32 column."""
    consts = [first]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _U32)
    column = np.asarray(consts, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, count: int) -> np.ndarray:
    # steps k .. k + count - 1, one per row: xor with the running constant,
    # multiply by the next one
    value = value ^ consts[k:k + count]
    value *= consts[k + 1:k + count + 1]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(8, uint32)`` for columns of words.

    ``entropy`` holds one column of uint32 words per stream. The hash
    constants do not depend on the data, so every stream runs the same
    operations, and a source word's updates of the pool words run as one.
    """
    extra = max(len(entropy) - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, consts, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for i_src, others in enumerate(_OTHERS):
        pool[others] = _mix(pool[others], _hashmix(pool[i_src], consts, k, len(others)))
        k += len(others)
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts, k, _POOL_SIZE))
        k += _POOL_SIZE
    return _hashmix(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 8), 0, 8)


def substream_states(path: tuple[int, ...], *axes: Sequence[int]) -> list[dict]:
    """PCG64 states of ``substream(*path, *index)`` for every index in
    ``itertools.product(*axes)``, in that order (the last axis varies fastest).

    Each entry equals ``substream(*path, *index).bit_generator.state``; see the
    module docstring for how they are computed. Index values lie in
    [0, 2**32), one ``SeedSequence`` word each.
    """
    if not path:
        raise ValueError("substream requires at least one path component")
    indices = [np.asarray(axis, dtype=np.int64) for axis in axes]
    if any(i.size and (i.min() < 0 or i.max() > _U32) for i in indices):
        raise ValueError("substream indices must lie in [0, 2**32)")
    prefix = [w for p in path for w in _uint32_words(int(p) & _U64)]
    # one column of entropy words per index: the path's words, then the index
    entropy = np.empty((len(prefix) + len(indices), *[i.size for i in indices]), dtype=np.uint32)
    for j, word in enumerate(prefix + list(np.ix_(*indices))):
        entropy[j] = word
    w32 = _seed_sequence_words(entropy.reshape(len(entropy), -1)).astype(np.uint64)
    # generate_state(4, uint64) reads the uint32 words as little-endian pairs
    words = (w32[0::2] | (w32[1::2] << np.uint64(32))).tolist()
    states = []
    for hi_state, lo_state, hi_seq, lo_seq in zip(*words):
        # pcg64_set_seed: state seed (s0, s1) and sequence (s2, s3), high word first
        inc = (((hi_seq << 64 | lo_seq) << 1) | 1) & _U128
        state = ((inc + (hi_state << 64 | lo_state)) * _PCG_MULT + inc) & _U128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def resample_blocks(states: list[dict], n: int, block: int) -> Iterator[np.ndarray]:
    """One row of n indices in [0, n) per PCG64 state, ``block`` rows at a time.

    Row j equals ``Generator(PCG64 in states[j]).integers(0, n, size=n)``. One
    generator serves every block: each state is loaded into it in turn.
    """
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for lo in range(0, len(states), block):
        chunk = states[lo:lo + block]
        out = np.empty((len(chunk), n), dtype=np.int64)
        for row, state in zip(out, chunk):
            bit_gen.state = state
            row[:] = gen.integers(0, n, size=n)
        yield out


def uniform_draws(states: list[dict], sizes: Sequence[int]) -> np.ndarray:
    """``Generator(PCG64 in states[j]).random(sizes[j])`` for every j, end to end.

    One generator serves every state: each is loaded into it in turn, and its
    draws fill their own slice of the output.
    """
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    out = np.empty(sum(sizes))
    start = 0
    for state, size in zip(states, sizes):
        bit_gen.state = state
        gen.random(out=out[start:start + size])
        start += size
    return out
