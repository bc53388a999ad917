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
arithmetic over the indices, then PCG64's ``srandom`` step. The states are
then loaded one at a time into a single generator, built once per call:
:func:`resample_blocks` calls ``integers(0, n, size=n)`` on each, so each row
of indices is exactly the one ``substream(*path, b).integers(0, n, size=n)``
gives, and :func:`uniform_draws` calls ``random``, so the harness's samples
are exactly those of ``substream(seed, d, i, r).random(n)``.
"""

from __future__ import annotations

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
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
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


def _seed_sequence_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8, uint32)`` for columns of words.

    Each entry of ``entropy`` is one uint32 entropy word per stream; the
    hash constants do not depend on the data, so every stream runs the same
    sequence of operations and numpy evaluates them all at once.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _U32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(_XSHIFT))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _U32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> np.uint32(_XSHIFT)))
    return out


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
    if any(np.any((i < 0) | (i > _U32)) for i in indices):
        raise ValueError("substream indices must lie in [0, 2**32)")
    grid = [g.reshape(-1).astype(np.uint32) for g in np.meshgrid(*indices, indexing="ij")]
    count = grid[0].size if grid else 1
    prefix = [w for p in path for w in _uint32_words(int(p) & _U64)]
    columns = [np.full(count, w, dtype=np.uint32) for w in prefix] + grid
    w32 = [w.astype(np.uint64) for w in _seed_sequence_words(columns)]
    # generate_state(4, uint64) reads the uint32 words as little-endian pairs
    s0, s1, s2, s3 = ((w32[2 * j] | (w32[2 * j + 1] << np.uint64(32))).tolist() for j in range(4))
    states = []
    for hi_state, lo_state, hi_seq, lo_seq in zip(s0, s1, s2, s3):
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
