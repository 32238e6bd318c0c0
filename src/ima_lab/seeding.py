"""Deterministic sub-seed derivation for parallel Monte Carlo trials.

One master 64-bit seed drives a whole run.  Stream ``i`` gets the
counter-mixed sub-seed ``mix64(master, i)``, so trials can be scheduled
in any order (or on any number of workers) and still draw identical
numbers.

Every stream is ``np.random.Generator(np.random.PCG64(seed))``.  The
batched path builds many of them at once, bit for bit the same:
:func:`substreams` derives the sub-seeds of one master, or of an array of
masters, in one numpy pass (:func:`stream_seeds` those of n streams per
seed), :func:`seed_words` runs numpy's ``SeedSequence`` hash over a vector of
seeds in one ``uint32`` pass, and :func:`generators` seeds each PCG64
from those words.  A :class:`SeedBlock` carries seeds together with their
words, so a caller that draws from slices of one seed vector hashes it
once.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(master: int, counter: int) -> int:
    """Avalanche mix of a master seed and a stream counter (splitmix64 finalizer)."""
    z = (int(master) + (int(counter) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(master: int, *counters: int) -> int:
    """Derive a sub-seed from a master seed and a path of stream counters."""
    seed = int(master) & _MASK64
    for c in counters:
        seed = mix64(seed, c)
    return seed


def substreams(master, counters) -> np.ndarray:
    """``substream(m, c)`` for every master m of ``master`` and counter c of
    ``counters``, broadcast against each other, as uint64: :func:`mix64` in
    wrapping uint64 arithmetic.  ``master`` is one seed (an int, reduced
    mod 2**64 as :func:`substream` reduces it) or an integer array of
    seeds, such as a uint64 column ``seeds[:, None]`` against a row of
    counters."""
    if isinstance(master, np.ndarray):
        masters = master.astype(np.uint64)
    else:
        masters = np.uint64(substream(master))
    c = np.asarray(counters, dtype=np.int64).astype(np.uint64)
    shape = np.broadcast_shapes(masters.shape, c.shape)
    # arrays, never numpy scalars, through the wrapping products: a scalar
    # uint64 product warns on overflow
    z = masters + (np.atleast_1d(c) + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).reshape(shape)


def stream_seeds(seeds, n: int) -> np.ndarray:
    """``substream(s, i)`` for every seed s of ``seeds`` (a 1-d sequence or
    a :class:`SeedBlock`) and i < n, seed by seed, as uint64: the sub-seeds
    of n streams per seed, from one :func:`substreams` pass."""
    return substreams(_uint64(seeds)[:, None], np.arange(n)).reshape(-1)


def seed_list(seed) -> tuple:
    """``(seeds, scalar)`` for a sampler's ``seed``: an int gives ``([seed],
    True)``, a 1-d sequence or a :class:`SeedBlock` ``(seed, False)``; a
    seed of more axes is a DomainError.  The one rule of what a seed is."""
    ndim = np.ndim(seed)
    if ndim > 1:
        raise DomainError(f"seed must be an integer or a 1-d sequence, got ndim {ndim}")
    return ([seed], True) if ndim == 0 else (seed, False)


def generator(master: int, *counters: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given seed path."""
    return np.random.Generator(np.random.PCG64(substream(master, *counters)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 hash multipliers init * mult**i mod 2**32, as a column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


# a pool of 4 words takes 4 entropy hashes and 12 cross-mixing hashes;
# 4 uint64 words of state are 8 uint32 outputs
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of ``value`` with the running
    multipliers ``consts`` (one more than rows)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _uint64(seeds) -> np.ndarray:
    """A 1-d sequence of seeds as a uint64 vector, each reduced mod 2**64
    as :func:`substream` reduces a master seed."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        return seeds.astype(np.uint64).reshape(-1)
    return np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)


def seed_words(seeds) -> np.ndarray:
    """(k, 4) uint64: row j is ``SeedSequence(seeds[j]).generate_state(4,
    np.uint64)``, the words PCG64 seeds itself from.

    A uint64 seed is at most two entropy words, low word first, and a
    seed below 2**32 hashes as if its high word were 0, so every seed
    fills the 4-word pool as (low, high, 0, 0) and one vectorized pass
    over a (4, k) pool covers them all.
    """
    seeds = _uint64(seeds)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(pool, _HASH_A[:5])
    n = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        mixed = pool[dst] * _MIX_MULT_L - _hashmix(pool[src], _HASH_A[n:n + 4]) * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
        n += 3
    state = _hashmix(np.tile(pool, (2, 1)), _HASH_B)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _HashedSeed(ISeedSequence):
    """A seed whose SeedSequence words are already computed: the 4 uint64
    words that PCG64 asks for, whatever the request."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class SeedBlock:
    """A 1-d sequence of uint64 seeds with their :func:`seed_words`.

    It iterates and indexes as plain ints, so any sampler that takes a
    seed sequence takes it; a slice or an index array gives a block of the
    matching seeds and words, with no hashing.
    """

    ndim = 1

    def __init__(self, seeds, words: np.ndarray | None = None):
        self.seeds = _uint64(seeds)
        self.words = seed_words(self.seeds) if words is None else words

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return int(self.seeds[index])
        return SeedBlock(self.seeds[index], self.words[index])

    def __iter__(self):
        return iter(self.seeds.tolist())


#: below this many seeds, numpy's own SeedSequence hash, seed by seed
#: (about 8 us each), is faster than one vectorized hash (about 45 us fixed)
_HASH_MIN = 8


def generators(seeds) -> Iterator[np.random.Generator]:
    """``generator(s)`` for every s of ``seeds`` (a sequence of uint64
    seeds or a :class:`SeedBlock`), bit for bit, from one seed hash done
    now (numpy's own, seed by seed, for fewer than ``_HASH_MIN`` seeds).
    Each generator is built as the iterator reaches it, so a caller that
    draws from one at a time holds one at a time."""
    if isinstance(seeds, SeedBlock):
        words = seeds.words
    elif len(seeds) < _HASH_MIN:
        return (np.random.Generator(np.random.PCG64(int(s) & _MASK64)) for s in seeds)
    else:
        words = seed_words(seeds)
    return (np.random.Generator(np.random.PCG64(_HashedSeed(w))) for w in words)
