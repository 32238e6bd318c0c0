"""The batched seeding path against the one-stream path it replaces.

``generators`` re-implements numpy's ``SeedSequence`` hash, so these
tests compare it with numpy's own: a numpy release that changes the
hash must fail here, not move the sampled columns silently.
"""

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ima_lab import seeding
from ima_lab.seeding import SeedBlock, generator, generators, seed_words, substream, substreams

#: the seeds where the entropy changes length or a word is all ones
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]

uint64s = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))


def first_draws(gen):
    """A few words of each draw kind that the samplers use."""
    return gen.integers(0, 2**64, 4, dtype=np.uint64), gen.standard_normal(5), gen.random(3)


def same_stream(a, b):
    return all(np.array_equal(x, y) for x, y in zip(first_draws(a), first_draws(b)))


@given(st.lists(uint64s, max_size=12))
def test_generators_equal_generator_bit_for_bit(seeds):
    gens = list(generators(seeds))
    assert len(gens) == len(seeds)
    for s, gen in zip(seeds, gens):
        assert same_stream(gen, generator(s))


@given(st.lists(uint64s, min_size=1, max_size=12))
def test_seed_words_are_numpys_seed_sequence_state(seeds):
    words = seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for s, w in zip(seeds, words):
        assert np.array_equal(w, np.random.SeedSequence(s).generate_state(4, np.uint64))


@pytest.mark.parametrize("k", [seeding._HASH_MIN - 1, seeding._HASH_MIN])
def test_both_sides_of_the_hash_threshold_equal_generator(k):
    # fewer seeds go through numpy's SeedSequence, more through seed_words
    seeds = (EDGE_SEEDS * 2)[:k]
    for s, gen in zip(seeds, generators(np.array(seeds, dtype=np.uint64))):
        assert same_stream(gen, generator(s))


def test_edge_seeds_as_a_uint64_vector():
    seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
    for s, gen in zip(EDGE_SEEDS, generators(seeds)):
        assert same_stream(gen, np.random.Generator(np.random.PCG64(s)))


def test_negative_seeds_reduce_mod_2_64_as_generator_does():
    seeds = [-1, -(2**32), -(2**63)]
    for s, gen in zip(seeds, generators(seeds)):
        assert same_stream(gen, generator(s))
        assert same_stream(generator(s), np.random.Generator(np.random.PCG64(s % 2**64)))


def test_an_empty_batch():
    assert list(generators([])) == []
    assert seed_words([]).shape == (0, 4)
    assert substreams(7, []).shape == (0,)
    assert len(SeedBlock([])) == 0


@given(st.integers(-(2**64), 2**64 - 1), st.lists(st.integers(0, 2**62), max_size=12))
def test_substreams_equal_substream(master, counters):
    got = substreams(master, counters)
    assert got.dtype == np.uint64
    assert got.tolist() == [substream(master, c) for c in counters]


@given(
    st.lists(st.one_of(st.sampled_from(EDGE_SEEDS[-2:]), st.integers(2**63, 2**64 - 1), uint64s),
             min_size=1, max_size=8),
    st.lists(st.integers(0, 2**62), min_size=1, max_size=6),
    st.integers(0, 2**62),
)
def test_substreams_over_an_array_of_masters_equal_substream(masters, counters, counter):
    # the uint64 products wrap; a warning of overflow fails the test run
    column = np.array(masters, dtype=np.uint64)[:, None]
    got = substreams(column, counters)
    assert got.dtype == np.uint64 and got.shape == (len(masters), len(counters))
    assert got.tolist() == [[substream(m, c) for c in counters] for m in masters]
    for c in (0, counter):
        assert substreams(column[:, 0], c).tolist() == [substream(m, c) for m in masters]
        assert substreams(column[:1, 0].reshape(()), c).tolist() == substream(masters[0], c)
        assert substreams(masters[0], c).tolist() == substream(masters[0], c)


@given(st.lists(uint64s, max_size=9), st.integers(0, 4),
       st.sampled_from([list, functools.partial(np.array, dtype=np.uint64), SeedBlock]))
def test_stream_seeds_equal_substream_seed_by_seed(seeds, n, kind):
    # 0 to 36 sub-seeds, from lists, uint64 arrays and seed blocks
    got = seeding.stream_seeds(kind(seeds), n)
    assert [int(s) for s in got] == [substream(s, i) for s in seeds for i in range(n)]


@given(st.lists(uint64s, min_size=1, max_size=12), st.data())
def test_a_seed_block_indexes_as_its_seeds(seeds, data):
    block = SeedBlock(seeds)
    assert list(block) == seeds and np.ndim(block) == 1
    i = data.draw(st.integers(0, len(seeds) - 1))
    assert block[i] == seeds[i] and type(block[i]) is int
    start, stop = sorted(data.draw(st.lists(st.integers(0, len(seeds)), min_size=2, max_size=2)))
    part = block[start:stop]
    assert list(part) == seeds[start:stop]
    assert np.array_equal(part.words, seed_words(seeds[start:stop]))
    for s, gen in zip(seeds[start:stop], generators(part)):
        assert same_stream(gen, generator(s))


@pytest.mark.parametrize("master", [0, 20250809, 2**64 - 1])
def test_a_sweep_sized_block_equals_its_one_stream_seeds(master):
    seeds = substreams(substream(master, 3), np.arange(2000))
    assert seeds.tolist() == [substream(master, 3, i) for i in range(2000)]
    words = SeedBlock(seeds).words
    for i in (0, 1, 999, 1999):
        assert np.array_equal(words[i], np.random.SeedSequence(int(seeds[i])).generate_state(4, np.uint64))
