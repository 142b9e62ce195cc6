"""Unit tests for the RNG bridge: bit-exact state sharing with NumPy.

The whole batch-planning tier rests on one claim — a ``random.Random``
whose stream was partly consumed through the bridge or a word stream is
*indistinguishable* from one driven scalar-only.  These tests pin that
claim directly: identical draw values, identical word consumption,
identical ``getstate()`` after flushing, across seed widths and
interleavings, plus a Hypothesis sweep over random draw scripts.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.rng_bridge import (
    RngBridge,
    WordStream,
    chain_values_many,
    chain_walk_many_array,
    numpy_available,
    word_replay_matches,
)

#: Seeds spanning int widths (32-bit, > 2**32, bytes) — ``random.Random``
#: hashes them differently, so each exercises a distinct MT init path.
SEEDS = [42, 2**40 + 17, b"byte-seed"]


def twins(seed):
    return random.Random(seed), random.Random(seed)


class TestModuleGates:
    def test_numpy_available_here(self):
        assert numpy_available()

    def test_word_replay_matches_on_this_interpreter(self):
        assert word_replay_matches()


def _flush_one_draw_late(flush):
    def broken(self):
        rng = flush(self)
        rng.random()
        return rng

    return broken


#: One wrong-but-plausible version of every port a batch planner calls:
#: (owner, attribute, mutant factory).  ``None`` owner means a module
#: function of ``rng_bridge``.
_PORT_MUTANTS = {
    "random": (WordStream, "random", lambda f: lambda self: f(self) / 2),
    "randbelow": (WordStream, "randbelow", lambda f: lambda self, n: (f(self, n) + 1) % n),
    "sample": (
        WordStream,
        "sample",
        lambda f: lambda self, population, k: f(self, population, k)[::-1],
    ),
    "chain_values": (
        WordStream,
        "chain_values",
        lambda f: lambda self, count, bound: [(v + 1) % bound for v in f(self, count, bound)],
    ),
    "chain_walk": (WordStream, "chain_walk", lambda f: lambda self, *args: f(self, *args)[::-1]),
    "flush": (WordStream, "flush", _flush_one_draw_late),
    "chain_values_many": (
        None,
        "chain_values_many",
        lambda f: lambda *args: [row[::-1] for row in f(*args)],
    ),
    "chain_walk_many_array": (None, "chain_walk_many_array", lambda f: lambda *args: f(*args)[::-1]),
}


@pytest.mark.parametrize("port", sorted(_PORT_MUTANTS))
def test_self_check_fails_when_any_planner_port_is_wrong(port, monkeypatch):
    """``word_replay_matches`` gates every word-stream planner, so it must
    notice a wrong draw from each port a planner calls."""
    import repro.adversary.rng_bridge as rng_bridge

    owner, attribute, mutant = _PORT_MUTANTS[port]
    owner = rng_bridge if owner is None else owner
    monkeypatch.setattr(owner, attribute, mutant(getattr(owner, attribute)))
    assert not word_replay_matches()


class TestRngBridge:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_block_equals_scalar_stream(self, seed):
        reference, mirror = twins(seed)
        bridge = RngBridge(mirror)
        block = bridge.random_block(64)
        assert block.tolist() == [reference.random() for _ in range(64)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flush_round_trip_is_indistinguishable(self, seed):
        reference, mirror = twins(seed)
        bridge = RngBridge(mirror)
        bridge.random_block((4, 4))
        for _ in range(16):
            reference.random()
        assert bridge.flush().getstate() == reference.getstate()
        # And draws after the round trip keep agreeing.
        assert mirror.random() == reference.random()
        assert mirror.randint(0, 99) == reference.randint(0, 99)

    def test_gauss_cache_survives_the_bridge(self):
        reference, mirror = twins(7)
        reference.gauss(0, 1)
        mirror.gauss(0, 1)  # both now hold a cached second variate
        bridge = RngBridge(mirror)
        bridge.random_block(8)
        for _ in range(8):
            reference.random()
        bridge.flush()
        assert mirror.gauss(0, 1) == reference.gauss(0, 1)
        assert mirror.getstate() == reference.getstate()

    def test_interleaved_scalar_and_vector_draws(self):
        reference, mirror = twins(123)
        bridge = RngBridge(mirror)
        out = []
        for width in (3, 1, 17, 5):
            out.extend(bridge.random_block(width).tolist())
            out.append(bridge.scalar().randint(0, 1000))
            out.append(bridge.scalar().random())
        expected = []
        for width in (3, 1, 17, 5):
            expected.extend(reference.random() for _ in range(width))
            expected.append(reference.randint(0, 1000))
            expected.append(reference.random())
        assert out == expected
        assert bridge.flush().getstate() == reference.getstate()


class TestWordStream:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_ports_match_cpython(self, seed):
        reference, mirror = twins(seed)
        stream = WordStream(mirror)
        population = list(range(31))
        for k in (1, 3, 7, 6, 2):
            assert stream.random() == reference.random()
            # randint(-5, 90) is -5 + randbelow(96).
            assert stream.randbelow(96) - 5 == reference.randint(-5, 90)
            assert stream.sample(population, k) == reference.sample(population, k)
        assert stream.flush().getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chain_values_matches_randrange_chains(self, seed):
        reference, mirror = twins(seed)
        stream = WordStream(mirror)
        assert stream.chain_values(40, 13) == [
            reference.randrange(13) for _ in range(40)
        ]
        assert stream.flush().getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chain_walk_matches_skip_then_chain_pattern(self, seed):
        reference, mirror = twins(seed)
        stream = WordStream(mirror)
        walked = stream.chain_walk(12, 2, (1, 23))
        expected = []
        for _ in range(12):
            reference.random()  # two skipped words
            low = reference.randint(1, 1) - 1
            expected.append((low, reference.randrange(23)))
        assert walked == expected
        assert stream.flush().getstate() == reference.getstate()

    def test_flush_discards_unconsumed_prefetch(self):
        reference, mirror = twins(99)
        stream = WordStream(mirror)
        stream.random()  # triggers a large prefetch, consumes two words
        reference.random()
        assert stream.flush().getstate() == reference.getstate()

    def test_flush_without_draws_is_a_no_op(self):
        reference, mirror = twins(5)
        stream = WordStream(mirror)
        assert stream.flush().getstate() == reference.getstate()

    def test_fleet_decoders_match_per_stream_results(self):
        mirrors = [random.Random(seed) for seed in (1, 2, 3)]
        references = [random.Random(seed) for seed in (1, 2, 3)]
        streams = [WordStream(rng) for rng in mirrors]
        walked = chain_walk_many_array(streams, 6, 2, (1, 9)).tolist()
        values = chain_values_many(streams, [5, 5, 5], 4)
        for reference, row, vals in zip(references, walked, values):
            expected_row = []
            for _ in range(6):
                reference.random()
                low = reference.randint(1, 1) - 1
                expected_row.append([low, reference.randrange(9)])
            assert row == expected_row
            assert vals == [reference.randrange(4) for _ in range(5)]
        for reference, stream, mirror in zip(references, streams, mirrors):
            stream.flush()
            assert mirror.getstate() == reference.getstate()

    def test_chain_walk_many_array_shape_and_values(self):
        streams = [WordStream(random.Random(seed)) for seed in (11, 12)]
        picks = chain_walk_many_array(streams, 4, 2, (1, 7))
        assert picks.shape == (2, 4, 2)
        assert picks.dtype == np.int64
        assert (picks[:, :, 0] == 0).all()  # bound-1 chains only draw 0
        assert ((0 <= picks[:, :, 1]) & (picks[:, :, 1] < 7)).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    script=st.lists(
        st.one_of(
            st.tuples(st.just("random"), st.just(0)),
            st.tuples(st.just("randbelow"), st.integers(1, 1000)),
            st.tuples(st.just("sample"), st.integers(1, 8)),
            st.tuples(st.just("block"), st.integers(1, 40)),
            st.tuples(st.just("chain"), st.integers(1, 30)),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_property_streams_are_indistinguishable(seed, script):
    """Any interleaving of scalar/vector draws leaves the generator
    exactly where the scalar-only twin ends up, with identical values."""
    reference = random.Random(seed)
    mirror = random.Random(seed)
    stream = WordStream(mirror)
    population = list(range(40))
    for op, arg in script:
        if op == "random":
            assert stream.random() == reference.random()
        elif op == "randbelow":
            assert stream.randbelow(arg) == reference.randrange(arg)
        elif op == "sample":
            assert stream.sample(population, arg) == reference.sample(population, arg)
        elif op == "block":
            # random() doubles are two words each, so a block draw and a
            # scalar loop consume identically.
            got = [stream.random() for _ in range(arg)]
            assert got == [reference.random() for _ in range(arg)]
        elif op == "chain":
            assert stream.chain_values(arg, 13) == [
                reference.randrange(13) for _ in range(arg)
            ]
    assert stream.flush().getstate() == reference.getstate()
