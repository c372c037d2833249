"""Unit tests for the deterministic RNG."""

import random
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng, zipf_cdf
from repro.workloads import algorithms, patterns
from repro.workloads.suite import build_workload, workload_names


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(5)
        b = DeterministicRng(5)
        assert [a.randint(0, 100) for _ in range(50)] == [
            b.randint(0, 100) for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRng(5)
        b = DeterministicRng(6)
        assert [a.randint(0, 1000) for _ in range(20)] != [
            b.randint(0, 1000) for _ in range(20)
        ]

    def test_spawn_reproducible(self):
        a = DeterministicRng(9).spawn(3)
        b = DeterministicRng(9).spawn(3)
        assert a.randint(0, 10**6) == b.randint(0, 10**6)

    def test_spawn_streams_decorrelated(self):
        parent = DeterministicRng(9)
        a = parent.spawn(1)
        b = parent.spawn(2)
        assert [a.randint(0, 1000) for _ in range(20)] != [
            b.randint(0, 1000) for _ in range(20)
        ]

    def test_seed_property(self):
        assert DeterministicRng(17).seed == 17


class TestDraws:
    def test_randint_bounds(self):
        rng = DeterministicRng(1)
        values = [rng.randint(3, 7) for _ in range(200)]
        assert min(values) >= 3
        assert max(values) <= 7
        assert set(values) == {3, 4, 5, 6, 7}

    def test_random_unit_interval(self):
        rng = DeterministicRng(1)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_choice_and_shuffle(self):
        rng = DeterministicRng(2)
        items = list(range(10))
        assert rng.choice(items) in items
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items


def zipf_draw(source, n, alpha):
    """The Zipf draw the generators inline: the inverse-CDF table search."""
    return bisect_left(zipf_cdf(n, alpha), source.random())


class TestZipf:
    def test_zipf_in_range(self):
        source = DeterministicRng(3).source()
        for _ in range(500):
            assert 0 <= zipf_draw(source, 20, 0.8) < 20

    def test_zipf_skews_to_low_indices(self):
        source = DeterministicRng(3).source()
        draws = [zipf_draw(source, 100, 1.2) for _ in range(5000)]
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 5 * max(tail, 1)

    def test_zipf_alpha_zero_is_uniform_range(self):
        source = DeterministicRng(4).source()
        draws = {zipf_draw(source, 8, 0.0) for _ in range(500)}
        assert draws == set(range(8))

    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0, max_value=3))
    def test_zipf_property_in_range(self, n, alpha):
        source = DeterministicRng(5).source()
        assert 0 <= zipf_draw(source, n, alpha) < n


def uniform_below(getrandbits, n):
    """The uniform draw the generators inline (CPython's ``randrange(n)``)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def searched_zipf_index(table, u):
    """The hand-written inverse-CDF search ``bisect_left`` replaced."""
    lo, hi = 0, len(table) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if table[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def suite_zipf_pairs():
    """Every (n, alpha) Zipf table the registered workloads draw from."""
    pairs = set()

    def recording(n, alpha):
        pairs.add((n, alpha))
        return zipf_cdf(n, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "zipf_cdf", recording)
        mp.setattr(algorithms, "zipf_cdf", recording)
        for name in workload_names():
            build_workload(name, 4, 50, seed=1)
    return sorted(pairs)


class TestDrawRules:
    """The inlined draws of the trace generators, on this Python."""

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 96, 1000, 1536])
    def test_inline_uniform_draw_is_randrange(self, n):
        ours, ref = random.Random(n), random.Random(n)
        getrandbits = ours.getrandbits
        drawn = [uniform_below(getrandbits, n) for _ in range(10_000)]
        assert drawn == [ref.randrange(n) for _ in range(10_000)]
        assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 96, 1000, 1536])
    def test_inline_uniform_draw_is_randint(self, n):
        ours, ref = random.Random(-n), random.Random(-n)
        getrandbits = ours.getrandbits
        drawn = [1 + uniform_below(getrandbits, n) for _ in range(10_000)]
        assert drawn == [ref.randint(1, n) for _ in range(10_000)]
        assert ours.getstate() == ref.getstate()

    def test_suite_draws_from_several_zipf_tables(self):
        pairs = suite_zipf_pairs()
        assert len(pairs) > 10
        assert all(alpha > 0 for _, alpha in pairs)

    @pytest.mark.parametrize("n,alpha", suite_zipf_pairs())
    def test_bisect_zipf_draw_is_the_searched_index(self, n, alpha):
        table = zipf_cdf(n, alpha)
        assert all(a <= b for a, b in zip(table, table[1:-1]))
        assert table[-1] == 1.0
        source = random.Random(n)
        us = [source.random() for _ in range(2000)] + [0.0, table[0], table[n // 2]]
        expected = [searched_zipf_index(table, u) for u in us]
        assert [bisect_left(table, u) for u in us] == expected

    def test_source_is_the_stream_behind_the_wrapper(self):
        rng = DeterministicRng(9)
        source = rng.source()
        assert rng.source() is source
        ref = random.Random(9)
        assert [source.random(), rng.random()] == [ref.random(), ref.random()]
