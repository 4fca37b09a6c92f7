"""Lewis–Payne GFSR generator tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.rand.lewis_payne import DEFAULT_SEED, LewisPayne


class TestConstruction:
    def test_default_trinomial_is_98_27(self):
        assert LewisPayne(1).trinomial == (98, 27)

    def test_seed_is_recorded(self):
        assert LewisPayne(777).seed == 777

    def test_rejects_non_integer_seed(self):
        with pytest.raises(ParameterError):
            LewisPayne("seed")  # type: ignore[arg-type]

    def test_rejects_bad_trinomial(self):
        with pytest.raises(ParameterError):
            LewisPayne(1, p=27, q=98)
        with pytest.raises(ParameterError):
            LewisPayne(1, p=10, q=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ParameterError):
            LewisPayne(1, warmup=-1)

    def test_zero_seed_is_usable(self):
        generator = LewisPayne(0)
        assert 0 <= generator.next_word() <= 0xFFFFFFFF


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = LewisPayne(2024)
        b = LewisPayne(2024)
        assert [a.next_word() for _ in range(100)] == \
               [b.next_word() for _ in range(100)]

    def test_different_seeds_diverge(self):
        a = LewisPayne(1)
        b = LewisPayne(2)
        assert [a.next_word() for _ in range(20)] != \
               [b.next_word() for _ in range(20)]

    def test_getstate_setstate_roundtrip(self):
        generator = LewisPayne(55)
        generator.next_word()
        state = generator.getstate()
        expected = [generator.next_word() for _ in range(50)]
        generator.setstate(state)
        assert [generator.next_word() for _ in range(50)] == expected

    def test_setstate_rejects_wrong_width(self):
        generator = LewisPayne(55)
        with pytest.raises(ParameterError):
            generator.setstate((0, (1, 2, 3), None))

    def test_setstate_rejects_bad_index(self):
        generator = LewisPayne(55)
        index, words, spare = generator.getstate()
        with pytest.raises(ParameterError):
            generator.setstate((len(words), words, spare))


class TestSpawn:
    def test_spawn_is_deterministic(self):
        a = LewisPayne(9).spawn(3)
        b = LewisPayne(9).spawn(3)
        assert [a.next_word() for _ in range(10)] == \
               [b.next_word() for _ in range(10)]

    def test_spawn_keys_differ(self):
        a = LewisPayne(9).spawn(1)
        b = LewisPayne(9).spawn(2)
        assert [a.next_word() for _ in range(10)] != \
               [b.next_word() for _ in range(10)]

    def test_spawn_differs_from_parent(self):
        parent = LewisPayne(9)
        child = parent.spawn(1)
        assert [parent.next_word() for _ in range(10)] != \
               [child.next_word() for _ in range(10)]


class TestDraws:
    def test_random_in_unit_interval(self, rng):
        for _ in range(1000):
            value = rng.random()
            assert 0.0 <= value < 1.0

    def test_random53_in_unit_interval(self, rng):
        for _ in range(1000):
            value = rng.random53()
            assert 0.0 <= value < 1.0

    def test_randint_respects_bounds(self, rng):
        for _ in range(2000):
            value = rng.randint(5, 9)
            assert 5 <= value <= 9

    def test_randint_degenerate_range(self, rng):
        assert rng.randint(7, 7) == 7

    def test_randint_rejects_empty_range(self, rng):
        with pytest.raises(ParameterError):
            rng.randint(5, 4)

    def test_randint_covers_range(self, rng):
        seen = {rng.randint(1, 4) for _ in range(500)}
        assert seen == {1, 2, 3, 4}

    def test_randint_roughly_uniform(self):
        rng = LewisPayne(31337)
        counts = [0] * 10
        n = 50_000
        for _ in range(n):
            counts[rng.randint(0, 9)] += 1
        expected = n / 10
        for count in counts:
            assert abs(count - expected) < 5 * math.sqrt(expected)

    def test_choice(self, rng):
        population = ["a", "b", "c"]
        assert rng.choice(population) in population

    def test_choice_rejects_empty(self, rng):
        with pytest.raises(ParameterError):
            rng.choice([])

    def test_shuffle_is_permutation(self, rng):
        values = list(range(50))
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == values
        assert shuffled != values  # 1/50! chance of false failure.

    def test_sample_without_replacement(self, rng):
        population = list(range(30))
        sample = rng.sample(population, 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10
        assert set(sample) <= set(population)

    def test_sample_rejects_oversize(self, rng):
        with pytest.raises(ParameterError):
            rng.sample([1, 2], 3)

    def test_expovariate_positive(self, rng):
        for _ in range(200):
            assert rng.expovariate(2.0) >= 0.0

    def test_expovariate_rejects_bad_rate(self, rng):
        with pytest.raises(ParameterError):
            rng.expovariate(0.0)

    def test_expovariate_mean(self):
        rng = LewisPayne(5150)
        n = 20_000
        mean = sum(rng.expovariate(4.0) for _ in range(n)) / n
        assert abs(mean - 0.25) < 0.01

    def test_gauss_moments(self):
        rng = LewisPayne(99)
        n = 20_000
        values = [rng.gauss(10.0, 2.0) for _ in range(n)]
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        assert abs(mean - 10.0) < 0.1
        assert abs(var - 4.0) < 0.2

    def test_gauss_rejects_negative_sigma(self, rng):
        with pytest.raises(ParameterError):
            rng.gauss(0.0, -1.0)

    def test_words_iterator(self, rng):
        assert len(list(rng.words(17))) == 17

    def test_words_rejects_negative(self, rng):
        with pytest.raises(ParameterError):
            list(rng.words(-1))


class TestGeometricHalf:
    def test_distribution_matches_half_powers(self):
        rng = LewisPayne(4242)
        n = 40_000
        counts = {}
        for _ in range(n):
            value = rng.geometric_half(8)
            counts[value] = counts.get(value, 0) + 1
        # p(1) = 1/2, p(2) = 1/4, p(3) = 1/8 ...
        for k, expected_p in ((1, 0.5), (2, 0.25), (3, 0.125)):
            observed = counts.get(k, 0) / n
            assert abs(observed - expected_p) < 0.01

    def test_bounds(self, rng):
        for _ in range(500):
            value = rng.geometric_half(3)
            assert value is None or 1 <= value <= 3

    def test_max_value_one_mostly_one(self):
        rng = LewisPayne(7)
        values = [rng.geometric_half(1) for _ in range(1000)]
        ones = sum(1 for v in values if v == 1)
        assert ones > 400  # p(1) = 0.5.
        assert all(v in (None, 1) for v in values)

    def test_rejects_bad_max(self, rng):
        with pytest.raises(ParameterError):
            rng.geometric_half(0)


class TestBitStatistics:
    def test_words_use_all_bits(self):
        rng = LewisPayne(13)
        ored = 0
        anded = 0xFFFFFFFF
        for _ in range(2000):
            word = rng.next_word()
            ored |= word
            anded &= word
        assert ored == 0xFFFFFFFF  # Every bit is sometimes 1...
        assert anded == 0          # ...and sometimes 0.

    def test_mean_of_floats_near_half(self):
        rng = LewisPayne(1001)
        n = 50_000
        mean = sum(rng.random() for _ in range(n)) / n
        assert abs(mean - 0.5) < 0.005


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       low=st.integers(min_value=-1000, max_value=1000),
       span=st.integers(min_value=0, max_value=500))
def test_randint_always_in_bounds(seed, low, span):
    rng = LewisPayne(seed, warmup=10)
    high = low + span
    for _ in range(20):
        assert low <= rng.randint(low, high) <= high


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reproducibility_property(seed):
    a = LewisPayne(seed, warmup=5)
    b = LewisPayne(seed, warmup=5)
    assert [a.next_word() for _ in range(25)] == \
           [b.next_word() for _ in range(25)]


class TestRandints:
    """``randints`` is ``randint`` in a loop: same values, same end state."""

    def test_span_of_one_consumes_nothing(self, rng):
        state = rng.getstate()
        assert rng.randints(9, 9, 4) == [9, 9, 9, 9]
        assert rng.getstate() == state

    def test_full_32_bit_span(self):
        batched, looped = LewisPayne(6), LewisPayne(6)
        high = (1 << 32) - 1
        assert batched.randints(0, high, 50) == \
            [looped.randint(0, high) for _ in range(50)]
        assert batched.getstate() == looped.getstate()

    def test_rejects_empty_range(self, rng):
        with pytest.raises(ParameterError, match="empty range"):
            rng.randints(5, 4, 3)

    def test_rejects_span_over_32_bits(self, rng):
        with pytest.raises(ParameterError, match="exceeds 32-bit"):
            rng.randints(0, 1 << 32, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       low=st.integers(min_value=-1000, max_value=1000),
       span=st.one_of(st.integers(min_value=1, max_value=500),
                      st.integers(min_value=1, max_value=1 << 32)),
       count=st.integers(min_value=0, max_value=300))
def test_randints_matches_randint_loop(seed, low, span, count):
    batched = LewisPayne(seed, warmup=10)
    looped = LewisPayne(seed, warmup=10)
    high = low + span - 1
    assert batched.randints(low, high, count) == \
        [looped.randint(low, high) for _ in range(count)]
    assert batched.getstate() == looped.getstate()
