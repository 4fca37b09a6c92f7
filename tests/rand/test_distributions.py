"""DIST1..DIST5 distribution tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.rand.distributions import (
    DISTRIBUTION_NAMES,
    ConstantDistribution,
    NormalDistribution,
    SpecialDistribution,
    UniformDistribution,
    ZipfDistribution,
    distribution_from_name,
)
from repro.rand.lewis_payne import LewisPayne


class TestUniform:
    def test_bounds(self, rng):
        dist = UniformDistribution()
        for _ in range(500):
            assert 3 <= dist.draw(rng, 3, 17) <= 17

    def test_covers_small_range(self, rng):
        dist = UniformDistribution()
        assert {dist.draw(rng, 1, 3) for _ in range(200)} == {1, 2, 3}

    def test_center_ignored(self, rng):
        dist = UniformDistribution()
        values = {dist.draw(rng, 1, 100, center=1) for _ in range(300)}
        assert max(values) > 60  # Not pulled toward the center.

    def test_empty_range_rejected(self, rng):
        with pytest.raises(ParameterError):
            UniformDistribution().draw(rng, 5, 4)


class TestConstant:
    def test_defaults_to_low(self, rng):
        dist = ConstantDistribution()
        assert all(dist.draw(rng, 4, 9) == 4 for _ in range(10))

    def test_fixed_value(self, rng):
        dist = ConstantDistribution(7)
        assert all(dist.draw(rng, 1, 10) == 7 for _ in range(10))

    def test_value_clamped_to_range(self, rng):
        dist = ConstantDistribution(42)
        assert dist.draw(rng, 1, 10) == 10
        assert dist.draw(rng, 50, 60) == 50

    def test_consumes_no_randomness(self, rng):
        state = rng.getstate()
        ConstantDistribution(3).draw(rng, 1, 5)
        assert rng.getstate() == state

    def test_describe(self):
        assert ConstantDistribution().describe() == "Constant"
        assert ConstantDistribution(3).describe() == "Constant(3)"


class TestNormal:
    def test_bounds(self, rng):
        dist = NormalDistribution(std_fraction=0.3)
        for _ in range(500):
            assert 0 <= dist.draw(rng, 0, 50) <= 50

    def test_concentrates_near_midpoint(self):
        rng = LewisPayne(77)
        dist = NormalDistribution(std_fraction=0.05)
        values = [dist.draw(rng, 0, 100) for _ in range(2000)]
        mean = sum(values) / len(values)
        assert abs(mean - 50) < 2

    def test_center_pulls_mean(self):
        rng = LewisPayne(78)
        dist = NormalDistribution(std_fraction=0.05)
        values = [dist.draw(rng, 0, 100, center=20) for _ in range(2000)]
        mean = sum(values) / len(values)
        assert abs(mean - 20) < 2

    def test_center_disabled(self):
        rng = LewisPayne(79)
        dist = NormalDistribution(std_fraction=0.05, use_center=False)
        values = [dist.draw(rng, 0, 100, center=20) for _ in range(1000)]
        mean = sum(values) / len(values)
        assert abs(mean - 50) < 3

    def test_degenerate_range(self, rng):
        assert NormalDistribution().draw(rng, 5, 5) == 5

    def test_rejects_bad_std(self):
        with pytest.raises(ParameterError):
            NormalDistribution(std_fraction=0.0)


class TestZipf:
    def test_bounds(self, rng):
        dist = ZipfDistribution(skew=1.0)
        for _ in range(500):
            assert 10 <= dist.draw(rng, 10, 60) <= 60

    def test_low_values_are_hot(self):
        rng = LewisPayne(80)
        dist = ZipfDistribution(skew=1.2)
        values = [dist.draw(rng, 1, 100) for _ in range(5000)]
        first_decile = sum(1 for v in values if v <= 10)
        last_decile = sum(1 for v in values if v > 90)
        assert first_decile > 5 * last_decile

    def test_higher_skew_more_concentrated(self):
        rng_a, rng_b = LewisPayne(81), LewisPayne(81)
        gentle = ZipfDistribution(skew=0.5)
        steep = ZipfDistribution(skew=2.0)
        hits_gentle = sum(1 for _ in range(3000)
                          if gentle.draw(rng_a, 1, 50) == 1)
        hits_steep = sum(1 for _ in range(3000)
                         if steep.draw(rng_b, 1, 50) == 1)
        assert hits_steep > hits_gentle

    def test_degenerate_range(self, rng):
        assert ZipfDistribution().draw(rng, 9, 9) == 9

    def test_rejects_bad_skew(self):
        with pytest.raises(ParameterError):
            ZipfDistribution(skew=0.0)


class TestSpecial:
    def test_bounds_without_center(self, rng):
        dist = SpecialDistribution(ref_zone=5)
        for _ in range(300):
            assert 1 <= dist.draw(rng, 1, 1000) <= 1000

    def test_locality_fraction(self):
        rng = LewisPayne(82)
        dist = SpecialDistribution(ref_zone=10, locality_probability=0.9)
        center = 500
        inside = 0
        n = 5000
        for _ in range(n):
            value = dist.draw(rng, 1, 1000, center=center)
            if abs(value - center) <= 10:
                inside += 1
        # 90% local + ~2% of the uniform 10% also lands inside.
        assert 0.85 < inside / n < 0.95

    def test_zone_clipped_at_range_edges(self, rng):
        dist = SpecialDistribution(ref_zone=10, locality_probability=1.0)
        for _ in range(200):
            value = dist.draw(rng, 1, 1000, center=3)
            assert 1 <= value <= 13

    def test_probability_one_always_local(self, rng):
        dist = SpecialDistribution(ref_zone=2, locality_probability=1.0)
        for _ in range(200):
            assert abs(dist.draw(rng, 1, 100, center=50) - 50) <= 2

    def test_probability_zero_is_uniform(self):
        rng = LewisPayne(83)
        dist = SpecialDistribution(ref_zone=2, locality_probability=0.0)
        values = [dist.draw(rng, 1, 100, center=50) for _ in range(2000)]
        outside = sum(1 for v in values if abs(v - 50) > 2)
        assert outside > 1800

    def test_no_center_falls_back_to_uniform(self):
        rng = LewisPayne(84)
        dist = SpecialDistribution(ref_zone=1, locality_probability=1.0)
        values = {dist.draw(rng, 1, 10) for _ in range(300)}
        assert len(values) == 10

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            SpecialDistribution(ref_zone=-1)
        with pytest.raises(ParameterError):
            SpecialDistribution(locality_probability=1.5)


class TestRegistry:
    def test_names(self):
        assert DISTRIBUTION_NAMES == ("constant", "normal", "special",
                                      "uniform", "zipf")

    @pytest.mark.parametrize("name", DISTRIBUTION_NAMES)
    def test_every_name_constructible(self, name, rng):
        dist = distribution_from_name(name)
        assert 1 <= dist.draw(rng, 1, 5, center=3) <= 5

    def test_case_insensitive(self):
        assert isinstance(distribution_from_name("  Uniform "),
                          UniformDistribution)

    def test_kwargs_forwarded(self):
        dist = distribution_from_name("special", ref_zone=3)
        assert dist.ref_zone == 3

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            distribution_from_name("pareto")


class TestEquality:
    def test_equal_same_parameters(self):
        assert ZipfDistribution(1.5) == ZipfDistribution(1.5)
        assert UniformDistribution() == UniformDistribution()

    def test_not_equal_different_parameters(self):
        assert ZipfDistribution(1.5) != ZipfDistribution(2.0)
        assert ConstantDistribution(1) != ConstantDistribution(2)

    def test_not_equal_different_types(self):
        assert UniformDistribution() != ConstantDistribution()

    def test_hashable(self):
        assert len({UniformDistribution(), UniformDistribution(),
                    ZipfDistribution()}) == 2

    def test_equality_survives_a_draw(self, rng):
        drawn, fresh = ZipfDistribution(1.0), ZipfDistribution(1.0)
        drawn.draw(rng, 1, 100)
        assert drawn == fresh
        assert hash(drawn) == hash(fresh)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       low=st.integers(min_value=-100, max_value=100),
       span=st.integers(min_value=0, max_value=200),
       center=st.one_of(st.none(), st.integers(min_value=-200, max_value=200)),
       name=st.sampled_from(DISTRIBUTION_NAMES))
def test_all_distributions_respect_bounds(seed, low, span, center, name):
    rng = LewisPayne(seed, warmup=5)
    dist = distribution_from_name(name)
    high = low + span
    for _ in range(10):
        assert low <= dist.draw(rng, low, high, center=center) <= high


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       low=st.integers(min_value=1, max_value=100),
       span=st.integers(min_value=1, max_value=5000),
       centers=st.lists(st.one_of(st.none(),
                                  st.integers(min_value=-50, max_value=5200)),
                        max_size=40),
       name=st.sampled_from(DISTRIBUTION_NAMES))
def test_draws_matches_one_draw_per_center(seed, low, span, centers, name):
    batched_rng = LewisPayne(seed, warmup=5)
    looped_rng = LewisPayne(seed, warmup=5)
    dist = distribution_from_name(name)
    high = low + span - 1
    assert dist.draws(batched_rng, low, high, centers) == \
        [dist.draw(looped_rng, low, high, center=center)
         for center in centers]
    assert batched_rng.getstate() == looped_rng.getstate()
