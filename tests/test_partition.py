"""Hypothesis-plane partition vs a direct scalar transcription."""

import numpy as np
import pytest

from terraslope import (
    HeightGrid,
    HypothesisPlanes,
    PixelRanges,
    ProbabilityVolume,
    SlopeFactors,
    equal_partition,
    expected_height,
    pixel_range,
    pixel_std,
    slope_guided_partition,
)

from terraslope.partition import VOLUME_BUDGET_BYTES, _check_volume

from conftest import NODATA
from oracles import scalar_partition, scalar_split


def single_pixel_ranges(low, high):
    return PixelRanges(
        low=np.array([[float(low)]]),
        high=np.array([[float(high)]]),
        sigma=np.array([[(high - low) / 2.0]]),
        mask=np.array([[True]]),
    )


def planes_of(volume):
    return volume.planes[0, 0]


class TestTypes:
    def test_planes_must_be_sorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            HypothesisPlanes(
                planes=np.array([[[3.0, 1.0]]]), mask=np.array([[True]])
            )

    def test_nan_planes_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            HypothesisPlanes(
                planes=np.array([[[np.nan, np.nan]]]), mask=np.array([[True]])
            )

    def test_unsorted_planes_allowed_when_masked(self):
        p = HypothesisPlanes(planes=np.array([[[3.0, 1.0]]]), mask=np.array([[False]]))
        assert p.plane_count == 2

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityVolume(
                probs=np.array([[[0.5, 0.4]]]), mask=np.array([[True]])
            )

    def test_probs_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            ProbabilityVolume(
                probs=np.array([[[1.5, -0.5]]]), mask=np.array([[True]])
            )

    @pytest.mark.parametrize(
        "low,high,sigma",
        [
            (-np.inf, np.inf, np.inf),  # 2 * sigma matches, NaN-blind
            (np.nan, np.nan, 0.0),
            (-1e308, 1e308, 1e308),  # finite bounds, overflowing width
            (0.0, 0.0, np.inf),
        ],
    )
    def test_range_must_be_finite(self, low, high, sigma):
        with pytest.raises(ValueError, match="finite"):
            PixelRanges(
                low=np.array([[low]]),
                high=np.array([[high]]),
                sigma=np.array([[sigma]]),
                mask=np.array([[True]]),
            )

    def test_non_finite_range_allowed_when_masked(self):
        r = PixelRanges(
            low=np.array([[-np.inf]]),
            high=np.array([[np.inf]]),
            sigma=np.array([[np.inf]]),
            mask=np.array([[False]]),
        )
        assert r.shape == (1, 1)

    def test_range_width_must_match_sigma(self):
        with pytest.raises(ValueError, match="2 \\* sigma"):
            PixelRanges(
                low=np.array([[0.0]]),
                high=np.array([[10.0]]),
                sigma=np.array([[1.0]]),
                mask=np.array([[True]]),
            )


class TestExpectedHeight:
    def make(self, planes, probs):
        planes = np.asarray(planes, float).reshape(1, 1, -1)
        probs = np.asarray(probs, float).reshape(1, 1, -1)
        mask = np.array([[True]])
        return (
            HypothesisPlanes(planes=planes, mask=mask),
            ProbabilityVolume(probs=probs, mask=mask),
        )

    def test_one_hot(self):
        planes, probs = self.make([1.0, 5.0, 9.0], [0.0, 0.0, 1.0])
        assert expected_height(planes, probs).values[0, 0] == 9.0

    def test_uniform_over_pair(self):
        planes, probs = self.make([0.0, 10.0], [0.5, 0.5])
        assert expected_height(planes, probs).values[0, 0] == 5.0

    def test_weighted_pair(self):
        planes, probs = self.make([100.0, 104.0], [0.25, 0.75])
        assert expected_height(planes, probs).values[0, 0] == 103.0

    def test_dimension_mismatch(self):
        planes, _ = self.make([0.0, 1.0], [0.5, 0.5])
        _, probs = self.make([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            expected_height(planes, probs)


class TestPixelStd:
    def make(self, planes, probs):
        planes = np.asarray(planes, float).reshape(1, 1, -1)
        probs = np.asarray(probs, float).reshape(1, 1, -1)
        mask = np.array([[True]])
        return (
            HypothesisPlanes(planes=planes, mask=mask),
            ProbabilityVolume(probs=probs, mask=mask),
        )

    def test_one_hot_zero_std(self):
        planes, probs = self.make([1.0, 5.0], [1.0, 0.0])
        h = expected_height(planes, probs)
        assert pixel_std(planes, probs, h).values[0, 0] == 0.0

    def test_uniform_pair(self):
        planes, probs = self.make([0.0, 10.0], [0.5, 0.5])
        h = expected_height(planes, probs)
        assert pixel_std(planes, probs, h).values[0, 0] == 5.0

    def test_weighted_pair(self):
        planes, probs = self.make([100.0, 104.0], [0.25, 0.75])
        h = expected_height(planes, probs)
        assert pixel_std(planes, probs, h).values[0, 0] == pytest.approx(
            np.sqrt(3.0), abs=1e-12
        )

    def test_matches_population_stats_on_random_inputs(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 9))
            planes_v = np.sort(rng.uniform(-100, 100, m))
            w = rng.uniform(0.01, 1.0, m)
            w /= w.sum()
            planes, probs = self.make(planes_v, w)
            h = expected_height(planes, probs)
            sigma = pixel_std(planes, probs, h)
            mean = float(np.dot(w, planes_v))
            std = float(np.sqrt(np.dot(w, (planes_v - mean) ** 2)))
            assert abs(h.values[0, 0] - mean) <= 1e-9
            assert abs(sigma.values[0, 0] - std) <= 1e-9


class TestPixelRange:
    def test_basic_range(self):
        h = HeightGrid(np.array([[100.0]]))
        s = HeightGrid(np.array([[5.0]]))
        r = pixel_range(h, s, 0.0)
        assert r.low[0, 0] == 95.0 and r.high[0, 0] == 105.0

    def test_zero_sigma_degenerate(self):
        h = HeightGrid(np.array([[7.0]]))
        s = HeightGrid(np.array([[0.0]]))
        r = pixel_range(h, s, 0.0)
        assert r.low[0, 0] == r.high[0, 0] == 7.0

    def test_floor_dominates(self):
        h = HeightGrid(np.array([[50.0]]))
        s = HeightGrid(np.array([[2.0]]))
        r = pixel_range(h, s, 10.0)
        assert r.low[0, 0] == 40.0 and r.high[0, 0] == 60.0

    def test_negative_sigma_rejected(self):
        h = HeightGrid(np.array([[1.0]]))
        s = HeightGrid(np.array([[-1.0]]))
        with pytest.raises(ValueError):
            pixel_range(h, s, 0.0)

    def test_nan_floor_rejected(self):
        h = HeightGrid(np.array([[1.0]]))
        s = HeightGrid(np.array([[1.0]]))
        with pytest.raises(ValueError, match="sigma_floor"):
            pixel_range(h, s, float("nan"))

    @pytest.mark.parametrize("floor", [np.inf, 1e308])
    def test_unbounded_floor_rejected(self, floor):
        h = HeightGrid(np.array([[1.0]]))
        s = HeightGrid(np.array([[1.0]]))
        with pytest.raises(ValueError, match="finite"):
            pixel_range(h, s, floor)

    def test_invalid_pixels_masked(self):
        h = HeightGrid(np.array([[1.0, NODATA]]), nodata=NODATA)
        s = HeightGrid(np.array([[1.0, 1.0]]), nodata=NODATA)
        r = pixel_range(h, s, 0.0)
        assert r.mask.tolist() == [[True, False]]


class TestSlopeGuidedPartition:
    def run_single(self, center, low, high, rise, drop, m):
        h = HeightGrid(np.array([[float(center)]]))
        ranges = single_pixel_ranges(low, high)
        factors = SlopeFactors(
            rise=np.array([[float(rise)]]), drop=np.array([[float(drop)]])
        )
        return slope_guided_partition(h, ranges, factors, m)

    def test_symmetric_factors_example(self):
        p = self.run_single(4.0, 0.0, 8.0, 1.0, 1.0, 8)
        expected = [0, 1, 2, 3, 4, 4 + 4 / 3, 4 + 8 / 3, 8]
        np.testing.assert_allclose(planes_of(p), expected, atol=1e-12)

    def test_zero_drop_clamps_lower_to_one(self):
        p = self.run_single(4.0, 0.0, 8.0, 6.0, 0.0, 8)
        planes = planes_of(p)
        assert planes[0] == 0.0
        # 7 planes cover [4, 8] inclusive
        np.testing.assert_allclose(planes[1:], np.linspace(4.0, 8.0, 7), atol=1e-12)

    def test_flat_pixel_even_split(self):
        p = self.run_single(4.0, 0.0, 8.0, 0.0, 0.0, 8)
        planes = planes_of(p)
        np.testing.assert_allclose(planes[:4], [0, 1, 2, 3], atol=1e-12)
        np.testing.assert_allclose(planes[4:], np.linspace(4.0, 8.0, 4), atol=1e-12)

    def test_rejects_small_plane_count(self):
        with pytest.raises(ValueError):
            self.run_single(0.0, -1.0, 1.0, 1.0, 1.0, 1)

    def test_degenerate_range_all_center(self):
        p = self.run_single(5.0, 5.0, 5.0, 2.0, 3.0, 6)
        assert (planes_of(p) == 5.0).all()

    def test_matches_scalar_oracle_on_random_pixels(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            center = float(rng.uniform(-100, 100))
            spread = float(rng.uniform(0, 50))
            rise = float(rng.uniform(0, 10)) * (rng.random() > 0.2)
            drop = float(rng.uniform(0, 10)) * (rng.random() > 0.2)
            m = int(rng.integers(2, 33))
            p = self.run_single(center, center - spread, center + spread, rise, drop, m)
            expected = scalar_partition(
                center, center - spread, center + spread, rise, drop, m
            )
            np.testing.assert_allclose(planes_of(p), expected, atol=1e-10)

    def test_conservation_ordering_bounds_vectorized(self, rng):
        rows, cols, m = 17, 13, 16
        h = HeightGrid(rng.uniform(-10, 10, (rows, cols)))
        sigma = HeightGrid(rng.uniform(0, 5, (rows, cols)))
        ranges = pixel_range(h, sigma, 1.0)
        factors = SlopeFactors(
            rise=rng.uniform(0, 4, (rows, cols)), drop=rng.uniform(0, 4, (rows, cols))
        )
        p = slope_guided_partition(h, ranges, factors, m)
        assert p.plane_count == m
        assert (np.diff(p.planes, axis=2) >= 0).all()
        assert (p.planes[:, :, 0] == ranges.low).all()
        assert (p.planes[:, :, -1] <= ranges.high + 1e-12).all()
        # the current estimate is always one of the planes
        contains_center = np.isclose(p.planes, h.values[:, :, None]).any(axis=2)
        assert contains_center.all()

    def test_density_monotone_in_rise(self):
        m = 16
        counts = []
        for rise in np.linspace(0.0, 10.0, 21):
            n_below, n_above = scalar_split(m, 5.0, float(rise))
            p = self.run_single(0.0, -10.0, 10.0, float(rise), 5.0, m)
            above = (planes_of(p) >= 0.0).sum()
            assert above == n_above
            counts.append(above)
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestEqualPartition:
    def test_linspace(self):
        p = equal_partition(single_pixel_ranges(0.0, 10.0), 3)
        np.testing.assert_array_equal(planes_of(p), [0.0, 5.0, 10.0])

    def test_degenerate_range(self):
        p = equal_partition(single_pixel_ranges(7.0, 7.0), 5)
        assert (planes_of(p) == 7.0).all()

    def test_five_planes(self):
        p = equal_partition(single_pixel_ranges(95.0, 105.0), 5)
        np.testing.assert_allclose(planes_of(p), [95, 97.5, 100, 102.5, 105])

    def test_rejects_small_plane_count(self):
        with pytest.raises(ValueError):
            equal_partition(single_pixel_ranges(0.0, 1.0), 1)


class TestVolumeBudget:
    def test_budget_edge(self):
        per_pixel = VOLUME_BUDGET_BYTES // 8
        _check_volume((1, 1), per_pixel)  # exactly at the budget: allowed
        with pytest.raises(ValueError, match="volume budget"):
            equal_partition(single_pixel_ranges(0.0, 1.0), per_pixel + 1)

    def test_huge_plane_count_rejected_before_allocation(self):
        # 3 pixels x 10^8 planes would need 2.2 GiB per volume array
        ranges = PixelRanges(
            low=np.zeros((1, 3)),
            high=np.ones((1, 3)),
            sigma=np.full((1, 3), 0.5),
            mask=np.ones((1, 3), bool),
        )
        h = HeightGrid(np.full((1, 3), 0.5))
        factors = SlopeFactors(rise=np.ones((1, 3)), drop=np.ones((1, 3)))
        with pytest.raises(ValueError, match="volume budget"):
            equal_partition(ranges, 100_000_000)
        with pytest.raises(ValueError, match="volume budget"):
            slope_guided_partition(h, ranges, factors, 100_000_000)


class TestReductionInvariant:
    def test_equal_factors_even_m_uniform_within_subranges(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            center = float(rng.uniform(-50, 50))
            spread = float(rng.uniform(0.1, 20))
            f = float(rng.uniform(0.1, 5))
            m = int(rng.integers(1, 9)) * 2
            h = HeightGrid(np.array([[center]]))
            ranges = single_pixel_ranges(center - spread, center + spread)
            factors = SlopeFactors(rise=np.array([[f]]), drop=np.array([[f]]))
            p = slope_guided_partition(h, ranges, factors, m)
            planes = planes_of(p)
            lower, upper = planes[: m // 2], planes[m // 2 :]
            assert len(lower) == len(upper)
            for side in (np.diff(lower), np.diff(upper)):
                if side.size:
                    np.testing.assert_allclose(side, side[0], rtol=1e-9)
