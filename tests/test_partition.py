"""Hypothesis-plane partition vs a direct scalar transcription."""

import re

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

#: The one-pixel grid whose metadata the expected heights of 1x1 volumes take.
PIXEL = HeightGrid(np.zeros((1, 1)))


def single_pixel_ranges(low, high):
    return PixelRanges(
        low=np.array([[float(low)]]),
        high=np.array([[float(high)]]),
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

    @pytest.mark.parametrize("sorted_planes", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [np.inf]])
    def test_infinite_planes_rejected_at_valid_pixels(self, sorted_planes):
        planes = np.array([[sorted_planes]])
        with pytest.raises(ValueError, match="^planes must be finite at valid pixels$"):
            HypothesisPlanes(planes=planes, mask=np.array([[True]]))
        # a pixel outside the mask may hold anything
        HypothesisPlanes(planes=planes, mask=np.array([[False]]))

    def test_unsorted_planes_allowed_when_masked(self):
        p = HypothesisPlanes(planes=np.array([[[3.0, 1.0]]]), mask=np.array([[False]]))
        assert p.plane_count == 2

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityVolume(
                probs=np.array([[[0.5, 0.4]]]), mask=np.array([[True]])
            )

    @pytest.mark.parametrize("valid", [True, False])
    def test_nan_probs_rejected(self, valid):
        with pytest.raises(ValueError, match="^probabilities must be non-negative and not NaN$"):
            ProbabilityVolume(probs=np.array([[[np.nan, 1.0]]]), mask=np.array([[valid]]))

    def test_probs_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            ProbabilityVolume(
                probs=np.array([[[1.5, -0.5]]]), mask=np.array([[True]])
            )

    @pytest.mark.parametrize(
        "low,high",
        [
            (-np.inf, np.inf),
            (np.nan, np.nan),
            (-1e308, 1e308),  # finite bounds, overflowing width
        ],
    )
    def test_range_must_be_finite(self, low, high):
        with pytest.raises(ValueError, match="finite"):
            PixelRanges(
                low=np.array([[low]]),
                high=np.array([[high]]),
                mask=np.array([[True]]),
            )

    def test_non_finite_range_allowed_when_masked(self):
        r = PixelRanges(
            low=np.array([[-np.inf]]),
            high=np.array([[np.inf]]),
            mask=np.array([[False]]),
        )
        assert r.shape == (1, 1)


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
        assert expected_height(planes, probs, like=PIXEL).values[0, 0] == 9.0

    def test_uniform_over_pair(self):
        planes, probs = self.make([0.0, 10.0], [0.5, 0.5])
        assert expected_height(planes, probs, like=PIXEL).values[0, 0] == 5.0

    def test_weighted_pair(self):
        planes, probs = self.make([100.0, 104.0], [0.25, 0.75])
        assert expected_height(planes, probs, like=PIXEL).values[0, 0] == 103.0

    def test_takes_the_metadata_of_like(self):
        planes, probs = self.make([1.0, 5.0], [0.0, 1.0])
        gt = HeightGrid(
            np.zeros((1, 1)), cell_size=2.5, nodata=5.0, xllcorner=500.0, yllcorner=-250.0
        )
        h = expected_height(planes, probs, like=gt)
        assert (h.cell_size, h.nodata, h.xllcorner, h.yllcorner) == (2.5, 5.0, 500.0, -250.0)
        # a height equal to the sentinel stays valid
        assert h.values.tolist() == [[5.0]] and h.mask.all()

    def test_dimension_mismatch(self):
        planes, _ = self.make([0.0, 1.0], [0.5, 0.5])
        _, probs = self.make([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            expected_height(planes, probs, like=PIXEL)


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
        h = expected_height(planes, probs, like=PIXEL)
        assert pixel_std(planes, probs, h).values[0, 0] == 0.0

    def test_uniform_pair(self):
        planes, probs = self.make([0.0, 10.0], [0.5, 0.5])
        h = expected_height(planes, probs, like=PIXEL)
        assert pixel_std(planes, probs, h).values[0, 0] == 5.0

    def test_weighted_pair(self):
        planes, probs = self.make([100.0, 104.0], [0.25, 0.75])
        h = expected_height(planes, probs, like=PIXEL)
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
            h = expected_height(planes, probs, like=PIXEL)
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

    def test_small_floor_at_a_large_height(self):
        # height +- 0.001 rounds at the ulp of 1e8 (1.5e-8)
        h = HeightGrid(np.array([[1e8, 1e8 + 1]]))
        s = HeightGrid(np.zeros((1, 2)))
        r = pixel_range(h, s, 0.001)
        assert np.allclose((r.high - r.low) / 2, 0.001, rtol=0, atol=5e-8)
        assert np.allclose(r.high - r.low, 0.002, rtol=0, atol=1e-7)


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

    @pytest.mark.parametrize("m", [2.5, np.float64(8.0)])
    def test_rejects_a_plane_count_that_is_not_an_integer(self, m):
        message = rf"^plane_count must be an integer >= 2, got {re.escape(repr(m))}$"
        with pytest.raises(ValueError, match=message):
            self.run_single(0.0, -1.0, 1.0, 1.0, 1.0, m)

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



class TestSlopeFactorChecks:
    def setup_grid(self, holes=False):
        values = np.arange(6, dtype=float).reshape(2, 3)
        if holes:
            values[1, 2] = NODATA
        h = HeightGrid(values, nodata=NODATA)
        return h, pixel_range(h, h.with_values(np.ones((2, 3))), 1.0)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 3, 1)])
    def test_shape_mismatch_names_both_shapes(self, shape):
        h, ranges = self.setup_grid()
        factors = SlopeFactors(rise=np.ones(shape), drop=np.ones(shape))
        with pytest.raises(ValueError, match=rf"^rise factors \({shape[0]}, {shape[1]}.*\(2, 3\)"):
            slope_guided_partition(h, ranges, factors, 4)

    def test_drop_shape_checked_too(self):
        h, ranges = self.setup_grid()
        factors = SlopeFactors(rise=np.ones((2, 3)), drop=np.ones((1, 1)))
        with pytest.raises(ValueError, match=r"^drop factors \(1, 1\) and height \(2, 3\) differ"):
            slope_guided_partition(h, ranges, factors, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("field", ["rise", "drop"])
    def test_bad_value_at_a_valid_pixel_rejected(self, field, bad):
        h, ranges = self.setup_grid()
        values = {"rise": np.ones((2, 3)), "drop": np.ones((2, 3))}
        values[field][1, 0] = bad
        with pytest.raises(ValueError, match=rf"^{field} factor {bad} at \(1, 0\) is not finite"):
            slope_guided_partition(h, ranges, SlopeFactors(**values), 4)

    def test_bad_value_at_an_invalid_pixel_accepted(self):
        h, ranges = self.setup_grid(holes=True)
        rise = np.ones((2, 3))
        rise[1, 2] = np.nan
        drop = np.ones((2, 3))
        drop[1, 2] = -1.0
        p = slope_guided_partition(h, ranges, SlopeFactors(rise=rise, drop=drop), 4)
        assert p.mask.tolist() == [[True, True, True], [True, True, False]]

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

    @pytest.mark.parametrize("m", [2.5, np.float64(8.0)])
    def test_rejects_a_plane_count_that_is_not_an_integer(self, m):
        message = rf"^plane_count must be an integer >= 2, got {re.escape(repr(m))}$"
        with pytest.raises(ValueError, match=message):
            equal_partition(single_pixel_ranges(0.0, 1.0), m)


class TestVolumeBudget:
    @pytest.mark.parametrize("integer", [int, np.int32, np.int64])
    def test_a_numpy_plane_count_does_not_wrap_under_the_budget(self, integer):
        # 4096 x 2**20 planes of 8 bytes is 2**35 bytes, which is 0 in int32
        with pytest.raises(ValueError, match="volume budget"):
            _check_volume((1, 4096), integer(2**20))

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
