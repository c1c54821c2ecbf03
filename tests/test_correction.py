"""Gaussian height correction vs naive convolution and 1-D minimization."""

import numpy as np
import pytest

from terraslope import BASE_WEIGHTS, GaussianKernel, HeightGrid, correct, fit_scale

from conftest import NODATA, random_grid
from oracles import golden_section_minimize, naive_correct


class TestKernel:
    def test_weights_sum_to_scale(self):
        # dyadic scales sum exactly; arbitrary scales to machine precision
        for scale in (0.0, 1.0, 2.5, -0.75):
            assert GaussianKernel(scale=scale).weights.sum() == scale
        assert GaussianKernel(scale=-0.7).weights.sum() == pytest.approx(
            -0.7, rel=1e-15
        )

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be finite"):
            GaussianKernel(scale=scale)

    def test_pattern_ratios(self):
        w = GaussianKernel(scale=3.0).weights
        np.testing.assert_allclose(w / 3.0, BASE_WEIGHTS)
        assert BASE_WEIGHTS.reshape(3, 3).tolist() == [
            [1 / 16, 1 / 8, 1 / 16],
            [1 / 8, 1 / 4, 1 / 8],
            [1 / 16, 1 / 8, 1 / 16],
        ]


class TestCorrect:
    def test_constant_grid_fixed_point_at_unit_scale(self):
        g = HeightGrid(np.full((4, 5), 17.0))
        np.testing.assert_array_equal(correct(g).values, 17.0)

    def test_zero_scale_zeroes_valid_pixels(self):
        g = HeightGrid(np.full((3, 3), 9.0))
        assert (correct(g, GaussianKernel(scale=0.0)).values == 0.0).all()

    def test_center_spike(self):
        values = np.zeros((3, 3))
        values[1, 1] = 16.0
        out = correct(HeightGrid(values), GaussianKernel(scale=1.0))
        assert out.values[1, 1] == 4.0

    def test_invalid_pixels_stay_invalid(self):
        values = np.ones((3, 3))
        values[0, 2] = NODATA
        out = correct(HeightGrid(values, nodata=NODATA))
        assert out.values[0, 2] == NODATA
        # neighbors of the hole see the center value instead of the sentinel
        assert (out.values[out.mask] == 1.0).all()

    def test_matches_naive_loop(self, rng):
        for _ in range(40):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            scale = float(rng.uniform(-2, 2))
            g = random_grid(rng, rows, cols, nodata_fraction=0.2)
            expected = np.array(naive_correct(g.values.tolist(), NODATA, scale))
            got = correct(g, GaussianKernel(scale=scale))
            np.testing.assert_allclose(got.values, expected, atol=1e-12)

    def test_linearity(self, rng):
        a, b = 2.5, -1.25
        g1 = random_grid(rng, 6, 6)
        g2 = random_grid(rng, 6, 6)
        combo = HeightGrid(a * g1.values + b * g2.values)
        lhs = correct(combo).values
        rhs = a * correct(g1).values + b * correct(g2).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_smoothing_bounds_unit_scale(self, rng):
        g = random_grid(rng, 8, 8)
        padded = np.pad(g.values, 1, mode="edge")
        out = correct(g).values
        for r in range(8):
            for c in range(8):
                win = padded[r : r + 3, c : c + 3]
                assert win.min() - 1e-12 <= out[r, c] <= win.max() + 1e-12

    def test_variance_reduction_on_noise(self, rng):
        noise = rng.standard_normal((40, 40))
        out = correct(HeightGrid(noise)).values
        interior = slice(4, -4)
        assert out[interior, interior].var() <= noise[interior, interior].var()


    def test_overflowing_scale_rejected(self):
        # warnings are errors in this suite, so an unsilenced overflow fails too
        with pytest.raises(ValueError, match="scale 1e\\+308 overflows"):
            correct(HeightGrid(np.full((2, 3), 100.0)), GaussianKernel(scale=1e308))


class TestFitScale:
    def test_self_fit_is_one(self, rng):
        g = random_grid(rng, 6, 6)
        target = correct(g, GaussianKernel(scale=1.0))
        assert fit_scale(g, target).scale == pytest.approx(1.0, abs=1e-12)

    def test_doubled_target_fits_two(self, rng):
        g = random_grid(rng, 6, 6)
        target = correct(g, GaussianKernel(scale=1.0))
        doubled = HeightGrid(2.0 * target.values)
        assert fit_scale(g, doubled).scale == pytest.approx(2.0, abs=1e-12)

    def test_matches_golden_section_minimizer(self, rng):
        for _ in range(50):
            noisy = random_grid(rng, 5, 5)
            target = random_grid(rng, 5, 5)
            got = fit_scale(noisy, target).scale
            smoothed = correct(noisy).values

            def loss(scale):
                return ((scale * smoothed - target.values) ** 2).sum()

            expected = golden_section_minimize(loss, -100.0, 100.0, tol=1e-10)
            assert got == pytest.approx(expected, abs=1e-6)

    def test_local_optimality(self, rng):
        noisy = random_grid(rng, 7, 7)
        target = random_grid(rng, 7, 7)
        scale = fit_scale(noisy, target).scale
        smoothed = correct(noisy).values

        def loss(s):
            return ((s * smoothed - target.values) ** 2).sum()

        assert loss(scale) <= loss(scale + 1e-3)
        assert loss(scale) <= loss(scale - 1e-3)

    def test_degenerate_zero_input_rejected(self):
        zeros = HeightGrid(np.zeros((3, 3)))
        target = HeightGrid(np.ones((3, 3)))
        with pytest.raises(ValueError, match="unidentifiable"):
            fit_scale(zeros, target)

    def test_overflowing_dot_products_rejected(self):
        huge = HeightGrid(np.full((1, 2), 1e308))
        with pytest.raises(ValueError, match="scale fit overflows"):
            fit_scale(huge, huge)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_scale(HeightGrid(np.ones((2, 2))), HeightGrid(np.ones((3, 3))))

    def test_no_joint_valid_rejected(self):
        a = HeightGrid(np.array([[1.0, NODATA]]), nodata=NODATA)
        b = HeightGrid(np.array([[NODATA, 1.0]]), nodata=NODATA)
        with pytest.raises(ValueError, match="jointly valid"):
            fit_scale(a, b)
