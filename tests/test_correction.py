"""Gaussian height correction vs naive convolution and 1-D minimization."""

import tracemalloc

import numpy as np
import pytest

from terraslope import BASE_WEIGHTS, GaussianKernel, HeightGrid, correct, correction, fit_scale

from conftest import NODATA, random_grid
from oracles import golden_section_minimize, naive_correct, reference_smooth


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

    def test_only_a_valid_cell_can_overflow(self):
        # a block of holes smooths its -1e308 sentinel at scale 2 to -inf, out of the mask
        values = np.ones((5, 5))
        values[1:4, 1:4] = -1e308
        grid = HeightGrid(values, nodata=-1e308)
        out = correct(grid, GaussianKernel(scale=2.0))
        assert out.values.tobytes() == np.where(grid.mask, 2.0, -1e308).tobytes()
        values[0, 0] = 1.7e308
        with pytest.raises(ValueError, match="scale 2.0 overflows"):
            correct(HeightGrid(values, nodata=-1e308), GaussianKernel(scale=2.0))


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


def strip_rows(cols):
    """Rows in one of ``correct``'s strips of a grid ``cols`` wide."""
    return max(1, correction._STRIP_BYTES // (72 * cols))


def around_seams(cols):
    """Heights of one and two strips, each with one row fewer and one more."""
    k = strip_rows(cols)
    return [(rows, cols) for rows in (k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1) if rows > 0]


def holey_grid(rng, shape, nodata):
    """Random heights with about a tenth of the cells set to ``nodata``; one cell stays valid."""
    values = rng.uniform(-50.0, 50.0, size=shape)
    holes = rng.random(shape) < 0.1
    holes.flat[0] = False
    values[holes] = nodata
    return HeightGrid(values, nodata=nodata)


def reference_scale(noisy, target):
    """``fit_scale``'s closed form over the whole-grid smoothing."""
    smoothed = reference_smooth(noisy, BASE_WEIGHTS)
    joint = (smoothed != noisy.nodata) & target.mask
    c = smoothed[joint]
    return float(np.dot(c, target.values[joint])) / float(np.dot(c, c))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_matches_whole_grid(grid, target):
    for scale in (1.0, -0.7, 3.25):
        kernel = GaussianKernel(scale=scale)
        expected = reference_smooth(grid, kernel.weights)
        np.testing.assert_array_equal(bits(correct(grid, kernel).values), bits(expected))
    assert bits(fit_scale(grid, target).scale) == bits(reference_scale(grid, target))


SHAPES = [(1, 1), (1, 7), (7, 1), (9, 37), (5, 513), *around_seams(37), *around_seams(513)]
ONE_ROW_SHAPES = [(1, 1), (1, 7), (7, 1), (30, 37), (6, 513)]


class TestStreamedSmoothing:
    """``correct`` smooths row strips; every bit is the whole grid's."""

    @pytest.mark.parametrize("nodata", [NODATA, 0.0], ids=["sentinel-9999", "sentinel-0"])
    @pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
    def test_matches_whole_grid_bit_for_bit(self, rng, shape, nodata):
        assert_matches_whole_grid(holey_grid(rng, shape, nodata), holey_grid(rng, shape, nodata))

    @pytest.mark.parametrize("shape", ONE_ROW_SHAPES, ids=[f"{r}x{c}" for r, c in ONE_ROW_SHAPES])
    def test_one_row_strips(self, rng, monkeypatch, shape):
        monkeypatch.setattr(correction, "_STRIP_BYTES", 1)
        stack, calls = correction.window_stack, []

        def counted(grid):
            calls.append(len(grid.values))
            return stack(grid)

        monkeypatch.setattr(correction, "window_stack", counted)
        grid = holey_grid(rng, shape, NODATA)
        correct(grid)
        # every strip is one row and its halo
        assert len(calls) == shape[0]
        assert max(calls) <= 3
        assert_matches_whole_grid(grid, holey_grid(rng, shape, NODATA))

    @pytest.mark.parametrize("nodata", [NODATA, 0.0], ids=["sentinel-9999", "sentinel-0"])
    def test_holes_on_both_sides_of_a_seam(self, rng, monkeypatch, nodata):
        rows, cols = 13, 11
        monkeypatch.setattr(correction, "_STRIP_BYTES", 72 * cols * 4)
        assert strip_rows(cols) == 4
        values = rng.uniform(1.0, 50.0, size=(rows, cols))
        values[3, ::2] = nodata  # last row of the first strip
        values[4, 1::3] = nodata  # first row of the second strip
        values[7, :] = nodata  # a whole row before the next seam
        values[8, 5] = nodata
        grid = HeightGrid(values, nodata=nodata)
        assert_matches_whole_grid(grid, holey_grid(rng, (rows, cols), nodata))

    def test_peak_memory_stays_under_three_grids(self, rng):
        shape = (1024, 1024)
        grid_bytes = 8 * shape[0] * shape[1]
        noisy = HeightGrid(rng.uniform(-50.0, 50.0, size=shape))
        target = HeightGrid(rng.uniform(-50.0, 50.0, size=shape))
        peaks = []
        for run in (lambda: correct(noisy), lambda: fit_scale(noisy, target)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            # a whole-grid window stack alone would be nine grids
            assert peaks[-1] < 3 * grid_bytes
        # on an all-valid pair fit_scale reads the cells as views: it adds at
        # most the joint mask to correct's peak, where a gathered copy adds a grid
        assert peaks[1] < peaks[0] + grid_bytes / 4

    @pytest.mark.parametrize("shape", [(1, 1), (9, 37), (64, 513)])
    def test_all_valid_scale_has_the_bits_of_gathered_cells(self, rng, shape):
        noisy = HeightGrid(rng.uniform(-50.0, 50.0, size=shape))
        target = HeightGrid(rng.uniform(-50.0, 50.0, size=shape))
        assert bits(fit_scale(noisy, target).scale) == bits(reference_scale(noisy, target))

    def test_result_adopts_its_output_and_shares_the_mask(self, rng):
        noisy = HeightGrid(rng.uniform(-50.0, 50.0, size=(1024, 1024)))
        tracemalloc.start()
        try:
            out = correct(noisy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and a strip's stack; a copy of the output would be two grids
        assert peak < 1.5 * noisy.values.nbytes
        assert out.mask is noisy.mask

    def test_overflow_in_a_late_strip_raises(self):
        cols = 64
        k = strip_rows(cols)
        values = np.ones((3 * k, cols))
        values[2 * k + k // 2] = 1e300
        kernel = GaussianKernel(scale=1e20)
        # the strips before the last smooth to finite heights
        assert np.isfinite(correct(HeightGrid(values[: 2 * k]), kernel).values).all()
        # warnings are errors in this suite, so an unsilenced overflow fails too
        with pytest.raises(ValueError, match="kernel scale 1e\\+20 overflows the corrected height"):
            correct(HeightGrid(values), kernel)
