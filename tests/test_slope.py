"""3x3 windows, slope magnitude, direction codes, and slope factors vs brute force."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraslope import (
    HeightGrid,
    HypothesisPlanes,
    ProbabilityVolume,
    pixel_std,
    slope_direction_map,
    slope_factor_maps,
    slope_map,
)
from terraslope import slope
from terraslope.slope import direction_as_grid, window_stack

from conftest import NODATA, random_grid
from oracles import brute_direction, brute_factors, brute_slope, window_values


def ramp_grid(rows=5, cols=6):
    return HeightGrid(2.0 * np.tile(np.arange(cols, dtype=float), (rows, 1)))


class TestWindowStack:
    def test_interior_pixel(self):
        assert window_stack(ramp_grid())[2, 2].tolist() == [2, 4, 6, 2, 4, 6, 2, 4, 6]

    def test_corner_replicates(self):
        assert window_stack(ramp_grid())[0, 0].tolist() == [0, 0, 2, 0, 0, 2, 0, 0, 2]

    def test_invalid_neighbor_uses_center(self):
        values = np.zeros((3, 3))
        values[1, 1] = 7.0
        values[0, 0] = NODATA
        window = window_stack(HeightGrid(values, nodata=NODATA))[1, 1]
        assert window.tolist() == [7, 0, 0, 0, 7, 0, 0, 0, 0]


def holey_grid(rng, i, nodata):
    """A random grid of up to 8x8 with up to 60% holes, some on every border or at the corners.

    Every other grid holds small integers of both zero signs, so windows
    tie; under sentinel 0 both zeros are holes.
    """
    rows, cols = (int(n) for n in rng.integers(1, 9, size=2))
    if i % 2:
        values = rng.integers(-3, 4, size=(rows, cols)) * rng.choice([-1.0, 1.0], (rows, cols))
    else:
        values = rng.uniform(-50, 50, size=(rows, cols))
    holes = rng.random((rows, cols)) < rng.uniform(0.0, 0.6)
    if i % 3 == 1:
        holes[[0, -1], :] = holes[:, [0, -1]] = True
    elif i % 3 == 2:
        holes[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    values[holes] = nodata
    return HeightGrid(values, nodata=nodata)


@pytest.mark.parametrize("nodata", [0.0, NODATA, 1e300])
def test_window_stack_matches_the_oracle_at_every_valid_pixel(nodata):
    rng = np.random.default_rng(25)
    for i in range(120):
        g = holey_grid(rng, i, nodata)
        stack, cells = window_stack(g), g.values.tolist()
        assert stack.shape == (*g.shape, 9)
        for r, c in np.argwhere(g.mask):
            want = np.array(window_values(cells, nodata, r, c))
            assert stack[r, c].tobytes() == want.tobytes(), (i, r, c)


@pytest.mark.parametrize(
    "operation",
    [slope_map, slope_direction_map, slope.slope_and_direction, slope_factor_maps, window_stack],
)
def test_each_window_operation_pads_once(operation, monkeypatch):
    # one NaN-filled padding serves every fold and the stack's center fallback
    pad, calls = np.pad, []

    def counted(values, *args, **kwargs):
        calls.append(values.dtype)
        return pad(values, *args, **kwargs)

    monkeypatch.setattr(slope.np, "pad", counted)
    values = ramp_grid().values.copy()
    values[1, 2] = NODATA
    operation(HeightGrid(values, nodata=NODATA))
    assert calls == [np.float64]


class TestSlopeMap:
    def test_constant_grid_zero_slope(self):
        g = HeightGrid(np.full((4, 7), 123.0))
        assert (slope_map(g).values == 0).all()

    def test_single_spike(self):
        g = HeightGrid(np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, 5]]))
        assert slope_map(g).values[1, 1] == 5.0

    def test_ramp_interior_slope(self):
        s = slope_map(ramp_grid())
        assert (s.values[:, 1:-1] == 2.0).all()
        # right edge replicates, so its window max equals the center
        assert (s.values[:, -1] == 0.0).all()

    def test_nodata_propagates(self):
        values = np.ones((3, 3))
        values[1, 1] = NODATA
        g = HeightGrid(values, nodata=NODATA)
        s = slope_map(g)
        assert s.values[1, 1] == NODATA
        assert (s.values[s.mask] == 0).all()

    def test_metadata_preserved(self):
        g = HeightGrid(np.ones((2, 2)), cell_size=12.5)
        assert slope_map(g).cell_size == 12.5

    def test_overflow_names_the_cell(self):
        with pytest.raises(ValueError, match=r"^slope at \(0, 1\) overflows"):
            slope_map(HeightGrid(np.array([[1.7e308, -1.7e308]])))


class TestSlopeDirectionMap:
    def test_constant_grid_all_vertical(self):
        g = HeightGrid(np.full((5, 5), 3.0))
        d = slope_direction_map(g)
        assert (d.codes == 4).all()

    @pytest.mark.parametrize(
        "position,code",
        [
            ((0, 0), 8),  # upper-left
            ((0, 1), 7),  # up
            ((0, 2), 6),  # upper-right
            ((1, 0), 5),  # left
            ((1, 2), 3),  # right
            ((2, 0), 2),  # lower-left
            ((2, 1), 1),  # down
            ((2, 2), 0),  # lower-right
        ],
    )
    def test_unique_maximum_position_codes(self, position, code):
        values = np.zeros((3, 3))
        values[position] = 9.0
        d = slope_direction_map(HeightGrid(values))
        assert d.codes[1, 1] == code

    def test_center_maximum_is_vertical(self):
        values = np.zeros((3, 3))
        values[1, 1] = 9.0
        assert slope_direction_map(HeightGrid(values)).codes[1, 1] == 4

    def test_center_tie_prefers_vertical(self):
        # center equals the top-left maximum: center preference wins
        values = np.zeros((3, 3))
        values[0, 0] = 9.0
        values[1, 1] = 9.0
        assert slope_direction_map(HeightGrid(values)).codes[1, 1] == 4

    def test_neighbor_tie_takes_smallest_index(self):
        # upper-left and lower-right both maximal: code from index 0
        values = np.zeros((3, 3))
        values[0, 0] = 9.0
        values[2, 2] = 9.0
        assert slope_direction_map(HeightGrid(values)).codes[1, 1] == 8

    def test_invalid_pixels_masked(self):
        values = np.zeros((2, 2))
        values[0, 0] = NODATA
        d = slope_direction_map(HeightGrid(values, nodata=NODATA))
        assert not d.mask[0, 0]
        assert d.mask[0, 1]


class TestSlopeAndDirection:
    @pytest.mark.parametrize("nodata", [0.0, NODATA, 1e300])
    def test_equals_the_two_maps_byte_for_byte(self, nodata):
        rng = np.random.default_rng(28)
        for i in range(150):
            g = holey_grid(rng, i, nodata)
            got_slope, got_codes = slope.slope_and_direction(g)
            want_codes = slope_direction_map(g)
            # the fold's own uint8 codes, equal by value to the public int64 ones
            assert got_codes.codes.dtype == np.uint8 and not got_codes.codes.flags.writeable
            assert np.array_equal(got_codes.codes, want_codes.codes), i
            assert np.array_equal(got_codes.mask, want_codes.mask) and got_codes.mask is g.mask
            got_dir = direction_as_grid(got_codes, like=g)
            want_dir = direction_as_grid(want_codes, like=g)
            for got, want in ((got_slope, slope_map(g)), (got_dir, want_dir)):
                assert got.values.tobytes() == want.values.tobytes(), i
                assert np.array_equal(got.mask, want.mask) and got.mask is g.mask
                assert (got.nodata, got.cell_size) == (g.nodata, g.cell_size)
                assert not got.values.flags.writeable

    def test_overflow_names_the_cell(self):
        g = HeightGrid(np.array([[1.7e308, -1.7e308]]))
        with pytest.raises(ValueError, match=r"^slope at \(0, 1\) overflows"):
            slope.slope_and_direction(g)

    def test_public_codes_stay_int64(self):
        codes = slope_direction_map(ramp_grid()).codes
        assert codes.dtype == np.int64 and not codes.flags.writeable

    def test_direction_map_peak_memory_stays_under_three_grids(self):
        # the padding and its NaN copy, the fold, uint8 codes and the int64
        # result; the boolean-index stores of int64 codes took four grids
        values = np.random.default_rng(5).uniform(0.0, 200.0, size=(256, 256))
        values[::7, ::5] = NODATA
        g = HeightGrid(values, nodata=NODATA)
        tracemalloc.start()
        try:
            slope_direction_map(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes


class TestSlopeFactors:
    def test_constant_window(self):
        f = slope_factor_maps(HeightGrid(np.ones((3, 3))))
        assert f.rise[1, 1] == 0.0 and f.drop[1, 1] == 0.0

    def test_direct_arithmetic(self):
        values = np.array([[10.0, 14, 7], [10, 10, 10], [10, 10, 10]])
        f = slope_factor_maps(HeightGrid(values))
        assert f.rise[1, 1] == 4.0 and f.drop[1, 1] == 3.0

    def test_ramp_window(self):
        f = slope_factor_maps(ramp_grid())
        assert f.rise[2, 2] == 2.0 and f.drop[2, 2] == 2.0


    def test_overflow_names_the_factor_and_cell(self):
        with pytest.raises(ValueError, match=r"^rise slope factor at \(0, 1\) overflows"):
            slope_factor_maps(HeightGrid(np.array([[1.7e308, -1.7e308]])))

    def test_overflow_at_an_invalid_pixel_is_ignored(self):
        # the sentinel itself is the far end of the overflowing difference
        g = HeightGrid(np.array([[1.7e308, -1.7e308]]), nodata=-1.7e308)
        f = slope_factor_maps(g)
        assert f.rise.tolist() == [[0.0, 0.0]] and f.drop.tolist() == [[0.0, 0.0]]
        assert slope_map(g).values.tolist() == [[0.0, -1.7e308]]

class TestOracleEquivalence:
    def test_random_grids_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            g = random_grid(rng, rows, cols, nodata_fraction=0.25)
            expected_slope = np.array(brute_slope(g.values.tolist(), NODATA))
            expected_dir = np.array(brute_direction(g.values.tolist(), NODATA))
            got_slope = slope_map(g)
            got_dir = slope_direction_map(g)
            np.testing.assert_array_equal(got_slope.values, expected_slope)
            np.testing.assert_array_equal(
                got_dir.codes[g.mask], expected_dir[g.mask]
            )

    def test_all_window_maps_with_ties_and_sentinel_above_data(self):
        # Integer heights make ties, so the first-argmax rule is exercised; a
        # +9999 sentinel would win any maximum it leaked into.
        rng = np.random.default_rng(11)
        for i in range(200):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            if i % 2:
                values = rng.integers(-3, 4, size=(rows, cols)).astype(float)
            else:
                values = rng.uniform(-50, 50, size=(rows, cols))
            nodata = 9999.0 if i % 4 < 2 else NODATA
            holes = rng.random((rows, cols)) < 0.3
            holes.flat[rng.integers(0, rows * cols)] = False
            values[holes] = nodata
            g = HeightGrid(values, nodata=nodata)
            cells = values.tolist()
            rise, drop = brute_factors(cells, nodata)
            factors = slope_factor_maps(g)
            np.testing.assert_array_equal(slope_map(g).values, brute_slope(cells, nodata))
            np.testing.assert_array_equal(
                slope_direction_map(g).codes, brute_direction(cells, nodata)
            )
            np.testing.assert_array_equal(factors.rise, rise)
            np.testing.assert_array_equal(factors.drop, drop)


#: The 8 symmetries of the square, as transforms of a 2D array.
SYMMETRIES = (
    lambda a: a,
    np.rot90,
    lambda a: np.rot90(a, 2),
    lambda a: np.rot90(a, 3),
    np.flipud,
    np.fliplr,
    np.transpose,
    lambda a: np.rot90(a, 2).T,
)

#: Direction codes laid out at their window positions: code ``8 - k`` at
#: row-major position ``k``.
WINDOW_CODES = 8 - np.arange(9).reshape(3, 3)


def code_permutation(transform):
    """The code each code becomes when ``transform`` moves its window offset ``(dr, dc)``."""
    perm = np.empty(9, dtype=np.int64)
    perm[transform(WINDOW_CODES).ravel()] = WINDOW_CODES.ravel()
    return perm


class TestInvariances:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(3, 8),
        extra_cols=st.integers(1, 4),
        hole_share=st.sampled_from([0.0, 0.3]),
    )
    def test_the_square_symmetries_commute_with_the_3x3_maps(
        self, seed, rows, extra_cols, hole_share
    ):
        g = random_grid(
            np.random.default_rng(seed), rows, rows + extra_cols, nodata_fraction=hole_share
        )
        slope_g, codes_g = slope.slope_and_direction(g)
        factors_g = slope_factor_maps(g)
        for transform in SYMMETRIES:
            moved = HeightGrid(transform(g.values), nodata=NODATA)
            got_slope, got_codes = slope.slope_and_direction(moved)
            got_factors = slope_factor_maps(moved)
            # slope, rise and drop are exact everywhere, sentinels included
            assert np.array_equal(got_slope.values, transform(slope_g.values))
            assert np.array_equal(got_factors.rise, transform(factors_g.rise))
            assert np.array_equal(got_factors.drop, transform(factors_g.drop))
            assert np.array_equal(got_codes.mask, transform(g.mask))
            # Codes follow their offsets, 4 staying 4.  Interior pixels only:
            # replicate padding makes a border pixel's outside neighbors tie
            # with its inside ones, so there the row-major rule, not the
            # geometry, picks the code.
            want = transform(code_permutation(transform)[codes_g.codes])
            assert np.array_equal(got_codes.codes[1:-1, 1:-1], want[1:-1, 1:-1])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-1e3, 1e3, allow_nan=False),
    )
    def test_translation_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-50, 50, size=(5, 5))
        base = HeightGrid(values)
        shifted = HeightGrid(values + shift)
        np.testing.assert_allclose(
            slope_map(shifted).values, slope_map(base).values, atol=1e-12
        )
        np.testing.assert_array_equal(
            slope_direction_map(shifted).codes, slope_direction_map(base).codes
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.01, 100.0, allow_nan=False),
    )
    def test_positive_scale_equivariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-50, 50, size=(5, 5))
        base = HeightGrid(values)
        scaled = HeightGrid(alpha * values)
        np.testing.assert_allclose(
            slope_map(scaled).values,
            alpha * slope_map(base).values,
            rtol=1e-12,
            atol=1e-12,
        )
        np.testing.assert_array_equal(
            slope_direction_map(scaled).codes, slope_direction_map(base).codes
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nodata=st.sampled_from([NODATA, 0.0, *map(float, range(1, 9)), 9999.0]),
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
    )
    def test_derived_maps_keep_the_source_mask(self, seed, nodata, rows, cols):
        # Small integer heights and plane offsets make slopes, direction
        # codes and spreads that equal a small sentinel.
        rng = np.random.default_rng(seed)
        g = HeightGrid(rng.integers(0, 10, size=(rows, cols)).astype(float), nodata=nodata)
        assert np.array_equal(slope_map(g).mask, g.mask)
        assert np.array_equal(direction_as_grid(slope_direction_map(g), g).mask, g.mask)
        widths = rng.integers(0, 3, size=(rows, cols, 1)).astype(float)
        planes = HypothesisPlanes(g.values[:, :, None] + widths * [-1.0, 0.0, 1.0], mask=g.mask)
        probs = ProbabilityVolume(np.eye(3)[rng.integers(0, 3, size=(rows, cols))], mask=g.mask)
        assert np.array_equal(pixel_std(planes, probs, g).mask, g.mask)

    def test_non_negative_and_codes_in_range(self, rng):
        for _ in range(20):
            g = random_grid(rng, 6, 6, nodata_fraction=0.2)
            s = slope_map(g)
            assert (s.values[s.mask] >= 0).all()
            d = slope_direction_map(g)
            assert d.codes.min() >= 0 and d.codes.max() <= 8
