"""Grid construction, ASCII-grid round trips, and PGM rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraslope import (
    GridFormatError,
    HeightGrid,
    SlopeDirectionGrid,
    read_ascii_grid,
    render_pgm,
    write_ascii_grid,
)

from conftest import NODATA, random_grid


class TestHeightGrid:
    def test_basic_construction(self):
        g = HeightGrid(np.array([[1.0, 2.0], [3.0, 4.0]]), cell_size=30.0)
        assert g.rows == 2 and g.cols == 2
        assert g.cell_size == 30.0
        assert g.mask.all()
        assert g.valid_count == 4

    def test_rejects_empty_and_bad_cell_size(self):
        with pytest.raises(ValueError):
            HeightGrid(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            HeightGrid(np.zeros((2, 2)), cell_size=0.0)

    def test_rejects_non_finite_non_sentinel(self):
        with pytest.raises(ValueError, match="non-finite"):
            HeightGrid(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            HeightGrid(np.array([[1.0, np.inf]]))

    def test_rejects_non_finite_sentinel(self):
        with pytest.raises(ValueError, match="sentinel"):
            HeightGrid(np.array([[1.0]]), nodata=np.nan)

    def test_sentinel_cells_are_invalid(self):
        g = HeightGrid(np.array([[1.0, NODATA]]), nodata=NODATA)
        assert g.mask.tolist() == [[True, False]]

    def test_values_are_immutable(self):
        g = HeightGrid(np.array([[1.0]]))
        with pytest.raises(ValueError):
            g.values[0, 0] = 2.0


class TestSlopeDirectionGrid:
    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            SlopeDirectionGrid(codes=np.array([[9]]), mask=np.array([[True]]))
        with pytest.raises(ValueError):
            SlopeDirectionGrid(codes=np.array([[-1]]), mask=np.array([[True]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SlopeDirectionGrid(codes=np.zeros((2, 2), int), mask=np.ones((2, 3), bool))


class TestReadAsciiGrid:
    def test_reads_simple_grid(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 30\n1 2\n3 4\n"
        )
        g = read_ascii_grid(path)
        assert g.rows == 2 and g.cols == 2
        assert g.cell_size == 30.0
        assert g.values.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_case_insensitive_header_and_nodata(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 1.5\nyllcorner 2.5\ncellsize 1\n"
            "nodata_value -9999\n1 -9999\n3 4\n"
        )
        g = read_ascii_grid(path)
        assert g.nodata == -9999.0
        assert g.mask.tolist() == [[True, False], [True, True]]
        assert g.xllcorner == 1.5 and g.yllcorner == 2.5

    def test_default_sentinel_when_header_absent(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n7\n")
        assert read_ascii_grid(path).nodata == -9999.0

    def test_malformed_header_keyword(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("NCOLS 2\nROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2\n")
        with pytest.raises(GridFormatError, match="line 2"):
            read_ascii_grid(path)

    def test_value_count_mismatch_too_few(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2 3\n"
        )
        with pytest.raises(GridFormatError, match="value count mismatch"):
            read_ascii_grid(path)

    def test_value_count_mismatch_too_many(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2\n3 4 5\n"
        )
        with pytest.raises(GridFormatError, match="value count mismatch"):
            read_ascii_grid(path)

    def test_huge_header_over_short_body_is_a_count_mismatch(self, tmp_path):
        # 10^12 declared cells: the body count must fail before any allocation
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 1000000\nNROWS 1000000\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "1 2 3\n"
        )
        with pytest.raises(GridFormatError, match="declares 1000000000000 values, body has 3"):
            read_ascii_grid(path)

    def test_non_numeric_token_with_line_number(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2\n3 oops\n"
        )
        with pytest.raises(GridFormatError, match="line 7"):
            read_ascii_grid(path)


class TestRoundTrip:
    def test_round_trip_simple(self, tmp_path, rng):
        g = random_grid(rng, 7, 5, lo=-1e4, hi=1e4, nodata_fraction=0.2)
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        back = read_ascii_grid(path)
        assert back.shape == g.shape
        assert (back.mask == g.mask).all()
        rel = np.abs(back.values[g.mask] - g.values[g.mask]) / np.maximum(
            1.0, np.abs(g.values[g.mask])
        )
        assert rel.max() <= 1e-5

    def test_valid_count_invariant(self, tmp_path, rng):
        for _ in range(20):
            g = random_grid(rng, 4, 6, nodata_fraction=0.3)
            path = tmp_path / "g.asc"
            write_ascii_grid(g, path)
            assert read_ascii_grid(path).valid_count == g.valid_count

    def test_all_nodata_row(self, tmp_path):
        g = HeightGrid(
            np.array([[1.0, 2.0], [NODATA, NODATA]]), nodata=NODATA
        )
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        line = path.read_text().splitlines()[-1]
        assert line.split() == ["-9999", "-9999"]

    def test_1x1_grid(self, tmp_path):
        g = HeightGrid(np.array([[42.5]]))
        path = tmp_path / "g.asc"
        write_ascii_grid(g, path)
        back = read_ascii_grid(path)
        assert back.shape == (1, 1)
        assert back.values[0, 0] == 42.5

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, rows, cols, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1e4, 1e4, size=(rows, cols))
        holes = rng.random((rows, cols)) < 0.2
        values[holes] = -99999.0
        g = HeightGrid(values, nodata=-99999.0, cell_size=float(rng.uniform(0.1, 100)))
        path = tmp_path_factory.mktemp("rt") / "g.asc"
        write_ascii_grid(g, path)
        back = read_ascii_grid(path)
        assert back.shape == g.shape
        assert (back.mask == g.mask).all()
        rel = np.abs(back.values[g.mask] - g.values[g.mask]) / np.maximum(
            1.0, np.abs(g.values[g.mask])
        )
        assert rel.size == 0 or rel.max() <= 1e-5


class TestRenderPgm:
    def read_pixels(self, path, rows, cols):
        data = path.read_bytes()
        header = f"P5\n{cols} {rows}\n255\n".encode()
        assert data.startswith(header)
        return np.frombuffer(data[len(header):], dtype=np.uint8).reshape(rows, cols)

    def test_constant_at_lo_is_black(self, tmp_path):
        g = HeightGrid(np.full((2, 3), 10.0))
        path = tmp_path / "g.pgm"
        render_pgm(g, path, 10.0, 20.0)
        assert (self.read_pixels(path, 2, 3) == 0).all()

    def test_value_at_hi_is_white(self, tmp_path):
        g = HeightGrid(np.full((1, 1), 20.0))
        path = tmp_path / "g.pgm"
        render_pgm(g, path, 10.0, 20.0)
        assert self.read_pixels(path, 1, 1)[0, 0] == 255

    def test_midpoint_floors_to_127(self, tmp_path):
        g = HeightGrid(np.full((1, 1), 15.0))
        path = tmp_path / "g.pgm"
        render_pgm(g, path, 10.0, 20.0)
        assert self.read_pixels(path, 1, 1)[0, 0] == 127

    def test_invalid_pixels_render_zero(self, tmp_path):
        g = HeightGrid(np.array([[NODATA, 20.0]]), nodata=NODATA)
        path = tmp_path / "g.pgm"
        render_pgm(g, path, 0.0, 20.0)
        assert self.read_pixels(path, 1, 2).tolist() == [[0, 255]]

    def test_monotonicity(self, tmp_path, rng):
        values = np.sort(rng.uniform(-5, 25, size=24)).reshape(1, 24)
        g = HeightGrid(values)
        path = tmp_path / "g.pgm"
        render_pgm(g, path, 0.0, 20.0)
        pixels = self.read_pixels(path, 1, 24)[0].astype(int)
        assert (np.diff(pixels) >= 0).all()

    def test_rejects_bad_range(self, tmp_path):
        g = HeightGrid(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            render_pgm(g, tmp_path / "g.pgm", 5.0, 5.0)

    @pytest.mark.parametrize(
        "lo,hi",
        [(-np.inf, np.inf), (0.0, np.nan), (np.float64(-1e308), np.float64(1e308))],
    )
    def test_rejects_non_finite_range(self, tmp_path, lo, hi):
        g = HeightGrid(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="finite"):
            render_pgm(g, tmp_path / "g.pgm", lo, hi)
        assert not list(tmp_path.iterdir())
