"""Grid construction, ASCII-grid round trips, and PGM rendering."""

import re
import struct
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terraslope import (
    GridFormatError,
    HeightGrid,
    SlopeDirectionGrid,
    TerrainSpec,
    generate_terrain,
    read_ascii_grid,
    render_pgm,
    slope_direction_map,
    slope_map,
    write_ascii_grid,
)

from terraslope import raster
from terraslope.raster import _format_value
from terraslope.slope import direction_as_grid

from conftest import NODATA, random_grid
from oracles import cell_loop_ascii_text, split_float_body

HEADER_2X2 = "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"


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
        # the message names the first bad cell in row-major order
        message = f"non-finite value inf at (1, 0) is not the nodata sentinel {NODATA}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HeightGrid(np.array([[1.0, NODATA], [np.inf, np.nan]]), nodata=NODATA)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["cell_size", "xllcorner", "yllcorner"])
    def test_rejects_non_finite_metadata(self, field, value):
        with pytest.raises(ValueError, match=field):
            HeightGrid(np.zeros((2, 2)), **{field: value})

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

    def test_copies_a_writeable_input_or_a_view(self):
        values = np.array([[1.0, 2.0]])
        grid = HeightGrid(values)
        values[0, 0] = 5.0
        assert grid.values.tolist() == [[1.0, 2.0]]
        view = values[:, :]
        view.flags.writeable = False
        grid = HeightGrid(view)
        values[0, 1] = 6.0
        assert grid.values.tolist() == [[5.0, 2.0]]

    def test_keeps_an_owned_read_only_input(self):
        values = np.array([[1.0, 2.0]])
        values.flags.writeable = False
        assert HeightGrid(values).values is values

    def test_a_given_mask_writes_the_sentinel_into_a_copy_of_its_own(self):
        values = np.array([[1.0, 2.0]])
        g = HeightGrid(values, mask=np.array([[True, False]]))
        assert g.values.tolist() == [[1.0, NODATA]]
        assert values.tolist() == [[1.0, 2.0]]
        assert g.with_values(g.values).mask.tolist() == [[True, False]]

    def test_a_handed_over_array_with_junk_is_copied_not_written(self):
        values = np.array([[1.0, 2.0]])
        values.flags.writeable = False
        g = HeightGrid(values, mask=np.array([[True, False]]))
        assert g.values is not values
        assert g.values.tolist() == [[1.0, NODATA]] and not g.values.flags.writeable
        assert values.tolist() == [[1.0, 2.0]]

    def test_an_adopted_array_is_filled_in_place_and_not_copied(self):
        like = HeightGrid(np.array([[1.0, NODATA]]), nodata=NODATA)
        values = np.array([[3.0, 4.0]])
        g = raster._adopt(like, values)
        assert g.values is values and g.mask is like.mask
        assert values.tolist() == [[3.0, NODATA]] and not values.flags.writeable

    def test_with_valid_keeps_the_metadata_and_a_sentinel_no_value_equals(self):
        g = HeightGrid(np.zeros((1, 3)), cell_size=2.5, nodata=7.0, xllcorner=500.0, yllcorner=-1.0)
        # 7.0 outside the mask is no collision
        out = g.with_valid(np.array([[1.0, 2.0, 7.0]]), np.array([[True, True, False]]))
        assert out.values.tolist() == [[1.0, 2.0, 7.0]]
        assert (out.cell_size, out.nodata, out.xllcorner, out.yllcorner) == (2.5, 7.0, 500.0, -1.0)

    def test_with_valid_keeps_a_value_equal_to_the_sentinel_valid(self):
        g = HeightGrid(np.zeros((1, 3)), nodata=0.0, xllcorner=500.0)
        values = np.array([[0.0, 2.0, 5.0]])
        out = g.with_valid(values, [[1, 1, 0]])
        assert out.values.tolist() == [[0.0, 2.0, 0.0]]
        assert out.nodata == 0.0 and out.xllcorner == 500.0
        assert out.mask.tolist() == [[True, True, False]]
        assert values.tolist() == [[0.0, 2.0, 5.0]]

    def test_mask_is_computed_once_from_the_sentinel(self):
        g = HeightGrid(np.array([[1.0, NODATA]]), nodata=NODATA)
        assert g.mask is g.mask and not g.mask.flags.writeable
        assert g.mask.flags.owndata

    def test_given_mask_is_kept_and_shared_by_replace(self):
        mask = np.array([[True, True]])
        mask.flags.writeable = False
        g = HeightGrid(np.array([[1.0, NODATA]]), nodata=NODATA, mask=mask)
        assert g.mask is mask and g.valid_count == 2
        derived = replace(g, values=np.array([[NODATA, 3.0]]))
        assert derived.mask is mask
        # with_values validates its new values against the sentinel again
        assert g.with_values(np.array([[NODATA, 3.0]])).mask.tolist() == [[False, True]]

    def test_given_mask_is_copied_unless_owned_and_read_only(self):
        mask = np.array([[True, False]])
        g = HeightGrid(np.array([[1.0, 2.0]]), mask=mask)
        mask[0, 1] = True
        assert g.mask.tolist() == [[True, False]] and not g.mask.flags.writeable

    def test_rejects_a_mask_of_another_shape(self):
        message = "mask shape (1, 3) does not match grid (1, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            HeightGrid(np.array([[1.0, 2.0]]), mask=np.ones((1, 3), bool))

    @pytest.mark.parametrize("hole", [np.nan, np.inf, -np.inf])
    def test_a_given_mask_replaces_a_non_finite_hole_in_a_copy(self, hole):
        values = np.array([[1.0, hole]])
        g = HeightGrid(values, mask=np.array([[True, False]]))
        assert g.values.tolist() == [[1.0, NODATA]]
        assert np.array_equal(values, [[1.0, hole]], equal_nan=True)

    def test_a_given_mask_checks_only_its_valid_cells(self):
        # the hole's inf comes first in row-major order; the valid NaN is named
        message = f"non-finite value nan at (1, 0) is not the nodata sentinel {NODATA}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HeightGrid(
                np.array([[1.0, np.inf], [np.nan, 2.0]]),
                mask=np.array([[True, False], [True, True]]),
            )

    def test_a_wrong_mask_shape_is_reported_before_a_non_finite_value(self):
        message = "mask shape (1, 3) does not match grid (1, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HeightGrid(np.array([[np.nan, 2.0]]), mask=np.ones((1, 3), bool))

    @pytest.mark.parametrize("holes", [False, True])
    def test_with_valid_rejects_a_mask_of_another_shape(self, holes):
        mask = np.ones((3, 3), bool)
        mask[1, 1] = not holes
        message = "mask shape (3, 3) does not match grid (2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HeightGrid(np.zeros((2, 2))).with_valid(np.ones((2, 2)), mask)


class TestSlopeDirectionGrid:
    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            SlopeDirectionGrid(codes=np.array([[9]]), mask=np.array([[True]]))
        with pytest.raises(ValueError):
            SlopeDirectionGrid(codes=np.array([[-1]]), mask=np.array([[True]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SlopeDirectionGrid(codes=np.zeros((2, 2), int), mask=np.ones((2, 3), bool))

    @pytest.mark.parametrize("code", [3.7, np.nan, -1, 9, -1.0, 9.0, np.inf])
    def test_rejects_a_code_not_whole_in_range_without_a_warning(self, code):
        codes = np.array([[2, code]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^direction codes must be whole numbers in 0..8$"):
                SlopeDirectionGrid(codes=codes, mask=np.ones((1, 2), bool))

    def test_whole_floats_become_int64(self):
        dirs = SlopeDirectionGrid(codes=np.array([[0.0, 8.0]]), mask=np.ones((1, 2), bool))
        assert dirs.codes.dtype == np.int64 and dirs.codes.tolist() == [[0, 8]]
        assert not dirs.codes.flags.writeable

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_keeps_read_only_owned_codes_without_a_copy(self, dtype):
        codes = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]], dtype=dtype)
        codes.flags.writeable = False
        dirs = SlopeDirectionGrid(codes=codes, mask=np.ones((3, 3), bool))
        assert dirs.codes is codes

    def test_copies_writable_uint8_codes(self):
        codes = np.full((2, 2), 8, dtype=np.uint8)
        dirs = SlopeDirectionGrid(codes=codes, mask=np.ones((2, 2), bool))
        codes[0, 0] = 0
        assert dirs.codes.dtype == np.uint8 and dirs.codes[0, 0] == 8


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

    def test_adopts_the_parsed_array(self, tmp_path, monkeypatch):
        parsed = []
        loadtxt_body = raster._loadtxt_body

        def recording(*args):
            parsed.append(loadtxt_body(*args))
            return parsed[-1]

        monkeypatch.setattr(raster, "_loadtxt_body", recording)
        path = tmp_path / "g.asc"
        path.write_text(HEADER_2X2 + "1 2\n3 4\n")
        assert read_ascii_grid(path).values is parsed[0]

    def test_peak_memory_stays_under_one_and_a_half_grids(self, tmp_path, rng):
        grid = HeightGrid(rng.uniform(0.0, 1000.0, size=(1024, 1024)))
        path = tmp_path / "g.asc"
        write_ascii_grid(grid, path)
        tracemalloc.start()
        try:
            read_ascii_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the parse and the mask; a copy of the parsed array would be two grids
        assert peak < 1.5 * grid.values.nbytes

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

    @pytest.mark.parametrize(
        "lineno,header",
        [
            (3, "XLLCORNER nan"),
            (3, "XLLCORNER -inf"),
            (4, "YLLCORNER inf"),
            (5, "CELLSIZE inf"),
            (5, "CELLSIZE nan"),
        ],
    )
    def test_non_finite_header_value_with_line_number(self, tmp_path, lineno, header):
        lines = ["NCOLS 2", "NROWS 2", "XLLCORNER 0", "YLLCORNER 0", "CELLSIZE 1"]
        lines[lineno - 1] = header
        path = tmp_path / "g.asc"
        path.write_text("\n".join(lines) + "\n1 2\n3 4\n")
        with pytest.raises(GridFormatError, match=f"line {lineno}: .* must be finite"):
            read_ascii_grid(path)

    @pytest.mark.parametrize("rows,cols", [(0, 2), (2, 0)])
    def test_zero_dimension_rejected(self, tmp_path, rows, cols):
        path = tmp_path / "g.asc"
        header = HEADER_2X2.replace("NCOLS 2", f"NCOLS {cols}")
        path.write_text(header.replace("NROWS 2", f"NROWS {rows}"))
        line, key = (1, "ncols") if cols == 0 else (2, "nrows")
        with pytest.raises(GridFormatError, match=f"^line {line}: '{key}' must be >= 1, got '0'$"):
            read_ascii_grid(path)

    def test_non_numeric_token_with_line_number(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2\n3 oops\n"
        )
        with pytest.raises(GridFormatError, match="line 7"):
            read_ascii_grid(path)


class TestBodyErrors:
    """Each malformed header or body names the line of its first fault."""

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "NCOLS 2\nNROWS 3\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
                "NODATA_VALUE -9999\n1 2\n3 -9999\ninf 6\n",
                "line 9: non-finite value 'inf'",
            ),
            (HEADER_2X2 + "1 2\n3 4 5\n", "line 7: value count mismatch, expected 4 values"),
            (HEADER_2X2 + "1 2\n3 4\n5\n", "line 8: value count mismatch, expected 4 values"),
            (HEADER_2X2 + "1 2\n3 x\n", "line 7: non-numeric token 'x'"),
            (HEADER_2X2 + "1\n2\n3\nx\n", "line 9: non-numeric token 'x'"),
            # The first fault in file order wins, whatever its kind.
            (HEADER_2X2 + "1 nan\n3 x\n", "line 6: non-finite value 'nan'"),
            (HEADER_2X2 + "1 2\n3 4 5 x\n", "line 7: value count mismatch, expected 4 values"),
            (HEADER_2X2 + "1 -inf\n", "line 6: non-finite value '-inf'"),
            ("NCOLS 2\nNROWS 2\n", "line 3: missing header line 'xllcorner'"),
            (
                HEADER_2X2.replace("YLLCORNER 0", "YLLCORNER north") + "1 2\n3 4\n",
                "line 4: non-numeric value 'north' for 'yllcorner'",
            ),
            (
                HEADER_2X2.replace("NCOLS 2", "NCOLS 2.5") + "1 2\n3 4\n",
                "line 1: 'ncols' must be an integer, got '2.5'",
            ),
            (
                HEADER_2X2 + "NODATA_VALUE -9999 0\n1 2\n3 4\n",
                "line 6: expected 'NODATA_VALUE <value>'",
            ),
            (
                HEADER_2X2 + "NODATA_VALUE none\n1 2\n3 4\n",
                "line 6: non-numeric NODATA_VALUE 'none'",
            ),
            (HEADER_2X2 + "NODATA_VALUE inf\n1 2\n3 4\n", "line 6: NODATA_VALUE must be finite"),
            (
                HEADER_2X2.replace("CELLSIZE 1", "CELLSIZE 0") + "1 2\n3 4\n",
                "line 5: 'cellsize' must be > 0, got '0'",
            ),
            (
                HEADER_2X2.replace("CELLSIZE 1", "CELLSIZE -30") + "1 2\n3 4\n",
                "line 5: 'cellsize' must be > 0, got '-30'",
            ),
        ],
        ids=[
            "inf-row-3",
            "one-too-many",
            "extra-line",
            "bad-token",
            "bad-token-later-row",
            "non-finite-before-bad-token",
            "excess-before-bad-token",
            "non-finite-in-short-body",
            "missing-header-line",
            "non-numeric-header-value",
            "fractional-ncols",
            "nodata-three-tokens",
            "non-numeric-nodata",
            "infinite-nodata",
            "zero-cellsize",
            "negative-cellsize",
        ],
    )
    def test_message_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "g.asc"
        path.write_text(text)
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            read_ascii_grid(path)

    def test_tokens_read_back_with_the_bits_of_float(self, tmp_path):
        tokens = ["+5", "-0", "1e3", "-3.40282e+38", "0.1", "5e-324", "1_0", "-9999"]
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 4\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "NODATA_VALUE -3.40282e+38\n"
            + " ".join(tokens[:4]) + "\n" + " ".join(tokens[4:]) + "\n"
        )
        g = read_ascii_grid(path)
        expected = np.array([float(t) for t in tokens])
        assert g.values.ravel().view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert np.signbit(g.values[0, 1])
        assert g.mask.ravel().tolist() == [True, True, True, False, True, True, True, True]


#: Tokens ``float`` reads in its own way, or refuses.  numpy's reader
#: refuses ``1_0``, which ``float`` reads as 10.
ODD_TOKENS = ["+5", "-0", "1_0", "5e-324", "nan", "inf", "x"]
#: Whitespace that ``str.split`` splits on but a text file does not end a
#: line at.
SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "  "]
HEADER_NODATA = "NODATA_VALUE -9999\n"


@st.composite
def grid_texts(draw):
    """(rows, cols, body lines, line ending) of a grid file, valid or not."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = max(0, rows * cols + draw(st.sampled_from([0, 0, 0, -1, 1])))
    number = st.floats(allow_nan=False, allow_infinity=False)
    token = st.one_of(number.map(repr), number.map(_format_value))
    if draw(st.booleans()):
        token = st.one_of(token, st.sampled_from(ODD_TOKENS))
    tokens = draw(st.lists(token, min_size=count, max_size=count))
    if draw(st.booleans()):
        cuts = list(range(cols, count, cols))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(1, count - 1)))))
    lines = [
        draw(st.sampled_from(SEPARATORS)).join(tokens[a:b])
        for a, b in zip([0, *cuts], [*cuts, count])
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " \t"])))
    return rows, cols, lines, draw(st.sampled_from(["\n", "\r\n"]))


class TestNumpyBodyReader:
    """``np.loadtxt`` parses a regular body; any other goes to the line loop."""

    @settings(max_examples=300, deadline=None)
    @given(grid_texts())
    # Blank lines hold back the "5" from the rows + 1 lines numpy reads.
    @example((2, 2, ["1 2 3 4", "", "", "5"], "\n"))
    def test_matches_float_over_split(self, tmp_path_factory, text):
        rows, cols, lines, newline = text
        header = f"NCOLS {cols}\nNROWS {rows}\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
        path = tmp_path_factory.mktemp("body") / "g.asc"
        path.write_bytes((header + HEADER_NODATA + newline.join(lines) + newline).encode())
        expected = split_float_body(lines, 7, rows * cols)
        if isinstance(expected, str):
            with pytest.raises(GridFormatError, match=f"^{re.escape(expected)}$"):
                read_ascii_grid(path)
        else:
            values = read_ascii_grid(path).values
            assert values.shape == (rows, cols)
            want = np.array(expected, dtype=np.float64)
            assert values.ravel().view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_regular_body_never_reaches_the_line_loop(self, tmp_path, monkeypatch, rng):
        grid = random_grid(rng, 64, 64, lo=-1e4, hi=1e4, nodata_fraction=0.1)
        path = tmp_path / "g.asc"
        write_ascii_grid(grid, path)
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return loadtxt(*args, **kwargs)

        def line_loop(*args):
            raise AssertionError("a regular body reached the line loop")

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(raster, "_float_body", line_loop)
        values = read_ascii_grid(path).values
        assert len(calls) == 1
        lines = path.read_text(encoding="ascii").splitlines()[6:]
        want = np.array(split_float_body(lines, 7, 64 * 64))
        assert values.ravel().view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "body,message",
        [
            ("nan 2\n3 4\n", "line 7: non-finite value 'nan'"),
            ("1 2\n3 4 5\n", "line 8: value count mismatch, expected 4 values"),
        ],
        ids=["nan-on-the-first-line", "fifth-value"],
    )
    def test_malformed_body_is_read_at_most_twice(self, tmp_path, monkeypatch, body, message):
        path = tmp_path / "g.asc"
        path.write_text(HEADER_2X2 + HEADER_NODATA + body)
        yielded = []

        class Lines:
            """A text file that records each line its iteration yields."""

            def __init__(self, fh):
                self._fh = fh

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

            def __iter__(self):
                return self

            def __next__(self):
                yielded.append(next(self._fh))
                return yielded[-1]

        monkeypatch.setattr(raster, "open", lambda *a, **k: Lines(open(*a, **k)), raising=False)
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            read_ascii_grid(path)
        assert 1 <= yielded.count(body.splitlines(keepends=True)[0]) <= 2

    def test_line_loop_keeps_a_line_whose_sum_overflows(self, tmp_path):
        # ``1_0`` sends the body to the line loop, where the first line's
        # sum is inf although every value on it is finite.
        path = tmp_path / "g.asc"
        path.write_text(HEADER_2X2 + "1.7e308 1.7e308\n-1e308 1_0\n")
        values = read_ascii_grid(path).values
        assert values.tolist() == [[1.7e308, 1.7e308], [-1e308, 10.0]]

    def test_empty_body_raises_without_a_warning(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(HEADER_2X2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                GridFormatError,
                match="^value count mismatch: header declares 4 values, body has 0$",
            ):
                read_ascii_grid(path)

    def test_small_header_over_a_huge_body_stops_early(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(HEADER_2X2 + "1 2\n" * 200_000)
        tracemalloc.start()
        try:
            with pytest.raises(
                GridFormatError, match="^line 8: value count mismatch, expected 4 values$"
            ):
                read_ascii_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Parsing the 800 kB body whole would hold 3.2 MB of floats.
        assert peak < 256 * 1024


def bit_pattern_floats():
    """Raw 64-bit patterns viewed as float64, the non-finite ones dropped."""
    return (
        st.integers(0, 2**64 - 1)
        .map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
        .filter(np.isfinite)
    )


def fixed_notation_floats():
    """Values ``%.6g`` writes in fixed notation, decimal rounding ties among them."""
    significand = st.integers(10**5, 10**6 - 1)
    shift = st.integers(-4, 5).map(lambda x: 10.0 ** (5 - x))
    tie = st.tuples(significand, shift).map(lambda ms: (ms[0] + 0.5) / ms[1])
    return st.one_of(st.floats(-2e6, 2e6), tie, tie.map(lambda v: -v))


@pytest.fixture
def fallback_cells(monkeypatch):
    """Every value the writer hands to Python's ``%.6g``, in order."""
    seen = []
    fallback = raster._format_fallback

    def spy(text, values):
        seen.extend(values.tolist())
        return fallback(text, values)

    monkeypatch.setattr(raster, "_format_fallback", spy)
    return seen


class TestWriteAsciiGridBytes:
    """The writer's bytes equal a per-cell ``.6g`` format of every value."""

    def body_tokens(self, grid, tmp_path):
        path = tmp_path / "g.asc"
        write_ascii_grid(grid, path)
        text = path.read_text(encoding="ascii")
        assert text == cell_loop_ascii_text(grid)
        return [line.split() for line in text.splitlines()[6:]]

    # Ties round to even; 999999.5 and 9.999995e-05 carry to the next
    # exponent; the last ten hold one value per fixed-notation exponent.
    PINNED = [
        (-0.0, "-0"),
        (0.0, "0"),
        (5e-324, "4.94066e-324"),
        (1.7976931348623157e308, "1.79769e+308"),
        (0.1, "0.1"),
        (1e16, "1e+16"),
        (-9999.0, "-9999"),
        (123456.5, "123456"),
        (999999.5, "1e+06"),
        (99999.95, "99999.9"),
        (1e-4, "0.0001"),
        (9.999995e-05, "0.0001"),
        (1e-5, "1e-05"),
        (-0.000123456, "-0.000123456"),
        (0.00120034, "0.00120034"),
        (0.012, "0.012"),
        (-0.123456, "-0.123456"),
        (1.5, "1.5"),
        (-12.0004, "-12.0004"),
        (100.0, "100"),
        (1234.56, "1234.56"),
        (-12345.6, "-12345.6"),
        (120000.0, "120000"),
    ]

    def test_pinned_values(self, tmp_path):
        values = [v for v, _ in self.PINNED]
        g = HeightGrid(np.array([values]), nodata=NODATA)
        tokens = self.body_tokens(g, tmp_path)[0]
        assert tokens == [_format_value(v) for v in values]
        assert tokens == [token for _, token in self.PINNED]

    def test_custom_sentinel_and_all_nodata_row(self, tmp_path):
        sentinel = -3.40282e38
        g = HeightGrid(
            np.array([[1.5, sentinel, -2.25], [sentinel, sentinel, sentinel]]),
            nodata=sentinel,
            cell_size=2.5,
            xllcorner=-1e7,
            yllcorner=0.125,
        )
        assert self.body_tokens(g, tmp_path) == [
            ["1.5", "-3.40282e+38", "-2.25"],
            ["-3.40282e+38"] * 3,
        ]
        assert "NODATA_VALUE -3.40282e+38\n" in (tmp_path / "g.asc").read_text()

    def test_zero_sentinel_writes_either_signed_zero_as_its_token(self, tmp_path):
        g = HeightGrid(np.array([[-0.0, 0.0, 1.0]]), nodata=0.0)
        assert self.body_tokens(g, tmp_path) == [["0", "0", "1"]]
        g = HeightGrid(np.array([[-0.0, 0.0, 1.0]]), nodata=-0.0)
        assert self.body_tokens(g, tmp_path) == [["-0", "-0", "1"]]

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                bit_pattern_floats(),
                fixed_notation_floats(),
            ),
            min_size=1,
            max_size=48,
        ),
        cols=st.integers(1, 7),
        extra_rows=st.integers(1, 4),
        holes=st.integers(0, 2**24 - 1),
        block_cells=st.integers(1, 32),
    )
    def test_matches_cell_loop_on_any_finite_values(
        self, tmp_path_factory, values, cols, extra_rows, holes, block_cells
    ):
        # More rows than one block holds; small blocks keep each example,
        # and the shrinking of a failure, cheap.
        rows = max(1, block_cells // cols) + extra_rows
        grid = np.resize(np.array(values), (rows, cols))
        grid.ravel()[[bool(holes >> i % 24 & 1) for i in range(grid.size)]] = NODATA
        with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
            self.body_tokens(HeightGrid(grid, nodata=NODATA), tmp_path_factory.mktemp("w"))

    def test_random_bit_patterns_fall_back_to_the_same_bytes(self, tmp_path, rng):
        # 255 columns: blocks of 32 rows, the last one partial.
        bits = rng.integers(0, 2**64, size=(257, 255), dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64).copy()
        values[~np.isfinite(values)] = 0.5
        self.body_tokens(HeightGrid(values), tmp_path)

    @pytest.mark.parametrize("sentinel", [0.0, -0.0, -9999.0, -3.40282e38])
    def test_nodata_sentinels_take_the_header_token(self, tmp_path, rng, sentinel, fallback_cells):
        values = rng.uniform(-1e4, 1e4, size=(64, 65))
        values[:, :3] = [0.0, -0.0, 1e-7]
        values[rng.random(values.shape) < 0.5] = sentinel
        self.body_tokens(HeightGrid(values, nodata=sentinel), tmp_path)
        # Holes never reach the fallback, whatever their token's notation.
        assert sentinel not in fallback_cells

    def test_fractal_terrain_outputs_never_fall_back(self, tmp_path, fallback_cells):
        gt = generate_terrain(
            TerrainSpec(rows=128, cols=128, kind="fractal", amplitude=200.0, seed=5)
        )
        grids = (gt, slope_map(gt), direction_as_grid(slope_direction_map(gt), like=gt))
        for grid in grids:
            self.body_tokens(grid, tmp_path)
        assert fallback_cells == []

    def test_blocks_bound_the_temporaries(self, tmp_path, rng):
        grid = HeightGrid(rng.uniform(-1e4, 1e4, size=(512, 512)))
        raster._token_tables()  # built once per process, not per write
        tracemalloc.start()
        try:
            write_ascii_grid(grid, tmp_path / "g.asc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values.nbytes


class TestWrittenSentinel:
    """The writer picks the NODATA_VALUE token so that every valid cell reads back valid."""

    def write(self, grid, tmp_path):
        path = tmp_path / "g.asc"
        write_ascii_grid(grid, path)
        lines = path.read_text(encoding="ascii").splitlines()
        back = read_ascii_grid(path)
        assert np.array_equal(back.mask, grid.mask)
        return lines[5], [line.split() for line in lines[6:]]

    def test_keeps_its_sentinel_where_only_holes_hold_it(self, tmp_path):
        g = HeightGrid(np.zeros((1, 3)), cell_size=2.5, nodata=7.0, xllcorner=500.0)
        out = g.with_valid(np.array([[1.0, 2.0, 7.0]]), np.array([[True, True, False]]))
        assert self.write(out, tmp_path) == ("NODATA_VALUE 7", [["1", "2", "7"]])

    def test_switches_to_the_default_sentinel_on_a_collision(self, tmp_path):
        g = HeightGrid(np.zeros((1, 3)), nodata=0.0, xllcorner=500.0)
        out = g.with_valid(np.array([[0.0, 2.0, 5.0]]), np.array([[True, True, False]]))
        assert self.write(out, tmp_path) == ("NODATA_VALUE -9999", [["0", "2", "-9999"]])
        assert read_ascii_grid(tmp_path / "g.asc").xllcorner == 500.0

    def test_a_negative_zero_collides_with_a_zero_sentinel(self, tmp_path):
        g = HeightGrid(np.array([[-0.0, 1.0]]), nodata=0.0, mask=np.ones((1, 2), bool))
        assert self.write(g, tmp_path) == ("NODATA_VALUE -9999", [["-0", "1"]])

    def test_compares_written_tokens_not_values(self, tmp_path):
        # 7.0000001 is not the sentinel 7, but it is written as "7"
        g = HeightGrid(np.array([[1.0, 7.0000001, 3.0]]), nodata=7.0)
        assert g.mask.all()
        assert self.write(g, tmp_path) == ("NODATA_VALUE -9999", [["1", "7", "3"]])
        # a cell near the sentinel whose token differs is no collision
        g = HeightGrid(np.array([[7.00001, 7.0]]), nodata=7.0)
        assert self.write(g, tmp_path) == ("NODATA_VALUE 7", [["7.00001", "7"]])

    def test_formats_only_cells_within_half_a_unit_of_the_token(self, monkeypatch):
        formatted = []
        format_value = raster._format_value

        def recording(v):
            formatted.append(v)
            return format_value(v)

        monkeypatch.setattr(raster, "_format_value", recording)
        # -9999.05 is 0.05 from the sentinel, five of its token's units
        values = np.full((64, 64), -9999.05)
        assert raster._nodata_token(HeightGrid(values)) == "-9999"
        assert formatted == [-9999.0, -9999.0]
        formatted.clear()
        values[9, 9] = -9998.996  # written as -9999
        with pytest.raises(ValueError, match=re.escape("valid cell (9, 9) = -9998.996")):
            raster._nodata_token(HeightGrid(values))
        assert formatted == [-9999.0, -9999.0, -9998.996]

    def test_a_cell_written_as_both_sentinels_raises_and_writes_nothing(self, tmp_path):
        g = HeightGrid(np.array([[1.0, -9999.0000001, 3.0]]))
        message = "no nodata token is free: valid cell (0, 1) = -9999.0000001 writes as -9999"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_ascii_grid(g, tmp_path / "g.asc")
        assert list(tmp_path.iterdir()) == []

    def test_cells_colliding_with_each_sentinel_raise(self, tmp_path):
        g = HeightGrid(np.array([[-9999.0, 5.0, 0.0]]), nodata=0.0, mask=np.ones((1, 3), bool))
        message = (
            "no nodata token is free: valid cell (0, 2) = 0.0 writes as 0; "
            "valid cell (0, 0) = -9999.0 writes as -9999"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_ascii_grid(g, tmp_path / "g.asc")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 7.0, 1e-7, 123456.5]),
                st.floats(allow_nan=False, allow_infinity=False),
                fixed_notation_floats(),
            ).filter(lambda v: _format_value(v) != "-9999"),
            min_size=1,
            max_size=24,
        ),
        cols=st.integers(1, 6),
        valid_bits=st.integers(0, 2**24 - 1),
        pick=st.integers(0, 23),
    )
    def test_round_trip_keeps_an_explicit_mask(
        self, tmp_path_factory, values, cols, valid_bits, pick
    ):
        # the sentinel is one of the grid's own values, valid or not
        grid = np.resize(np.array(values), (-(-len(values) // cols), cols))
        mask = np.array([bool(valid_bits >> i % 24 & 1) for i in range(grid.size)])
        g = HeightGrid(grid, nodata=values[pick % len(values)], mask=mask.reshape(grid.shape))
        self.write(g, tmp_path_factory.mktemp("w"))


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


class TestAtomicOutput:
    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new-target", "existing-target"])
    def test_failed_writer_leaves_no_temp_file_and_the_old_target(self, tmp_path, old):
        path = tmp_path / "out.bin"
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(RuntimeError, match="^writer failed$"):
            with raster.atomic_output(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == ([] if old is None else [path])
        if old is not None:
            assert path.read_bytes() == old


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

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1.0), (0.0, 1e-300)])
    def test_overflowing_values_clip_without_a_warning(self, tmp_path, lo, hi):
        g = HeightGrid(np.array([[1.7e308, -1.7e308]]))
        path = tmp_path / "g.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_pgm(g, path, lo, hi)
        assert self.read_pixels(path, 1, 2).tolist() == [[255, 0]]

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
