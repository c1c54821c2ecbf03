"""Grid construction, ASCII-grid round trips, and PGM rendering."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terraslope import (
    GridFormatError,
    HeightGrid,
    SlopeDirectionGrid,
    read_ascii_grid,
    render_pgm,
    write_ascii_grid,
)

from terraslope import raster
from terraslope.raster import _format_value

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

    def test_non_numeric_token_with_line_number(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2\n3 oops\n"
        )
        with pytest.raises(GridFormatError, match="line 7"):
            read_ascii_grid(path)


class TestBodyErrors:
    """Each malformed body names the line of its first faulty token."""

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


class TestWriteAsciiGridBytes:
    """The writer's bytes equal a per-cell ``.6g`` format of every value."""

    def body_tokens(self, grid, tmp_path):
        path = tmp_path / "g.asc"
        write_ascii_grid(grid, path)
        text = path.read_text(encoding="ascii")
        assert text == cell_loop_ascii_text(grid)
        return [line.split() for line in text.splitlines()[6:]]

    def test_pinned_values(self, tmp_path):
        values = [-0.0, 5e-324, 0.1, 123456.5, 1e16, -9999.0]
        g = HeightGrid(np.array([values]), nodata=NODATA)
        tokens = self.body_tokens(g, tmp_path)[0]
        assert tokens == [_format_value(v) for v in values]
        assert tokens == ["-0", "4.94066e-324", "0.1", "123456", "1e+16", "-9999"]

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

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24
        ),
        cols=st.integers(1, 6),
        holes=st.integers(0, 2**24 - 1),
    )
    def test_matches_cell_loop_on_any_finite_values(self, tmp_path_factory, values, cols, holes):
        cols = min(cols, len(values))
        rows = len(values) // cols
        grid = np.array(values[: rows * cols]).reshape(rows, cols)
        grid.ravel()[[bool(holes >> i & 1) for i in range(grid.size)]] = NODATA
        self.body_tokens(HeightGrid(grid, nodata=NODATA), tmp_path_factory.mktemp("w"))


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
