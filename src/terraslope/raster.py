"""Core raster types and bit-exact file I/O.

A :class:`HeightGrid` is the universal carrier throughout the package: it
holds height maps, slope maps, and DSMs as row-major 2D float64 arrays with
an explicit nodata sentinel.  Validity of a cell is defined as "value is not
exactly the sentinel"; every other stored value must be finite.

File formats:

* ESRI ASCII grid (``.asc``) -- human-readable, parsed/written here with a
  fixed 6-significant-digit text precision so round trips preserve values
  to better than 1e-5 relative error.  numpy's C text reader
  (``np.loadtxt``) parses the body, at most NROWS + 1 lines of it, in one
  call.  A body it refuses is read again a line at a time with ``float``
  over each line's tokens: one with a token that only ``float`` accepts
  (``1_0``), rows of differing lengths, a wrong value count or a
  non-finite value.  A token-by-token loop re-reads the body only to
  report a malformed one with its line number.  Each written row is one
  ``%`` format.
* Binary PGM (``P5``) -- quick-look 8-bit rendering of any grid.

All types are immutable after construction (arrays are marked read-only),
so sharing them across threads requires no locking.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NoReturn, TextIO

import numpy as np

NODATA_DEFAULT = -9999.0

#: Header keywords of the ASCII grid format, in required order.
_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


class GridFormatError(ValueError):
    """Raised when an ASCII grid file violates the expected layout."""


@contextmanager
def atomic_output(path: str | os.PathLike, mode: str = "w", **open_kwargs):
    """Open a temp file next to ``path``; replace ``path`` only on success.

    Guarantees no partial output file is ever visible at ``path``: the temp
    file is renamed into place after the writer block completes, and removed
    if it raises.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HeightGrid:
    """2D raster of heights in meters with a nodata sentinel.

    Attributes:
        values: (rows, cols) float64 array; read-only after construction.
        cell_size: ground size of one cell in meters, finite and > 0.
        nodata: sentinel marking invalid cells. Must be finite so that
            validity can be decided by exact equality.
        xllcorner, yllcorner: finite world coordinates of the lower-left
            corner (metadata only; carried through file round trips).

    The grid origin is the top-left pixel; row index increases downward.
    """

    values: np.ndarray
    cell_size: float = 1.0
    nodata: float = NODATA_DEFAULT
    xllcorner: float = 0.0
    yllcorner: float = 0.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"grid values must be 2D, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"grid must be at least 1x1, got {values.shape}")
        if not all(map(math.isfinite, (self.cell_size, self.xllcorner, self.yllcorner))):
            raise ValueError(
                "cell_size, xllcorner and yllcorner must be finite, got "
                f"{self.cell_size}, {self.xllcorner}, {self.yllcorner}"
            )
        if not (self.cell_size > 0):
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")
        if not np.isfinite(self.nodata):
            raise ValueError("nodata sentinel must be finite")
        bad = ~np.isfinite(values) & (values != self.nodata)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError(
                f"non-finite value {values[r, c]} at ({r}, {c}) is not the "
                f"nodata sentinel {self.nodata}"
            )
        object.__setattr__(self, "values", _freeze(values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def mask(self) -> np.ndarray:
        """Boolean validity mask: True where the cell holds a real height."""
        return self.values != self.nodata

    @property
    def valid_count(self) -> int:
        return int(self.mask.sum())

    def with_values(self, values: np.ndarray) -> "HeightGrid":
        """New grid with the same metadata but different cell values."""
        return HeightGrid(
            values,
            cell_size=self.cell_size,
            nodata=self.nodata,
            xllcorner=self.xllcorner,
            yllcorner=self.yllcorner,
        )


#: Direction codes for the position of the 3x3 neighborhood maximum.
#: Code 4 ("vertical") means the center pixel itself is the maximum.
DIRECTION_LABELS = {
    0: "lower-right",
    1: "down",
    2: "lower-left",
    3: "right",
    4: "vertical",
    5: "left",
    6: "upper-right",
    7: "up",
    8: "upper-left",
}


@dataclass(frozen=True)
class SlopeDirectionGrid:
    """2D raster of categorical slope-direction codes 0..8.

    ``codes`` holds one entry of :data:`DIRECTION_LABELS` per cell; ``mask``
    marks which cells carry a meaningful code (invalid cells keep the
    neutral code 4 as filler).
    """

    codes: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64)
        mask = np.asarray(self.mask, dtype=bool)
        if codes.ndim != 2:
            raise ValueError(f"direction codes must be 2D, got {codes.shape}")
        if codes.shape != mask.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match codes {codes.shape}"
            )
        if codes.size and (codes.min() < 0 or codes.max() > 8):
            raise ValueError("direction codes must lie in 0..8")
        object.__setattr__(self, "codes", _freeze(codes))
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]


def read_ascii_grid(path: str | os.PathLike) -> HeightGrid:
    """Parse an ESRI ASCII grid file.

    Header lines NCOLS/NROWS/XLLCORNER/YLLCORNER/CELLSIZE (case-insensitive,
    in that order) are followed by an optional NODATA_VALUE line and then
    whitespace-separated cell values in row-major order, top row first.

    Raises:
        GridFormatError: a byte that is not ASCII, a malformed header
            keyword, a non-numeric token, a non-finite header value, or a
            body whose value count does not match the declared dimensions.
            Messages carry the 1-based line number.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            header: dict[str, float] = {}
            lineno = 0
            for key in _HEADER_KEYS:
                line = fh.readline()
                if not line:
                    raise GridFormatError(f"line {lineno + 1}: missing header line '{key}'")
                tokens = line.split()
                if len(tokens) != 2 or tokens[0].lower() != key:
                    raise GridFormatError(
                        f"line {lineno + 1}: expected header '{key} <value>', "
                        f"got {line.strip()!r}"
                    )
                try:
                    header[key] = float(tokens[1])
                except ValueError:
                    raise GridFormatError(
                        f"line {lineno + 1}: non-numeric value {tokens[1]!r} for '{key}'"
                    ) from None
                if not math.isfinite(header[key]):
                    raise GridFormatError(
                        f"line {lineno + 1}: '{key}' must be finite, got {tokens[1]!r}"
                    )
                if key in ("ncols", "nrows") and not header[key].is_integer():
                    raise GridFormatError(
                        f"line {lineno + 1}: '{key}' must be an integer, got {tokens[1]!r}"
                    )
                lineno += 1

            nodata = NODATA_DEFAULT
            body_start = fh.tell()
            tokens = fh.readline().split()
            if tokens and tokens[0].lower() == "nodata_value":
                if len(tokens) != 2:
                    raise GridFormatError(
                        f"line {lineno + 1}: expected 'NODATA_VALUE <value>'"
                    )
                try:
                    nodata = float(tokens[1])
                except ValueError:
                    raise GridFormatError(
                        f"line {lineno + 1}: non-numeric NODATA_VALUE {tokens[1]!r}"
                    ) from None
                if not np.isfinite(nodata):
                    raise GridFormatError(
                        f"line {lineno + 1}: NODATA_VALUE must be finite"
                    )
                lineno += 1
                body_start = fh.tell()
            else:
                fh.seek(body_start)

            cols = int(header["ncols"])
            rows = int(header["nrows"])
            if rows < 1 or cols < 1:
                raise GridFormatError(f"invalid dimensions {rows}x{cols} in header")

            # numpy's C reader parses a well-formed body; whatever it refuses
            # goes, read again from its start, to the line loop, and a body
            # the line loop refuses too goes to the token loop, which names
            # the line of its first fault.
            expected = rows * cols
            flat = _loadtxt_body(fh, rows, expected)
            if flat is None:
                fh.seek(body_start)
                flat = _float_body(fh, expected)
            if flat is None:
                fh.seek(body_start)
                _raise_body_error(fh, lineno + 1, expected)
    except UnicodeDecodeError as exc:
        raise GridFormatError(
            f"not an ASCII file: byte {exc.object[exc.start]:#04x}"
        ) from None
    return HeightGrid(
        flat.reshape(rows, cols),
        cell_size=header["cellsize"],
        nodata=nodata,
        xllcorner=header["xllcorner"],
        yllcorner=header["yllcorner"],
    )


def _loadtxt_body(fh: TextIO, rows: int, expected: int) -> np.ndarray | None:
    """The body's values as parsed by ``np.loadtxt``, or None.

    The result stands only if it holds exactly ``expected`` finite values
    and no token follows them.  numpy's reader gives the bits of ``float``
    on every token it accepts; it refuses some that ``float`` accepts
    (``1_0``) and rows of differing lengths, so None means "use the line
    loop", not "malformed".

    The parse sees at most ``rows + 1`` lines, so a small header over a
    huge body stops early.  The bound is an ``islice``, not ``max_rows``:
    ``max_rows`` makes numpy allocate that many rows of the first row's
    width before it reads, so a header declaring a huge grid would turn
    into a huge allocation.
    """
    # islice takes no stop past sys.maxsize, which NROWS 1e300 would ask.
    lines = islice(fh, min(rows, sys.maxsize - 1) + 1)
    try:
        with warnings.catch_warnings():
            # An empty body makes loadtxt warn; the count check reports it.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    # The rest of the file must be blank: a body with blank lines between
    # its rows can leave tokens past the rows + 1 lines read.
    if values.size != expected or any(map(str.split, fh)):
        return None
    # The sentinel is finite, so a non-finite value is never nodata.
    return values if np.isfinite(values).all() else None


def _float_body(fh: Iterable[str], expected: int) -> np.ndarray | None:
    """The body's values by ``float`` over each line's tokens, or None.

    Values collect in a growable buffer, one line of tokens at a time, and
    the loop stops once the count passes ``expected``, so a header that
    declares a huge grid over a short body fails on the count instead of
    on an allocation.  None on a non-numeric token, a wrong count or a
    non-finite value.
    """
    values = array("d")
    for line in fh:
        try:
            values.extend(map(float, line.split()))
        except ValueError:
            return None
        if len(values) > expected:
            return None
    flat = np.frombuffer(values, dtype=np.float64)
    if len(values) == expected and np.isfinite(flat).all():
        return flat
    return None


def _raise_body_error(body: Iterable[str], first_line: int, expected: int) -> NoReturn:
    """Raise the line-numbered error for the first faulty token of ``body``.

    Only called on a body that :func:`read_ascii_grid` already rejected:
    re-reading it token by token finds a non-numeric token, a non-finite
    value or the value past ``expected``, in file order.
    """
    count = 0
    for body_line, line in enumerate(body, start=first_line):
        for token in line.split():
            try:
                v = float(token)
            except ValueError:
                raise GridFormatError(
                    f"line {body_line}: non-numeric token {token!r}"
                ) from None
            if not math.isfinite(v):
                raise GridFormatError(
                    f"line {body_line}: non-finite value {token!r}"
                )
            if count >= expected:
                raise GridFormatError(
                    f"line {body_line}: value count mismatch, expected "
                    f"{expected} values"
                )
            count += 1
    raise GridFormatError(
        f"value count mismatch: header declares {expected} values, "
        f"body has {count}"
    )


#: Text format of every written number, header and body alike.  6
#: significant digits keep round-trip error below 1e-5 relative.
_VALUE_FORMAT = "%.6g"


def _format_value(v: float) -> str:
    return _VALUE_FORMAT % v


def write_ascii_grid(grid: HeightGrid, path: str | os.PathLike) -> None:
    """Write ``grid`` as an ESRI ASCII grid file.

    Values are written with 6 significant digits; nodata cells are written
    with the exact token used in the NODATA_VALUE header line, so the
    validity mask survives a round trip.
    """
    values = grid.values
    if grid.nodata == 0.0:
        # A zero sentinel also marks cells holding the other signed zero;
        # write those as the sentinel's own token too.
        values = np.where(grid.mask, values, grid.nodata)
    row_format = " ".join([_VALUE_FORMAT] * grid.cols) + "\n"
    with atomic_output(path, "w", encoding="ascii") as fh:
        fh.write(f"NCOLS {grid.cols}\n")
        fh.write(f"NROWS {grid.rows}\n")
        fh.write(f"XLLCORNER {_format_value(grid.xllcorner)}\n")
        fh.write(f"YLLCORNER {_format_value(grid.yllcorner)}\n")
        fh.write(f"CELLSIZE {_format_value(grid.cell_size)}\n")
        fh.write(f"NODATA_VALUE {_format_value(grid.nodata)}\n")
        # A nodata cell holds exactly the sentinel, so it formats to the
        # NODATA_VALUE token.  Python floats format faster than numpy
        # scalars; one row at a time keeps a float object per cell of one
        # row alive, not of the whole grid.
        for row in values:
            fh.write(row_format % tuple(row.tolist()))


def render_pgm(grid: HeightGrid, path: str | os.PathLike, lo: float, hi: float) -> None:
    """Render ``grid`` to an 8-bit binary PGM image.

    Valid cells are mapped by ``floor(255 * (v - lo) / (hi - lo))`` after
    clamping the normalized value to [0, 1]; invalid cells render as 0.

    Raises:
        ValueError: unless ``lo < hi`` and ``lo``, ``hi`` and ``hi - lo``
            are finite.
    """
    if not (math.isfinite(float(hi) - float(lo)) and lo < hi):
        raise ValueError(f"requires finite lo < hi with a finite hi - lo, got lo={lo}, hi={hi}")
    # A value far outside [lo, hi] may overflow to +-inf, which clips to 0
    # or 1 like any other value past the range.
    with np.errstate(over="ignore"):
        t = np.clip((grid.values - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.floor(255.0 * t).astype(np.uint8)
    pixels[~grid.mask] = 0
    with atomic_output(path, "wb") as fh:
        fh.write(f"P5\n{grid.cols} {grid.rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
