"""Core raster types and bit-exact file I/O.

A :class:`HeightGrid` is the universal carrier throughout the package: it
holds height maps, slope maps, and DSMs as row-major 2D float64 arrays with
an explicit nodata sentinel.  Validity of a cell is defined as "value is not
exactly the sentinel"; every other stored value must be finite.

File formats:

* ESRI ASCII grid (``.asc``) -- human-readable, parsed/written here with a
  fixed 6-significant-digit text precision so round trips preserve values
  to better than 1e-5 relative error.
* Binary PGM (``P5``) -- quick-look 8-bit rendering of any grid.

All types are immutable after construction (arrays are marked read-only),
so sharing them across threads requires no locking.
"""

from __future__ import annotations

import math
import os
import tempfile
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

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
        cell_size: ground size of one cell in meters, > 0.
        nodata: sentinel marking invalid cells. Must be finite so that
            validity can be decided by exact equality.
        xllcorner, yllcorner: world coordinates of the lower-left corner
            (metadata only; carried through file round trips).

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
        GridFormatError: malformed header keyword, non-numeric token, or a
            body whose value count does not match the declared dimensions.
            Messages carry the 1-based line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    header: dict[str, float] = {}
    lineno = 0
    for key in _HEADER_KEYS:
        if lineno >= len(lines):
            raise GridFormatError(f"line {lineno + 1}: missing header line '{key}'")
        tokens = lines[lineno].split()
        if len(tokens) != 2 or tokens[0].lower() != key:
            raise GridFormatError(
                f"line {lineno + 1}: expected header '{key} <value>', "
                f"got {lines[lineno].strip()!r}"
            )
        try:
            header[key] = float(tokens[1])
        except ValueError:
            raise GridFormatError(
                f"line {lineno + 1}: non-numeric value {tokens[1]!r} for '{key}'"
            ) from None
        if key in ("ncols", "nrows") and not header[key].is_integer():
            raise GridFormatError(
                f"line {lineno + 1}: '{key}' must be an integer, got {tokens[1]!r}"
            )
        lineno += 1

    nodata = NODATA_DEFAULT
    if lineno < len(lines):
        tokens = lines[lineno].split()
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

    cols = int(header["ncols"])
    rows = int(header["nrows"])
    if rows < 1 or cols < 1:
        raise GridFormatError(f"invalid dimensions {rows}x{cols} in header")

    # Values collect in a growable buffer and the grid array is made only
    # after the body count matched, so a header that declares a huge grid
    # over a short body fails on the count instead of on the allocation.
    expected = rows * cols
    values = array("d")
    for body_line, line in enumerate(lines[lineno:], start=lineno + 1):
        for token in line.split():
            try:
                v = float(token)
            except ValueError:
                raise GridFormatError(
                    f"line {body_line}: non-numeric token {token!r}"
                ) from None
            if not math.isfinite(v) and v != nodata:
                raise GridFormatError(
                    f"line {body_line}: non-finite value {token!r}"
                )
            if len(values) >= expected:
                raise GridFormatError(
                    f"line {body_line}: value count mismatch, expected "
                    f"{expected} values"
                )
            values.append(v)
    if len(values) != expected:
        raise GridFormatError(
            f"value count mismatch: header declares {expected} values, "
            f"body has {len(values)}"
        )

    return HeightGrid(
        np.frombuffer(values, dtype=np.float64).reshape(rows, cols),
        cell_size=header["cellsize"],
        nodata=nodata,
        xllcorner=header["xllcorner"],
        yllcorner=header["yllcorner"],
    )


def _format_value(v: float) -> str:
    # 6 significant digits keeps round-trip error below 1e-5 relative.
    return f"{v:.6g}"


def write_ascii_grid(grid: HeightGrid, path: str | os.PathLike) -> None:
    """Write ``grid`` as an ESRI ASCII grid file.

    Values are written with 6 significant digits; nodata cells are written
    with the exact token used in the NODATA_VALUE header line, so the
    validity mask survives a round trip.
    """
    nodata_token = _format_value(grid.nodata)
    mask = grid.mask
    with atomic_output(path, "w", encoding="ascii") as fh:
        fh.write(f"NCOLS {grid.cols}\n")
        fh.write(f"NROWS {grid.rows}\n")
        fh.write(f"XLLCORNER {_format_value(grid.xllcorner)}\n")
        fh.write(f"YLLCORNER {_format_value(grid.yllcorner)}\n")
        fh.write(f"CELLSIZE {_format_value(grid.cell_size)}\n")
        fh.write(f"NODATA_VALUE {nodata_token}\n")
        # Python floats format faster than numpy scalars.  Convert one row at
        # a time: a whole-grid list would hold a float object per cell.
        for values, valid in zip(grid.values, mask):
            row = [
                _format_value(v) if ok else nodata_token
                for v, ok in zip(values.tolist(), valid.tolist())
            ]
            fh.write(" ".join(row))
            fh.write("\n")


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
    t = np.clip((grid.values - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.floor(255.0 * t).astype(np.uint8)
    pixels[~grid.mask] = 0
    with atomic_output(path, "wb") as fh:
        fh.write(f"P5\n{grid.cols} {grid.rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
