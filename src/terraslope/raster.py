"""Core raster types and bit-exact file I/O.

A :class:`HeightGrid` is the universal carrier throughout the package: it
holds height maps, slope maps, and DSMs as row-major 2D float64 arrays with
a stored validity mask and a nodata sentinel: a grid built or read without
a mask computes it once from the sentinel, and a derived grid passes its
mask on (see :class:`HeightGrid`).  Every valid value must be finite.

Every check of the package follows one of two rules, each written once
here.  A parameter must be finite and within its bound
(:func:`_check_real`; :func:`_check_integer` for counts and seeds), and
a cell check names the first bad valid cell in row-major order, in
whole-grid coordinates (:func:`_check_cells`).

File formats:

* ESRI ASCII grid (``.asc``) -- human-readable, parsed/written here with a
  fixed 6-significant-digit text precision so round trips preserve values
  to better than 1e-5 relative error.  numpy's C text reader
  (``np.loadtxt``) parses the body, at most NROWS + 1 lines of it, in one
  call.  A body it refuses is read again a line at a time with ``float``
  over each line's tokens: one with a token that only ``float`` accepts
  (``1_0``), rows of differing lengths, a wrong value count or a
  non-finite value.  A line that fails there is walked token by token,
  which names a malformed body's first fault with its line number, so no
  body is read more than twice.  The writer formats the body a block of
  rows at a time from tables of digit-group tokens, byte for byte as
  ``'%.6g' % v``; a cell near a rounding tie or in exponent notation goes
  to Python's ``%.6g``, one ``%`` per block.  The writer alone picks the
  written sentinel, so every valid cell reads back valid.
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
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, TextIO

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


def _check_integer(name: str, value: object, minimum: int) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    if not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(name: str, value: float, bound: str = "") -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is finite and
    within ``bound``: none (``""``), ``"> 0"`` or ``">= 0"``."""
    within = {"": True, "> 0": value > 0, ">= 0": value >= 0}[bound]
    if not (math.isfinite(value) and within):
        raise ValueError(f"{name} must be finite{bound and ' and ' + bound}, got {value}")


def _check_cells(bad: np.ndarray, values: np.ndarray, message: str, first_row: int = 0) -> None:
    """Raise a ``ValueError``: ``message`` with the ``{value}`` and ``{at}`` of the first
    ``bad`` cell in row-major order, its row counted from ``first_row`` (a tile's offset)."""
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValueError(message.format(value=values[r, c], at=f"({first_row + r}, {c})"))


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` read-only and C-contiguous: an array that owns its data and is
    read-only already is kept, so it is handed over without a copy; any other
    is copied, so no later write to the caller's array reaches the result.
    """
    out = np.ascontiguousarray(arr)
    if out is arr and (arr.flags.writeable or not arr.flags.owndata):
        out = arr.copy()
    out.flags.writeable = False
    return out


def _freeze_mask(mask, shape: tuple[int, ...]) -> np.ndarray:
    """``mask`` as a boolean array, which must have ``shape``, frozen as :func:`_freeze` does."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} does not match grid {shape}")
    return _freeze(mask)


def _cells(values: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """The C-contiguous ``values`` at the ``joint`` cells, in row-major order.

    When every cell is joint this is a flat view, so nothing is copied;
    otherwise a boolean gather.  Both hold the same cells in the same order,
    so a sum over either has the same bits.
    """
    return values.reshape(-1) if joint.all() else values[joint]


@dataclass(frozen=True)
class HeightGrid:
    """2D raster of heights in meters with a validity mask and a nodata sentinel.

    Attributes:
        values: (rows, cols) float64 array; read-only after construction.
        cell_size: ground size of one cell in meters, finite and > 0.
        nodata: finite sentinel that invalid cells hold, and the one a
            grid without a given mask is validated against.  A grid given
            a mask holds the sentinel outside it: values there that are
            not the sentinel, NaN and infinities included, are replaced
            in a copy, never in the caller's array.  Values inside the
            mask must be finite.
        xllcorner, yllcorner: finite world coordinates of the lower-left
            corner (metadata only; carried through file round trips).
        mask: (rows, cols) read-only boolean validity, True where the cell
            holds a real height.  Computed once, as the cells not exactly
            ``nodata``, when not given; a given mask is kept as ``values``
            are, so ``replace(grid, values=v)`` shares ``grid``'s mask.

    The grid origin is the top-left pixel; row index increases downward.
    """

    values: np.ndarray
    cell_size: float = 1.0
    nodata: float = NODATA_DEFAULT
    xllcorner: float = 0.0
    yllcorner: float = 0.0
    mask: np.ndarray | None = None

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
        if self.mask is None:
            # the sentinel is finite, so every non-finite value is a valid cell
            mask = values != self.nodata
            mask.flags.writeable = False  # this grid's own: kept without a copy
        else:
            mask = _freeze_mask(self.mask, values.shape)
            if not mask.all() and not ((values == self.nodata) | mask).all():
                # a hole holds something else, even NaN: the sentinel goes into
                # a copy of the grid's own, never into the caller's array
                values = np.where(mask, values, self.nodata)
                values.flags.writeable = False
        if not np.isfinite(values).all(where=mask):
            message = "non-finite value {value} at {at} is not the nodata sentinel "
            _check_cells(~np.isfinite(values) & mask, values, message + str(self.nodata))
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "mask", mask)

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
    def valid_count(self) -> int:
        return int(self.mask.sum())

    def with_values(self, values: np.ndarray) -> "HeightGrid":
        """New grid with the same metadata and new values, its mask computed from the sentinel."""
        return replace(self, values=values, mask=None)

    def with_valid(self, values: np.ndarray, mask: np.ndarray) -> "HeightGrid":
        """New grid with this grid's metadata, valid where ``mask`` holds: ``values`` there,
        the sentinel elsewhere."""
        return _adopt(self, np.array(values, dtype=np.float64), np.asarray(mask, dtype=bool))


def _adopt(like: HeightGrid, values: np.ndarray, mask: np.ndarray | None = None) -> HeightGrid:
    """``values``, a float64 array of the caller's own, as a grid with ``like``'s metadata.

    The one hand-over of an array to a grid: the sentinel is written in
    place outside ``mask`` (``like.mask`` when None), and the grid adopts
    the array, made read-only, without a copy.
    """
    mask = like.mask if mask is None else mask
    if not mask.all():
        # checked before the write, so a wrong shape gets the grid's message
        mask = _freeze_mask(mask, values.shape)
        np.copyto(values, like.nodata, where=~mask)
    values.flags.writeable = False
    return replace(like, values=values, mask=mask)


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

    Codes given as ``uint8`` or ``int64`` keep their type and are frozen as
    :func:`_freeze` does; any other whole numbers become ``int64``.  A code
    that is not a whole number in 0..8 (``3.7``, NaN, ``-1``, ``9``) raises
    a ``ValueError``.
    """

    codes: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 2:
            raise ValueError(f"direction codes must be 2D, got {codes.shape}")
        mask = _freeze_mask(self.mask, codes.shape)
        if codes.dtype in (np.uint8, np.int64):
            whole = not codes.size or (codes.min() >= 0 and codes.max() <= 8)
        else:
            # a comparison, not a cast, so a NaN or 3.7 raises no numpy warning
            whole = codes.dtype.kind in "biuf" and bool(np.isin(codes, range(9)).all())
            if whole:
                codes = codes.astype(np.int64)
                codes.flags.writeable = False  # _freeze keeps it without a second copy
        if not whole:
            raise ValueError("direction codes must be whole numbers in 0..8")
        object.__setattr__(self, "codes", _freeze(codes))
        object.__setattr__(self, "mask", mask)


def read_ascii_grid(path: str | os.PathLike) -> HeightGrid:
    """Parse an ESRI ASCII grid file.

    Header lines NCOLS/NROWS/XLLCORNER/YLLCORNER/CELLSIZE (case-insensitive,
    in that order) are followed by an optional NODATA_VALUE line and then
    whitespace-separated cell values in row-major order, top row first.

    Raises:
        GridFormatError: a byte that is not ASCII, a malformed header
            keyword, a non-numeric token, a non-finite header value, an
            NCOLS/NROWS that is not an integer >= 1, a non-positive
            CELLSIZE, a non-finite body value, or a body whose value count
            does not match the declared dimensions.  Messages carry the
            1-based line number, except for a short body.
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
                if key == "cellsize" and not header[key] > 0:
                    raise GridFormatError(
                        f"line {lineno + 1}: 'cellsize' must be > 0, got {tokens[1]!r}"
                    )
                if key in ("ncols", "nrows") and not header[key].is_integer():
                    raise GridFormatError(
                        f"line {lineno + 1}: '{key}' must be an integer, got {tokens[1]!r}"
                    )
                if key in ("ncols", "nrows") and not header[key] >= 1:
                    raise GridFormatError(
                        f"line {lineno + 1}: '{key}' must be >= 1, got {tokens[1]!r}"
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

            # numpy's C reader parses a well-formed body; whatever it refuses
            # goes, read again from its start, to the line loop, which either
            # parses it or names the line of its first fault.
            expected = rows * cols
            flat = _loadtxt_body(fh, rows, expected)
            if flat is None:
                fh.seek(body_start)
                flat = _float_body(fh, lineno + 1, expected)
    except UnicodeDecodeError as exc:
        raise GridFormatError(
            f"not an ASCII file: byte {exc.object[exc.start]:#04x}"
        ) from None
    # In place, so the grid adopts loadtxt's array; the line loop's view is copied.
    flat.shape = (rows, cols)
    flat.flags.writeable = False
    return HeightGrid(
        flat,
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


def _float_body(body: Iterable[str], first_line: int, expected: int) -> np.ndarray:
    """The body's values by ``float`` over each line's tokens.

    Values collect in a growable buffer a line at a time, so a header that
    declares a huge grid over a short body fails on the count instead of
    on an allocation.  A line with a token ``float`` refuses, a non-finite
    value or a value past ``expected`` is walked token by token to raise
    the line-numbered ``GridFormatError`` of its first fault; a line sent
    there that has none is kept.
    """
    values = array("d")
    for body_line, line in enumerate(body, start=first_line):
        tokens = line.split()
        try:
            row = list(map(float, tokens))
            # A NaN or an infinity makes the sum non-finite; an overflowing
            # sum of finite values only costs a walk that finds no fault.
            clean = len(values) + len(row) <= expected and math.isfinite(sum(row))
        except ValueError:
            clean = False
        if clean:
            values.extend(row)
            continue
        for token in tokens:
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
            if len(values) == expected:
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
    return np.frombuffer(values, dtype=np.float64)


#: Text format of every written number, header and body alike.  6
#: significant digits keep round-trip error below 1e-5 relative.
_VALUE_FORMAT = "%.6g"

#: Cells formatted per block of body rows; bounds the block's temporaries.
_BLOCK_CELLS = 8192
#: One written cell: its sign, a table head and a table tail, NUL-padded.
#: A ``%.6g`` token is at most 13 bytes, so with its separator the whole
#: record also holds any token of the fallback or the NODATA_VALUE token.
_CELL = np.dtype([("sign", "S1"), ("head", "S8"), ("tail", "S5")])
#: ``10**k`` for the ten fixed-notation exponents ``X = 5 - k``; each is exact.
_POW10 = 10.0 ** np.arange(10)


def _format_value(v: float) -> str:
    return _VALUE_FORMAT % v


@lru_cache(maxsize=None)
def _token_tables() -> tuple[np.ndarray, np.ndarray]:
    """Head and tail tables of every fixed-notation ``%.6g`` token.

    A value written in fixed notation (decimal exponent ``X`` in -4..5) is
    ``m * 10**(X - 5)`` for a 6-digit significand ``m = 1000 * H + L``.
    Its token is its sign, then ``heads[k, L == 0, H]``, then
    ``tails[k, last column, L]``, with ``k = 5 - X``: the head runs to the
    third significant digit and the tail holds the rest and the
    separator.  Where ``L == 0`` the head is the whole token, since
    stripping trailing zeros can reach into it.  Every entry is cut from a
    ``%.6g`` format of the exact decimal, so the tables agree with the
    reference by construction.  ``H = 1000`` holds the carry
    ``m = 10**6``, ``H = 0`` zero and ``H = 1`` the placeholder.  Built on
    the first write, not at import.
    """
    heads = np.zeros((10, 2, 1001), dtype=_CELL["head"])
    tails = np.zeros((10, 2, 1000), dtype=_CELL["tail"])
    for k, scale in enumerate(_POW10.tolist()):
        # m / 10**k is the double nearest the decimal, which %.6g restores.
        cut = (_VALUE_FORMAT % (123456 / scale)).index("3") + 1
        heads[k, 0, 100:1000] = [
            (_VALUE_FORMAT % ((1000 * h + 1) / scale))[:cut] for h in range(100, 1000)
        ]
        heads[k, 1, 100:] = [_VALUE_FORMAT % (1000 * h / scale) for h in range(100, 1001)]
        rests = [""] + [(_VALUE_FORMAT % ((100000 + low) / scale))[cut:] for low in range(1, 1000)]
        for last, sep in enumerate((" ", "\n")):
            tails[k, last] = [rest + sep for rest in rests]
    heads[:, 1, 0] = b"0"
    # A fallback cell's head is the format itself, for _format_fallback.
    heads[:, 1, 1] = _VALUE_FORMAT.encode()
    return heads.ravel(), tails.ravel()


def _format_fallback(text: bytes, values: np.ndarray) -> bytes:
    """``text`` with each placeholder replaced by ``%.6g`` of the next value."""
    return text % tuple(values.tolist())


def _format_body(grid: HeightGrid, token: str) -> Iterator[bytes]:
    """The body of ``grid``'s ASCII file, a block of rows at a time.

    Byte for byte what ``'%.6g' % v`` writes for every cell, a space
    after each cell but the last of a row, which takes a newline.  A
    fixed-notation cell scales its magnitude by ``10**k`` in one exact-power
    multiply, so ``s`` lies within half an ulp (under 6e-11) of the exact
    scaled value and ``m = rint(s)`` is ``%.6g``'s significand unless ``s``
    lies near a rounding tie.  Its token then comes from
    :func:`_token_tables`.  The rest -- a cell within 1e-6 of a tie, one
    in exponent notation, or one whose exponent ``log10`` misjudged next to
    a power of ten -- is written by Python's ``%.6g`` over the block's
    placeholders in one ``%``.  Cells outside ``grid.mask`` take the
    NODATA_VALUE ``token``.
    """
    heads, tails = _token_tables()
    values = grid.values
    rows, cols = values.shape
    last = np.arange(cols) == cols - 1
    hole_row = np.where(last, token + "\n", token + " ").astype(f"S{_CELL.itemsize}")
    step = max(1, _BLOCK_CELLS // cols)
    for start in range(0, rows, step):
        block = values[start : start + step]
        a = np.abs(block)
        with np.errstate(divide="ignore"):
            x = np.log10(a)
        # X = floor(log10|v|), clipped to the fixed range.  Where log10 is
        # off by one next to a power of ten, s leaves [1e5, 1e6): the cell
        # goes to the fallback, or m is the carry 10**6, right either way.
        k = (5.0 - np.clip(np.floor(x, out=x), -4.0, 5.0, out=x)).astype(np.intp)
        s = a * _POW10[k]
        m = np.rint(s)
        fast = ((s >= 1e5) | (s == 0.0)) & (m <= 1e6) & (np.abs(s - m) < 0.5 - 1e-6)
        # Every other cell takes the placeholder, H = 1 and L = 0.
        high, low = np.divmod(np.where(fast, m, 1000.0).astype(np.intp), 1000)
        cells = np.empty(block.shape, dtype=_CELL)
        cells["sign"] = np.where(np.signbit(block) & fast, b"-", b"")
        cells["head"] = heads.take(high + 1001 * ((low == 0) + 2 * k))
        cells["tail"] = tails.take(low + 1000 * (last + 2 * k))
        holes = ~grid.mask[start : start + step]
        if holes.any():
            cells.view(hole_row.dtype)[holes] = np.broadcast_to(hole_row, block.shape)[holes]
            fast |= holes
        text = cells.tobytes().translate(None, b"\0")
        if not fast.all():
            text = _format_fallback(text, block[~fast])
        yield text


def _nodata_token(grid: HeightGrid) -> str:
    """The NODATA_VALUE token :func:`write_ascii_grid` writes ``grid`` with."""
    clashes = []
    for token in dict.fromkeys(map(_format_value, (grid.nodata, NODATA_DEFAULT))):
        # A valid cell reads back as the sentinel only if its 6-digit token is the
        # sentinel's, so it lies within half a unit of that token's last digit:
        # one vectorised pass keeps those cells, and only they are formatted.
        sentinel = float(token)
        reach = 0.5000001 * 10.0 ** (int(f"{sentinel:.5e}".partition("e")[2]) - 5)
        near = (grid.values >= sentinel - reach) & (grid.values <= sentinel + reach) & grid.mask
        for r, c in np.argwhere(near).tolist():
            v = float(grid.values[r, c])
            if float(_format_value(v)) == sentinel:
                clashes.append(f"valid cell ({r}, {c}) = {v!r} writes as {token}")
                break
        else:
            return token
    raise ValueError("no nodata token is free: " + "; ".join(clashes))


def write_ascii_grid(grid: HeightGrid, path: str | os.PathLike) -> None:
    """Write ``grid`` as an ESRI ASCII grid file.

    Values are written with 6 significant digits, byte for byte as
    ``'%.6g' % v`` writes them (see :func:`_format_body`).  Cells outside
    ``grid.mask`` are written with the NODATA_VALUE token, which is
    ``grid.nodata``'s unless a valid cell would read back as it, then
    ``NODATA_DEFAULT``'s, so the mask survives a round trip.

    Raises:
        ValueError: valid cells that would read back as either sentinel (the
            message names one of each); nothing is written then.
    """
    token = _nodata_token(grid)
    header = (
        f"NCOLS {grid.cols}\n"
        f"NROWS {grid.rows}\n"
        f"XLLCORNER {_format_value(grid.xllcorner)}\n"
        f"YLLCORNER {_format_value(grid.yllcorner)}\n"
        f"CELLSIZE {_format_value(grid.cell_size)}\n"
        f"NODATA_VALUE {token}\n"
    )
    with atomic_output(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.writelines(_format_body(grid, token))


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
    # One float buffer, worked in place.  A value far outside [lo, hi] may
    # overflow to +-inf, which clips to 0 or 1 like any other value past the range.
    with np.errstate(over="ignore"):
        t = np.subtract(grid.values, lo)
        t /= hi - lo
    np.clip(t, 0.0, 1.0, out=t)
    t *= 255.0
    pixels = np.floor(t, out=t).astype(np.uint8)
    pixels[~grid.mask] = 0
    with atomic_output(path, "wb") as fh:
        fh.write(f"P5\n{grid.cols} {grid.rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
