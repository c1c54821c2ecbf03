"""Slope and slope-direction computation from height grids.

"Slope" here is a pure height difference in meters: for each pixel, the
absolute difference between the maximum of its 3x3 neighborhood and the
center value.  The slope direction is a categorical code 0..8 naming the
neighborhood position of that maximum (see
:data:`terraslope.raster.DIRECTION_LABELS`); code 4 means the center itself
is the maximum.

Window policy, shared by every 3x3 operation in this package:

* positions outside the grid are filled by replicate padding (the nearest
  in-bounds pixel);
* neighbors that are invalid (nodata) contribute the center value instead,
  so sentinels never leak into an extremum.

Both rules keep the computed slope a conservative, zero-biased estimate at
borders and next to holes.

Every 3x3 operation pads its grid once, with NaN in place of invalid
cells, and reads the nine shifted views of that padding.  The padding is
numpy's ``edge`` mode, a plain copy of the edge cells, which moves no
bit.  Slope, direction and slope factors fold the views with
``np.fmax``/``np.fmin``, which ignore NaN.  Every window holds its own
finite center, so this gives the same extremum, and the same first
position attaining it, as substituting the center value.  A maximum or
minimum is exact, so the order of a fold cannot change a value, and the
sign of a zero extremum never reaches an output (a slope factor is an
absolute difference, a direction code an equality test).
Slope and direction share one fold: :func:`_peak_codes` pads once, folds
once with ``np.fmax`` and writes the direction codes into a ``uint8``
grid, one ``np.copyto`` per window position that attains the maximum.
:func:`slope_and_direction` makes both output grids of that fold, the
slope in place of the maximum and the code grid from the ``uint8``
codes, and each grid adopts its array without a copy;
:func:`slope_direction_map` widens the codes to the ``int64`` of the public
:class:`~terraslope.raster.SlopeDirectionGrid` in one ``astype``.
:func:`slope_map` takes the fold alone.
:func:`window_stack` stacks the nine views and copies the center into
every NaN entry, for the weighted sum of :mod:`terraslope.correction`;
that sum stays one matmul, because a sum's bits depend on its order.

Output row ``r`` of a 3x3 operation reads only rows ``r-1 .. r+1``, so a
row tile's :func:`_strip` (its rows and a one-row halo) gives it the whole
grid's bits.  :func:`terraslope.correction.correct` and the sweep of
:mod:`terraslope.simulate` stream their grids so, as :class:`_Rows` views:
:func:`window_stack` and :func:`slope_factor_maps` read only their
``values`` and ``mask``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .raster import HeightGrid, SlopeDirectionGrid, _adopt, _check_cells

#: Row-major offsets of a 3x3 window; linear index 4 is the center.
_OFFSETS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]

#: The end of the message of a slope or slope factor beyond the float64 range.
_OVERFLOWS = " overflows: a 3x3 height difference is beyond the float64 range"


@dataclass(frozen=True)
class SlopeFactors:
    """Upward and downward height differences within a 3x3 window.

    ``rise`` is |neighborhood max - center|, ``drop`` is
    |neighborhood min - center|, both (rows, cols) arrays.  Both are zero on
    a locally constant plane.
    """

    rise: np.ndarray
    drop: np.ndarray


class _Rows(NamedTuple):
    """Row views of a checked grid's values and a mask.

    They are what the 3x3 operations and ``partition._pixel_range`` read of
    a grid, without the copy and the scan a new grid makes of its rows.
    """

    values: np.ndarray
    mask: np.ndarray


def _strip(values: np.ndarray, mask: np.ndarray, tile: slice) -> tuple[_Rows, slice]:
    """``tile``'s rows and a one-row halo (clipped to the grid), and ``tile``'s place in them."""
    lo, hi = max(tile.start - 1, 0), min(tile.stop + 1, values.shape[0])
    return _Rows(values[lo:hi], mask[lo:hi]), slice(tile.start - lo, tile.stop - lo)


def window_stack(grid: HeightGrid) -> np.ndarray:
    """(rows, cols, 9) stack of 3x3 windows under the shared border policy.

    Entry ``[r, c, k]`` is window position ``k`` (row-major) of pixel
    ``(r, c)``: the replicate-padded neighbor value, or the center value
    where that neighbor is invalid.  Pixels whose center is invalid still
    get a window, built from whatever their cell holds; callers mask them out.

    It takes 72 bytes a pixel, nine times its grid, so its one caller, the
    smoothing kernel of :mod:`terraslope.correction`, runs on row strips.
    """
    values = grid.values
    stack = np.stack(_window_views(values, grid.mask), axis=-1)
    if not grid.mask.all():  # valid values are finite, so only holes leave NaN
        np.copyto(stack, values[:, :, None], where=np.isnan(stack))
    return stack


def _window_views(values: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """The nine row-major shifted views of the 3x3 windows of ``values``.

    View ``k`` holds window position ``k`` of every pixel after replicate
    padding, with NaN in place of every cell outside ``mask``.
    """
    rows, cols = values.shape
    padded = np.pad(np.where(mask, values, np.nan), 1, mode="edge")
    return [padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols] for dr, dc in _OFFSETS]


def _fold(views: list[np.ndarray], ufunc: np.ufunc) -> np.ndarray:
    """Elementwise ``ufunc`` (``np.fmax`` or ``np.fmin``) over ``views``."""
    out = views[0].copy()
    for view in views[1:]:
        ufunc(out, view, out=out)
    return out


def _peak_codes(grid: HeightGrid) -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 neighborhood maximum of every pixel and its ``uint8`` direction code.

    One padding and one ``np.fmax`` fold.  A valid pixel whose center
    attains the maximum (including a fully flat window) gets code 4;
    otherwise the maximum position with the smallest row-major index wins
    ties and the code is ``8 - index``, which maps the window corners and
    edges onto the 0..8 direction table.  An invalid pixel gets code 4.
    The maximum is NaN where a pixel and all its neighbors are invalid.
    """
    views = _window_views(grid.values, grid.mask)
    peak = _fold(views, np.fmax)
    codes = np.full(grid.shape, 4, dtype=np.uint8)
    # Highest index first, so the smallest index attaining the peak is
    # written last, and the center after every neighbor.
    for k in (8, 7, 6, 5, 3, 2, 1, 0, 4):
        np.copyto(codes, 8 - k, where=views[k] == peak)
    np.copyto(codes, 4, where=~grid.mask)
    return peak, codes


def _slope_grid(grid: HeightGrid, peak: np.ndarray) -> HeightGrid:
    """|``peak`` - center| of ``grid``, computed in place of ``peak``, as a grid.

    Raises:
        ValueError: a slope beyond the float64 range at a valid pixel.
    """
    with np.errstate(over="ignore"):
        slope = np.abs(np.subtract(peak, grid.values, out=peak), out=peak)
    _check_cells(~np.isfinite(slope) & grid.mask, slope, "slope at {at}" + _OVERFLOWS)
    return _adopt(grid, slope)


def slope_map(grid: HeightGrid) -> HeightGrid:
    """Per-pixel slope: |3x3 neighborhood max - center|, in meters.

    Invalid pixels propagate nodata.  The result shares dimensions, metadata
    and mask with the input.

    Raises:
        ValueError: a slope beyond the float64 range at a valid pixel.
    """
    return _slope_grid(grid, _fold(_window_views(grid.values, grid.mask), np.fmax))


def slope_direction_map(grid: HeightGrid) -> SlopeDirectionGrid:
    """Per-pixel direction code of the 3x3 neighborhood maximum.

    If the center attains the maximum (including fully flat windows) the
    code is 4; otherwise the maximum position with the smallest row-major
    index wins ties and the code is ``8 - index``, which maps the window
    corners/edges onto the 0..8 direction table.  The codes are ``int64``.
    """
    codes = _peak_codes(grid)[1].astype(np.int64)
    codes.flags.writeable = False  # the direction grid adopts it without a copy
    return SlopeDirectionGrid(codes=codes, mask=grid.mask)


def slope_and_direction(grid: HeightGrid) -> tuple[HeightGrid, HeightGrid]:
    """:func:`slope_map` and the direction codes as a height grid, from one fold.

    The second grid holds the bits of ``direction_as_grid(slope_direction_map(grid),
    like=grid)``; both share ``grid``'s metadata and mask.

    Raises:
        ValueError: a slope beyond the float64 range at a valid pixel.
    """
    peak, codes = _peak_codes(grid)
    return _slope_grid(grid, peak), _adopt(grid, codes.astype(np.float64))


@np.errstate(over="ignore")
def slope_factor_maps(grid: HeightGrid) -> SlopeFactors:
    """Rise/drop slope factors for every pixel of a grid.

    Returns a :class:`SlopeFactors` whose fields are (rows, cols) arrays.
    Entries at invalid pixels are zero; consumers mask with ``grid.mask``.

    Raises:
        ValueError: a factor beyond the float64 range at a valid pixel.
    """
    values = grid.values
    views = _window_views(values, grid.mask)
    rise = np.abs(_fold(views, np.fmax) - values)
    # A drop from a to b overflows only where the rise from b to a does.
    _check_cells(~np.isfinite(rise) & grid.mask, rise, "rise slope factor at {at}" + _OVERFLOWS)
    drop = np.abs(_fold(views, np.fmin) - values)
    invalid = ~grid.mask
    rise[invalid] = 0.0
    drop[invalid] = 0.0
    return SlopeFactors(rise=rise, drop=drop)


def direction_as_grid(dirs: SlopeDirectionGrid, like: HeightGrid) -> HeightGrid:
    """Direction codes as a height grid, for ASCII/PGM serialization.

    Codes become float cell values, valid where ``dirs.mask`` holds, with
    ``like``'s metadata and the sentinel elsewhere.
    """
    return _adopt(like, dirs.codes.astype(np.float64), dirs.mask)
