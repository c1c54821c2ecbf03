"""Pixel-wise height ranges and hypothesis-plane partition.

A sweep over candidate heights evaluates M "hypothesis planes" per pixel.
The baseline spreads them at equal intervals across the pixel's height
range.  The slope-guided variant splits the range at the current height
estimate and reallocates plane counts between the lower and upper subrange
in proportion to the downward/upward slope factors, so the side with more
local relief gets denser sampling.

Plane counts per pixel are always conserved: the lower subrange covers
[low, center) half-open, the upper covers [center, high] closed, and both
sides keep at least one plane.

Only :func:`equal_partition` and :func:`slope_guided_partition` build
whole (rows, cols, M) volumes, so they check rows * cols * M * 8 bytes
against :data:`VOLUME_BUDGET_BYTES` before they allocate.  The ranges,
plane formulas, expectation and spread live in private kernels
(``_pixel_range``, ``_equal_planes``, ``_guided_planes``, ``_expectation``,
``_spread``); the public functions run them on whole grids and the
coarse-to-fine pipeline in :mod:`terraslope.simulate` on row tiles.

The plane kernels build their planes plane-major, as (M, rows, cols)
buffers whose plane slices are contiguous, and return (rows, cols, M)
views of them; elementwise steps are exact, so the layout changes no
value.  :class:`HypothesisPlanes` copies its planes to C order, so the
public volumes stay (rows, cols, M) C-order arrays.  ``_expectation`` and
``_spread`` are sums, whose bits depend on the layout they read, so their
callers pass C-order (rows, cols, M) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import HeightGrid, _check_cells, _check_integer, _check_real, _freeze, _freeze_mask
from .slope import SlopeFactors

_PROB_SUM_TOL = 1e-9

#: Largest float64 (rows, cols, M) volume one call may allocate: 512 MiB, a
#: 1024 x 1024 grid with 64 planes.  A whole-volume call holds a few arrays
#: of this size at once; a larger request fails with ``ValueError`` instead
#: of exhausting memory.
VOLUME_BUDGET_BYTES = 512 * 2**20


def _check_volume(shape: tuple[int, int], plane_count: int) -> None:
    """Raise ``ValueError`` if a ``shape`` x ``plane_count`` volume is over budget."""
    rows, cols = shape
    nbytes = rows * cols * int(plane_count) * 8  # an int32 count would wrap
    if nbytes > VOLUME_BUDGET_BYTES:
        raise ValueError(
            f"a {rows}x{cols}x{plane_count} plane volume needs {nbytes / 2**20:.0f} MiB, "
            f"over the {VOLUME_BUDGET_BYTES // 2**20} MiB volume budget"
        )


@dataclass(frozen=True)
class HypothesisPlanes:
    """Per-pixel sorted candidate heights, shape (rows, cols, M).

    ``mask`` marks pixels whose planes are meaningful; planes within a
    valid pixel are finite and non-decreasing.
    """

    planes: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        planes = np.asarray(self.planes, dtype=np.float64)
        if planes.ndim != 3:
            raise ValueError(f"planes must be (rows, cols, M), got {planes.shape}")
        if planes.shape[2] < 1:
            raise ValueError("at least one plane per pixel required")
        mask = _freeze_mask(self.mask, planes.shape[:2])
        if mask.any():
            valid = planes[mask]
            diffs = np.diff(valid, axis=-1)
            if diffs.size and not (diffs.min() >= 0):
                raise ValueError("planes must be non-decreasing within each pixel")
            if not np.isfinite(valid).all():
                raise ValueError("planes must be finite at valid pixels")
        object.__setattr__(self, "planes", _freeze(planes))
        object.__setattr__(self, "mask", mask)

    @property
    def plane_count(self) -> int:
        return self.planes.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[:2]


@dataclass(frozen=True)
class ProbabilityVolume:
    """Per-pixel discrete distribution over M hypothesis planes.

    No entry is negative or NaN, and the entries of a valid pixel sum to 1.
    """

    probs: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 3:
            raise ValueError(f"probs must be (rows, cols, M), got {probs.shape}")
        mask = _freeze_mask(self.mask, probs.shape[:2])
        # the minimum is NaN if any entry is, so this rejects NaN as well
        if probs.size and not (probs.min() >= 0):
            raise ValueError("probabilities must be non-negative and not NaN")
        if mask.any():
            sums = probs[mask].sum(axis=-1)
            err = np.abs(sums - 1.0).max()
            if err > _PROB_SUM_TOL:
                raise ValueError(
                    f"probabilities must sum to 1 per valid pixel "
                    f"(worst deviation {err:.3e})"
                )
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "mask", mask)


@dataclass(frozen=True)
class PixelRanges:
    """Per-pixel height search range [low, high] centered on an estimate.

    At valid pixels ``low <= high`` and the bounds and the width are finite;
    the half-width is the (floored) per-pixel uncertainty.
    """

    low: np.ndarray
    high: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64)
        high = np.asarray(self.high, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if not (low.shape == high.shape == mask.shape):
            raise ValueError("range component shapes must all match")
        if mask.any():
            with np.errstate(over="ignore", invalid="ignore"):
                width = high[mask] - low[mask]
            if not np.isfinite(width).all():
                raise ValueError("range bounds and width must be finite")
            if (low[mask] > high[mask]).any():
                raise ValueError("range low must not exceed high")
        object.__setattr__(self, "low", _freeze(low))
        object.__setattr__(self, "high", _freeze(high))
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def shape(self) -> tuple[int, int]:
        return self.low.shape


def _expectation(probs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Per-pixel probability-weighted mean of the planes.

    ``probs`` is (rows, cols, M); ``planes`` has the same shape or is one
    (M,) vector every pixel shares.
    """
    return np.einsum("rcm,rcm->rc", probs, np.broadcast_to(planes, probs.shape))


def _spread(probs: np.ndarray, planes: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Per-pixel standard deviation of the planes around ``center``.

    Shapes as in :func:`_expectation`; ``center`` is (rows, cols).
    """
    dev = planes - center[:, :, None]
    dev *= dev
    var = np.einsum("rcm,rcm->rc", probs, dev)
    return np.sqrt(np.maximum(var, 0.0))


def expected_height(
    planes: HypothesisPlanes, probs: ProbabilityVolume, like: HeightGrid
) -> HeightGrid:
    """Probability-weighted mean height per pixel (soft-argmax regression).

    Valid where both volumes are, with ``like``'s metadata, normally that of
    the grid the planes came from (:meth:`~terraslope.raster.HeightGrid.with_valid`).
    """
    if planes.planes.shape != probs.probs.shape:
        raise ValueError(
            f"planes {planes.planes.shape} and probs {probs.probs.shape} differ"
        )
    height = _expectation(probs.probs, planes.planes)
    return like.with_valid(height, planes.mask & probs.mask)


def pixel_std(
    planes: HypothesisPlanes, probs: ProbabilityVolume, height: HeightGrid
) -> HeightGrid:
    """Per-pixel standard deviation of the plane distribution around ``height``.

    ``height`` is normally :func:`expected_height` of the same volume, but
    any externally supplied estimate with matching dimensions is accepted.
    The result is valid where the volumes and ``height`` are, and takes
    ``height``'s metadata (:meth:`~terraslope.raster.HeightGrid.with_valid`).
    """
    if planes.planes.shape != probs.probs.shape:
        raise ValueError(
            f"planes {planes.planes.shape} and probs {probs.probs.shape} differ"
        )
    if height.shape != planes.shape:
        raise ValueError(f"height {height.shape} does not match {planes.shape}")
    sigma = _spread(probs.probs, planes.planes, height.values)
    return height.with_valid(sigma, planes.mask & probs.mask & height.mask)


@np.errstate(over="ignore", invalid="ignore")
def pixel_range(
    height: HeightGrid, sigma: HeightGrid, sigma_floor: float = 0.0
) -> PixelRanges:
    """Symmetric per-pixel range ``height +- max(sigma, sigma_floor)``.

    The floor keeps the search range usable when the distribution collapsed
    to (near) certainty; set it from the refinement schedule.  Only the
    bounds are kept: the floored sigma is half their width.

    Raises:
        ValueError: mismatched dimensions, negative sigma, a negative or
            non-finite floor, or a range too wide for float64.
    """
    if height.shape != sigma.shape:
        raise ValueError(f"height {height.shape} and sigma {sigma.shape} differ")
    _check_real("sigma_floor", sigma_floor, ">= 0")
    mask, _, low, high = _pixel_range(height, sigma, sigma_floor)
    return PixelRanges(low=low, high=high, mask=mask)


def _pixel_range(height, sigma, sigma_floor: float) -> tuple[np.ndarray, ...]:
    """:func:`pixel_range`'s arrays after its argument checks, on any rows of the two grids.

    ``height`` and ``sigma`` need only ``values`` and ``mask``: whole
    :class:`~terraslope.raster.HeightGrid`s, or row views of grids whose
    values are already known to be finite at valid pixels.  Returns the joint
    mask and the center, low and high of each pixel, all 0 where the mask
    is False.  The caller sets the error state: an overflowing bound is
    reported, not warned about.

    Raises:
        ValueError: a negative sigma or a range too wide for float64 at a
            valid pixel.
    """
    mask = height.mask & sigma.mask
    if ((sigma.values < 0) & mask).any():
        raise ValueError("sigma values must be non-negative")
    spread = np.where(mask, np.maximum(sigma.values, sigma_floor), 0.0)
    center = np.where(mask, height.values, 0.0)
    low = center - spread
    high = center + spread
    # Both inputs are finite wherever the mask holds, so only an overflowing
    # bound or width can be non-finite; masked-out cells are all 0.
    if not np.isfinite(high - low).all():
        raise ValueError("range bounds, width and sigma must be finite")
    return mask, center, low, high


def _split_counts(total: int, drop: np.ndarray, rise: np.ndarray) -> np.ndarray:
    """Number of planes, as float64, of the lower subrange out of ``total``.

    Lower share is proportional to ``drop``, upper to ``rise``; the lower
    count rounds half-up and the upper subrange takes the complement, so the
    total is conserved exactly.  Zero-slope pixels split evenly (lower gets
    floor(total / 2)) and both sides are clamped to at least one plane.
    Counts are whole numbers far below 2**53, so float64 holds them exactly
    and :func:`_guided_planes` computes with them without conversions.
    """
    denom = drop + rise
    share = drop / np.where(denom > 0, denom, 1.0)
    n_below = np.floor(total * share + 0.5)
    n_below[denom == 0] = total // 2
    return np.clip(n_below, 1, total - 1, out=n_below)


def _guided_planes(
    center: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    n_below: np.ndarray,
    plane_count: int,
) -> np.ndarray:
    """Slope-guided planes from per-pixel 2D inputs, as a (rows, cols, M) view.

    ``n_below`` is :func:`_split_counts`'s float64 lower-subrange count.
    The planes are built plane-major, (M, rows, cols), so each per-pixel
    input broadcasts along the outer axis and every step runs on whole
    plane slices; the result is that buffer's ``transpose(1, 2, 0)``.
    """
    n_above = plane_count - n_below
    idx = np.arange(plane_count, dtype=np.float64)[:, None, None]
    planes = idx * ((center - low) / n_below)
    planes += low

    step_above = np.where(n_above > 1, (high - center) / np.maximum(n_above - 1, 1), 0.0)
    upper = idx - n_below
    upper *= step_above
    upper += center

    np.copyto(planes, upper, where=idx >= n_below)
    # Pin the top sample and clamp float drift: the sweep must stay inside
    # [low, high] and reach high whenever the upper subrange has >= 2 planes.
    planes[-1] = np.where(n_above >= 2, high, center)
    return np.clip(planes, low, high, out=planes).transpose(1, 2, 0)


def slope_guided_partition(
    height: HeightGrid,
    ranges: PixelRanges,
    factors: SlopeFactors,
    plane_count: int,
) -> HypothesisPlanes:
    """Reallocate planes between the subranges below and above the estimate.

    Per pixel with estimate H in [low, high]: the lower subrange supplies
    ``n_below`` planes from ``low`` stepping by ``(H - low) / n_below``
    (H itself excluded), the upper supplies ``n_above`` planes evenly
    spaced over [H, high] with both endpoints included (a single upper
    plane sits at H).  Counts follow :func:`_split_counts`, so denser
    sampling goes to the side with the larger slope factor.

    Raises:
        ValueError: a plane_count that is not an integer >= 2, mismatched
            shapes, a slope factor that is non-finite or negative at a
            valid pixel, or a volume over :data:`VOLUME_BUDGET_BYTES`.
    """
    _check_integer("plane_count", plane_count, 2)
    if height.shape != ranges.shape:
        raise ValueError(f"height {height.shape} and ranges {ranges.shape} differ")
    rise = np.asarray(factors.rise, dtype=np.float64)
    drop = np.asarray(factors.drop, dtype=np.float64)
    mask = height.mask & ranges.mask
    for name, factor in (("rise", rise), ("drop", drop)):
        if factor.shape != height.shape:
            raise ValueError(f"{name} factors {factor.shape} and height {height.shape} differ")
        bad = ~(np.isfinite(factor) & (factor >= 0)) & mask
        _check_cells(bad, factor, f"{name} factor {{value}} at {{at}} is not finite and >= 0")
    _check_volume(height.shape, plane_count)
    center, low, high = (np.where(mask, v, 0.0) for v in (height.values, ranges.low, ranges.high))
    planes = _guided_planes(center, low, high, _split_counts(plane_count, drop, rise), plane_count)
    return HypothesisPlanes(planes=planes, mask=mask)


def _equal_planes(low, high, plane_count: int) -> np.ndarray:
    """``plane_count`` evenly spaced planes from ``low`` to ``high`` inclusive.

    ``low`` and ``high`` are scalars or arrays of one shape S; the result
    has shape S + (plane_count,).  It is a view of a plane-major
    (plane_count,) + S buffer, so each plane is one contiguous slice.
    """
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    steps = np.linspace(0.0, 1.0, plane_count).reshape((plane_count,) + (1,) * low.ndim)
    planes = low + steps * (high - low)
    planes[-1] = high
    return planes.transpose(*range(1, planes.ndim), 0)


def equal_partition(ranges: PixelRanges, plane_count: int) -> HypothesisPlanes:
    """Baseline partition: ``plane_count`` evenly spaced planes per pixel.

    Planes run from ``low`` to ``high`` inclusive; a degenerate range
    yields ``plane_count`` copies of the single height.

    Raises:
        ValueError: a plane_count that is not an integer >= 2, or a volume
            over :data:`VOLUME_BUDGET_BYTES`.
    """
    _check_integer("plane_count", plane_count, 2)
    _check_volume(ranges.shape, plane_count)
    return HypothesisPlanes(
        planes=_equal_planes(ranges.low, ranges.high, plane_count), mask=ranges.mask
    )
