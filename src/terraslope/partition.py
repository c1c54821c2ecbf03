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

The public functions build whole (rows, cols, M) volumes, so each checks
rows * cols * M * 8 bytes against :data:`VOLUME_BUDGET_BYTES` before it
allocates.  The plane formulas, expectation and spread live in private array
kernels (``_equal_planes``, ``_guided_planes``, ``_expectation``,
``_spread``); the public functions run them on whole grids and the
coarse-to-fine pipeline in :mod:`terraslope.simulate` on row tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import HeightGrid, _freeze
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
    nbytes = rows * cols * plane_count * 8
    if nbytes > VOLUME_BUDGET_BYTES:
        raise ValueError(
            f"a {rows}x{cols}x{plane_count} plane volume needs {nbytes / 2**20:.0f} MiB, "
            f"over the {VOLUME_BUDGET_BYTES // 2**20} MiB volume budget"
        )


@dataclass(frozen=True)
class HypothesisPlanes:
    """Per-pixel sorted candidate heights, shape (rows, cols, M).

    ``mask`` marks pixels whose planes are meaningful; planes within a
    valid pixel are non-decreasing.  ``cell_size``/``nodata`` carry the
    metadata of the grid the planes were derived from, so height maps
    regressed from these planes inherit it.
    """

    planes: np.ndarray
    mask: np.ndarray
    cell_size: float = 1.0
    nodata: float = -9999.0

    def __post_init__(self) -> None:
        planes = np.asarray(self.planes, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if planes.ndim != 3:
            raise ValueError(f"planes must be (rows, cols, M), got {planes.shape}")
        if planes.shape[2] < 1:
            raise ValueError("at least one plane per pixel required")
        if mask.shape != planes.shape[:2]:
            raise ValueError(
                f"mask shape {mask.shape} does not match grid {planes.shape[:2]}"
            )
        if mask.any():
            diffs = np.diff(planes[mask], axis=-1)
            if diffs.size and not (diffs.min() >= 0):
                raise ValueError("planes must be non-decreasing within each pixel")
        object.__setattr__(self, "planes", _freeze(planes))
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def plane_count(self) -> int:
        return self.planes.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[:2]


@dataclass(frozen=True)
class ProbabilityVolume:
    """Per-pixel discrete distribution over M hypothesis planes."""

    probs: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if probs.ndim != 3:
            raise ValueError(f"probs must be (rows, cols, M), got {probs.shape}")
        if mask.shape != probs.shape[:2]:
            raise ValueError(
                f"mask shape {mask.shape} does not match grid {probs.shape[:2]}"
            )
        if probs.size and probs.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if mask.any():
            sums = probs[mask].sum(axis=-1)
            err = np.abs(sums - 1.0).max()
            if err > _PROB_SUM_TOL:
                raise ValueError(
                    f"probabilities must sum to 1 per valid pixel "
                    f"(worst deviation {err:.3e})"
                )
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def plane_count(self) -> int:
        return self.probs.shape[2]


@dataclass(frozen=True)
class PixelRanges:
    """Per-pixel height search range [low, high] centered on an estimate.

    By construction ``high - low == 2 * sigma`` where sigma is the
    (floored) per-pixel uncertainty; at valid pixels ``low``, ``high``, the
    width and sigma are finite.  ``cell_size``/``nodata`` carry the metadata of
    the originating height grid.
    """

    low: np.ndarray
    high: np.ndarray
    sigma: np.ndarray
    mask: np.ndarray
    cell_size: float = 1.0
    nodata: float = -9999.0

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64)
        high = np.asarray(self.high, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if not (low.shape == high.shape == sigma.shape == mask.shape):
            raise ValueError("range component shapes must all match")
        if mask.any():
            with np.errstate(over="ignore", invalid="ignore"):
                width = high[mask] - low[mask]
            if not (np.isfinite(width).all() and np.isfinite(sigma[mask]).all()):
                raise ValueError("range bounds, width and sigma must be finite")
            if (sigma[mask] < 0).any():
                raise ValueError("sigma must be non-negative")
            if (low[mask] > high[mask]).any():
                raise ValueError("range low must not exceed high")
            width_err = np.abs(width - 2.0 * sigma[mask])
            scale = np.maximum(1.0, np.abs(sigma[mask]))
            if (width_err > 1e-9 * scale).any():
                raise ValueError("range width must equal 2 * sigma")
        object.__setattr__(self, "low", _freeze(low))
        object.__setattr__(self, "high", _freeze(high))
        object.__setattr__(self, "sigma", _freeze(sigma))
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
    var = np.einsum("rcm,rcm->rc", probs, dev * dev)
    return np.sqrt(np.maximum(var, 0.0))


def expected_height(planes: HypothesisPlanes, probs: ProbabilityVolume) -> HeightGrid:
    """Probability-weighted mean height per pixel (soft-argmax regression)."""
    if planes.planes.shape != probs.probs.shape:
        raise ValueError(
            f"planes {planes.planes.shape} and probs {probs.probs.shape} differ"
        )
    height = _expectation(probs.probs, planes.planes)
    mask = planes.mask & probs.mask
    height[~mask] = planes.nodata
    return HeightGrid(height, cell_size=planes.cell_size, nodata=planes.nodata)


def pixel_std(
    planes: HypothesisPlanes, probs: ProbabilityVolume, height: HeightGrid
) -> HeightGrid:
    """Per-pixel standard deviation of the plane distribution around ``height``.

    ``height`` is normally :func:`expected_height` of the same volume, but
    any externally supplied estimate with matching dimensions is accepted.
    """
    if planes.planes.shape != probs.probs.shape:
        raise ValueError(
            f"planes {planes.planes.shape} and probs {probs.probs.shape} differ"
        )
    if height.shape != planes.shape:
        raise ValueError(f"height {height.shape} does not match {planes.shape}")
    sigma = _spread(probs.probs, planes.planes, height.values)
    mask = planes.mask & probs.mask & height.mask
    sigma[~mask] = height.nodata
    return height.with_values(sigma)


def pixel_range(
    height: HeightGrid, sigma: HeightGrid, sigma_floor: float = 0.0
) -> PixelRanges:
    """Symmetric per-pixel range ``height +- max(sigma, sigma_floor)``.

    The floor keeps the search range usable when the distribution collapsed
    to (near) certainty; set it from the refinement schedule.

    Raises:
        ValueError: mismatched dimensions, negative sigma, a negative or
            non-finite floor, or a range too wide for float64.
    """
    if height.shape != sigma.shape:
        raise ValueError(f"height {height.shape} and sigma {sigma.shape} differ")
    if not (np.isfinite(sigma_floor) and sigma_floor >= 0):
        raise ValueError(f"sigma_floor must be finite and >= 0, got {sigma_floor}")
    mask = height.mask & sigma.mask
    if ((sigma.values < 0) & mask).any():
        raise ValueError("sigma values must be non-negative")
    spread = np.where(mask, np.maximum(sigma.values, sigma_floor), 0.0)
    center = np.where(mask, height.values, 0.0)
    return PixelRanges(
        low=center - spread,
        high=center + spread,
        sigma=spread,
        mask=mask,
        cell_size=height.cell_size,
        nodata=height.nodata,
    )


def _split_counts(
    total: int, drop: np.ndarray, rise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute ``total`` planes between the lower and upper subrange.

    Lower share is proportional to ``drop``, upper to ``rise``; the lower
    count rounds half-up and the upper takes the complement, so the total
    is conserved exactly.  Zero-slope pixels split evenly (lower gets
    floor(total / 2)) and both sides are clamped to at least one plane.
    """
    denom = drop + rise
    share = drop / np.where(denom > 0, denom, 1.0)
    n_below = np.floor(total * share + 0.5).astype(np.int64)
    n_below[denom == 0] = total // 2
    n_below = np.clip(n_below, 1, total - 1)
    return n_below, total - n_below


def _guided_layout(
    height: HeightGrid, ranges: PixelRanges, factors: SlopeFactors, plane_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid-level inputs of :func:`_guided_planes`.

    Returns the joint validity mask, the center, low and high of each pixel
    (0 where invalid) and the lower-subrange plane count.
    """
    rise = np.broadcast_to(np.asarray(factors.rise, dtype=np.float64), height.shape)
    drop = np.broadcast_to(np.asarray(factors.drop, dtype=np.float64), height.shape)
    mask = height.mask & ranges.mask
    center = np.where(mask, height.values, 0.0)
    low = np.where(mask, ranges.low, 0.0)
    high = np.where(mask, ranges.high, 0.0)
    n_below, _ = _split_counts(plane_count, drop, rise)
    return mask, center, low, high, n_below


def _guided_planes(
    center: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    n_below: np.ndarray,
    plane_count: int,
) -> np.ndarray:
    """Slope-guided (rows, cols, M) planes from per-pixel 2D inputs."""
    n_above = plane_count - n_below
    idx = np.arange(plane_count)
    below_count = n_below[:, :, None]
    step_below = (center - low)[:, :, None] / below_count
    planes = idx * step_below
    planes += low[:, :, None]

    above_count = n_above[:, :, None]
    span_above = (high - center)[:, :, None]
    step_above = np.where(above_count > 1, span_above / np.maximum(above_count - 1, 1), 0.0)
    upper = np.subtract(idx, below_count, dtype=np.float64)
    upper *= step_above
    upper += center[:, :, None]

    np.copyto(planes, upper, where=idx >= below_count)
    # Pin the top sample and clamp float drift: the sweep must stay inside
    # [low, high] and reach high whenever the upper subrange has >= 2 planes.
    planes[:, :, -1] = np.where(n_above >= 2, high, center)
    return np.clip(planes, low[:, :, None], high[:, :, None], out=planes)


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
        ValueError: plane_count < 2, mismatched shapes, or a volume over
            :data:`VOLUME_BUDGET_BYTES`.
    """
    if plane_count < 2:
        raise ValueError(f"plane_count must be >= 2, got {plane_count}")
    if height.shape != ranges.shape:
        raise ValueError(f"height {height.shape} and ranges {ranges.shape} differ")
    _check_volume(height.shape, plane_count)
    mask, center, low, high, n_below = _guided_layout(height, ranges, factors, plane_count)
    planes = _guided_planes(center, low, high, n_below, plane_count)
    return HypothesisPlanes(
        planes=planes, mask=mask, cell_size=height.cell_size, nodata=height.nodata
    )


def _equal_planes(low, high, plane_count: int) -> np.ndarray:
    """``plane_count`` evenly spaced planes from ``low`` to ``high`` inclusive.

    ``low`` and ``high`` are scalars or arrays of one shape S; the result
    has shape S + (plane_count,).
    """
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    steps = np.linspace(0.0, 1.0, plane_count)
    width = (high - low)[..., None]
    planes = low[..., None] + steps * width
    planes[..., -1] = high
    return planes


def equal_partition(ranges: PixelRanges, plane_count: int) -> HypothesisPlanes:
    """Baseline partition: ``plane_count`` evenly spaced planes per pixel.

    Planes run from ``low`` to ``high`` inclusive; a degenerate range
    yields ``plane_count`` copies of the single height.

    Raises:
        ValueError: plane_count < 2 or a volume over
            :data:`VOLUME_BUDGET_BYTES`.
    """
    if plane_count < 2:
        raise ValueError(f"plane_count must be >= 2, got {plane_count}")
    _check_volume(ranges.shape, plane_count)
    return HypothesisPlanes(
        planes=_equal_planes(ranges.low, ranges.high, plane_count),
        mask=ranges.mask,
        cell_size=ranges.cell_size,
        nodata=ranges.nodata,
    )
