"""Gaussian height correction.

Height estimates on locally planar terrain should not jump between adjacent
pixels, so a 3x3 Gaussian-weighted average is applied to pull outliers back
toward their neighborhood.  The kernel is the classic binomial pattern
1:2:1 / 2:4:2 / 1:2:1 (divided by 16) multiplied by a single scalar
``scale``; at scale 1 the weights form a partition of unity and constant
terrain passes through unchanged.

The scalar is the one tunable parameter: :func:`fit_scale` solves for the
value that best maps a degraded grid onto a reference in the least-squares
sense, in closed form.

Border and nodata handling match :mod:`terraslope.slope` exactly, so every
3x3 operation in the package sees the same windows.  :func:`correct` smooths
row strips of :data:`_STRIP_BYTES` of window stack, never a whole-grid stack
(nine grids), and gives every output bit of the whole-grid smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raster import HeightGrid, _adopt, _cells, _check_real
from .slope import _strip, window_stack

#: Base 3x3 pattern in row-major order; sums to exactly 1.
BASE_WEIGHTS = np.array([1, 2, 1, 2, 4, 2, 1, 2, 1], dtype=np.float64) / 16.0
BASE_WEIGHTS.flags.writeable = False

#: Bytes of window stack per row strip of :func:`correct`: 28 rows at 512 columns.
_STRIP_BYTES = 2**20


@dataclass(frozen=True)
class GaussianKernel:
    """3x3 smoothing kernel: the fixed binomial pattern times ``scale``.

    The nine weights sum to exactly ``scale``; at the default scale of 1
    the kernel is a proper averaging filter.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        _check_real("kernel scale", self.scale)

    @property
    def weights(self) -> np.ndarray:
        """Row-major (9,) weight vector."""
        return self.scale * BASE_WEIGHTS


def _smooth(grid: HeightGrid, weights: np.ndarray) -> np.ndarray:
    """Weighted sums of ``grid``'s 3x3 windows; meaningful at valid pixels only.

    :func:`correct` and the pipeline in :mod:`terraslope.simulate` run it on
    row strips cut by :func:`~terraslope.slope._strip`: ``_Rows`` that carry
    only the ``values`` and ``mask`` read here.  The matmul gives a row the
    same bits on a strip as on the whole grid.
    """
    return window_stack(grid) @ weights


def correct(height: HeightGrid, kernel: GaussianKernel = GaussianKernel()) -> HeightGrid:
    """Smooth a height grid with the weighted 3x3 kernel.

    Windows use replicate padding at borders, and invalid neighbors
    contribute the center value.  Row strips are smoothed one at a time into
    one output grid (see the module), adopted without a copy by the result,
    which shares ``height``'s metadata and mask.

    Raises:
        ValueError: a kernel scale that takes a smoothed height at a valid
            pixel out of the finite range.
    """
    weights = kernel.weights
    step = max(1, _STRIP_BYTES // (72 * height.cols))
    smoothed = np.empty(height.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, height.rows, step):
            tile = slice(start, min(start + step, height.rows))
            strip, inner = _strip(height.values, height.mask, tile)
            smoothed[tile] = _smooth(strip, weights)[inner]
    if not np.isfinite(smoothed).all(where=height.mask):
        raise ValueError(f"kernel scale {kernel.scale} overflows the corrected height")
    return _adopt(height, smoothed)


def fit_scale(noisy: HeightGrid, target: HeightGrid) -> GaussianKernel:
    """Least-squares fit of the kernel scale mapping ``noisy`` onto ``target``.

    With C the unit-scale smoothing of ``noisy``, the minimizer of
    ``sum((scale * C - target)^2)`` over jointly valid pixels is
    ``<C, target> / <C, C>``.

    Raises:
        ValueError: mismatched dimensions, no jointly valid pixel, a
            base-smoothed input that is identically zero on the joint mask
            (the scale is then unidentifiable), or dot products that leave
            the finite range.
    """
    if noisy.shape != target.shape:
        raise ValueError(f"noisy {noisy.shape} and target {target.shape} differ")
    smoothed = correct(noisy, GaussianKernel(scale=1.0))
    joint = smoothed.mask & target.mask
    if not joint.any():
        raise ValueError("no jointly valid pixel to fit on")
    c = _cells(smoothed.values, joint)  # a view on an all-valid pair
    del smoothed  # two grids at most: with holes, free the smoothing before gathering the target
    t = _cells(target.values, joint)
    with np.errstate(over="ignore", invalid="ignore"):
        cc = float(np.dot(c, c))
        ct = float(np.dot(c, t))
    if not (math.isfinite(cc) and math.isfinite(ct)):
        raise ValueError("the scale fit overflows: its dot products are not finite")
    if cc == 0.0:
        raise ValueError("smoothed input is identically zero; scale is unidentifiable")
    return GaussianKernel(scale=ct / cc)
