"""Training-criterion evaluation over staged height and direction maps.

Two criteria are computed per refinement stage and combined with per-stage
weights.  By default the weights follow one rule for any number of stages
(:func:`stage_weights`): the finest stage weighs 2 and each coarser stage
half the next one, so three stages weigh 0.5 / 1.0 / 2.0, coarse to fine.
The criteria are:

* height loss -- mean absolute height difference over jointly valid pixels;
* direction loss -- mean squared difference between direction codes,
  compared as plain real numbers.

The overall criterion is a weighted sum of the two totals (default weights
0.5 each); :func:`loss_report` derives all of them from per-stage heights.
Everything here is evaluation-only; nothing is differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import _abs_error, _finite_mean, _joint_cells
from .raster import HeightGrid, SlopeDirectionGrid, _cells
from .slope import slope_direction_map


@dataclass(frozen=True)
class LossReport:
    """Loss bundle for one evaluation pass.

    ``per_stage`` holds the unweighted (height, direction) means per stage;
    ``height_loss``/``direction_loss`` are the stage-weighted sums and
    ``overall`` their combination.
    """

    height_loss: float
    direction_loss: float
    overall: float
    per_stage: tuple[tuple[float, float], ...]


def stage_weights(n: int) -> tuple[float, ...]:
    """Default weights of ``n`` stages, coarse to fine: ``2 ** (k + 2 - n)``.

    The finest stage weighs 2 and each coarser stage half the next one;
    three stages give ``(0.5, 1.0, 2.0)``.
    """
    return tuple(2.0 ** (k + 2 - n) for k in range(n))


def _staged(values: Sequence[float], weights: Sequence[float] | None = None) -> float:
    """``sum(w * v)`` over the stages, accumulated in stage order from 0.0.

    ``weights`` defaults to ``stage_weights(len(values))``.
    """
    if weights is None:
        weights = stage_weights(len(values))
    if len(weights) != len(values):
        raise ValueError(f"expected {len(values)} stage weights, got {len(weights)}")
    if not all(0 < w < np.inf for w in weights):
        raise ValueError(f"stage weights must be finite and positive, got {tuple(weights)}")
    total = 0.0
    for v, w in zip(values, weights):
        total += w * v
    return total


def stage_height_loss(pred: HeightGrid, gt: HeightGrid) -> float:
    """Mean absolute height difference over jointly valid pixels."""
    return _finite_mean(_abs_error(pred, gt), "absolute")


def _stage_smooth_l1(pred: HeightGrid, gt: HeightGrid, beta: float = 1.0) -> float:
    err = _abs_error(pred, gt)
    # np.where evaluates both branches, so the square of an error that takes
    # the linear branch may overflow unused.
    with np.errstate(over="ignore"):
        per_pixel = np.where(err < beta, 0.5 * err * err / beta, err - 0.5 * beta)
    return _finite_mean(per_pixel, "smooth-L1")


def height_loss(
    pred: Sequence[HeightGrid],
    gt: Sequence[HeightGrid],
    weights: Sequence[float] | None = None,
    smooth: bool = False,
) -> float:
    """Stage-weighted mean absolute height error.

    Each stage contributes ``weight * mean(|pred - gt|)`` over its jointly
    valid pixels.  With ``smooth=True`` the per-pixel term switches to the
    smooth-L1 form with a 1 m transition point.  ``weights`` defaults to
    ``stage_weights(len(pred))``.

    Raises:
        ValueError: stage count mismatch, mismatched grid dimensions, a
            stage with zero jointly valid pixels, a stage mean beyond the
            float64 range, or a weight that is not finite and positive.
    """
    if len(pred) != len(gt):
        raise ValueError(f"{len(pred)} predictions vs {len(gt)} ground truths")
    stage_loss = _stage_smooth_l1 if smooth else stage_height_loss
    return _staged([stage_loss(p, g) for p, g in zip(pred, gt)], weights)


def stage_direction_loss(pred: SlopeDirectionGrid, gt: SlopeDirectionGrid) -> float:
    """Mean squared difference of direction codes over jointly valid pixels.

    Codes are compared as real numbers.  A code is
    ``8 - (3 * (dr + 1) + (dc + 1))`` for the maximum's offset ``(dr, dc)``,
    so two directions cost ``(3 * d_dr + d_dc) ** 2`` apart: an up/down
    flip (7 and 1) costs 36, a left/right flip (5 and 3) 4, and the two
    diagonal flips 64 (0 and 8) and 16 (2 and 6).

    The squared differences are summed as integers, and the exact sum is
    divided once by the count, which rounds as a float64 mean of them does.
    """
    joint = _joint_cells(pred.mask, gt.mask)
    diff = np.subtract(_cells(pred.codes, joint), _cells(gt.codes, joint), dtype=np.int64)
    diff *= diff
    return int(diff.sum()) / diff.size


def direction_loss(
    pred_dirs: Sequence[SlopeDirectionGrid],
    pseudo_gt_dirs: Sequence[SlopeDirectionGrid],
    weights: Sequence[float] | None = None,
) -> float:
    """Stage-weighted mean squared error between direction-code maps.

    The reference maps are pseudo ground truth: direction maps computed
    from the ground-truth height grids, so no extra supervision is needed.
    Codes are compared as real numbers.  ``weights`` defaults to
    ``stage_weights(len(pred_dirs))``.
    """
    if len(pred_dirs) != len(pseudo_gt_dirs):
        raise ValueError(
            f"{len(pred_dirs)} predictions vs {len(pseudo_gt_dirs)} references"
        )
    return _staged(
        [stage_direction_loss(p, g) for p, g in zip(pred_dirs, pseudo_gt_dirs)], weights
    )


def overall_loss(h: float, s: float, l1: float = 0.5, l2: float = 0.5) -> float:
    """Weighted combination of the height and direction criteria."""
    return l1 * h + l2 * s


def loss_report(heights: Sequence[HeightGrid], gt: HeightGrid) -> LossReport:
    """The loss bundle of per-stage ``heights`` against one ground truth.

    Each stage's direction map and the pseudo ground-truth direction map
    are :func:`~terraslope.slope.slope_direction_map` of the stage height
    and of ``gt``.  The totals weigh the stages by :func:`stage_weights` and
    equal, bit for bit, :func:`height_loss` and :func:`direction_loss` with
    their default weights; ``overall`` is :func:`overall_loss` of the two.
    """
    pseudo_gt_dir = slope_direction_map(gt)
    per_stage = [
        (stage_height_loss(h, gt), stage_direction_loss(slope_direction_map(h), pseudo_gt_dir))
        for h in heights
    ]
    return _report(per_stage)


def _report(per_stage: Sequence[tuple[float, float]]) -> LossReport:
    """The loss bundle of per-stage (height, direction) losses, coarse to fine.

    The one stage-weighted fold of :func:`loss_report` and of the run
    directory's ``loss.txt``.
    """
    h_loss = _staged([h for h, _ in per_stage])
    d_loss = _staged([d for _, d in per_stage])
    return LossReport(
        height_loss=h_loss,
        direction_loss=d_loss,
        overall=overall_loss(h_loss, d_loss),
        per_stage=tuple(per_stage),
    )
