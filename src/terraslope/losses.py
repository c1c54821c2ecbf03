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

from .raster import HeightGrid, SlopeDirectionGrid
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


def _check_weights(weights: Sequence[float], n_stages: int) -> None:
    if len(weights) != n_stages:
        raise ValueError(f"expected {n_stages} stage weights, got {len(weights)}")
    if any(w <= 0 for w in weights):
        raise ValueError(f"stage weights must be positive, got {tuple(weights)}")


def _weighted_sum(values: Sequence[float], weights: Sequence[float]) -> float:
    """``sum(w * v)`` accumulated in stage order from 0.0."""
    total = 0.0
    for v, w in zip(values, weights):
        total += w * v
    return total


def _joint_abs_error(pred: HeightGrid, gt: HeightGrid) -> np.ndarray:
    """``|pred - gt|`` over the jointly valid pixels of one stage."""
    if pred.shape != gt.shape:
        raise ValueError(f"pred {pred.shape} and gt {gt.shape} differ")
    joint = pred.mask & gt.mask
    if not joint.any():
        raise ValueError("no jointly valid pixel in stage")
    return np.abs(pred.values[joint] - gt.values[joint])


def stage_height_loss(pred: HeightGrid, gt: HeightGrid) -> float:
    """Mean absolute height difference over jointly valid pixels."""
    return float(_joint_abs_error(pred, gt).mean())


def _stage_smooth_l1(pred: HeightGrid, gt: HeightGrid, beta: float = 1.0) -> float:
    err = _joint_abs_error(pred, gt)
    per_pixel = np.where(err < beta, 0.5 * err * err / beta, err - 0.5 * beta)
    return float(per_pixel.mean())


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
        ValueError: stage count mismatch, non-positive weight, mismatched
            grid dimensions, or a stage with zero jointly valid pixels.
    """
    if len(pred) != len(gt):
        raise ValueError(f"{len(pred)} predictions vs {len(gt)} ground truths")
    weights = stage_weights(len(pred)) if weights is None else weights
    _check_weights(weights, len(pred))
    stage_loss = _stage_smooth_l1 if smooth else stage_height_loss
    return _weighted_sum([stage_loss(p, g) for p, g in zip(pred, gt)], weights)


def stage_direction_loss(pred: SlopeDirectionGrid, gt: SlopeDirectionGrid) -> float:
    """Mean squared difference of direction codes over jointly valid pixels."""
    if pred.codes.shape != gt.codes.shape:
        raise ValueError(
            f"pred {pred.codes.shape} and gt {gt.codes.shape} differ"
        )
    joint = pred.mask & gt.mask
    if not joint.any():
        raise ValueError("no jointly valid pixel in stage")
    diff = pred.codes[joint].astype(np.float64) - gt.codes[joint]
    return float((diff * diff).mean())


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
    weights = stage_weights(len(pred_dirs)) if weights is None else weights
    _check_weights(weights, len(pred_dirs))
    return _weighted_sum(
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
    weights = stage_weights(len(per_stage))
    h_loss = _weighted_sum([h for h, _ in per_stage], weights)
    d_loss = _weighted_sum([d for _, d in per_stage], weights)
    return LossReport(
        height_loss=h_loss,
        direction_loss=d_loss,
        overall=overall_loss(h_loss, d_loss),
        per_stage=tuple(per_stage),
    )
