"""DSM evaluation metrics over pairs of height grids.

All error statistics run over the jointly valid cells of the estimate and
the ground truth (the intersection of both validity masks):

* MAE -- mean absolute height difference,
* RMSE -- root mean squared height difference,
* percentage of cells with absolute error strictly below each threshold,
* median absolute error (even counts take the midpoint of the two central
  order statistics),
* completeness -- percentage of *all* grid cells that hold a valid value
  in the estimate, regardless of ground-truth validity.

Grids are assumed pre-aligned; no shift search is performed before scoring.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .raster import HeightGrid, _cells, atomic_output

#: Default thresholds (meters) for the percent-below metrics.
DEFAULT_THRESHOLDS = (2.5, 7.5)


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle from one estimate/ground-truth comparison."""

    mae: float
    rmse: float
    pct_below: dict[float, float]
    median_abs: float
    completeness: float
    joint_valid_count: int


@dataclass(frozen=True)
class Mvs3dReport:
    """Reduced metric bundle: RMSE, percent below 1 m, and median error."""

    rmse: float
    pct_below_1m: float
    median_abs: float
    joint_valid_count: int


def _joint_cells(est_mask: np.ndarray, gt_mask: np.ndarray) -> np.ndarray:
    """The cells valid in both masks, which must share a shape and a valid cell.

    Grids that share one mask, as a pipeline stage and its ground truth do,
    get that mask back, not a copy.
    """
    if est_mask.shape != gt_mask.shape:
        raise ValueError(f"estimate {est_mask.shape} and ground truth {gt_mask.shape} differ")
    joint = est_mask if est_mask is gt_mask else est_mask & gt_mask
    if not joint.any():
        raise ValueError("no jointly valid grid cell to evaluate")
    return joint


def _abs_error(est: HeightGrid, gt: HeightGrid, out: np.ndarray | None = None) -> np.ndarray:
    """``|est - gt|`` over the jointly valid cells (see :func:`_joint_cells`), in row-major order.

    The result is written into ``out`` when given.  On an all-valid pair the
    cells are read as views of the grids (:func:`~terraslope.raster._cells`),
    so the result is the only array made.
    """
    joint = _joint_cells(est.mask, gt.mask)
    # An overflow leaves an infinite error, which _finite_mean reports.
    with np.errstate(over="ignore"):
        diff = np.subtract(_cells(est.values, joint), _cells(gt.values, joint), out=out)
    return np.abs(diff, out=diff)


def _finite_mean(err: np.ndarray, what: str) -> float:
    """The mean of the per-cell errors ``err``, or a ``ValueError`` if it is not finite."""
    with np.errstate(over="ignore"):
        mean = float(err.mean())
    if not np.isfinite(mean):
        raise ValueError(f"mean {what} height error is beyond the float64 range")
    return mean


def _count_below(err: np.ndarray, threshold: float) -> int:
    """The number of ``err`` values below ``threshold``.

    Counted over slices of 2**16 values, so no boolean array the size of
    ``err`` is made.
    """
    step = 2**16
    return sum(
        int(np.count_nonzero(err[i : i + step] < threshold)) for i in range(0, err.size, step)
    )


def evaluate(
    est: HeightGrid,
    gt: HeightGrid,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> EvalReport:
    """Score an estimated DSM against ground truth.

    Works in one buffer of absolute errors (:func:`_abs_error`): the MAE
    and the percent-below values read it, the MSE squares it in place, and
    the median partitions it in place once the errors are written again.
    On an all-valid pair nothing else the size of a grid is made, and on a
    pipeline stage and its ground truth, which share one mask, not even a
    joint mask.

    Raises:
        ValueError: a threshold that is not finite, mismatched dimensions,
            an empty joint-valid set, or an error statistic beyond the
            float64 range.
    """
    thresholds = [float(t) for t in thresholds]
    for t in thresholds:
        if not math.isfinite(t):
            raise ValueError(f"threshold {t} is not finite")
    err = _abs_error(est, gt)
    n = err.size
    # The errors are non-negative, so once their sum is finite, so is any sum
    # of two of them: the median cannot overflow.
    mae = _finite_mean(err, "absolute")
    pct_below = {t: 100.0 * _count_below(err, t) / n for t in thresholds}
    with np.errstate(over="ignore"):
        mse = _finite_mean(np.multiply(err, err, out=err), "squared")
    median = np.median(_abs_error(est, gt, out=err), overwrite_input=True)
    return EvalReport(
        mae=mae,
        rmse=float(np.sqrt(mse)),
        pct_below=pct_below,
        median_abs=float(median),
        completeness=100.0 * est.valid_count / (est.rows * est.cols),
        joint_valid_count=n,
    )


def mvs3d_report(est: HeightGrid, gt: HeightGrid) -> Mvs3dReport:
    """Benchmark preset: RMSE, percent of errors below 1 m, median error."""
    full = evaluate(est, gt, thresholds=(1.0,))
    return Mvs3dReport(
        rmse=full.rmse,
        pct_below_1m=full.pct_below[1.0],
        median_abs=full.median_abs,
        joint_valid_count=full.joint_valid_count,
    )


def _format_threshold(t: float) -> str:
    return f"{t:g}"


def report_items(report: EvalReport) -> list[tuple[str, float]]:
    """Flatten a report to (key, value) pairs in a fixed order.

    Keys: ``mae``, ``rmse``, one ``lt_<t>`` per threshold, ``median``,
    ``comp``.
    """
    items: list[tuple[str, float]] = [("mae", report.mae), ("rmse", report.rmse)]
    for t in sorted(report.pct_below):
        items.append((f"lt_{_format_threshold(t)}", report.pct_below[t]))
    items.append(("median", report.median_abs))
    items.append(("comp", report.completeness))
    return items


def format_report(report: EvalReport) -> str:
    """``key=value`` text form, one metric per line."""
    return "\n".join(f"{k}={v:.6f}" for k, v in report_items(report))


def write_report_csv(report: EvalReport, path: str | os.PathLike) -> None:
    """Write a report as flat CSV with a ``metric,value`` header row."""
    with atomic_output(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for k, v in report_items(report):
            writer.writerow([k, f"{v:.6f}"])
