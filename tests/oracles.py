"""Independent brute-force reference implementations.

Everything here except :func:`reference_fractal`,
:func:`reference_oracle_probs`, :func:`reference_smooth`,
:func:`reference_pipeline` and :func:`reference_loss` is written as plain
per-pixel Python loops over scalar values, deliberately sharing no code
with the library: these are the oracles the vectorized implementations are
checked against.

:func:`reference_fractal` is the fractal terrain generator written with
index grids and masked gathers and scatters; the strided-view generator of
``simulate`` must reproduce it bit for bit.

:func:`reference_oracle_probs` is the matcher's softmax on a C-order
(rows, cols, M) volume, every step along the last axis; the plane-major
softmax of ``simulate`` must reproduce it bit for bit.

:func:`reference_smooth` is the whole-grid smoothing: one (rows, cols, 9)
window stack of the whole grid times the weights.  ``correction.correct``
smooths in row strips and must reproduce it bit for bit.

:func:`reference_pipeline` is the whole-volume form of
``simulate.run_pipeline``: it composes the public per-step functions, each
building full (rows, cols, M) volumes.  The row-tiled pipeline must
reproduce it bit for bit.  :func:`reference_loss` composes the public
stage-list losses, which ``losses.loss_report`` must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from terraslope import losses
from terraslope.correction import GaussianKernel, correct
from terraslope.metrics import DEFAULT_THRESHOLDS, evaluate
from terraslope.partition import (
    PixelRanges,
    equal_partition,
    expected_height,
    pixel_range,
    pixel_std,
    slope_guided_partition,
)
from terraslope.simulate import SimulationResult, oracle_matcher
from terraslope.slope import slope_direction_map, slope_factor_maps, window_stack


def window_values(values, nodata, row, col):
    """3x3 window of (row, col) under replicate padding and nodata rules.

    Out-of-bounds positions replicate the nearest in-bounds pixel; any
    sampled nodata value is replaced by the center value.
    """
    rows = len(values)
    cols = len(values[0])
    center = values[row][col]
    out = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r = min(max(row + dr, 0), rows - 1)
            c = min(max(col + dc, 0), cols - 1)
            v = values[r][c]
            out.append(center if v == nodata else v)
    return out


def brute_slope(values, nodata):
    """Per-pixel |window max - center|; nodata cells propagate."""
    rows = len(values)
    cols = len(values[0])
    out = [[nodata] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if values[r][c] == nodata:
                continue
            win = window_values(values, nodata, r, c)
            out[r][c] = abs(max(win) - values[r][c])
    return out


def brute_direction(values, nodata):
    """Per-pixel direction code: 4 if the center attains the window max,
    else 8 minus the smallest row-major index attaining it."""
    rows = len(values)
    cols = len(values[0])
    out = [[4] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if values[r][c] == nodata:
                continue
            win = window_values(values, nodata, r, c)
            peak = max(win)
            if win[4] == peak:
                out[r][c] = 4
            else:
                out[r][c] = 8 - win.index(peak)
    return out


def brute_factors(values, nodata):
    """Per-pixel (rise, drop): |window max - center| and |window min - center|;
    both 0 at nodata cells."""
    rows = len(values)
    cols = len(values[0])
    rise = [[0.0] * cols for _ in range(rows)]
    drop = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if values[r][c] == nodata:
                continue
            win = window_values(values, nodata, r, c)
            rise[r][c] = abs(max(win) - values[r][c])
            drop[r][c] = abs(min(win) - values[r][c])
    return rise, drop


def scalar_split(total, drop, rise):
    """Plane-count split between lower/upper subrange for one pixel."""
    if drop + rise == 0:
        n_below = total // 2
    else:
        n_below = math.floor(total * drop / (drop + rise) + 0.5)
    n_below = min(max(n_below, 1), total - 1)
    return n_below, total - n_below


def scalar_partition(center, low, high, rise, drop, total):
    """Direct transcription of the slope-guided sampling for one pixel."""
    n_below, n_above = scalar_split(total, drop, rise)
    planes = []
    step_below = (center - low) / n_below
    for i in range(n_below):
        planes.append(low + i * step_below)
    if n_above == 1:
        planes.append(center)
    else:
        step_above = (high - center) / (n_above - 1)
        for j in range(n_above):
            planes.append(center + j * step_above)
    return planes


def naive_correct(values, nodata, scale):
    """9-term weighted window sum with weights scale/16 * [1 2 1 2 4 2 1 2 1]."""
    base = [1, 2, 1, 2, 4, 2, 1, 2, 1]
    rows = len(values)
    cols = len(values[0])
    out = [[nodata] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if values[r][c] == nodata:
                continue
            win = window_values(values, nodata, r, c)
            out[r][c] = sum(scale * w / 16.0 * v for w, v in zip(base, win))
    return out


def reference_smooth(grid, weights):
    """``window_stack(grid) @ weights`` over the whole grid; nodata at invalid pixels."""
    smoothed = window_stack(grid) @ weights
    smoothed[~grid.mask] = grid.nodata
    return smoothed


def cell_loop_ascii_text(grid):
    """ESRI ASCII grid text of ``grid``, formatting each cell on its own.

    Every number goes through ``f"{v:.6g}"``; a cell outside the grid's
    mask is written as the NODATA_VALUE token of its sentinel.
    """
    token = f"{grid.nodata:.6g}"
    lines = [
        f"NCOLS {grid.cols}",
        f"NROWS {grid.rows}",
        f"XLLCORNER {grid.xllcorner:.6g}",
        f"YLLCORNER {grid.yllcorner:.6g}",
        f"CELLSIZE {grid.cell_size:.6g}",
        f"NODATA_VALUE {token}",
    ]
    for row, valid in zip(grid.values.tolist(), grid.mask.tolist()):
        lines.append(" ".join(f"{v:.6g}" if ok else token for v, ok in zip(row, valid)))
    return "\n".join(lines) + "\n"


def split_float_body(lines, first_line, expected):
    """Cell values of an ASCII grid body by ``float`` over ``str.split``.

    ``lines`` are the body's lines as a text file yields them, the first
    one numbered ``first_line``.  Returns the ``expected`` values as a list,
    or the reader's message for the first fault in file order: a
    non-numeric token, a non-finite value, one value too many, or too few.
    """
    values = []
    for lineno, line in enumerate(lines, start=first_line):
        for token in line.split():
            try:
                v = float(token)
            except ValueError:
                return f"line {lineno}: non-numeric token {token!r}"
            if not math.isfinite(v):
                return f"line {lineno}: non-finite value {token!r}"
            if len(values) == expected:
                return f"line {lineno}: value count mismatch, expected {expected} values"
            values.append(v)
    if len(values) != expected:
        return (
            f"value count mismatch: header declares {expected} values, "
            f"body has {len(values)}"
        )
    return values


def golden_section_minimize(f, lo, hi, tol=1e-9):
    """Golden-section search for a unimodal scalar minimum on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def scalar_metrics(est, gt, est_nodata, gt_nodata, thresholds):
    """Direct transcription of the evaluation metrics for list-of-list grids.

    Returns (mae, rmse, pct_below dict, median, completeness, n_joint).
    """
    errors = []
    est_valid = 0
    rows = len(est)
    cols = len(est[0])
    for r in range(rows):
        for c in range(cols):
            e_ok = est[r][c] != est_nodata
            g_ok = gt[r][c] != gt_nodata
            if e_ok:
                est_valid += 1
            if e_ok and g_ok:
                errors.append(abs(est[r][c] - gt[r][c]))
    n = len(errors)
    if n == 0:
        raise ValueError("empty joint-valid set")
    mae = sum(errors) / n
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    pct = {t: 100.0 * sum(1 for e in errors if e < t) / n for t in thresholds}
    ordered = sorted(errors)
    if n % 2 == 1:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    completeness = 100.0 * est_valid / (rows * cols)
    return mae, rmse, pct, median, completeness, n


# A huge roughness overflows the displacement; the span check reports it in
# place of numpy's warnings.
@np.errstate(over="ignore", invalid="ignore")
def reference_fractal(spec, rng):
    """Midpoint-displacement terrain, rescaled to span [0, amplitude]."""
    size = 1
    while size + 1 < max(spec.rows, spec.cols):
        size *= 2
    n = size + 1
    field = np.zeros((n, n), dtype=np.float64)
    field[0, 0], field[0, -1], field[-1, 0], field[-1, -1] = rng.uniform(
        0.0, spec.amplitude, 4
    )
    disp = spec.amplitude * spec.roughness
    step = size
    while step >= 2:
        half = step // 2
        # Diamond step: square centers average their four corners.
        rs = np.arange(half, n, step)
        rr, cc = np.meshgrid(rs, rs, indexing="ij")
        avg = (
            field[rr - half, cc - half]
            + field[rr - half, cc + half]
            + field[rr + half, cc - half]
            + field[rr + half, cc + half]
        ) / 4.0
        field[rr, cc] = avg + rng.uniform(-0.5, 0.5, rr.shape) * disp
        # Square step: edge midpoints average their in-bounds neighbors.
        for row_off, col_off in ((half, 0), (0, half)):
            rs = np.arange(row_off, n, step)
            cs = np.arange(col_off, n, step)
            rr, cc = np.meshgrid(rs, cs, indexing="ij")
            total = np.zeros(rr.shape)
            count = np.zeros(rr.shape)
            for dr, dc in ((-half, 0), (half, 0), (0, -half), (0, half)):
                r2 = rr + dr
                c2 = cc + dc
                ok = (r2 >= 0) & (r2 < n) & (c2 >= 0) & (c2 < n)
                total[ok] += field[r2[ok], c2[ok]]
                count += ok
            field[rr, cc] = total / count + rng.uniform(-0.5, 0.5, rr.shape) * disp
        disp *= spec.roughness
        step = half
    field = field[: spec.rows, : spec.cols]
    span = field.max() - field.min()
    if not np.isfinite(span):
        raise ValueError(
            f"roughness {spec.roughness} drives the fractal displacement out of the finite range"
        )
    if span == 0.0:
        return np.zeros_like(field)
    return (field - field.min()) / span * spec.amplitude


def reference_oracle_probs(planes, target, temperature, valid):
    """Softmax of ``-|plane - target| / temperature`` on a C-order (rows, cols, M) volume.

    ``planes`` is (rows, cols, M) in any layout, or one (M,) vector; the
    logits are laid out C-order, and the maximum and the sum reduce their
    last axis.  Pixels where ``valid`` is False get the uniform distribution.
    """
    probs = np.subtract(planes, target[:, :, None], order="C")
    np.abs(probs, out=probs)
    probs /= -temperature
    probs -= probs.max(axis=2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    probs[~valid] = 1.0 / probs.shape[2]
    return probs


def reference_pipeline(gt, global_range, stages, seed=0):
    """Coarse-to-fine run over whole (rows, cols, M) volumes, one stage per config."""
    low, high = float(global_range[0]), float(global_range[1])
    heights, reports, spacings = [], [], []
    planes = probs = height = None
    for stage_index, cfg in enumerate(stages):
        if stage_index == 0:
            ranges = PixelRanges(
                low=np.full(gt.shape, low), high=np.full(gt.shape, high), mask=gt.mask
            )
            planes = equal_partition(ranges, cfg.plane_count)
        else:
            sigma = pixel_std(planes, probs, height)
            ranges = pixel_range(height, sigma, cfg.sigma_floor)
            if cfg.use_slope_partition:
                factors = slope_factor_maps(height)
                planes = slope_guided_partition(height, ranges, factors, cfg.plane_count)
            else:
                planes = equal_partition(ranges, cfg.plane_count)
        probs = oracle_matcher(
            planes, gt, cfg.temperature, cfg.noise, seed=len(stages) * seed + stage_index
        )
        height = expected_height(planes, probs, like=gt)
        if cfg.use_height_correction:
            height = correct(height, GaussianKernel(scale=1.0))
        heights.append(height)
        reports.append(evaluate(height, gt, thresholds=DEFAULT_THRESHOLDS))
        gaps = np.diff(planes.planes[planes.mask], axis=-1)
        spacings.append(float(gaps.max()) if gaps.size else 0.0)
    return SimulationResult(
        heights=tuple(heights), reports=tuple(reports), max_plane_spacing=tuple(spacings)
    )


def reference_loss(heights, gt):
    """The loss bundle of per-stage heights, composed from the public stage-list losses."""
    directions = [slope_direction_map(h) for h in heights]
    pseudo_gt_dir = slope_direction_map(gt)
    stage_pairs = tuple(
        (losses.stage_height_loss(h, gt), losses.stage_direction_loss(d, pseudo_gt_dir))
        for h, d in zip(heights, directions)
    )
    h_loss = losses.height_loss(heights, [gt] * len(heights))
    d_loss = losses.direction_loss(directions, [pseudo_gt_dir] * len(heights))
    return losses.LossReport(
        height_loss=h_loss,
        direction_loss=d_loss,
        overall=losses.overall_loss(h_loss, d_loss),
        per_stage=stage_pairs,
    )
