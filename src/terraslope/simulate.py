"""Coarse-to-fine refinement harness on synthetic terrain.

The harness replaces the photometric matching of a real multi-view stereo
network with an oracle: a softmax over the distance between each hypothesis
plane and the (noise-perturbed) ground-truth height.  Everything around the
matcher is the real machinery -- partition, height correction, slope
computation, losses, and metrics -- so A/B experiments isolate exactly the
partition and correction contributions.

The pipeline is a fold over any number of stages, one per
:class:`StageConfig`; the default schedule has three.  The first stage
sweeps equally spaced planes over the global height range shared by all
pixels; every later stage recenters a per-pixel range on the previous
estimate, sized by the distribution spread (with a per-stage floor), and
optionally reallocates planes by local slope.  Each stage streams its
hypothesis volume once, in row tiles (see :func:`run_pipeline`), so memory
grows with the grid, not with grid times plane count.

A run returns per-stage heights, evaluations and plane spacings only; the
slope and direction maps and losses derived from the heights are computed
where they are written (:func:`write_run_directory`).

Paired runs are comparable seed-for-seed: the matcher noise field depends
only on the run seed, the stage count and the stage index, never on the
configuration, so toggling partition or correction changes nothing else
(common random numbers).
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import losses
from .correction import GaussianKernel, _smooth
from .metrics import DEFAULT_THRESHOLDS, EvalReport, evaluate, write_report_csv
from .partition import (
    HypothesisPlanes,
    ProbabilityVolume,
    _check_volume,
    _equal_planes,
    _expectation,
    _guided_layout,
    _guided_planes,
    _spread,
    pixel_range,
)
from .raster import (
    HeightGrid,
    atomic_output,
    render_pgm,
    write_ascii_grid,
)
from .slope import (
    direction_as_grid,
    slope_direction_map,
    slope_factor_maps,
    slope_map,
)

TERRAIN_KINDS = ("ramp", "sinusoidal", "gaussian-hills", "fractal")

#: Published-style refinement schedule: plane counts per stage and the
#: uncertainty floors (half of plane count times stage interval: 32*5/2 and
#: 8*2.5/2).  Stage 1 sweeps the global range, so its floor is unused.
DEFAULT_PLANE_SCHEDULE = (64, 32, 8)
DEFAULT_SIGMA_FLOORS = (0.0, 80.0, 10.0)


@dataclass(frozen=True)
class StageConfig:
    """Parameters of one refinement stage."""

    plane_count: int
    sigma_floor: float = 0.0
    use_slope_partition: bool = False
    use_height_correction: bool = False
    temperature: float = 1.0
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.plane_count < 2:
            raise ValueError(f"plane_count must be >= 2, got {self.plane_count}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if not (math.isfinite(self.sigma_floor) and self.sigma_floor >= 0):
            raise ValueError(
                f"sigma_floor must be finite and >= 0, got {self.sigma_floor}"
            )


def default_stage_configs(
    temperature: float = 2.0,
    noise: float = 3.0,
    use_slope_partition: bool = True,
    use_height_correction: bool = True,
) -> tuple[StageConfig, ...]:
    """Three-stage schedule with the default plane counts and floors."""
    return tuple(
        StageConfig(
            plane_count=m,
            sigma_floor=floor,
            use_slope_partition=use_slope_partition,
            use_height_correction=use_height_correction,
            temperature=temperature,
            noise=noise,
        )
        for m, floor in zip(DEFAULT_PLANE_SCHEDULE, DEFAULT_SIGMA_FLOORS)
    )


@dataclass(frozen=True)
class TerrainSpec:
    """Deterministic synthetic-terrain request."""

    rows: int
    cols: int
    kind: str = "fractal"
    amplitude: float = 100.0
    roughness: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"terrain must be at least 1x1, got {self.rows}x{self.cols}")
        if self.kind not in TERRAIN_KINDS:
            raise ValueError(
                f"unsupported terrain kind {self.kind!r}; choose from {TERRAIN_KINDS}"
            )
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not math.isfinite(self.roughness):
            raise ValueError(f"roughness must be finite, got {self.roughness}")


@dataclass(frozen=True)
class SimulationResult:
    """Per-stage heights of one pipeline run and their evaluations.

    ``max_plane_spacing`` is the largest gap between consecutive hypothesis
    planes of any valid pixel, per stage: the resolution limit of that
    stage's sweep.  Slope and direction maps and the training losses are
    functions of the heights; :func:`write_run_directory` derives them.
    """

    heights: tuple[HeightGrid, ...]
    reports: tuple[EvalReport, ...]
    max_plane_spacing: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.heights) == len(self.reports) == len(self.max_plane_spacing)):
            raise ValueError("per-stage sequences must have equal length")


@dataclass(frozen=True)
class AblationRow:
    """Mean final-stage metrics for one feature combination."""

    label: str
    mae: float
    rmse: float
    pct_lt_2_5: float
    pct_lt_7_5: float


def _ramp(spec: TerrainSpec) -> np.ndarray:
    cols = np.arange(spec.cols, dtype=np.float64)
    profile = cols / (spec.cols - 1) if spec.cols > 1 else np.zeros(spec.cols)
    return np.tile(spec.amplitude * profile, (spec.rows, 1))


def _sinusoidal(spec: TerrainSpec) -> np.ndarray:
    cycles = 1.0 + spec.roughness
    r = np.arange(spec.rows, dtype=np.float64)[:, None] / max(spec.rows - 1, 1)
    c = np.arange(spec.cols, dtype=np.float64)[None, :] / max(spec.cols - 1, 1)
    wave = np.sin(2.0 * np.pi * cycles * r) * np.cos(2.0 * np.pi * cycles * c)
    return 0.5 * spec.amplitude * (1.0 + wave)


def hill_count(roughness: float) -> int:
    """Number of bumps the gaussian-hills generator places."""
    return max(1, int(round(8.0 * roughness)))


def _gaussian_hills(spec: TerrainSpec, rng: np.random.Generator) -> np.ndarray:
    field = np.zeros((spec.rows, spec.cols), dtype=np.float64)
    rr = np.arange(spec.rows, dtype=np.float64)[:, None]
    cc = np.arange(spec.cols, dtype=np.float64)[None, :]
    extent = max(min(spec.rows, spec.cols), 2)
    for _ in range(hill_count(spec.roughness)):
        center_r = rng.uniform(0, spec.rows - 1)
        center_c = rng.uniform(0, spec.cols - 1)
        width = rng.uniform(extent / 12.0, extent / 4.0)
        d2 = (rr - center_r) ** 2 + (cc - center_c) ** 2
        field += spec.amplitude * np.exp(-d2 / (2.0 * width * width))
    return field


def _fractal(spec: TerrainSpec, rng: np.random.Generator) -> np.ndarray:
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
    if span == 0.0:
        return np.zeros_like(field)
    return (field - field.min()) / span * spec.amplitude


def generate_terrain(spec: TerrainSpec) -> HeightGrid:
    """Deterministic synthetic terrain of the requested kind.

    The same spec (including seed) always yields the same grid.  Fractal
    terrain spans exactly [0, amplitude]; gaussian-hills are non-negative
    and bounded by amplitude times the hill count; ramp and sinusoidal stay
    within [0, amplitude].
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "ramp":
        field = _ramp(spec)
    elif spec.kind == "sinusoidal":
        field = _sinusoidal(spec)
    elif spec.kind == "gaussian-hills":
        field = _gaussian_hills(spec, rng)
    elif spec.kind == "fractal":
        field = _fractal(spec, rng)
    else:  # unreachable; TerrainSpec validates
        raise ValueError(f"unsupported terrain kind {spec.kind!r}")
    return HeightGrid(field)


def matcher_noise(shape: tuple[int, int], scale: float, seed: int) -> np.ndarray:
    """Zero-mean Gaussian noise field, a pure function of (shape, scale, seed)."""
    if scale == 0.0:
        return np.zeros(shape, dtype=np.float64)
    return scale * np.random.default_rng(seed).standard_normal(shape)


def _oracle_probs(
    planes: np.ndarray, target: np.ndarray, temperature: float, valid: np.ndarray
) -> np.ndarray:
    """Softmax of ``-|plane - target| / temperature`` over the last axis.

    ``planes`` is (rows, cols, M) or one (M,) vector shared by every pixel;
    pixels where ``valid`` is False get the uniform distribution.
    """
    probs = planes - target[:, :, None]
    np.abs(probs, out=probs)
    np.negative(probs, out=probs)
    probs /= temperature
    probs -= probs.max(axis=2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    probs[~valid] = 1.0 / probs.shape[2]
    return probs


def oracle_matcher(
    planes: HypothesisPlanes,
    gt: HeightGrid,
    temperature: float,
    noise: float,
    seed: int,
) -> ProbabilityVolume:
    """Softmax matching of hypothesis planes against perturbed ground truth.

    Per pixel, plane m gets probability proportional to
    ``exp(-|plane_m - (gt + eps)| / temperature)`` with eps the
    deterministic noise field of :func:`matcher_noise`.  Pixels invalid in
    either input get a uniform distribution and a False mask entry.

    Raises:
        ValueError: non-positive temperature or mismatched dimensions.
    """
    if not (temperature > 0):
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if planes.shape != gt.shape:
        raise ValueError(f"planes {planes.shape} and gt {gt.shape} differ")
    target = gt.values + matcher_noise(gt.shape, noise, seed)
    mask = planes.mask & gt.mask
    probs = _oracle_probs(planes.planes, target, temperature, mask)
    return ProbabilityVolume(probs=probs, mask=mask)


#: Bytes of float64 planes in one row tile of a stage volume (1 MiB).  The
#: pipeline streams tiles of this size, or single rows when one row is
#: larger, so its volume memory does not grow with the number of rows.
TILE_BYTES = 2**20


@dataclass(frozen=True)
class _StageSweep:
    """One stage's plane and probability volume, built one row tile at a time.

    The planes of a tile are ``kernel(*(g[tile] for g in grids),
    plane_count)``: (tile_rows, cols, M) planes from per-pixel inputs, or
    one (M,) vector every pixel shares when ``grids`` is empty.  ``target``
    is the noisy ground truth the matcher fits and ``valid`` marks pixels
    with meaningful planes and a valid ground truth.  Iterating yields
    ``(tile, planes, probs)`` per tile, top to bottom; :func:`_stage_pass`
    iterates once per stage.
    """

    kernel: Callable[..., np.ndarray]
    grids: tuple[np.ndarray, ...]
    plane_count: int
    target: np.ndarray
    valid: np.ndarray
    temperature: float

    def __iter__(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        rows, cols = self.target.shape
        step = max(1, TILE_BYTES // (8 * cols * self.plane_count))
        for start in range(0, rows, step):
            tile = slice(start, min(start + step, rows))
            planes = self.kernel(*(g[tile] for g in self.grids), self.plane_count)
            probs = _oracle_probs(
                planes, self.target[tile], self.temperature, self.valid[tile]
            )
            yield tile, planes, probs


def _stage_pass(
    sweep: _StageSweep,
    plane_mask: np.ndarray,
    gt: HeightGrid,
    smoothing: GaussianKernel | None,
    with_sigma: bool,
) -> tuple[HeightGrid, HeightGrid | None, float]:
    """A stage's height, the spread around it and its widest plane gap, in one sweep.

    The height is the expected height, smoothed by ``smoothing`` when given
    (as :func:`~terraslope.correction.correct` would smooth the whole
    grid).  With ``with_sigma``, the spread is
    :func:`~terraslope.partition.pixel_std` of the volume around that
    height; otherwise it is None.  The widest gap is the largest spacing
    between consecutive planes of any pixel in ``plane_mask`` (0 if none).

    Smoothed row ``r`` needs the estimates of rows ``r-1 .. r+1``, so with
    smoothing each tile is held back until the next tile's estimate is in.
    It is then smoothed from a strip with a one-row halo, and its spread is
    taken while its planes and probabilities are still at hand.  Volume
    memory is two tiles.
    """
    nodata = gt.nodata
    estimate = np.empty(gt.shape)
    height = estimate if smoothing is None else np.empty(gt.shape)
    sigma = np.empty(gt.shape) if with_sigma else None
    tile_gaps: list[float] = []

    def settle(tile: slice, planes: np.ndarray, probs: np.ndarray) -> None:
        if smoothing is not None:
            lo, hi = max(tile.start - 1, 0), min(tile.stop + 1, gt.rows)
            strip = HeightGrid(estimate[lo:hi], nodata=nodata)
            height[tile] = _smooth(strip, smoothing.weights)[tile.start - lo : tile.stop - lo]
        if sigma is not None:
            sigma[tile] = _spread(probs, planes, height[tile])

    held: list[tuple[slice, np.ndarray, np.ndarray]] = []
    lag = 0 if smoothing is None else 1
    for tile, planes, probs in sweep:
        est = _expectation(probs, planes)
        est[~sweep.valid[tile]] = nodata
        estimate[tile] = est
        gaps = np.diff(planes, axis=-1).max(axis=-1)
        gaps = np.broadcast_to(gaps, est.shape)[plane_mask[tile]]
        if gaps.size:
            tile_gaps.append(gaps.max())
        held.append((tile, planes, probs))
        if len(held) > lag:
            settle(*held.pop(0))
    for item in held:
        settle(*item)

    grid = HeightGrid(height, cell_size=gt.cell_size, nodata=nodata)
    if sigma is not None:
        sigma[~(sweep.valid & grid.mask)] = nodata
        sigma = grid.with_values(sigma)
    return grid, sigma, float(np.max(tile_gaps)) if tile_gaps else 0.0


def run_pipeline(
    gt: HeightGrid,
    global_range: tuple[float, float],
    stages: Sequence[StageConfig],
    seed: int = 0,
) -> SimulationResult:
    """Run the coarse-to-fine estimation against ``gt``, one stage per config.

    The stage count is ``len(stages)``; :func:`default_stage_configs` gives
    three.  The first stage partitions the global range equally for every
    pixel; each later stage recenters per-pixel ranges on the previous
    stage's height (spread floored by ``sigma_floor``) and partitions them
    equally or slope-guided per its config.  Each stage matches with the
    oracle, regresses the expected height, optionally applies Gaussian
    correction, and evaluates the height against ``gt``.  Stage ``k``
    (0-based) of a run with seed ``s`` draws its matcher noise with seed
    ``len(stages) * s + k``, so no two (seed, stage) pairs of one schedule
    share a noise field.

    Memory and work: every stage is one pass over row tiles of about
    :data:`TILE_BYTES` of planes, and no stage holds its (rows, cols, M)
    plane or probability volume whole.  Each tile goes through the
    partition kernel, the matcher, the expected height and the plane
    spacing.  With correction on, a tile waits for the next tile's estimate,
    then is smoothed from a strip with a one-row halo.  Every stage but the
    last also takes, in the same pass, the spread around its final
    (corrected or not) height that sizes the next stage's ranges.  Volume
    memory is two tiles, not rows * cols * M; the rest is a few
    (rows, cols) grids.  The results equal, bit for bit, those of composing
    the whole-grid functions (the partition module's ``equal_partition``,
    ``slope_guided_partition``, ``expected_height`` and ``pixel_std``,
    :func:`oracle_matcher` and :func:`~terraslope.correction.correct`).

    Identical (gt, global_range, stages, seed) yield bit-identical results.

    Raises:
        ValueError: bad range, ground truth outside the range, an empty
            stage list, or a stage whose single-row volume (cols * M) is
            over the partition module's ``VOLUME_BUDGET_BYTES``.
    """
    low, high = float(global_range[0]), float(global_range[1])
    if not (low < high):
        raise ValueError(f"global range must satisfy low < high, got [{low}, {high}]")
    if not stages:
        raise ValueError("at least one stage config required")
    valid_values = gt.values[gt.mask]
    if valid_values.size == 0:
        raise ValueError("ground truth has no valid pixel")
    if valid_values.min() < low or valid_values.max() > high:
        raise ValueError(
            f"ground truth spans [{valid_values.min():.3f}, "
            f"{valid_values.max():.3f}], outside the global range [{low}, {high}]"
        )

    for cfg in stages:
        _check_volume((1, gt.cols), cfg.plane_count)

    heights: list[HeightGrid] = []
    reports: list[EvalReport] = []
    spacings: list[float] = []

    height: HeightGrid | None = None
    sigma: HeightGrid | None = None

    for stage_index, cfg in enumerate(stages):
        if stage_index == 0:
            kernel, grids = partial(_equal_planes, low, high), ()
            plane_mask = gt.mask
        else:
            ranges = pixel_range(height, sigma, cfg.sigma_floor)
            if cfg.use_slope_partition:
                factors = slope_factor_maps(height)
                plane_mask, center, lo, hi, n_below = _guided_layout(
                    height, ranges, factors, cfg.plane_count
                )
                kernel, grids = _guided_planes, (center, lo, hi, n_below)
            else:
                kernel, grids = _equal_planes, (ranges.low, ranges.high)
                plane_mask = ranges.mask
        target = gt.values + matcher_noise(
            gt.shape, cfg.noise, seed=len(stages) * seed + stage_index
        )
        sweep = _StageSweep(
            kernel, grids, cfg.plane_count, target, plane_mask & gt.mask, cfg.temperature
        )
        height, sigma, spacing = _stage_pass(
            sweep,
            plane_mask,
            gt,
            GaussianKernel(scale=1.0) if cfg.use_height_correction else None,
            with_sigma=stage_index + 1 < len(stages),
        )
        heights.append(height)
        reports.append(evaluate(height, gt, thresholds=DEFAULT_THRESHOLDS))
        spacings.append(spacing)

    return SimulationResult(
        heights=tuple(heights), reports=tuple(reports), max_plane_spacing=tuple(spacings)
    )


#: Feature toggles of the four ablation arms, in report order.
ABLATION_ARMS = (
    ("baseline", False, False),
    ("slope_partition", True, False),
    ("height_correction", False, True),
    ("combined", True, True),
)


def ablation_report(
    gt: HeightGrid,
    global_range: tuple[float, float],
    base_stages: Sequence[StageConfig],
    seeds: list[int],
) -> list[AblationRow]:
    """Paired A/B table over the four partition/correction combinations.

    Every arm runs with every seed; arms share noise realizations per seed
    (common random numbers), so differences reflect only the toggled
    features.  Metrics are the final-stage MAE, RMSE, and percent-below
    values, averaged across seeds.
    """
    if not seeds:
        raise ValueError("at least one seed required")
    rows = []
    for label, use_partition, use_correction in ABLATION_ARMS:
        stages = tuple(
            replace(
                cfg,
                use_slope_partition=use_partition,
                use_height_correction=use_correction,
            )
            for cfg in base_stages
        )
        finals = [run_pipeline(gt, global_range, stages, seed=s).reports[-1] for s in seeds]
        rows.append(
            AblationRow(
                label=label,
                mae=float(np.mean([r.mae for r in finals])),
                rmse=float(np.mean([r.rmse for r in finals])),
                pct_lt_2_5=float(np.mean([r.pct_below[2.5] for r in finals])),
                pct_lt_7_5=float(np.mean([r.pct_below[7.5] for r in finals])),
            )
        )
    return rows


def write_ablation_csv(rows: list[AblationRow], path: str | os.PathLike) -> None:
    """Write the ablation table as CSV with a header row."""
    with atomic_output(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "mae", "rmse", "lt_2.5", "lt_7.5"])
        for row in rows:
            writer.writerow(
                [
                    row.label,
                    f"{row.mae:.6f}",
                    f"{row.rmse:.6f}",
                    f"{row.pct_lt_2_5:.6f}",
                    f"{row.pct_lt_7_5:.6f}",
                ]
            )


def write_run_directory(
    result: SimulationResult,
    gt: HeightGrid,
    global_range: tuple[float, float],
    out_dir: str | os.PathLike,
) -> None:
    """Emit every per-stage grid into ``out_dir`` with the fixed naming scheme.

    Per stage N (1-based): ``stageN_height.asc``, ``stageN_slope.asc``,
    ``stageN_dir.asc`` plus PGM quick-looks of each, and ``stageN_eval.csv``
    with that stage's metrics.  The slope and direction maps are derived
    from each stage's height here.  The ground truth is written as
    ``gt.asc`` and :func:`~terraslope.losses.loss_report` of the heights
    against it as ``loss.txt``.
    """
    os.makedirs(out_dir, exist_ok=True)
    lo, hi = global_range
    write_ascii_grid(gt, os.path.join(out_dir, "gt.asc"))
    for i, (height, report) in enumerate(zip(result.heights, result.reports), start=1):
        write_ascii_grid(height, os.path.join(out_dir, f"stage{i}_height.asc"))
        render_pgm(height, os.path.join(out_dir, f"stage{i}_height.pgm"), lo, hi)
        slope = slope_map(height)
        write_ascii_grid(slope, os.path.join(out_dir, f"stage{i}_slope.asc"))
        slope_hi = max(float(slope.values[slope.mask].max()), 1e-9) if slope.mask.any() else 1.0
        render_pgm(slope, os.path.join(out_dir, f"stage{i}_slope.pgm"), 0.0, slope_hi)
        dir_grid = direction_as_grid(slope_direction_map(height), like=height)
        write_ascii_grid(dir_grid, os.path.join(out_dir, f"stage{i}_dir.asc"))
        render_pgm(dir_grid, os.path.join(out_dir, f"stage{i}_dir.pgm"), 0.0, 8.0)
        write_report_csv(report, os.path.join(out_dir, f"stage{i}_eval.csv"))
    loss = losses.loss_report(result.heights, gt)
    with atomic_output(os.path.join(out_dir, "loss.txt"), "w", encoding="ascii") as fh:
        fh.write(f"height_loss={loss.height_loss:.6f}\n")
        fh.write(f"direction_loss={loss.direction_loss:.6f}\n")
        fh.write(f"overall={loss.overall:.6f}\n")
        for i, (h, d) in enumerate(loss.per_stage, start=1):
            fh.write(f"stage{i}_height_loss={h:.6f}\n")
            fh.write(f"stage{i}_direction_loss={d:.6f}\n")
