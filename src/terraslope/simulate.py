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
hypothesis volume once, in row tiles (:func:`_sweep`), and each tile's
kernel (:func:`_stage_pass`) lays out its ranges and planes from its rows
of the previous estimate, so memory grows with the grid, not the volume.
Every stage sweeps the ground truth's valid pixels.

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
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .correction import BASE_WEIGHTS, _smooth
from .metrics import DEFAULT_THRESHOLDS, EvalReport, _format_threshold, evaluate, write_report_csv
from .partition import (
    VOLUME_BUDGET_BYTES,
    HypothesisPlanes,
    ProbabilityVolume,
    _check_volume,
    _equal_planes,
    _expectation,
    _guided_planes,
    _pixel_range,
    _split_counts,
    _spread,
)
from .raster import (
    HeightGrid,
    _adopt,
    _check_cells,
    _check_integer,
    _check_real,
    atomic_output,
    render_pgm,
    write_ascii_grid,
)
from .slope import _Rows, _strip, slope_and_direction, slope_factor_maps

#: Published-style refinement schedule: plane counts per stage and the
#: uncertainty floors (half of plane count times stage interval: 32*5/2 and
#: 8*2.5/2).  Stage 1 sweeps the global range, so its floor is unused.
DEFAULT_PLANE_SCHEDULE = (64, 32, 8)
DEFAULT_SIGMA_FLOORS = (0.0, 80.0, 10.0)


def _check_matcher(temperature: float, noise: float) -> None:
    """Raise a ``ValueError`` unless the temperature is finite and > 0 and the noise finite and >= 0."""
    _check_real("temperature", temperature, "> 0")
    _check_real("noise", noise, ">= 0")


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
        _check_integer("plane_count", self.plane_count, 2)
        _check_matcher(self.temperature, self.noise)
        _check_real("sigma_floor", self.sigma_floor, ">= 0")


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
        _check_integer("rows", self.rows, 1)
        _check_integer("cols", self.cols, 1)
        if self.kind not in TERRAIN_KINDS:
            raise ValueError(
                f"unsupported terrain kind {self.kind!r}; choose from {TERRAIN_KINDS}"
            )
        _check_real("amplitude", self.amplitude, ">= 0")
        _check_real("roughness", self.roughness)
        _check_integer("seed", self.seed, 0)
        # Every hill fills a whole-grid array.  The first test rejects only
        # what the second would, before hill_count can overflow.
        budget = VOLUME_BUDGET_BYTES // 8
        if self.kind == "gaussian-hills" and (
            8.0 * self.roughness > 2 * budget
            or hill_count(self.roughness) * int(self.rows) * int(self.cols) > budget
        ):
            raise ValueError(f"roughness {self.roughness} puts hills * rows * cols over {budget}")


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


def _ramp(spec: TerrainSpec, rng: np.random.Generator) -> np.ndarray:
    cols = np.arange(spec.cols, dtype=np.float64)
    profile = cols / (spec.cols - 1) if spec.cols > 1 else np.zeros(spec.cols)
    return np.tile(spec.amplitude * profile, (spec.rows, 1))


def _sinusoidal(spec: TerrainSpec, rng: np.random.Generator) -> np.ndarray:
    cycles = 1.0 + spec.roughness
    r = np.arange(spec.rows, dtype=np.float64)[:, None] / max(spec.rows - 1, 1)
    c = np.arange(spec.cols, dtype=np.float64)[None, :] / max(spec.cols - 1, 1)
    wave = np.sin(2.0 * np.pi * cycles * r) * np.cos(2.0 * np.pi * cycles * c)
    return 0.5 * spec.amplitude * (1.0 + wave)


def hill_count(roughness: float) -> int:
    """Number of bumps the gaussian-hills generator places."""
    return int(round(max(8.0 * roughness, 1.0)))


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


# A huge roughness overflows the displacement; the span check reports it in
# place of numpy's warnings.
@np.errstate(over="ignore", invalid="ignore")
def _fractal(spec: TerrainSpec, rng: np.random.Generator) -> np.ndarray:
    """Midpoint-displacement terrain, rescaled to span [0, amplitude].

    Each step works in place on strided views of the field.  Every point
    starts at 0.0 and is written by one step only, so a step sums into it.
    """
    size = 1
    while size + 1 < max(spec.rows, spec.cols):
        size *= 2
    field = np.zeros((size + 1, size + 1), dtype=np.float64)
    field[0, 0], field[0, -1], field[-1, 0], field[-1, -1] = rng.uniform(
        0.0, spec.amplitude, 4
    )
    disp = spec.amplitude * spec.roughness
    step = size
    while step >= 2:
        half = step // 2
        # Diamond step: square centers average their four corners.
        top, bottom = field[:-1:step], field[step::step]
        centers = field[half::step, half::step]
        np.add(top[:, :-1:step], top[:, step::step], out=centers)
        centers += bottom[:, :-1:step]
        centers += bottom[:, step::step]
        centers /= 4.0
        centers += rng.uniform(-0.5, 0.5, centers.shape) * disp
        # Square step: edge midpoints average their in-bounds neighbours,
        # summed up, down, left, right: 3 on the field's edge, else 4.
        count = np.full(size // step + 1, 4.0)
        count[[0, -1]] = 3.0
        points = field[half::step, ::step]  # between rows of corners
        points += top[:, ::step]
        points += bottom[:, ::step]
        points[:, 1:] += centers
        points[:, :-1] += centers
        points /= count
        points += rng.uniform(-0.5, 0.5, points.shape) * disp
        points = field[::step, half::step]  # between columns of corners
        points[1:] += centers
        points[:-1] += centers
        points += field[::step, :-1:step]
        points += field[::step, step::step]
        points /= count[:, None]
        points += rng.uniform(-0.5, 0.5, points.shape) * disp
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


#: Terrain generators by kind, each ``(spec, rng)`` to a (rows, cols) array.
_GENERATORS = {
    "ramp": _ramp,
    "sinusoidal": _sinusoidal,
    "gaussian-hills": _gaussian_hills,
    "fractal": _fractal,
}
TERRAIN_KINDS = tuple(_GENERATORS)


def generate_terrain(spec: TerrainSpec) -> HeightGrid:
    """Deterministic synthetic terrain of the requested kind.

    The same spec (including seed) always yields the same grid.  Fractal
    terrain spans exactly [0, amplitude]; gaussian-hills are non-negative
    and bounded by amplitude times the hill count; ramp and sinusoidal stay
    within [0, amplitude].

    Raises:
        ValueError: a fractal ``roughness`` whose midpoint displacement
            leaves the finite float64 range.
    """
    return HeightGrid(_GENERATORS[spec.kind](spec, np.random.default_rng(spec.seed)))


def matcher_noise(shape: tuple[int, int], scale: float, seed: int) -> np.ndarray:
    """Zero-mean Gaussian noise field, a pure function of (shape, scale, seed)."""
    if scale == 0.0:
        return np.zeros(shape, dtype=np.float64)
    noise = np.random.default_rng(seed).standard_normal(shape)
    # A huge scale overflows to inf here; the sweep's finiteness check
    # reports it as a validation error, so numpy need not warn as well.
    with np.errstate(over="ignore"):
        noise *= scale
    return noise


def _plane_major(planes: np.ndarray) -> np.ndarray:
    """``planes`` with its plane axis first: (M, rows, cols), or (M, 1, 1) for a shared vector."""
    return planes[:, None, None] if planes.ndim == 1 else planes.transpose(2, 0, 1)


def _widest_gaps(planes: np.ndarray) -> np.ndarray:
    """The widest gap between consecutive planes along the last axis.

    ``planes`` is (rows, cols, M), normally a view of a plane-major buffer,
    or one (M,) vector.  One ``diff`` and one maximum run over the plane
    axis of the plane-major view, on whole plane slices.  Each difference
    is the one ``diff`` takes along the last axis and a maximum is exact,
    so the result has the value of that ``diff``'s maximum; only the sign
    of a zero widest gap can depend on the order, and a zero never wins
    against the sweep's running maximum, which starts at 0.0.
    """
    gaps = np.diff(_plane_major(planes), axis=0).max(axis=0)
    return gaps[0, 0] if planes.ndim == 1 else gaps


def _oracle_probs(
    planes: np.ndarray, target: np.ndarray, temperature: float, valid: np.ndarray
) -> np.ndarray:
    """Softmax of ``-|plane - target| / temperature`` over the last axis.

    ``planes`` is (rows, cols, M) or one (M,) vector shared by every pixel;
    pixels where ``valid`` is False get the uniform distribution.  The
    logits, their largest value, the shift and the ``exp`` are taken
    plane-major, (M, rows, cols), so the per-pixel target and maximum
    broadcast along the outer axis.  Every logit is ``|x| / -temperature
    <= -0.0``, so the maximum over the plane axis is exact and no +0.0 can
    tie it.  The sum's bits depend on its order, so it, the division and
    the uniform fill run on one C-order (rows, cols, M) copy, which is
    returned.
    """
    logits = _plane_major(planes) - target
    np.abs(logits, out=logits)
    logits /= -temperature
    logits -= np.maximum.reduce(logits, axis=0)
    np.exp(logits, out=logits)
    probs = np.ascontiguousarray(logits.transpose(1, 2, 0))
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
        ValueError: a temperature that is not finite and > 0, a noise scale
            that is not finite and >= 0 (the rules of :class:`StageConfig`),
            or mismatched dimensions.
    """
    _check_matcher(temperature, noise)
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


def _sweep(tiles: list[slice], height: np.ndarray, kernel: Callable, settle: Callable) -> float:
    """Sweep the row ``tiles`` of ``height``; return the widest gap a kernel gave, or 0.0.

    ``kernel(tile)`` returns the tile's raw rows, written into ``height`` at
    once, its widest gap and what ``settle(tile, kept)`` needs to return the
    tile's settled rows.  As settled row ``r`` may read raw rows ``r-1`` to
    ``r+1``, a tile is settled once the next tile is in, and written back
    once the tile beyond has read its raw rows.  The calling thread sweeps
    the tiles above the seam, a tile boundary at the middle, downward while
    one worker thread sweeps the rest upward.  After the join both seam
    tiles are settled, then the rows still pending are written.  One tile
    is swept on the calling thread alone.  When both halves fail, the top
    half's error is raised.
    """

    def run(part: list[slice]) -> tuple[float, list, list]:
        """Sweep ``part`` toward the seam; return its widest gap, seam tile and pending rows."""
        widest, held, pending = 0.0, [], []
        for tile in part:
            raw, gap, kept = kernel(tile)
            height[tile] = raw
            widest = max(widest, gap)
            settled = [(done, settle(done, volume)) for done, volume in held]
            for done, rows in pending:
                height[done] = rows
            held, pending = [(tile, kept)], settled
        return widest, held, pending

    if len(tiles) == 1:
        halves = [run(tiles)]
    else:
        half = (len(tiles) + 1) // 2
        with ThreadPoolExecutor(max_workers=1) as pool:
            bottom = pool.submit(run, tiles[half:][::-1])
            halves = [run(tiles[:half]), bottom.result()]
    seams = [(tile, settle(tile, kept)) for _, held, _ in halves for tile, kept in held]
    for tile, rows in [row for *_, pending in halves for row in pending] + seams:
        height[tile] = rows
    return float(max(widest for widest, *_ in halves))


def _stage_pass(
    cfg: StageConfig,
    prev: tuple[np.ndarray, np.ndarray] | None,
    global_range: tuple[float, float],
    target: np.ndarray,
    gt: HeightGrid,
    with_sigma: bool,
) -> tuple[HeightGrid, np.ndarray | None, float]:
    """A stage's height, the spread around it and its widest plane gap, in one sweep.

    Every stage sweeps ``gt``'s valid pixels, and each row tile lays out
    its own planes.  The first stage (``prev`` None) shares one (M,) vector
    of equal planes over ``global_range`` among them.  A later stage
    recenters the tile's rows of the previous ``(height, sigma)`` arrays as
    :func:`~terraslope.partition.pixel_range` does and partitions them per
    ``cfg``, with slope factors from the tile's :func:`_strip`.  The matcher
    fits the planes to ``target``; outside ``gt.mask`` the stage grid gets
    the sentinel when it adopts the height.
    The height is the expected height, smoothed as by
    :func:`~terraslope.correction.correct` when ``cfg.use_height_correction``.
    With ``with_sigma`` the spread is :func:`~terraslope.partition.pixel_std`
    around that height, else None: the array its tiles checked, which the
    next stage reads as row views.  The widest gap is the largest spacing
    between consecutive planes of any valid pixel (0 if none); each stage-1
    tile gives its shared vector's.

    The pass consumes ``target`` and the previous spread ``prev[1]``: it
    writes the height over ``target`` and a later stage's spread over
    ``prev[1]``, so only stage 1 makes a grid, its spread.  A tile's kernel
    reads its own rows of both before :func:`_sweep` writes the tile's raw
    rows; settle reads only raw rows, one tile late, and writes the tile's
    spread after its kernel ran; the two halves write disjoint tiles.

    Tiles are laid out from :class:`_Rows` of ``prev`` with ``gt.mask``, so
    no tile builds or checks a grid; the range checks of ``pixel_range`` and
    the finiteness checks of the expected height and the spread run on each
    tile's valid pixels: no reader of a swept row looks outside the mask.

    A later stage's tile planes are plane-major, (M, rows, cols), seen
    as a (rows, cols, M) view, so the layout, the softmax's logits and
    ``exp`` (:func:`_oracle_probs`) and the widest gap (:func:`_widest_gaps`)
    run on contiguous plane slices; stage 1's shared (M,) vector
    broadcasts.  Elementwise steps, maxima and differences are exact, so
    the layout changes no output bit.  A sum's bits depend on its order and
    on the layout it reads, so the softmax sum, the expectation and spread
    (``einsum``) and the smoothing matmul read C-order (rows, cols, M)
    arrays: the probabilities :func:`_oracle_probs` returns, and one copy of
    the tile's planes, made once the widest gap is taken.

    :func:`_sweep` runs tiles of about :data:`TILE_BYTES` of planes through
    the oracle kernel, with ``target`` and the temperature bound here; only
    a stage with a spread keeps a tile's planes and probabilities to settle
    it.  The stage grid adopts the height without a copy.

    Raises:
        ValueError: a range too wide for float64, or a non-finite expected
            height or spread at a valid pixel.
    """
    rows, cols = gt.shape
    swept = gt.mask
    m, temperature = cfg.plane_count, cfg.temperature
    height = target
    sigma = (np.empty(gt.shape) if prev is None else prev[1]) if with_sigma else None
    step = max(1, TILE_BYTES // (8 * cols * m))
    tiles = [slice(start, min(start + step, rows)) for start in range(0, rows, step)]
    shared = _equal_planes(*global_range, m) if prev is None else None
    shared_gap = float(_widest_gaps(shared)) if prev is None else None

    def layout(tile: slice) -> np.ndarray:
        """The planes of ``tile``."""
        if prev is None:
            return shared
        height_rows, sigma_rows = (_Rows(values[tile], swept[tile]) for values in prev)
        _, center, low, high = _pixel_range(height_rows, sigma_rows, cfg.sigma_floor)
        if not cfg.use_slope_partition:
            return _equal_planes(low, high, m)
        strip, inner = _strip(prev[0], swept, tile)
        factors = slope_factor_maps(strip)
        n_below = _split_counts(m, factors.drop[inner], factors.rise[inner])
        return _guided_planes(center, low, high, n_below, m)

    # An overflow leaves a non-finite value, which the checks report in
    # place of numpy's warnings.  The worker thread does not inherit the
    # caller's error state, so each function sets its own.
    @np.errstate(over="ignore", invalid="ignore")
    def kernel(tile: slice) -> tuple[np.ndarray, float, tuple]:
        """The oracle's expected height of ``tile``, its widest gap and what its spread needs."""
        valid = swept[tile]
        planes = layout(tile)
        probs = _oracle_probs(planes, target[tile], temperature, valid)
        gap = shared_gap if prev is None else _widest_gaps(planes)[valid].max(initial=0.0)
        planes = np.ascontiguousarray(planes)  # stage 1's shared vector already is
        est = _expectation(probs, planes)
        _check_cells(
            ~np.isfinite(est) & valid, est, "non-finite expected height {value} at {at}", tile.start
        )
        return est, gap, (probs, planes) if with_sigma else ()

    @np.errstate(over="ignore", invalid="ignore")
    def settle(tile: slice, volume: tuple) -> np.ndarray:
        """Smooth ``tile`` if corrected and take its spread; return its rows."""
        tile_height = height[tile]
        if cfg.use_height_correction:
            strip, inner = _strip(height, swept, tile)
            tile_height = _smooth(strip, BASE_WEIGHTS)[inner]
        if volume:
            spread = _spread(*volume, tile_height)
            _check_cells(
                ~np.isfinite(spread) & swept[tile],
                spread,
                "non-finite height spread {value} at {at}",
                tile.start,
            )
            sigma[tile] = spread
        return tile_height

    widest = _sweep(tiles, height, kernel, settle)
    return _adopt(gt, height), sigma, widest


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

    Memory: every stage is one pass over row tiles of about
    :data:`TILE_BYTES` of planes (:func:`_sweep` describes the schedule),
    so volume memory is a few tiles, not rows * cols * M.  The rest is
    (rows, cols) grids: ``gt``, the earlier stages' heights, the previous
    spread and the noisy target, five at the last of three stages.  A stage
    writes its height over its target and its spread over the previous
    spread (:func:`_stage_pass`), and :func:`~terraslope.metrics.evaluate`
    takes one more grid.  Every stage sweeps ``gt``'s valid pixels, and its
    grid keeps ``gt``'s metadata and mask.  The results equal, bit for bit,
    those of composing the whole-grid functions (the partition module's
    ``equal_partition``, ``slope_guided_partition``, ``expected_height`` and
    ``pixel_std``, :func:`oracle_matcher` and :func:`~terraslope.correction.correct`).

    Identical (gt, global_range, stages, seed) yield bit-identical results.

    Raises:
        ValueError: a seed that is not an integer >= 0, a range without
            low < high and a finite width, ground truth outside the range,
            an empty stage list, a stage whose single-row volume
            (cols * M) is over the partition module's
            ``VOLUME_BUDGET_BYTES``, or a stage whose search range,
            expected height or spread overflows at a valid pixel (the
            message names the stage).
    """
    _check_integer("seed", seed, 0)
    low, high = float(global_range[0]), float(global_range[1])
    if not (low < high and math.isfinite(high - low)):
        raise ValueError(f"global range needs low < high and a finite width, got [{low}, {high}]")
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
    del valid_values

    for cfg in stages:
        _check_volume((1, gt.cols), cfg.plane_count)

    heights: list[HeightGrid] = []
    reports: list[EvalReport] = []
    spacings: list[float] = []

    prev: tuple[np.ndarray, np.ndarray] | None = None
    for stage_index, cfg in enumerate(stages):
        target = matcher_noise(gt.shape, cfg.noise, seed=len(stages) * int(seed) + stage_index)
        target += gt.values
        try:
            height, sigma, spacing = _stage_pass(
                cfg, prev, (low, high), target, gt, with_sigma=stage_index + 1 < len(stages)
            )
        except ValueError as exc:
            raise ValueError(f"stage {stage_index + 1}: {exc}") from exc
        prev = height.values, sigma
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

    Raises:
        ValueError: an empty seed list or a seed that is not an integer
            >= 0, before any arm runs, or what :func:`run_pipeline` raises.
    """
    if not seeds:
        raise ValueError("at least one seed required")
    for seed in seeds:
        _check_integer("seed", seed, 0)
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
        lt_fine, lt_coarse = (
            float(np.mean([r.pct_below[t] for r in finals])) for t in DEFAULT_THRESHOLDS
        )
        rows.append(
            AblationRow(
                label=label,
                mae=float(np.mean([r.mae for r in finals])),
                rmse=float(np.mean([r.rmse for r in finals])),
                pct_lt_2_5=lt_fine,
                pct_lt_7_5=lt_coarse,
            )
        )
    return rows


def write_ablation_csv(rows: list[AblationRow], path: str | os.PathLike) -> None:
    """Write the ablation table as CSV with a header row."""
    with atomic_output(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["config", "mae", "rmse", *(f"lt_{_format_threshold(t)}" for t in DEFAULT_THRESHOLDS)]
        )
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
        slope, dir_grid = slope_and_direction(height)
        write_ascii_grid(slope, os.path.join(out_dir, f"stage{i}_slope.asc"))
        valid = slope.values[slope.mask]
        slope_hi = max(float(valid.max()), 1e-9) if valid.size else 1.0
        render_pgm(slope, os.path.join(out_dir, f"stage{i}_slope.pgm"), 0.0, slope_hi)
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
