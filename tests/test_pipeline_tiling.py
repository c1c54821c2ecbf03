"""The row-tiled pipeline against the whole-volume reference, bit for bit."""

import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from terraslope import HeightGrid, TerrainSpec, default_stage_configs, generate_terrain
from terraslope import read_ascii_grid
from terraslope import losses, simulate, slope
from terraslope.losses import loss_report
from terraslope.simulate import ABLATION_ARMS, StageConfig, run_pipeline
from terraslope.slope import slope_direction_map, slope_map

from conftest import NODATA
from oracles import reference_loss, reference_pipeline


def fractal(rows, cols, seed=5):
    return generate_terrain(
        TerrainSpec(rows=rows, cols=cols, kind="fractal", amplitude=200.0, seed=seed)
    )


def with_holes(gt, share=0.15, seed=3):
    holes = np.random.default_rng(seed).random(gt.shape) < share
    holes.flat[0] = False
    return HeightGrid(np.where(holes, NODATA, gt.values), nodata=NODATA)


def with_row_holes(gt, rows):
    """``gt`` with every third cell of each of ``rows`` set to nodata, offset by row."""
    values = gt.values.copy()
    for row in rows:
        values[row, row % 3 :: 3] = NODATA
    return HeightGrid(values, nodata=NODATA)


def with_nodata_row(gt, row):
    values = gt.values.copy()
    values[row] = NODATA
    return HeightGrid(values, nodata=NODATA)


def lifted(nodata):
    # every height is 10 m or more, so a sentinel of 0 marks no cell of it
    return HeightGrid(fractal(16, 16, seed=1).values + 10.0, nodata=nodata)


def sharp_stages(use_partition=False, use_correction=False):
    """64/32/8 planes, floors 0/8/1 and a matcher so sharp that many spreads are exactly 0.0."""
    return tuple(
        StageConfig(m, floor, use_partition, use_correction, temperature=1e-3)
        for m, floor in zip((64, 32, 8), (0.0, 8.0, 1.0))
    )


GRIDS = {
    # 64 planes x 512 cols give 4-row stage-1 tiles: 18 rows end in a partial tile
    "18x512": lambda: fractal(18, 512),
    # ... and 17 rows end in a single-row tile, whose smoothing halo is one row above
    "17x512": lambda: fractal(17, 512),
    # one tile whose smoothing strip meets the top and the bottom border at once
    "2x40": lambda: fractal(2, 40),
    # row 8 opens a stage-1 (4-row) and a stage-2 (8-row) tile and holds no data
    "nodata-row-18x512": lambda: with_nodata_row(fractal(18, 512), 8),
    # one-row tiles put the seam after row 0 of two rows and after row 1 of
    # three; both sides of it have holes
    "holes-2x40": lambda: with_row_holes(fractal(2, 40), [0, 1]),
    "holes-3x40": lambda: with_row_holes(fractal(3, 40), [1, 2]),
    # stage-1 tiles are rows 0-3, 4-7 and 8-11 and stage-2 tiles 0-7 and 8-11,
    # so the seam is after row 7; one-row tiles put it after row 5.  Holes sit
    # on both sides of each, and of the tile boundary after row 3
    "holes-12x512": lambda: with_row_holes(fractal(12, 512), range(3, 9)),
    "1x300": lambda: fractal(1, 300),
    "300x1": lambda: fractal(300, 1),
    "nodata-40x33": lambda: with_holes(fractal(40, 33)),
    # a sentinel that a collapsed spread of 0.0 equals
    "sentinel-0-16x16": lambda: lifted(0.0),
}


def assert_identical(result, expected, gt):
    for got, want in zip(result.heights, expected.heights, strict=True):
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.mask, want.mask)
        assert np.array_equal(slope_map(got).values, slope_map(want).values)
        got_dir, want_dir = slope_direction_map(got), slope_direction_map(want)
        assert np.array_equal(got_dir.codes, want_dir.codes)
        assert np.array_equal(got_dir.mask, want_dir.mask)
    assert result.reports == expected.reports
    assert loss_report(result.heights, gt) == reference_loss(expected.heights, gt)
    assert result.max_plane_spacing == expected.max_plane_spacing


@pytest.mark.parametrize("one_row_tiles", [False, True], ids=["default-tiles", "one-row-tiles"])
@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("arm", ABLATION_ARMS, ids=[a[0] for a in ABLATION_ARMS])
def test_matches_whole_volume_reference(arm, grid, one_row_tiles, monkeypatch):
    if one_row_tiles:
        monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(c, use_slope_partition=use_partition, use_height_correction=use_correction)
        for c in default_stage_configs()
    )
    gt = GRIDS[grid]()
    valid = gt.values[gt.mask]
    global_range = (float(valid.min()), float(valid.max()) + 1e-9)
    result = run_pipeline(gt, global_range, stages, seed=11)
    assert_identical(result, reference_pipeline(gt, global_range, stages, seed=11), gt)


@pytest.mark.parametrize("grid", ["nodata-40x33", "nodata-row-18x512"])
@pytest.mark.parametrize("arm", ABLATION_ARMS, ids=[a[0] for a in ABLATION_ARMS])
def test_stage_masks_nest(arm, grid):
    # every stage sweeps the ground truth's valid pixels, no more and no fewer
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(c, use_slope_partition=use_partition, use_height_correction=use_correction)
        for c in default_stage_configs()
    )
    gt = GRIDS[grid]()
    valid = gt.values[gt.mask]
    global_range = (float(valid.min()), float(valid.max()) + 1e-9)
    heights = run_pipeline(gt, global_range, stages, seed=11).heights
    for height in heights:
        assert np.array_equal(height.mask, gt.mask)
    assert not gt.mask.all()


@pytest.mark.parametrize("arm", ABLATION_ARMS, ids=[a[0] for a in ABLATION_ARMS])
def test_spreads_equal_to_the_sentinel_stay_in_the_cascade(arm, monkeypatch):
    spreads = []
    spread = simulate._spread

    def recording(*args):
        spreads.append(spread(*args))
        return spreads[-1]

    monkeypatch.setattr(simulate, "_spread", recording)
    _, use_partition, use_correction = arm
    stages = sharp_stages(use_partition, use_correction)
    gt = lifted(0.0)
    result = run_pipeline(gt, (5.0, 215.0), stages)
    # the premise: spreads of exactly the sentinel at valid pixels
    assert gt.mask.all() and any((s == 0.0).any() for s in spreads)
    twin = run_pipeline(lifted(NODATA), (5.0, 215.0), stages)
    for height, want in zip(result.heights, twin.heights, strict=True):
        assert np.array_equal(height.mask, gt.mask)
        assert height.values.tobytes() == want.values.tobytes()
    assert result.reports == twin.reports
    assert result.max_plane_spacing == twin.max_plane_spacing


def test_stage_grids_keep_the_ground_truth_metadata():
    gt = replace(fractal(18, 40), cell_size=2.5, nodata=-1.0, xllcorner=500.0, yllcorner=-250.0)
    stages = default_stage_configs()
    result = run_pipeline(gt, (0.0, 200.0 + 1e-9), stages, seed=11)
    expected = reference_pipeline(gt, (0.0, 200.0 + 1e-9), stages, seed=11)
    for height in result.heights + expected.heights:
        assert (height.cell_size, height.nodata, height.xllcorner, height.yllcorner) == (
            2.5, -1.0, 500.0, -250.0
        )
    assert all(height.mask is gt.mask for height in result.heights)


def test_stage_heights_equal_to_the_sentinel_stay_valid(tmp_path):
    # the sentinel is stage 1's plane 20, 71.666..., and (3, 5) lies 0.01 m
    # from it, so the sharp baseline matcher puts all its weight there
    values = np.tile(np.linspace(20.0, 200.0, 16), (16, 1))
    values[3, 5] = 71.6767
    gt = HeightGrid(values, nodata=float(simulate._equal_planes(5.0, 215.0, 64)[20]))
    stages = sharp_stages()
    result = run_pipeline(gt, (5.0, 215.0), stages)
    first = result.heights[0]
    assert gt.mask.all() and first.values[3, 5] == gt.nodata  # the premise
    assert first.valid_count == 256
    assert_identical(result, reference_pipeline(gt, (5.0, 215.0), stages), gt)
    simulate.write_run_directory(result, gt, (5.0, 215.0), tmp_path)
    for stage in (1, 2, 3):
        assert read_ascii_grid(tmp_path / f"stage{stage}_height.asc").mask.all()


def schedule(*stages):
    """Default stage configs with these (plane_count, sigma_floor) pairs."""
    base = default_stage_configs()[0]
    return tuple(replace(base, plane_count=m, sigma_floor=floor) for m, floor in stages)


#: stage configs per schedule; the default schedule is 64/32/8
SCHEDULES = {
    "1-stage": schedule((64, 0.0)),
    "2-stage": schedule((64, 0.0), (16, 10.0)),
    "4-stage": schedule((64, 0.0), (32, 80.0), (16, 20.0), (8, 10.0)),
    "sharp": sharp_stages(),
}


@pytest.mark.parametrize("one_row_tiles", [False, True], ids=["default-tiles", "one-row-tiles"])
@pytest.mark.parametrize("grid", ["18x512", "nodata-40x33", "sentinel-0-16x16"])
@pytest.mark.parametrize("arm", [ABLATION_ARMS[0], ABLATION_ARMS[-1]], ids=["baseline", "combined"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_any_stage_count_matches_reference(schedule, arm, grid, one_row_tiles, monkeypatch):
    if one_row_tiles:
        monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(c, use_slope_partition=use_partition, use_height_correction=use_correction)
        for c in SCHEDULES[schedule]
    )
    gt = GRIDS[grid]()
    valid = gt.values[gt.mask]
    global_range = (float(valid.min()), float(valid.max()) + 1e-9)
    result = run_pipeline(gt, global_range, stages, seed=11)
    assert len(result.heights) == len(stages)
    assert_identical(result, reference_pipeline(gt, global_range, stages, seed=11), gt)


def test_default_tiles_split_the_wide_grid():
    # guards the premise of the "18x512" case: several tiles, the last partial
    tile_rows = simulate.TILE_BYTES // (8 * 512 * 64)
    assert 1 < tile_rows < 18 and 18 % tile_rows != 0
    # ... and of "holes-12x512": three stage-1 tiles of four rows
    assert tile_rows == 4


@pytest.mark.parametrize("one_row_tiles", [False, True], ids=["default-tiles", "one-row-tiles"])
@pytest.mark.parametrize("arm", ABLATION_ARMS, ids=[a[0] for a in ABLATION_ARMS])
def test_each_stage_sweeps_its_volume_once(arm, one_row_tiles, monkeypatch):
    if one_row_tiles:
        monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    calls = []
    oracle_probs = simulate._oracle_probs

    def counting(*args):
        calls.append(args)
        return oracle_probs(*args)

    monkeypatch.setattr(simulate, "_oracle_probs", counting)
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(c, use_slope_partition=use_partition, use_height_correction=use_correction)
        for c in default_stage_configs()
    )
    gt = fractal(18, 512)
    run_pipeline(gt, (0.0, 200.0 + 1e-9), stages, seed=11)
    tiles = [
        math.ceil(gt.rows / max(1, simulate.TILE_BYTES // (8 * gt.cols * cfg.plane_count)))
        for cfg in stages
    ]
    assert len(calls) == sum(tiles)


def record_sweep_threads(monkeypatch):
    """Patch ``_oracle_probs`` to log (thread id, first row) of every tile it matches."""
    calls = []
    oracle_probs = simulate._oracle_probs

    def recording(planes, target, temperature, valid):
        # ``target`` is a row slice of the stage's target grid
        row = (target.ctypes.data - target.base.ctypes.data) // target.strides[0]
        calls.append((threading.get_ident(), row))
        return oracle_probs(planes, target, temperature, valid)

    monkeypatch.setattr(simulate, "_oracle_probs", recording)
    return calls


def test_bottom_half_runs_on_a_second_thread(monkeypatch):
    monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    calls = record_sweep_threads(monkeypatch)
    stages = default_stage_configs()
    gt = fractal(18, 512)
    run_pipeline(gt, (0.0, 200.0 + 1e-9), stages, seed=11)
    # one-row tiles: rows 0..8 are the top half, rows 9..17 the bottom half
    assert len(calls) == len(stages) * gt.rows
    caller = threading.get_ident()
    assert sorted(row for ident, row in calls if ident == caller) == sorted(
        list(range(9)) * len(stages)
    )
    assert sorted(row for ident, row in calls if ident != caller) == sorted(
        list(range(9, 18)) * len(stages)
    )


def test_each_thread_holds_at_most_one_earlier_tile(monkeypatch):
    monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    earlier = defaultdict(list)
    alive = defaultdict(list)
    oracle_probs = simulate._oracle_probs

    def tracking(planes, *args):
        # each stage starts a fresh worker, whose id may repeat an earlier
        # one; the stages' plane counts differ
        m = planes.shape[-1]
        refs = earlier[threading.get_ident(), m]
        alive[m].append(sum(ref() is not None for ref in refs))
        probs = oracle_probs(planes, *args)
        refs.append(weakref.ref(probs))
        return probs

    monkeypatch.setattr(simulate, "_oracle_probs", tracking)
    run_pipeline(fractal(18, 512), (0.0, 200.0 + 1e-9), default_stage_configs(), seed=11)
    # a tile's volume waits for its spread; the last stage takes none
    assert {m: max(counts) for m, counts in alive.items()} == {64: 1, 32: 1, 8: 0}


def test_peak_memory_stays_under_four_and_a_half_grids(monkeypatch):
    # one-row stage-1 and stage-2 tiles, as the default tiles are at 4096 columns
    monkeypatch.setattr(simulate, "TILE_BYTES", 2**16)
    gt = fractal(1024, 1024)
    tracemalloc.start()
    try:
        run_pipeline(gt, (0.0, 200.0 + 1e-9), default_stage_configs(), seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the earlier stages' heights, the previous spread and the target are four
    # grids besides gt: a stage writes its height over the target and its
    # spread over the previous spread
    assert peak < 4.5 * gt.values.nbytes


def test_one_tile_grid_runs_on_the_calling_thread(monkeypatch):
    calls = record_sweep_threads(monkeypatch)
    stages = default_stage_configs()
    gt = GRIDS["2x40"]()
    run_pipeline(gt, (0.0, 200.0 + 1e-9), stages, seed=11)
    assert calls == [(threading.get_ident(), 0)] * len(stages)


def test_concurrent_runs_match_sequential_runs():
    gt = fractal(18, 512)
    global_range = (0.0, 200.0 + 1e-9)
    jobs = [
        (
            tuple(
                replace(c, use_slope_partition=p, use_height_correction=k)
                for c in default_stage_configs()
            ),
            seed,
        )
        for seed in (3, 4)
        for _, p, k in ABLATION_ARMS
    ]
    expected = [run_pipeline(gt, global_range, stages, seed=seed) for stages, seed in jobs]
    results = [None] * len(jobs)

    def work(i):
        stages, seed = jobs[i]
        results[i] = run_pipeline(gt, global_range, stages, seed=seed)

    # more runs than cores, each with its own worker, and frequent switches
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected, strict=True):
        for got_height, want_height in zip(got.heights, want.heights, strict=True):
            assert np.array_equal(got_height.values, want_height.values)
        assert got.reports == want.reports
        assert got.max_plane_spacing == want.max_plane_spacing


def test_error_in_the_bottom_half_propagates_and_joins(monkeypatch):
    monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    caller = threading.get_ident()
    oracle_probs = simulate._oracle_probs

    def failing(*args):
        if threading.get_ident() != caller:
            raise FloatingPointError("bottom half failed")
        return oracle_probs(*args)

    monkeypatch.setattr(simulate, "_oracle_probs", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="bottom half failed"):
        run_pipeline(fractal(18, 512), (0.0, 200.0 + 1e-9), default_stage_configs(), seed=11)
    assert threading.active_count() == before


def test_overflow_in_the_bottom_half_names_the_stage(monkeypatch):
    monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    caller = threading.get_ident()
    oracle_probs = simulate._oracle_probs

    def overflowing(*args):
        probs = oracle_probs(*args)
        if threading.get_ident() != caller:
            probs *= 1e308
            probs *= 1e308
        return probs

    monkeypatch.setattr(simulate, "_oracle_probs", overflowing)
    # the worker sets its own error state: no warning, and the bottom half's
    # first tile is the grid's last row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^stage 1: non-finite expected height nan at \(17, 0\)$"):
            run_pipeline(fractal(18, 512), (0.0, 200.0 + 1e-9), default_stage_configs(), seed=11)


@pytest.mark.parametrize("arm", ABLATION_ARMS, ids=[a[0] for a in ABLATION_ARMS])
def test_runs_derive_no_slope_direction_or_loss(arm, monkeypatch, tmp_path):
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    # rebind every copy, including the names other modules imported
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "terraslope"]
    watched = (
        slope._peak_codes,
        slope.slope_map,
        slope.slope_direction_map,
        slope.slope_and_direction,
        losses.loss_report,
    )
    for fn in watched:
        wrapper = counting(fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, name, wrapper)
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(c, use_slope_partition=use_partition, use_height_correction=use_correction)
        for c in default_stage_configs()
    )
    gt = fractal(24, 24)
    global_range = (0.0, 200.0 + 1e-9)
    result = run_pipeline(gt, global_range, stages, seed=11)
    simulate.ablation_report(gt, global_range, stages, seeds=[0])
    assert calls == []
    # the writer derives them, through the same rebound names: one fold per
    # stage and one of gt, whose codes feed both stageN_dir.asc and the
    # direction losses, so it never calls loss_report
    simulate.write_run_directory(result, gt, global_range, tmp_path)
    assert calls.count("_peak_codes") == len(stages) + 1
    assert sorted(set(calls)) == ["_peak_codes", "slope_and_direction"]


def overflowing_range_stages():
    # a 1e308 floor puts every stage-2 range width beyond the float64 range
    return tuple(
        replace(cfg, sigma_floor=floor)
        for cfg, floor in zip(default_stage_configs(), (0.0, 1e308, 10.0))
    )


@pytest.mark.parametrize("one_row_tiles", [False, True], ids=["default-tiles", "one-row-tiles"])
def test_range_overflow_names_the_stage(one_row_tiles, monkeypatch):
    if one_row_tiles:
        monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ValueError, match=r"^stage 2: range bounds, width and sigma must be finite$"
        ):
            run_pipeline(fractal(18, 512), (0.0, 200.0 + 1e-9), overflowing_range_stages())
    assert threading.active_count() == before


def test_top_half_range_error_wins_whatever_the_timing(monkeypatch):
    monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    caller = threading.get_ident()
    bottom_failed = threading.Event()

    def failing(height, sigma, sigma_floor):
        if threading.get_ident() != caller:
            bottom_failed.set()
            raise ValueError("bottom half")
        # the bottom half fails first, yet the top half's error is raised
        assert bottom_failed.wait(timeout=30)
        raise ValueError("top half")

    monkeypatch.setattr(simulate, "_pixel_range", failing)
    with pytest.raises(ValueError, match=r"^stage 2: top half$"):
        run_pipeline(fractal(18, 512), (0.0, 200.0 + 1e-9), default_stage_configs(), seed=11)


@pytest.mark.parametrize("one_row_tiles", [False, True], ids=["default-tiles", "one-row-tiles"])
@pytest.mark.parametrize("grid", ["18x512", "nodata-40x33"])
@pytest.mark.parametrize("arm", [ABLATION_ARMS[0], ABLATION_ARMS[-1]], ids=["baseline", "combined"])
def test_each_tile_lays_out_its_own_planes(arm, grid, one_row_tiles, monkeypatch):
    if one_row_tiles:
        monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    ranges_rows, factor_rows = [], []
    pixel_range, slope_factor_maps = simulate._pixel_range, simulate.slope_factor_maps

    def recording_range(height, sigma, sigma_floor):
        ranges_rows.append(len(height.values))
        return pixel_range(height, sigma, sigma_floor)

    def recording_factors(grid):
        factor_rows.append(len(grid.values))
        return slope_factor_maps(grid)

    monkeypatch.setattr(simulate, "_pixel_range", recording_range)
    monkeypatch.setattr(simulate, "slope_factor_maps", recording_factors)
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(c, use_slope_partition=use_partition, use_height_correction=use_correction)
        for c in default_stage_configs()
    )
    gt = GRIDS[grid]()
    valid = gt.values[gt.mask]
    run_pipeline(gt, (float(valid.min()), float(valid.max()) + 1e-9), stages, seed=11)
    # stages 2 and later: one call per tile, on the tile's rows (plus a
    # one-row halo, clipped to the grid, for the slope factors)
    tiles, strips = [], []
    for cfg in stages[1:]:
        step = max(1, simulate.TILE_BYTES // (8 * gt.cols * cfg.plane_count))
        for start in range(0, gt.rows, step):
            stop = min(start + step, gt.rows)
            tiles.append(stop - start)
            strips.append(min(stop + 1, gt.rows) - max(start - 1, 0))
    assert sorted(ranges_rows) == sorted(tiles)
    assert sorted(factor_rows) == (sorted(strips) if use_partition else [])


#: Odd plane counts per stage, with the default floors: the plane-max fold
#: takes its one-slice tail on every count and halves 33 and 17 with an odd
#: middle plane.
ODD_SCHEDULES = {"3/5/2": (3, 5, 2), "9/7/3": (9, 7, 3), "33/17/5": (33, 17, 5)}


@pytest.mark.parametrize("one_row_tiles", [False, True], ids=["default-tiles", "one-row-tiles"])
@pytest.mark.parametrize("grid", ["17x512", "nodata-40x33"])
@pytest.mark.parametrize("arm", ABLATION_ARMS, ids=[a[0] for a in ABLATION_ARMS])
@pytest.mark.parametrize("schedule", list(ODD_SCHEDULES))
def test_odd_plane_counts_match_reference(schedule, arm, grid, one_row_tiles, monkeypatch):
    if one_row_tiles:
        monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(
            c,
            plane_count=m,
            use_slope_partition=use_partition,
            use_height_correction=use_correction,
        )
        for c, m in zip(default_stage_configs(), ODD_SCHEDULES[schedule], strict=True)
    )
    gt = GRIDS[grid]()
    valid = gt.values[gt.mask]
    global_range = (float(valid.min()), float(valid.max()) + 1e-9)
    result = run_pipeline(gt, global_range, stages, seed=11)
    assert_identical(result, reference_pipeline(gt, global_range, stages, seed=11), gt)


@pytest.mark.parametrize("arm", ABLATION_ARMS, ids=[a[0] for a in ABLATION_ARMS])
def test_grid_constructions_do_not_grow_with_the_tile_count(arm, monkeypatch):
    # tiles are laid out and smoothed from row views of grids already checked:
    # a run builds and checks its stage grids, not one grid per tile
    built = []
    post_init = HeightGrid.__post_init__

    def counting(grid):
        built.append(None)
        post_init(grid)

    monkeypatch.setattr(HeightGrid, "__post_init__", counting)
    _, use_partition, use_correction = arm
    stages = tuple(
        replace(c, use_slope_partition=use_partition, use_height_correction=use_correction)
        for c in default_stage_configs()
    )
    gt = fractal(18, 512)
    counts = []
    for tile_bytes in (simulate.TILE_BYTES, 1):
        monkeypatch.setattr(simulate, "TILE_BYTES", tile_bytes)
        built.clear()
        run_pipeline(gt, (0.0, 200.0 + 1e-9), stages, seed=11)
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_run_directory_peak_memory_stays_under_three_grids(tmp_path):
    gt = fractal(512, 512)
    global_range = (0.0, 200.0 + 1e-9)
    result = run_pipeline(gt, global_range, default_stage_configs(), seed=11)
    # the first write builds the ASCII writer's token tables, which stay
    simulate.write_run_directory(result, gt, global_range, tmp_path / "warm")
    tracemalloc.start()
    try:
        simulate.write_run_directory(result, gt, global_range, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one stage's fold: the padding, the NaN copy it pads and the maximum,
    # next to uint8 codes.  A stage's slope is freed before its codes become
    # floats, and neither outlives the stage
    assert peak < 3 * gt.values.nbytes


@pytest.mark.parametrize("grid", ["18x512", "nodata-40x33"])
@pytest.mark.parametrize("schedule", ["1-stage", "2-stage", "4-stage"])
def test_loss_txt_matches_loss_report(schedule, grid, monkeypatch, tmp_path):
    gt = GRIDS[grid]()
    valid = gt.values[gt.mask]
    global_range = (float(valid.min()), float(valid.max()) + 1e-9)
    result = run_pipeline(gt, global_range, SCHEDULES[schedule], seed=11)
    folds = []
    peak_codes = slope._peak_codes

    def counting(g):
        folds.append(g)
        return peak_codes(g)

    monkeypatch.setattr(slope, "_peak_codes", counting)
    simulate.write_run_directory(result, gt, global_range, tmp_path)
    assert len(folds) == len(result.heights) + 1
    want = loss_report(result.heights, gt)
    lines = [
        f"height_loss={want.height_loss:.6f}",
        f"direction_loss={want.direction_loss:.6f}",
        f"overall={want.overall:.6f}",
    ]
    for i, (h, d) in enumerate(want.per_stage, start=1):
        lines += [f"stage{i}_height_loss={h:.6f}", f"stage{i}_direction_loss={d:.6f}"]
    assert (tmp_path / "loss.txt").read_text() == "\n".join(lines) + "\n"
