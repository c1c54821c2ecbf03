"""The row-tiled pipeline against the whole-volume reference, bit for bit."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from terraslope import HeightGrid, TerrainSpec, default_stage_configs, generate_terrain
from terraslope import losses, simulate, slope
from terraslope.losses import loss_report
from terraslope.simulate import ABLATION_ARMS, run_pipeline
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


def with_nodata_row(gt, row):
    values = gt.values.copy()
    values[row] = NODATA
    return HeightGrid(values, nodata=NODATA)


GRIDS = {
    # 64 planes x 512 cols give 4-row stage-1 tiles: 18 rows end in a partial tile
    "18x512": lambda: fractal(18, 512),
    # ... and 17 rows end in a single-row tile, whose smoothing halo is one row above
    "17x512": lambda: fractal(17, 512),
    # one tile whose smoothing strip meets the top and the bottom border at once
    "2x40": lambda: fractal(2, 40),
    # row 8 opens a stage-1 (4-row) and a stage-2 (8-row) tile and holds no data
    "nodata-row-18x512": lambda: with_nodata_row(fractal(18, 512), 8),
    "1x300": lambda: fractal(1, 300),
    "300x1": lambda: fractal(300, 1),
    "nodata-40x33": lambda: with_holes(fractal(40, 33)),
}


def assert_identical(result, expected, gt):
    for got, want in zip(result.heights, expected.heights, strict=True):
        assert np.array_equal(got.values, want.values)
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


#: (plane_count, sigma_floor) per stage; the default schedule is 64/32/8
SCHEDULES = {
    "1-stage": ((64, 0.0),),
    "2-stage": ((64, 0.0), (16, 10.0)),
    "4-stage": ((64, 0.0), (32, 80.0), (16, 20.0), (8, 10.0)),
}


@pytest.mark.parametrize("one_row_tiles", [False, True], ids=["default-tiles", "one-row-tiles"])
@pytest.mark.parametrize("grid", ["18x512", "nodata-40x33"])
@pytest.mark.parametrize("arm", [ABLATION_ARMS[0], ABLATION_ARMS[-1]], ids=["baseline", "combined"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_any_stage_count_matches_reference(schedule, arm, grid, one_row_tiles, monkeypatch):
    if one_row_tiles:
        monkeypatch.setattr(simulate, "TILE_BYTES", 1)
    _, use_partition, use_correction = arm
    base = default_stage_configs()[0]
    stages = tuple(
        replace(
            base,
            plane_count=m,
            sigma_floor=floor,
            use_slope_partition=use_partition,
            use_height_correction=use_correction,
        )
        for m, floor in SCHEDULES[schedule]
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
    for fn in (slope.slope_map, slope.slope_direction_map, losses.loss_report):
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
    # the writer derives them, through the same rebound names
    simulate.write_run_directory(result, gt, global_range, tmp_path)
    assert sorted(set(calls)) == ["loss_report", "slope_direction_map", "slope_map"]
