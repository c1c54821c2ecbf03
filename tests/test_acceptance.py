"""Acceptance gate: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from terraslope import (
    HeightGrid,
    PixelRanges,
    SlopeFactors,
    TerrainSpec,
    ablation_report,
    correct,
    default_stage_configs,
    direction_loss,
    evaluate,
    fit_scale,
    generate_terrain,
    height_loss,
    overall_loss,
    run_pipeline,
    slope_direction_map,
    slope_guided_partition,
    slope_map,
)
from terraslope.cli import main as cli_main
from terraslope.correction import GaussianKernel
from terraslope.raster import SlopeDirectionGrid

from conftest import NODATA, random_grid
from oracles import (
    brute_direction,
    brute_slope,
    golden_section_minimize,
    naive_correct,
    scalar_metrics,
    scalar_partition,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def shifted(grid, c):
    values = np.where(grid.mask, grid.values + c, grid.nodata)
    return grid.with_values(values)


def scaled(grid, alpha):
    values = np.where(grid.mask, alpha * grid.values, grid.nodata)
    return grid.with_values(values)


def test_slope_direction_oracle_suite():
    with criterion("slope/direction oracle suite (200 grids, invariances, < 5 s)"):
        rng = np.random.default_rng(1234)
        started = time.perf_counter()
        for _ in range(200):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            g = random_grid(rng, rows, cols, nodata_fraction=0.2)

            expected_slope = np.array(brute_slope(g.values.tolist(), NODATA))
            expected_dir = np.array(brute_direction(g.values.tolist(), NODATA))
            got_slope = slope_map(g)
            got_dir = slope_direction_map(g)
            np.testing.assert_array_equal(got_slope.values, expected_slope)
            np.testing.assert_array_equal(got_dir.codes[g.mask], expected_dir[g.mask])

            c = float(rng.uniform(-1e3, 1e3))
            alpha = float(rng.uniform(0.01, 100.0))
            trans_slope = slope_map(shifted(g, c))
            np.testing.assert_allclose(
                trans_slope.values[g.mask], got_slope.values[g.mask], atol=1e-12
            )
            np.testing.assert_array_equal(
                slope_direction_map(shifted(g, c)).codes[g.mask],
                got_dir.codes[g.mask],
            )
            scal_slope = slope_map(scaled(g, alpha))
            np.testing.assert_allclose(
                scal_slope.values[g.mask],
                alpha * got_slope.values[g.mask],
                rtol=1e-12,
                atol=1e-12,
            )
            np.testing.assert_array_equal(
                slope_direction_map(scaled(g, alpha)).codes[g.mask],
                got_dir.codes[g.mask],
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"suite took {elapsed:.2f} s"


def test_direction_code_table():
    with criterion("direction-code table (unique maxima map to codes 0..8)"):
        expected = {
            (2, 2): 0,  # lower right
            (2, 1): 1,  # down
            (2, 0): 2,  # lower left
            (1, 2): 3,  # right
            (1, 1): 4,  # vertical (center maximum)
            (1, 0): 5,  # left
            (0, 2): 6,  # upper right
            (0, 1): 7,  # up
            (0, 0): 8,  # upper left
        }
        for position, code in expected.items():
            values = np.zeros((3, 3))
            values[position] = 9.0
            got = slope_direction_map(HeightGrid(values)).codes[1, 1]
            assert got == code, f"max at {position}: expected {code}, got {got}"


def test_partition_suite():
    with criterion("partition suite (10 000 pixels vs scalar transcription, < 5 s)"):
        rng = np.random.default_rng(77)
        started = time.perf_counter()
        total_pixels = 0
        for m in (8, 16, 21, 32):
            rows = cols = 50
            total_pixels += rows * cols
            center = rng.uniform(-200, 200, (rows, cols))
            spread = rng.uniform(0, 60, (rows, cols))
            rise = rng.uniform(0, 12, (rows, cols)) * (rng.random((rows, cols)) > 0.15)
            drop = rng.uniform(0, 12, (rows, cols)) * (rng.random((rows, cols)) > 0.15)
            h = HeightGrid(center)
            ranges = PixelRanges(
                low=center - spread,
                high=center + spread,
                mask=np.ones((rows, cols), bool),
            )
            planes = slope_guided_partition(h, ranges, SlopeFactors(rise, drop), m)

            assert planes.plane_count == m
            assert (np.diff(planes.planes, axis=2) >= 0).all()
            assert (planes.planes[:, :, 0] >= ranges.low - 1e-12).all()
            assert (planes.planes[:, :, -1] <= ranges.high + 1e-12).all()

            for r in range(rows):
                for c in range(cols):
                    expected = scalar_partition(
                        center[r, c],
                        center[r, c] - spread[r, c],
                        center[r, c] + spread[r, c],
                        rise[r, c],
                        drop[r, c],
                        m,
                    )
                    np.testing.assert_allclose(
                        planes.planes[r, c], expected, atol=1e-10
                    )

        # equal rise/drop with even plane counts reduces to uniform spacing
        for m in (8, 16):
            h = HeightGrid(np.array([[10.0]]))
            ranges = PixelRanges(
                low=np.array([[0.0]]),
                high=np.array([[20.0]]),
                mask=np.array([[True]]),
            )
            factors = SlopeFactors(rise=np.array([[3.0]]), drop=np.array([[3.0]]))
            p = slope_guided_partition(h, ranges, factors, m).planes[0, 0]
            lower, upper = p[: m // 2], p[m // 2 :]
            np.testing.assert_allclose(np.diff(lower), np.diff(lower)[0], rtol=1e-9)
            np.testing.assert_allclose(np.diff(upper), np.diff(upper)[0], rtol=1e-9)

        assert total_pixels == 10_000
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"suite took {elapsed:.2f} s"


def test_correction_suite():
    with criterion("correction suite (naive loop, constants, 50 scale fits)"):
        rng = np.random.default_rng(5150)
        for _ in range(60):
            g = random_grid(
                rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), nodata_fraction=0.2
            )
            scale = float(rng.uniform(-2, 2))
            expected = np.array(naive_correct(g.values.tolist(), NODATA, scale))
            got = correct(g, GaussianKernel(scale=scale))
            np.testing.assert_allclose(got.values, expected, atol=1e-12)

        const = HeightGrid(np.full((6, 6), 321.5))
        np.testing.assert_array_equal(correct(const).values, 321.5)

        for _ in range(50):
            noisy = random_grid(rng, 5, 5)
            target = random_grid(rng, 5, 5)
            got = fit_scale(noisy, target).scale
            smoothed = correct(noisy).values

            def loss(s):
                return ((s * smoothed - target.values) ** 2).sum()

            expected = golden_section_minimize(loss, -100.0, 100.0, tol=1e-10)
            assert got == pytest.approx(expected, abs=1e-6)


def test_metrics_suite():
    with criterion("metrics suite (mae <= rmse, 2x2 case, masked 16x16 oracle)"):
        rng = np.random.default_rng(31337)
        for _ in range(50):
            est = random_grid(rng, 16, 16, nodata_fraction=0.25)
            gt = random_grid(rng, 16, 16, nodata_fraction=0.25)
            if not (est.mask & gt.mask).any():
                continue
            thresholds = (1.0, 2.5, 7.5)
            r = evaluate(est, gt, thresholds=thresholds)
            assert r.mae <= r.rmse + 1e-12
            mae, rmse, pct, median, comp, n = scalar_metrics(
                est.values.tolist(), gt.values.tolist(), NODATA, NODATA, thresholds
            )
            assert abs(r.mae - mae) <= 1e-12
            assert abs(r.rmse - rmse) <= 1e-12
            assert abs(r.median_abs - median) <= 1e-12
            assert abs(r.completeness - comp) <= 1e-12
            assert r.joint_valid_count == n
            for t in thresholds:
                assert abs(r.pct_below[t] - pct[t]) <= 1e-12

        est = HeightGrid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        gt = HeightGrid(np.array([[1.0, 1.0], [3.0, 5.0]]))
        r = evaluate(est, gt, thresholds=(2.5,))
        assert r.mae == 0.5
        assert r.rmse == np.sqrt(0.5)
        assert r.pct_below[2.5] == 100.0
        assert r.median_abs == 0.5


def test_loss_suite():
    with criterion("loss suite (zero iff match, stage weights, default mix)"):
        rng = np.random.default_rng(24)
        gt = [random_grid(rng, 5, 5) for _ in range(3)]
        assert height_loss(gt, gt) == 0.0
        perturbed = [g.with_values(g.values + 1e-6) for g in gt]
        assert height_loss(perturbed, gt) > 0.0

        ones = [HeightGrid(np.full((4, 4), 1.0)) for _ in range(3)]
        zeros = [HeightGrid(np.zeros((4, 4))) for _ in range(3)]
        assert height_loss(ones, zeros, weights=(0.5, 1.0, 2.0)) == 3.5

        full_mask = np.ones((2, 2), bool)
        pred = [SlopeDirectionGrid(codes=np.full((2, 2), 4), mask=full_mask)]
        ref = [SlopeDirectionGrid(codes=np.zeros((2, 2), int), mask=full_mask)]
        assert direction_loss(pred, ref, weights=(1.0,)) == 16.0
        assert direction_loss(pred, pred, weights=(1.0,)) == 0.0

        assert overall_loss(2.0, 4.0) == 3.0
        assert overall_loss(0.0, 0.0) == 0.0
        assert overall_loss(2.0, 4.0, l1=1.0, l2=0.0) == 2.0


def test_ablation_direction():
    with criterion(
        "ablation direction (10 fractal terrains: partition helps, full <= partition, < 60 s)"
    ):
        started = time.perf_counter()
        base = default_stage_configs(temperature=2.0, noise=3.0)
        assert [c.plane_count for c in base] == [64, 32, 8]
        assert [c.sigma_floor for c in base] == [0.0, 80.0, 10.0]
        sums = {"baseline": 0.0, "slope_partition": 0.0, "combined": 0.0}
        for seed in range(10):
            gt = generate_terrain(
                TerrainSpec(
                    rows=128, cols=128, kind="fractal", amplitude=200.0, seed=seed
                )
            )
            rows = ablation_report(gt, (0.0, 200.0), base, seeds=[seed])
            by_label = {row.label: row for row in rows}
            for key in sums:
                sums[key] += by_label[key].mae
        mean = {k: v / 10.0 for k, v in sums.items()}
        print(
            f"  mean MAE: baseline={mean['baseline']:.4f} "
            f"slope_partition={mean['slope_partition']:.4f} "
            f"combined={mean['combined']:.4f}"
        )
        assert mean["slope_partition"] < mean["baseline"]
        assert mean["combined"] <= mean["slope_partition"]
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"ablation took {elapsed:.2f} s"


def test_quantization_bound():
    with criterion("quantization bound (noiseless sharp matcher, every terrain kind)"):
        for kind in ("ramp", "sinusoidal", "gaussian-hills", "fractal"):
            gt = generate_terrain(
                TerrainSpec(rows=48, cols=48, kind=kind, amplitude=150.0, seed=3)
            )
            v = gt.values[gt.mask]
            global_range = (float(v.min()), float(v.max()) + 1e-9)
            for use_slope in (False, True):
                stages = tuple(
                    replace(
                        cfg,
                        noise=0.0,
                        temperature=1e-6,
                        use_height_correction=False,
                        use_slope_partition=use_slope,
                    )
                    for cfg in default_stage_configs()
                )
                res = run_pipeline(gt, global_range, stages, seed=1)
                mae = res.reports[-1].mae
                bound = res.max_plane_spacing[-1]
                assert mae <= bound, f"{kind}: MAE {mae:.4f} > spacing {bound:.4f}"


def test_cli_goldens(tmp_path):
    with criterion("CLI goldens (slope/eval/correct byte-identical reruns)"):
        pairs = []
        for i in (1, 2):
            s = tmp_path / f"slope{i}.asc"
            d = tmp_path / f"dir{i}.asc"
            assert cli_main(["slope", str(FIXTURES / "terrain.asc"), str(s), str(d)]) == 0
            pairs.append((s.read_bytes(), d.read_bytes()))
        assert pairs[0] == pairs[1]

        evals = []
        for i in (1, 2):
            csv = tmp_path / f"eval{i}.csv"
            assert (
                cli_main(
                    [
                        "eval",
                        str(FIXTURES / "est.asc"),
                        str(FIXTURES / "gt.asc"),
                        "--csv",
                        str(csv),
                    ]
                )
                == 0
            )
            evals.append(csv.read_bytes())
        assert evals[0] == evals[1]

        corrected = []
        for i in (1, 2):
            out = tmp_path / f"corrected{i}.asc"
            assert (
                cli_main(
                    ["correct", str(FIXTURES / "noisy.asc"), str(out), "--scale", "1.25"]
                )
                == 0
            )
            corrected.append(out.read_bytes())
        assert corrected[0] == corrected[1]
