"""Terrain generators, oracle matcher, and the coarse-to-fine pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from terraslope import (
    HeightGrid,
    HypothesisPlanes,
    StageConfig,
    TerrainSpec,
    ablation_report,
    default_stage_configs,
    generate_terrain,
    loss_report,
    oracle_matcher,
    run_pipeline,
    slope_direction_map,
    slope_map,
    write_ablation_csv,
    write_run_directory,
)
from terraslope import simulate
from terraslope.simulate import hill_count, matcher_noise

from conftest import NODATA


def sharp_stages(use_slope=False, use_correction=False):
    return tuple(
        replace(
            cfg,
            noise=0.0,
            temperature=1e-6,
            use_slope_partition=use_slope,
            use_height_correction=use_correction,
        )
        for cfg in default_stage_configs()
    )


def terrain_range(gt):
    v = gt.values[gt.mask]
    return float(v.min()), float(v.max()) + 1e-9


class TestStageConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            StageConfig(plane_count=1)
        with pytest.raises(ValueError):
            StageConfig(plane_count=8, temperature=0.0)
        with pytest.raises(ValueError):
            StageConfig(plane_count=8, noise=-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="noise"):
            StageConfig(plane_count=8, noise=float("nan"))
        with pytest.raises(ValueError, match="sigma_floor"):
            StageConfig(plane_count=8, sigma_floor=float("nan"))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("noise", float("inf")),
            ("sigma_floor", float("inf")),
            ("temperature", float("inf")),
            ("temperature", float("nan")),
        ],
    )
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            StageConfig(plane_count=8, **{field: value})

    def test_default_schedule(self):
        stages = default_stage_configs()
        assert [s.plane_count for s in stages] == [64, 32, 8]
        assert [s.sigma_floor for s in stages] == [0.0, 80.0, 10.0]


class TestGenerateTerrain:
    def test_ramp_definition(self):
        spec = TerrainSpec(rows=3, cols=5, kind="ramp", amplitude=8.0)
        g = generate_terrain(spec)
        np.testing.assert_allclose(g.values[1], 8.0 * np.arange(5) / 4.0)

    def test_deterministic_per_seed(self):
        for kind in ("ramp", "sinusoidal", "gaussian-hills", "fractal"):
            spec = TerrainSpec(rows=16, cols=12, kind=kind, seed=11)
            a = generate_terrain(spec)
            b = generate_terrain(spec)
            np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = generate_terrain(TerrainSpec(rows=16, cols=16, kind="fractal", seed=1))
        b = generate_terrain(TerrainSpec(rows=16, cols=16, kind="fractal", seed=2))
        assert not (a.values == b.values).all()

    def test_gaussian_hills_bounds(self):
        spec = TerrainSpec(
            rows=24, cols=24, kind="gaussian-hills", amplitude=50.0, roughness=0.5
        )
        g = generate_terrain(spec)
        assert g.values.min() >= 0.0
        assert g.values.max() <= 50.0 * hill_count(0.5)

    def test_fractal_spans_amplitude(self):
        g = generate_terrain(TerrainSpec(rows=33, cols=33, kind="fractal", amplitude=120.0))
        assert g.values.min() == 0.0
        assert g.values.max() == pytest.approx(120.0)
        assert np.isfinite(g.values).all()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["amplitude", "roughness"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TerrainSpec(rows=4, cols=4, kind="gaussian-hills", **{field: value})

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            TerrainSpec(rows=4, cols=4, kind="volcano")


class TestOracleMatcher:
    def make_planes(self, plane_values):
        arr = np.asarray(plane_values, float).reshape(1, 1, -1)
        return HypothesisPlanes(planes=arr, mask=np.array([[True]]))

    def test_sharp_limit_concentrates_on_nearest(self):
        planes = self.make_planes([0.0, 4.0, 10.0])
        gt = HeightGrid(np.array([[3.4]]))
        probs = oracle_matcher(planes, gt, temperature=1e-6, noise=0.0, seed=0)
        np.testing.assert_allclose(probs.probs[0, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_equidistant_planes_are_uniform(self):
        planes = self.make_planes([2.0, 8.0])
        gt = HeightGrid(np.array([[5.0]]))
        probs = oracle_matcher(planes, gt, temperature=3.0, noise=0.0, seed=0)
        np.testing.assert_allclose(probs.probs[0, 0], [0.5, 0.5], atol=1e-15)

    def test_softmax_arithmetic(self):
        planes = self.make_planes([0.0, 10.0])
        gt = HeightGrid(np.array([[0.0]]))
        probs = oracle_matcher(planes, gt, temperature=10.0, noise=0.0, seed=0)
        z = 1.0 + np.exp(-1.0)
        np.testing.assert_allclose(
            probs.probs[0, 0], [1.0 / z, np.exp(-1.0) / z], atol=1e-12
        )

    def test_normalized_within_tolerance(self, rng):
        planes_arr = np.sort(rng.uniform(0, 100, (6, 7, 9)), axis=2)
        planes = HypothesisPlanes(planes=planes_arr, mask=np.ones((6, 7), bool))
        gt = HeightGrid(rng.uniform(0, 100, (6, 7)))
        probs = oracle_matcher(planes, gt, temperature=2.0, noise=1.0, seed=5)
        np.testing.assert_allclose(probs.probs.sum(axis=2), 1.0, atol=1e-9)

    def test_rejects_bad_temperature(self):
        planes = self.make_planes([0.0, 1.0])
        gt = HeightGrid(np.array([[0.0]]))
        with pytest.raises(ValueError):
            oracle_matcher(planes, gt, temperature=0.0, noise=0.0, seed=0)

    def test_invalid_gt_pixels_masked_uniform(self):
        planes_arr = np.tile(np.array([0.0, 1.0]), (1, 2, 1))
        planes = HypothesisPlanes(planes=planes_arr, mask=np.ones((1, 2), bool))
        gt = HeightGrid(np.array([[5.0, NODATA]]), nodata=NODATA)
        probs = oracle_matcher(planes, gt, temperature=1.0, noise=0.0, seed=0)
        assert not probs.mask[0, 1]
        np.testing.assert_allclose(probs.probs[0, 1], [0.5, 0.5])

    def test_noise_field_deterministic(self):
        a = matcher_noise((5, 5), 3.0, seed=42)
        b = matcher_noise((5, 5), 3.0, seed=42)
        np.testing.assert_array_equal(a, b)
        assert (matcher_noise((5, 5), 0.0, seed=42) == 0.0).all()


class TestRunPipeline:
    def test_rejects_bad_inputs(self):
        gt = HeightGrid(np.full((4, 4), 5.0))
        stages = sharp_stages()
        with pytest.raises(ValueError, match="low < high"):
            run_pipeline(gt, (10.0, 10.0), stages)
        with pytest.raises(ValueError, match="outside"):
            run_pipeline(gt, (0.0, 1.0), stages)
        with pytest.raises(ValueError, match="at least one stage config"):
            run_pipeline(gt, (0.0, 10.0), ())
        huge = (replace(stages[0], plane_count=100_000_000),) + stages[1:]
        with pytest.raises(ValueError, match="volume budget"):
            run_pipeline(gt, (0.0, 10.0), huge)

    def test_noise_seeds_unique_across_run_seeds(self, monkeypatch):
        # 3 * seed + k would give seed 0's stage 4 and seed 1's stage 1 seed 3
        drawn = []

        def record(shape, scale, seed):
            drawn.append(seed)
            return matcher_noise(shape, scale, seed)

        monkeypatch.setattr(simulate, "matcher_noise", record)
        gt = HeightGrid(np.arange(16.0).reshape(4, 4))
        stages = tuple(StageConfig(plane_count=8, sigma_floor=2.0, noise=1.0) for _ in range(4))
        for seed in (0, 1):
            run_pipeline(gt, (0.0, 16.0), stages, seed=seed)
        assert sorted(drawn) == list(range(8))

    def test_constant_terrain_near_zero_error(self):
        gt = HeightGrid(np.full((16, 16), 42.0))
        res = run_pipeline(gt, (0.0, 100.0), sharp_stages(), seed=0)
        assert res.reports[-1].mae <= res.max_plane_spacing[-1]
        s = slope_map(res.heights[-1])
        assert (s.values[s.mask] == 0).all()

    def test_quantization_bound_all_kinds_both_partitions(self):
        for kind in ("ramp", "sinusoidal", "gaussian-hills", "fractal"):
            gt = generate_terrain(
                TerrainSpec(rows=32, cols=32, kind=kind, amplitude=150.0, seed=4)
            )
            rng_pair = terrain_range(gt)
            for use_slope in (False, True):
                res = run_pipeline(gt, rng_pair, sharp_stages(use_slope), seed=2)
                assert res.reports[-1].mae <= res.max_plane_spacing[-1]

    def test_stagewise_refinement(self):
        # refinement needs a global range coarse relative to the stage-3
        # floor; amplitude 200 m gives stage-1 spacing ~3.2 m vs ~2.9 m
        for kind in ("ramp", "sinusoidal", "gaussian-hills", "fractal"):
            gt = generate_terrain(
                TerrainSpec(rows=32, cols=32, kind=kind, amplitude=200.0, seed=8)
            )
            res = run_pipeline(gt, terrain_range(gt), sharp_stages(), seed=1)
            assert res.reports[2].mae <= res.reports[0].mae

    def test_bit_identical_reruns(self):
        gt = generate_terrain(TerrainSpec(rows=24, cols=24, kind="fractal", seed=3))
        stages = default_stage_configs()
        a = run_pipeline(gt, (0.0, 100.0), stages, seed=7)
        b = run_pipeline(gt, (0.0, 100.0), stages, seed=7)
        for ga, gb in zip(a.heights, b.heights):
            np.testing.assert_array_equal(ga.values, gb.values)
            np.testing.assert_array_equal(
                slope_direction_map(ga).codes, slope_direction_map(gb).codes
            )
        assert loss_report(a.heights, gt) == loss_report(b.heights, gt)

    def test_common_random_numbers_across_arms(self):
        # identical seed, different partition flag: stage 1 is built before
        # the flag matters, so its heights must match bit for bit
        gt = generate_terrain(TerrainSpec(rows=24, cols=24, kind="fractal", seed=6))
        stages_a = tuple(replace(c, use_slope_partition=False) for c in default_stage_configs())
        stages_b = tuple(replace(c, use_slope_partition=True) for c in default_stage_configs())
        a = run_pipeline(gt, (0.0, 100.0), stages_a, seed=13)
        b = run_pipeline(gt, (0.0, 100.0), stages_b, seed=13)
        np.testing.assert_array_equal(a.heights[0].values, b.heights[0].values)

    def test_loss_report_consistency(self):
        gt = generate_terrain(TerrainSpec(rows=16, cols=16, kind="sinusoidal", seed=2))
        res = run_pipeline(gt, terrain_range(gt), default_stage_configs(), seed=4)
        loss = loss_report(res.heights, gt)
        assert loss.overall == pytest.approx(0.5 * loss.height_loss + 0.5 * loss.direction_loss)
        weighted = sum(w * pair[0] for w, pair in zip((0.5, 1.0, 2.0), loss.per_stage))
        assert loss.height_loss == pytest.approx(weighted)


class TestAblation:
    def test_four_row_structure_and_labels(self):
        gt = generate_terrain(TerrainSpec(rows=16, cols=16, kind="fractal", seed=1))
        rows = ablation_report(gt, terrain_range(gt), sharp_stages(), seeds=[0])
        assert [r.label for r in rows] == [
            "baseline",
            "slope_partition",
            "height_correction",
            "combined",
        ]

    def test_flat_terrain_all_rows_near_zero(self):
        gt = HeightGrid(np.full((16, 16), 10.0))
        rows = ablation_report(gt, (0.0, 20.0), sharp_stages(), seeds=[0])
        for row in rows:
            assert row.mae < 2.9  # stage-3 plane spacing of the sharp schedule

    def test_single_seed_no_aggregation_artifacts(self):
        gt = generate_terrain(TerrainSpec(rows=16, cols=16, kind="fractal", seed=5))
        stages = default_stage_configs()
        rows = ablation_report(gt, terrain_range(gt), stages, seeds=[3])
        single = run_pipeline(
            gt,
            terrain_range(gt),
            tuple(
                replace(c, use_slope_partition=False, use_height_correction=False)
                for c in stages
            ),
            seed=3,
        )
        assert rows[0].mae == pytest.approx(single.reports[-1].mae)

    def test_csv_output(self, tmp_path):
        gt = generate_terrain(TerrainSpec(rows=12, cols=12, kind="fractal", seed=2))
        rows = ablation_report(gt, terrain_range(gt), sharp_stages(), seeds=[0])
        path = tmp_path / "ablation.csv"
        write_ablation_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "config,mae,rmse,lt_2.5,lt_7.5"
        assert len(lines) == 5


class TestRunDirectory:
    def test_fixed_naming_scheme(self, tmp_path):
        gt = generate_terrain(TerrainSpec(rows=12, cols=12, kind="fractal", seed=9))
        rng_pair = terrain_range(gt)
        res = run_pipeline(gt, rng_pair, default_stage_configs(), seed=0)
        out = tmp_path / "run"
        write_run_directory(res, gt, rng_pair, out)
        names = {p.name for p in out.iterdir()}
        expected = {"gt.asc", "loss.txt"}
        for i in (1, 2, 3):
            expected |= {
                f"stage{i}_height.asc",
                f"stage{i}_slope.asc",
                f"stage{i}_dir.asc",
                f"stage{i}_height.pgm",
                f"stage{i}_slope.pgm",
                f"stage{i}_dir.pgm",
                f"stage{i}_eval.csv",
            }
        assert names == expected
