"""Terrain generators, oracle matcher, and the coarse-to-fine pipeline."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from terraslope import (
    HeightGrid,
    HypothesisPlanes,
    PixelRanges,
    StageConfig,
    TerrainSpec,
    ablation_report,
    correct,
    default_stage_configs,
    equal_partition,
    expected_height,
    generate_terrain,
    loss_report,
    oracle_matcher,
    pixel_std,
    run_pipeline,
    slope_direction_map,
    slope_map,
    write_ablation_csv,
    write_run_directory,
)
from terraslope import simulate
from terraslope.partition import VOLUME_BUDGET_BYTES
from terraslope.simulate import DEFAULT_SIGMA_FLOORS, TERRAIN_KINDS, hill_count, matcher_noise

from conftest import NODATA
from oracles import reference_fractal


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


def valid_cells(grid):
    return grid.values[grid.mask]


def terrain_range(gt):
    v = valid_cells(gt)
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

    @pytest.mark.parametrize("plane_count", [1, 2.5, np.float64(8.0), "8", None])
    def test_rejects_a_plane_count_that_is_not_an_integer_from_2(self, plane_count):
        message = rf"^plane_count must be an integer >= 2, got {re.escape(repr(plane_count))}$"
        with pytest.raises(ValueError, match=message):
            StageConfig(plane_count=plane_count)

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

    @pytest.mark.parametrize("roughness", [1e200, -1e200])
    def test_fractal_overflow_names_roughness_without_warnings(self, roughness):
        spec = TerrainSpec(rows=16, cols=16, kind="fractal", roughness=roughness)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="roughness"):
                generate_terrain(spec)

    def test_kinds_are_the_generator_table(self):
        assert TERRAIN_KINDS == tuple(simulate._GENERATORS)
        assert TERRAIN_KINDS == ("ramp", "sinusoidal", "gaussian-hills", "fractal")
        message = (
            "unsupported terrain kind 'dunes'; "
            "choose from ('ramp', 'sinusoidal', 'gaussian-hills', 'fractal')"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TerrainSpec(rows=4, cols=4, kind="dunes")

    @pytest.mark.parametrize(
        "rows,cols",
        [(1, 1), (1, 2), (2, 1), (3, 3), (5, 1), (1, 33), (7, 9), (64, 64), (65, 40), (1, 1024)],
    )
    def test_fractal_matches_reference_bit_for_bit(self, rows, cols):
        for roughness in (0.5, 0.0, 1.7, -0.6, 1e30):
            for seed in (0, 13):
                spec = TerrainSpec(
                    rows=rows,
                    cols=cols,
                    kind="fractal",
                    amplitude=150.0,
                    roughness=roughness,
                    seed=seed,
                )
                expected = reference_fractal(spec, np.random.default_rng(seed))
                assert generate_terrain(spec).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("roughness", [1e200, -1e200])
    def test_fractal_overflow_matches_reference(self, roughness):
        spec = TerrainSpec(rows=16, cols=16, kind="fractal", roughness=roughness)
        with pytest.raises(ValueError) as expected:
            reference_fractal(spec, np.random.default_rng(spec.seed))
        with pytest.raises(ValueError) as got:
            generate_terrain(spec)
        assert str(got.value) == str(expected.value)

    def test_fractal_large_finite_roughness_still_works(self):
        g = generate_terrain(TerrainSpec(rows=16, cols=16, kind="fractal", roughness=1e30))
        assert g.values.min() == 0.0 and g.values.max() == pytest.approx(100.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["amplitude", "roughness"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TerrainSpec(rows=4, cols=4, kind="gaussian-hills", **{field: value})

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            TerrainSpec(rows=4, cols=4, kind="volcano")

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TerrainSpec(rows=4, cols=4, seed=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rows", 0),
            ("rows", 2.5),
            ("cols", np.float64(8.0)),
            ("cols", "8"),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", None),
        ],
    )
    def test_rejects_an_integer_field_that_is_not_an_integer(self, field, value):
        minimum = 0 if field == "seed" else 1
        message = rf"^{field} must be an integer >= {minimum}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            TerrainSpec(**{"rows": 8, "cols": 8, field: value})

    def test_numpy_integer_fields_give_the_same_terrain(self):
        spec = TerrainSpec(rows=np.int64(9), cols=np.int32(7), seed=np.uint8(3))
        expected = generate_terrain(TerrainSpec(rows=9, cols=7, seed=3))
        assert generate_terrain(spec).values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("roughness", [1e12, 1e308])
    def test_rejects_hill_count_over_the_volume_budget(self, roughness):
        with pytest.raises(ValueError, match="roughness"):
            TerrainSpec(rows=16, cols=16, kind="gaussian-hills", roughness=roughness)

    def test_numpy_sizes_do_not_wrap_under_the_hill_budget(self):
        # 8 hills x 2**16 x 2**16 cells is 2**35, which is 0 in int32
        size = np.int32(2**16)
        with pytest.raises(ValueError, match="roughness"):
            TerrainSpec(rows=size, cols=size, kind="gaussian-hills", roughness=1.0)

    def test_hill_budget_edge(self):
        cells = VOLUME_BUDGET_BYTES // 8
        edge = cells // (128 * 128) / 8.0
        assert hill_count(edge) * 128 * 128 == cells
        TerrainSpec(rows=128, cols=128, kind="gaussian-hills", roughness=edge)
        with pytest.raises(ValueError, match="roughness"):
            TerrainSpec(rows=128, cols=128, kind="gaussian-hills", roughness=edge + 1 / 8)
        # the budget binds gaussian hills only
        TerrainSpec(rows=128, cols=128, kind="fractal", roughness=edge + 1 / 8)

    @pytest.mark.parametrize("roughness", [-1e308, -1.0, 0.0, 0.0625])
    def test_low_roughness_places_one_hill(self, roughness):
        assert hill_count(roughness) == 1
        TerrainSpec(rows=16, cols=16, kind="gaussian-hills", roughness=roughness)


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

    @pytest.mark.parametrize(
        "temperature,noise,message",
        [
            (float("inf"), 0.0, "temperature must be finite and > 0, got inf"),
            (float("nan"), 0.0, "temperature must be finite and > 0, got nan"),
            (-1.0, 0.0, "temperature must be finite and > 0, got -1.0"),
            (1.0, -1.0, "noise must be finite and >= 0, got -1.0"),
            (1.0, float("nan"), "noise must be finite and >= 0, got nan"),
            (1.0, float("inf"), "noise must be finite and >= 0, got inf"),
        ],
    )
    def test_applies_the_stage_config_rules(self, temperature, noise, message):
        planes = self.make_planes([0.0, 1.0])
        gt = HeightGrid(np.array([[0.0]]))
        for make in (
            lambda: oracle_matcher(planes, gt, temperature=temperature, noise=noise, seed=0),
            lambda: StageConfig(plane_count=8, temperature=temperature, noise=noise),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make()

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


class TestStageOneSpread:
    """Under the oracle, stage 1's spread measures the temperature, not the error.

    The oracle's plane weights fall as ``exp(-|plane - target| / T)``, a
    Laplace distribution whose standard deviation is sqrt(2) * T once T is
    well above the plane spacing (3.17 m here).  If a change moves these
    numbers, the spread has changed meaning.
    """

    @pytest.fixture(scope="class")
    def spreads(self):
        """Stage-1 spreads around the expected height and around its correction,
        per (temperature, noise): 64 equal planes over a 128x128 fractal terrain."""
        gt = generate_terrain(TerrainSpec(128, 128, kind="fractal", amplitude=200.0, seed=5))
        low, high = np.zeros(gt.shape), np.full(gt.shape, 200.0 + 1e-9)
        planes = equal_partition(PixelRanges(low=low, high=high, mask=gt.mask), 64)
        spreads = {}
        for temperature in (2.0, 8.0):
            for noise in (0.0, 3.0):
                probs = oracle_matcher(planes, gt, temperature, noise, seed=0)
                height = expected_height(planes, probs, like=gt)
                spreads[temperature, noise] = [
                    pixel_std(planes, probs, center) for center in (height, correct(height))
                ]
        return spreads

    @pytest.mark.parametrize("temperature", [2.0, 8.0])
    def test_noise_leaves_the_percentiles(self, spreads, temperature):
        quiet, noisy = (
            np.percentile(valid_cells(spreads[temperature, noise][0]), [5, 50, 95])
            for noise in (0.0, 3.0)
        )
        np.testing.assert_allclose(noisy, quiet, rtol=0.01)

    @pytest.mark.parametrize("temperature", [2.0, 8.0])
    def test_median_is_sqrt2_times_the_temperature(self, spreads, temperature):
        # measured: +1.2% at T = 2 and -0.4% at T = 8
        for noise in (0.0, 3.0):
            median = np.median(valid_cells(spreads[temperature, noise][0]))
            assert median == pytest.approx(np.sqrt(2.0) * temperature, rel=0.02)

    def test_stays_below_the_stage_2_floor(self, spreads):
        # the largest is 3.01 m at T = 2 around the expected height
        for sigmas in spreads.values():
            for sigma in sigmas:
                assert valid_cells(sigma).max() < DEFAULT_SIGMA_FLOORS[1]


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

    @pytest.mark.parametrize("noise", [0.0, 3.0])
    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "0", None])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, noise, seed):
        gt = HeightGrid(np.arange(16.0).reshape(4, 4))
        stages = tuple(replace(cfg, noise=noise) for cfg in sharp_stages())
        message = rf"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            run_pipeline(gt, (0.0, 16.0), stages, seed=seed)
        with pytest.raises(ValueError, match=message):
            ablation_report(gt, (0.0, 16.0), stages, [0, seed])

    def test_integer_seeds_of_any_type_run_alike(self):
        gt = HeightGrid(np.arange(16.0).reshape(4, 4))
        stages = tuple(replace(cfg, noise=3.0) for cfg in sharp_stages())
        runs = [run_pipeline(gt, (0.0, 16.0), stages, seed=s) for s in (1, np.int64(1), True)]
        for run in runs[1:]:
            assert [h.values.tobytes() for h in run.heights] == [
                h.values.tobytes() for h in runs[0].heights
            ]

    def test_an_int32_seed_draws_the_noise_of_its_value(self):
        gt = HeightGrid(np.arange(16.0).reshape(4, 4))
        stages = tuple(replace(cfg, noise=3.0) for cfg in sharp_stages())
        seeds = (2**31 - 1, np.int32(2**31 - 1))
        runs = [run_pipeline(gt, (0.0, 16.0), stages, seed=s) for s in seeds]
        assert [h.values.tobytes() for h in runs[1].heights] == [
            h.values.tobytes() for h in runs[0].heights
        ]

    def test_rejects_a_range_whose_width_overflows(self):
        gt = HeightGrid(np.full((4, 4), 5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="low < high"):
                run_pipeline(gt, (-1e308, 1e308), sharp_stages())
            with pytest.raises(ValueError, match="low < high"):
                ablation_report(gt, (-1e308, 1e308), sharp_stages(), [0])

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

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_every_seed_is_checked_before_the_first_arm(self, monkeypatch, bad):
        calls = []
        run = simulate.run_pipeline

        def counted(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return run(*args, **kwargs)

        monkeypatch.setattr(simulate, "run_pipeline", counted)
        gt = HeightGrid(np.arange(16.0).reshape(4, 4))
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {bad}$"):
            ablation_report(gt, (0.0, 16.0), sharp_stages(), [0, bad])
        assert calls == []

    def test_csv_output(self, tmp_path):
        gt = generate_terrain(TerrainSpec(rows=12, cols=12, kind="fractal", seed=2))
        rows = ablation_report(gt, terrain_range(gt), sharp_stages(), seeds=[0])
        path = tmp_path / "ablation.csv"
        write_ablation_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "config,mae,rmse,lt_2.5,lt_7.5"
        assert len(lines) == 5

    def test_thresholds_come_from_the_metrics_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setattr(simulate, "DEFAULT_THRESHOLDS", (1.0, 0.25))
        gt = generate_terrain(TerrainSpec(rows=12, cols=12, kind="fractal", seed=2))
        stages = sharp_stages()  # the baseline arm's toggles
        rows = ablation_report(gt, terrain_range(gt), stages, seeds=[0])
        final = run_pipeline(gt, terrain_range(gt), stages).reports[-1]
        assert sorted(final.pct_below) == [0.25, 1.0]
        assert rows[0].pct_lt_2_5 == final.pct_below[1.0]
        assert rows[0].pct_lt_7_5 == final.pct_below[0.25]
        path = tmp_path / "ablation.csv"
        write_ablation_csv(rows, path)
        assert path.read_text().splitlines()[0] == "config,mae,rmse,lt_1,lt_0.25"


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
