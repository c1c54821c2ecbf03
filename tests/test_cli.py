"""Command-line surface: exit codes, outputs, and byte-stable reruns."""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from terraslope import default_stage_configs, read_ascii_grid, run_pipeline
from terraslope.partition import equal_partition, pixel_range
from terraslope.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(args):
    return main([str(a) for a in args])


class TestSlopeCommand:
    def test_writes_slope_and_direction(self, tmp_path):
        out_s = tmp_path / "slope.asc"
        out_d = tmp_path / "dir.asc"
        assert run(["slope", FIXTURES / "terrain.asc", out_s, out_d]) == 0
        slope = read_ascii_grid(out_s)
        dirs = read_ascii_grid(out_d)
        assert (slope.values[slope.mask] >= 0).all()
        codes = dirs.values[dirs.mask]
        assert codes.min() >= 0 and codes.max() <= 8
        assert (codes == codes.astype(int)).all()
        # the fixture's nodata hole propagates to both outputs
        assert not slope.mask[2, 4] and not dirs.mask[2, 4]

    def test_constant_input(self, tmp_path):
        const = tmp_path / "const.asc"
        const.write_text(
            "NCOLS 3\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "5 5 5\n5 5 5\n"
        )
        out_s = tmp_path / "s.asc"
        out_d = tmp_path / "d.asc"
        assert run(["slope", const, out_s, out_d]) == 0
        assert (read_ascii_grid(out_s).values == 0).all()
        assert (read_ascii_grid(out_d).values == 4).all()

    def test_pgm_rendering(self, tmp_path):
        out_s = tmp_path / "s.asc"
        out_d = tmp_path / "d.asc"
        assert run(
            ["slope", FIXTURES / "terrain.asc", out_s, out_d, "--pgm", "0", "10"]
        ) == 0
        assert (tmp_path / "s.pgm").read_bytes().startswith(b"P5\n")
        assert (tmp_path / "d.pgm").exists()

    # argparse reads "-inf" and "-1e308" as flags; "-1000...0" (1e308) is a number
    @pytest.mark.parametrize(
        "lo,hi",
        [("0", "inf"), ("nan", "1"), ("-1" + "0" * 308, "1e308")],
        ids=["inf", "nan", "overflowing-width"],
    )
    def test_non_finite_pgm_range_exits_3_without_outputs(self, tmp_path, capsys, lo, hi):
        out_s = tmp_path / "s.asc"
        out_d = tmp_path / "d.asc"
        code = run(["slope", FIXTURES / "terrain.asc", out_s, out_d, "--pgm", lo, hi])
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_input_exits_2_without_outputs(self, tmp_path):
        out_s = tmp_path / "s.asc"
        out_d = tmp_path / "d.asc"
        assert run(["slope", tmp_path / "nope.asc", out_s, out_d]) == 2
        assert not out_s.exists() and not out_d.exists()

    def test_byte_identical_reruns(self, tmp_path):
        outs = [tmp_path / f"{n}_{i}.asc" for i in (1, 2) for n in ("s", "d")]
        run(["slope", FIXTURES / "terrain.asc", outs[0], outs[1]])
        run(["slope", FIXTURES / "terrain.asc", outs[2], outs[3]])
        assert outs[0].read_bytes() == outs[2].read_bytes()
        assert outs[1].read_bytes() == outs[3].read_bytes()


class TestDirectionCommand:
    def test_direction_only(self, tmp_path):
        out = tmp_path / "dir.asc"
        assert run(["direction", FIXTURES / "terrain.asc", out, "--pgm"]) == 0
        dirs = read_ascii_grid(out)
        assert dirs.values[dirs.mask].max() <= 8
        assert (tmp_path / "dir.pgm").exists()


class TestPartitionCommand:
    def test_count_maps_and_pixel_dump(self, tmp_path, capsys):
        prefix = tmp_path / "part"
        code = run(
            [
                "partition",
                FIXTURES / "terrain.asc",
                prefix,
                "--planes",
                "8",
                "--sigma-floor",
                "5",
                "--pixel",
                "3",
                "3",
            ]
        )
        assert code == 0
        lower = read_ascii_grid(str(prefix) + "_lower_count.asc")
        upper = read_ascii_grid(str(prefix) + "_upper_count.asc")
        joint = lower.mask & upper.mask
        np.testing.assert_array_equal(
            lower.values[joint] + upper.values[joint], 8.0
        )
        out = capsys.readouterr().out
        assert out.startswith("slope_guided:")
        assert "equal:" in out

    def test_equal_line_is_the_pixel_row_of_equal_partition(self, tmp_path, capsys):
        args = ["--planes", "8", "--sigma-floor", "5", "--pixel", "3", "2"]
        assert run(["partition", FIXTURES / "terrain.asc", tmp_path / "p", *args]) == 0
        grid = read_ascii_grid(FIXTURES / "terrain.asc")
        zero_sigma = grid.with_values(np.where(grid.mask, 0.0, grid.nodata))
        even = equal_partition(pixel_range(grid, zero_sigma, 5.0), 8).planes[3, 2]
        printed = capsys.readouterr().out.splitlines()
        assert printed[1] == "equal: " + " ".join(f"{v:.6g}" for v in even)

    @pytest.mark.parametrize(
        "pixel,cause",
        [(["9999", "0"], "outside"), (["0", "-1"], "outside"), (["1", "1"], "no valid height")],
    )
    def test_bad_pixel_exits_3_before_any_output(self, tmp_path, capsys, pixel, cause):
        grid = tmp_path / "hole.asc"
        grid.write_text(
            "NCOLS 3\nNROWS 3\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNODATA_value -9999\n"
            "1 2 3\n4 -9999 6\n7 8 9\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        code = run(["partition", grid, out / "p", "--planes", "8", "--pixel", *pixel])
        assert code == 3
        assert cause in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_rejects_planes_below_two(self, tmp_path):
        assert (
            run(["partition", FIXTURES / "terrain.asc", tmp_path / "p", "--planes", "1"])
            == 3
        )

    @pytest.mark.parametrize("floor", ["inf", "1e308"])
    def test_unbounded_sigma_floor_exits_3_before_any_output(self, tmp_path, capsys, floor):
        # inf is refused as a floor; 1e308 gives finite bounds whose width overflows
        out = tmp_path / "out"
        out.mkdir()
        code = run(
            ["partition", FIXTURES / "terrain.asc", out / "p", "--planes", "8",
             "--sigma-floor", floor, "--pixel", "0", "0"]
        )
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_small_floor_at_large_heights(self, tmp_path):
        # center +- 0.001 rounds at the ulp of 1e8; the range check allows for it
        grid = tmp_path / "high.asc"
        grid.write_text(
            "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n100000000 100000001\n"
        )
        prefix = tmp_path / "p"
        code = run(["partition", grid, prefix, "--planes", "4", "--sigma-floor", "0.001"])
        assert code == 0
        lower = read_ascii_grid(str(prefix) + "_lower_count.asc")
        upper = read_ascii_grid(str(prefix) + "_upper_count.asc")
        assert (lower.values + upper.values).tolist() == [[4.0, 4.0]]

    def test_plane_volume_over_budget_exits_3(self, tmp_path, capsys):
        # 3 cells x 10^8 planes: refused by the volume budget, not OOM-killed
        grid = tmp_path / "three.asc"
        grid.write_text("NCOLS 3\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2 3\n")
        code = run(["partition", grid, tmp_path / "p", "--planes", "100000000"])
        assert code == 3
        assert "volume budget" in capsys.readouterr().err
        assert not list(tmp_path.glob("p_*"))


class TestCorrectCommand:
    def test_scale_one_on_constant_grid(self, tmp_path):
        const = tmp_path / "const.asc"
        const.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n7 7\n7 7\n"
        )
        out = tmp_path / "out.asc"
        assert run(["correct", const, out]) == 0
        assert (read_ascii_grid(out).values == 7.0).all()

    def test_scale_zero_zeroes_grid(self, tmp_path):
        out = tmp_path / "out.asc"
        assert run(["correct", FIXTURES / "noisy.asc", out, "--scale", "0"]) == 0
        assert (read_ascii_grid(out).values == 0.0).all()

    def test_self_fit_prints_scale_one(self, tmp_path, capsys):
        smoothed = tmp_path / "smoothed.asc"
        assert run(["correct", FIXTURES / "noisy.asc", smoothed]) == 0
        out = tmp_path / "out.asc"
        assert run(
            ["correct", FIXTURES / "noisy.asc", out, "--fit-target", smoothed]
        ) == 0
        printed = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("scale=")
        ]
        assert printed[-1] == "scale=1.000000"

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.asc"
        b = tmp_path / "b.asc"
        run(["correct", FIXTURES / "noisy.asc", a, "--scale", "1.5"])
        run(["correct", FIXTURES / "noisy.asc", b, "--scale", "1.5"])
        assert a.read_bytes() == b.read_bytes()


class TestEvalCommand:
    def test_self_eval_prints_zero_mae(self, capsys):
        assert run(["eval", FIXTURES / "gt.asc", FIXTURES / "gt.asc"]) == 0
        out = capsys.readouterr().out
        assert "mae=0.000000" in out

    def test_threshold_keys_present(self, capsys):
        assert run(
            ["eval", FIXTURES / "est.asc", FIXTURES / "gt.asc", "--thresholds", "2.5,7.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "lt_2.5=" in out and "lt_7.5=" in out

    def test_matches_library_metrics(self, capsys):
        from terraslope import evaluate

        est = read_ascii_grid(FIXTURES / "est.asc")
        gt = read_ascii_grid(FIXTURES / "gt.asc")
        expected = evaluate(est, gt, thresholds=(2.5, 7.5))
        run(["eval", FIXTURES / "est.asc", FIXTURES / "gt.asc"])
        out = dict(
            line.split("=") for line in capsys.readouterr().out.splitlines() if line
        )
        assert float(out["mae"]) == pytest.approx(expected.mae, abs=1e-6)
        assert float(out["comp"]) == pytest.approx(expected.completeness, abs=1e-6)

    def test_dimension_mismatch_exits_3(self, tmp_path):
        small = tmp_path / "small.asc"
        small.write_text(
            "NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1\n"
        )
        assert run(["eval", small, FIXTURES / "gt.asc"]) == 3

    def test_csv_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["eval", FIXTURES / "est.asc", FIXTURES / "gt.asc", "--csv", a])
        run(["eval", FIXTURES / "est.asc", FIXTURES / "gt.asc", "--csv", b])
        assert a.read_bytes() == b.read_bytes()


class TestRenderCommand:
    def test_renders_pgm(self, tmp_path):
        out = tmp_path / "img.pgm"
        assert run(
            ["render", FIXTURES / "terrain.asc", out, "--lo", "10", "--hi", "35"]
        ) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n6 6\n255\n")
        assert len(data) == len(b"P5\n6 6\n255\n") + 36

    def test_bad_range_exits_3(self, tmp_path):
        code = run(
            ["render", FIXTURES / "terrain.asc", tmp_path / "img.pgm", "--lo", "5", "--hi", "5"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "lo,hi", [("-inf", "inf"), ("0", "inf"), ("nan", "1"), ("-1e308", "1e308")]
    )
    def test_non_finite_range_exits_3_without_output(self, tmp_path, capsys, lo, hi):
        out = tmp_path / "img.pgm"
        code = run(["render", FIXTURES / "terrain.asc", out, f"--lo={lo}", f"--hi={hi}"])
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "text",
        [
            b"NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 \xc3\xa9\n",
            b"NCOLS 2\nNROWS 1\nXLLC\xc3\xa9RNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2\n",
        ],
        ids=["body", "header"],
    )
    def test_non_ascii_byte_exits_2_without_output(self, tmp_path, capsys, text):
        grid = tmp_path / "accent.asc"
        grid.write_bytes(text)
        assert run(["render", grid, tmp_path / "img.pgm", "--lo", "0", "--hi", "1"]) == 2
        assert "file format error: not an ASCII file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["accent.asc"]


class TestSimulateCommand:
    def test_run_directory_contents(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", FIXTURES / "sim_config.txt", out]) == 0
        for i in (1, 2, 3):
            assert (out / f"stage{i}_height.asc").exists()
            assert (out / f"stage{i}_eval.csv").exists()
        assert (out / "loss.txt").exists()

    def test_ablation_csv(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", FIXTURES / "sim_config.txt", out, "--ablation"]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "config,mae,rmse,lt_2.5,lt_7.5"
        assert len(lines) == 5

    def test_stage_keys_default_to_default_stage_configs(self, tmp_path, monkeypatch):
        seen = []

        def capture(gt, global_range, stages, seed=0):
            seen.append(stages)
            return run_pipeline(gt, global_range, stages, seed=seed)

        monkeypatch.setattr("terraslope.cli.run_pipeline", capture)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("terrain = ramp\nrows = 6\ncols = 5\n")
        assert run(["simulate", cfg, tmp_path / "run"]) == 0
        assert seen == [default_stage_configs()]

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("terrain = ramp\nrows = 4\ncols = 4\nwibble = 1\n")
        assert run(["simulate", cfg, tmp_path / "run"]) == 3
        assert "wibble" in capsys.readouterr().err

    def test_missing_required_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("rows = 4\ncols = 4\n")
        assert run(["simulate", cfg, tmp_path / "run"]) == 3
        assert "terrain" in capsys.readouterr().err

    def test_single_plane_rejected_before_execution(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(
            "terrain = ramp\nrows = 8\ncols = 8\nplanes = 1,8,8\n"
        )
        out = tmp_path / "run"
        assert run(["simulate", cfg, out]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,key",
        [
            ("noise = nan", "noise"),
            ("sigma_floors = 0,nan,10", "sigma_floors"),
            ("planes = 64,32.7,8", "planes"),
        ],
    )
    def test_bad_numeric_value_exits_3_naming_the_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"terrain = ramp\nrows = 8\ncols = 8\n{line}\n")
        out = tmp_path / "run"
        assert run(["simulate", cfg, out]) == 3
        assert f"{key} must" in capsys.readouterr().err
        assert not out.exists()

    def test_two_stage_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "terrain = fractal\nrows = 12\ncols = 12\nplanes = 16,8\nsigma_floors = 0,10\n"
        )
        out = tmp_path / "run"
        assert run(["simulate", cfg, out]) == 0
        for suffix in ("height.asc", "slope.asc", "dir.asc", "eval.csv"):
            assert (out / f"stage1_{suffix}").exists()
            assert (out / f"stage2_{suffix}").exists()
        assert not list(out.glob("stage3_*"))
        printed = capsys.readouterr().out.splitlines()
        assert [line.split("=")[0] for line in printed] == ["stage1_mae", "stage2_mae"]

    def test_mismatched_stage_lists_exit_3_naming_both_keys(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("terrain = ramp\nrows = 8\ncols = 8\nplanes = 16,8\n")
        out = tmp_path / "run"
        assert run(["simulate", cfg, out]) == 3
        err = capsys.readouterr().err
        assert "planes" in err and "sigma_floors" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines", ["planes =\n", "planes =\nsigma_floors =\n"], ids=["planes", "both"]
    )
    def test_empty_schedule_exits_3(self, tmp_path, lines):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"terrain = ramp\nrows = 8\ncols = 8\n{lines}")
        out = tmp_path / "run"
        assert run(["simulate", cfg, out]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["x", ",", "1,two", "0,-1"])
    def test_bad_ablation_seeds_exit_3_before_any_output(self, tmp_path, capsys, seeds):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"terrain = ramp\nrows = 8\ncols = 8\nablation_seeds = {seeds}\n")
        out = tmp_path / "run"
        assert run(["simulate", cfg, out, "--ablation"]) == 3
        captured = capsys.readouterr()
        assert "ablation_seeds" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--ablation"]], ids=["run", "ablation"])
    def test_negative_seed_exits_3_before_any_output(self, tmp_path, capsys, flags):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("terrain = ramp\nrows = 8\ncols = 8\nseed = -1\n")
        out = tmp_path / "run"
        assert run(["simulate", cfg, out, *flags]) == 3
        captured = capsys.readouterr()
        assert "seed must" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        assert run(["simulate", FIXTURES / "sim_config.txt", out_a]) == 0
        assert run(["simulate", FIXTURES / "sim_config.txt", out_b]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        assert names_a == sorted(p.name for p in out_b.iterdir())
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestHostileInputs:
    def test_huge_header_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "huge.asc"
        grid.write_text(
            "NCOLS 1000000\nNROWS 1000000\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2 3\n"
        )
        assert run(["slope", grid, tmp_path / "s.asc", tmp_path / "d.asc"]) == 2
        assert "value count mismatch" in capsys.readouterr().err

    def test_astronomical_row_count_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "huge.asc"
        grid.write_text("NCOLS 1\nNROWS 1e300\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2 3\n")
        assert run(["slope", grid, tmp_path / "s.asc", tmp_path / "d.asc"]) == 2
        assert "value count mismatch" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.asc"]

    def test_huge_hill_roughness_exits_3_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "hills.txt"
        cfg.write_text("terrain = gaussian-hills\nrows = 16\ncols = 16\nroughness = 1e12\n")
        out = tmp_path / "run"
        start = time.perf_counter()
        assert run(["simulate", cfg, out]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "roughness" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("roughness", ["1e200", "-1e200"])
    def test_fractal_overflow_exits_3_naming_roughness(self, tmp_path, capsys, roughness):
        cfg = tmp_path / "fractal.txt"
        cfg.write_text(f"terrain = fractal\nrows = 16\ncols = 16\nroughness = {roughness}\n")
        out = tmp_path / "run"
        assert run(["simulate", cfg, out]) == 3
        captured = capsys.readouterr()
        assert "roughness" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, stage, value",
        [
            ("temperature = 1e-320", 1, "expected height"),
            ("amplitude = 1e300", 1, "height spread"),
            ("sigma_floors = 0,1e200,10", 2, "height spread"),
            ("noise = 1e308", 1, "expected height"),
        ],
    )
    def test_non_finite_stage_exits_3_naming_the_stage(self, tmp_path, capsys, line, stage, value):
        cfg = tmp_path / "overflow.txt"
        cfg.write_text(f"terrain = fractal\nrows = 16\ncols = 16\n{line}\n")
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", cfg, out]) == 3
        captured = capsys.readouterr()
        assert f"stage {stage}: non-finite {value}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_range_overflow_exits_3_naming_the_stage(self, tmp_path, capsys):
        cfg = tmp_path / "range.txt"
        cfg.write_text("terrain = fractal\nrows = 16\ncols = 16\nsigma_floors = 0,1e308,10\n")
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", cfg, out]) == 3
        captured = capsys.readouterr()
        assert "stage 2: range bounds, width and sigma must be finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, est, gt, cause",
        [
            (
                ["slope", "{}/est.asc", "{}/s.asc", "{}/d.asc", "--pgm", "0", "1"],
                "1.7e308 -1.7e308",
                None,
                "slope at (0, 1) overflows",
            ),
            (
                ["partition", "{}/est.asc", "{}/p", "--planes", "4", "--sigma-floor", "0"],
                "1.7e308 -1.7e308",
                None,
                "rise slope factor at (0, 1) overflows",
            ),
            (
                ["eval", "{}/est.asc", "{}/gt.asc", "--csv", "{}/e.csv"],
                "1.7e308 -1.7e308",
                "-1.7e308 1.7e308",
                "mean absolute height error is beyond the float64 range",
            ),
            (
                ["eval", "{}/est.asc", "{}/gt.asc", "--csv", "{}/e.csv"],
                "1e200 1e200",
                "0 0",
                "mean squared height error is beyond the float64 range",
            ),
        ],
        ids=["slope", "partition", "eval-difference", "eval-square"],
    )
    def test_overflowing_height_difference_exits_3_without_output(
        self, tmp_path, capsys, argv, est, gt, cause
    ):
        header = "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
        inputs = {"est.asc": est} if gt is None else {"est.asc": est, "gt.asc": gt}
        for name, row in inputs.items():
            (tmp_path / name).write_text(f"{header}{row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([arg.format(tmp_path) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert cause in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)

    @pytest.mark.parametrize(
        "flags, cause",
        [
            (["--scale=inf"], "scale must be finite"),
            (["--scale=nan"], "scale must be finite"),
            (["--scale=1e308"], "scale 1e+308 overflows"),
            (["--fit-target", "huge"], "scale fit overflows"),
        ],
    )
    def test_hostile_correction_scale_exits_3_without_output(self, tmp_path, capsys, flags, cause):
        grid = tmp_path / "huge.asc"
        grid.write_text("NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1e308 1e308\n")
        flags = [grid if flag == "huge" else flag for flag in flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["correct", grid, tmp_path / "out.asc", *flags]) == 3
        captured = capsys.readouterr()
        assert cause in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.asc"]

    @pytest.mark.parametrize("header", ["XLLCORNER nan", "YLLCORNER -inf", "CELLSIZE inf"])
    def test_non_finite_metadata_exits_2(self, tmp_path, capsys, header):
        key = header.split()[0]
        lines = ["NCOLS 2", "NROWS 2", "XLLCORNER 0", "YLLCORNER 0", "CELLSIZE 1"]
        lines = [header if line.split()[0] == key else line for line in lines]
        grid = tmp_path / "meta.asc"
        grid.write_text("\n".join(lines) + "\n1 2\n3 4\n")
        argv = ["slope", grid, tmp_path / "s.asc", tmp_path / "d.asc", "--pgm", "0", "1"]
        assert run(argv) == 2
        assert "must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.asc"]

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr("terraslope.cli.read_ascii_grid", exhausted)
        argv = ["slope", FIXTURES / "terrain.asc", tmp_path / "s.asc", tmp_path / "d.asc"]
        assert run(argv) == 3
        assert "out of memory: Unable to allocate" in capsys.readouterr().err


class TestUsageAndHelp:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("slope", ["--pgm"]),
            ("direction", ["--pgm"]),
            ("partition", ["--planes", "--sigma-floor", "--pixel"]),
            ("correct", ["--scale", "--fit-target"]),
            ("eval", ["--thresholds", "--csv"]),
            ("simulate", ["--ablation"]),
            ("render", ["--lo", "--hi"]),
        ],
    )
    def test_help_exits_zero_and_lists_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ["--help"] + flags:
            assert flag in out

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_argument_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["slope"])
        assert exc.value.code == 1
