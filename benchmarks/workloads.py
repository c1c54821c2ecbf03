"""The benchmark's four workloads.

Each workload turns a seed into inputs (``setup``), runs one timed
iteration on them (``run``), and reduces the iteration's output to a
fingerprint that is compared with stored reference values.  The seed picks
one of VARIANTS input variants (terrain seed = seed mod VARIANTS), so every
seed has stored references; ``run.py --write-reference`` writes them.

Library functions are looked up as module attributes at call time
(``simulate.run_pipeline``, not a name imported from it), so the tracer's
rebinding of those attributes reaches every call.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from terraslope import cli, correction, metrics, raster, simulate, slope

from checks import digest, grid_fingerprint, float_array_fingerprint, report_fingerprint

VARIANTS = 16
AMPLITUDE = 200.0
ROUGHNESS = 0.5
#: Standard deviation (m) of the noise added to make a degraded DSM.
DSM_NOISE = 2.0
#: Share of cells turned into nodata holes in windows-1024.
HOLE_SHARE = 0.05
ABLATION_SEEDS = list(range(10))


@dataclass(frozen=True)
class Workload:
    name: str
    #: Ground-truth pixels completed by one iteration.
    pixels: int
    setup: Callable[[int, Path], object]
    run: Callable[[object], object]
    fingerprint: Callable[[object], dict]
    #: The output with one value moved by the smallest step the output can
    #: show; the check must reject it.
    perturb: Callable[[object], object]
    final_mae: Callable[[object], float]
    slope_gain: Callable[[object], float] | None = None


def terrain(size: int, variant: int):
    spec = simulate.TerrainSpec(size, size, "fractal", AMPLITUDE, ROUGHNESS, seed=variant)
    return simulate.generate_terrain(spec)


def global_range(gt) -> tuple[float, float]:
    """The range the CLI derives when a config gives none."""
    valid = gt.values[gt.mask]
    return float(valid.min()), float(valid.max()) + 1e-9


def degraded(gt, variant: int, holes: bool):
    """``gt`` plus Gaussian noise, optionally with nodata holes."""
    rng = np.random.default_rng([variant, 1])
    values = gt.values + rng.normal(0.0, DSM_NOISE, gt.shape)
    if holes:
        values[rng.random(gt.shape) < HOLE_SHARE] = gt.nodata
    return gt.with_values(values)


def bump_grid(grid):
    """``grid`` with its middle valid cell raised by 1e-6."""
    values = grid.values.copy()
    valid = np.flatnonzero(grid.mask)
    values.flat[valid[valid.size // 2]] += 1e-6
    return grid.with_values(values)


# pipeline-512 ---------------------------------------------------------------


def _pipeline_setup(variant: int, workdir: Path):
    gt = terrain(512, variant)
    return gt, global_range(gt), simulate.default_stage_configs(), variant


def _pipeline_run(state):
    gt, rng, stages, seed = state
    return simulate.run_pipeline(gt, rng, stages, seed=seed)


def _pipeline_fingerprint(result) -> dict:
    return {
        "stages": [{"mae": r.mae, "rmse": r.rmse} for r in result.reports],
        "final_height": grid_fingerprint(result.heights[-1]),
    }


def _pipeline_perturb(result):
    return replace(result, heights=result.heights[:-1] + (bump_grid(result.heights[-1]),))


# ablation-128 ---------------------------------------------------------------


def _ablation_setup(variant: int, workdir: Path):
    gt = terrain(128, variant)
    return gt, global_range(gt), simulate.default_stage_configs(), ABLATION_SEEDS


def _ablation_run(state):
    gt, rng, stages, seeds = state
    return simulate.ablation_report(gt, rng, stages, seeds)


def _ablation_fingerprint(rows) -> dict:
    return {
        "rows": [
            {
                "label": r.label,
                "mae": r.mae,
                "rmse": r.rmse,
                "lt_2.5": r.pct_lt_2_5,
                "lt_7.5": r.pct_lt_7_5,
            }
            for r in rows
        ]
    }


def _ablation_perturb(rows):
    return rows[:-1] + [replace(rows[-1], mae=rows[-1].mae + 1e-6)]


def ablation_mae(rows, label: str) -> float:
    return next(r.mae for r in rows if r.label == label)


def slope_gain(rows) -> float:
    """Baseline MAE minus slope-partition MAE: the paper's claim as a number."""
    return ablation_mae(rows, "baseline") - ablation_mae(rows, "slope_partition")


# toolkit-512 ----------------------------------------------------------------

#: Files the CLI chain writes, in a fresh directory per iteration.
TOOLKIT_FILES = ("slope.asc", "dir.asc", "slope.pgm", "dir.pgm", "corrected.asc", "eval.csv")


@dataclass(frozen=True)
class ToolkitOutput:
    codes: tuple[int, ...]
    stdout: str
    out_dir: Path


def _toolkit_setup(variant: int, workdir: Path):
    gt = terrain(512, variant)
    raster.write_ascii_grid(gt, workdir / "gt.asc")
    raster.write_ascii_grid(degraded(gt, variant, holes=False), workdir / "noisy.asc")
    return workdir


def _toolkit_run(workdir: Path) -> ToolkitOutput:
    out = workdir / "out"
    # An empty directory, so a command that fails to write cannot pass the
    # check with an earlier iteration's file.
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    noisy, gt = str(workdir / "noisy.asc"), str(workdir / "gt.asc")
    argvs = (
        ["slope", noisy, str(out / "slope.asc"), str(out / "dir.asc"), "--pgm", "0", "50"],
        ["correct", noisy, str(out / "corrected.asc"), "--fit-target", gt],
        ["eval", str(out / "corrected.asc"), gt, "--csv", str(out / "eval.csv")],
    )
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        codes = tuple(cli.main(argv) for argv in argvs)
    return ToolkitOutput(codes, text.getvalue(), out)


def _toolkit_fingerprint(output: ToolkitOutput) -> dict:
    return {
        "codes": list(output.codes),
        "stdout": output.stdout,
        "files": {name: digest((output.out_dir / name).read_bytes()) for name in TOOLKIT_FILES},
    }


def _toolkit_perturb(output: ToolkitOutput) -> ToolkitOutput:
    """A copy of the output whose first corrected height is one digit off.

    The ASCII format keeps 6 significant digits, so its last digit is the
    smallest change a written height can show.
    """
    copy = output.out_dir.with_name("perturbed")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(output.out_dir, copy)
    path = copy / "corrected.asc"
    lines = path.read_text(encoding="ascii").split("\n")
    first_row = 6  # after the five header lines and NODATA_VALUE
    token = lines[first_row].split(" ", 1)
    token[0] = token[0][:-1] + str((int(token[0][-1]) + 1) % 10)
    lines[first_row] = " ".join(token)
    path.write_text("\n".join(lines), encoding="ascii")
    return replace(output, out_dir=copy)


def _toolkit_mae(output: ToolkitOutput) -> float:
    """The MAE the eval command printed."""
    line = next(x for x in output.stdout.splitlines() if x.startswith("mae="))
    return float(line.split("=", 1)[1])


# windows-1024 ---------------------------------------------------------------


@dataclass(frozen=True)
class WindowOutput:
    slope: object
    direction: object
    factors: object
    scale: float
    corrected: object
    report: object


def _windows_setup(variant: int, workdir: Path):
    gt = terrain(1024, variant)
    return degraded(gt, variant, holes=True), gt


def _windows_run(state) -> WindowOutput:
    noisy, gt = state
    slope_grid = slope.slope_map(noisy)
    direction = slope.slope_direction_map(noisy)
    factors = slope.slope_factor_maps(noisy)
    kernel = correction.fit_scale(noisy, gt)
    corrected = correction.correct(noisy, kernel)
    report = metrics.evaluate(corrected, gt)
    return WindowOutput(slope_grid, direction, factors, kernel.scale, corrected, report)


def _windows_fingerprint(out: WindowOutput) -> dict:
    mask = out.slope.mask
    return {
        "slope": grid_fingerprint(out.slope),
        "direction": {"codes": digest(out.direction.codes), "mask": digest(out.direction.mask)},
        "rise": float_array_fingerprint(out.factors.rise, mask),
        "drop": float_array_fingerprint(out.factors.drop, mask),
        "scale": out.scale,
        "corrected": grid_fingerprint(out.corrected),
        "report": report_fingerprint(out.report),
    }


def _windows_perturb(out: WindowOutput) -> WindowOutput:
    return replace(out, corrected=bump_grid(out.corrected))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-512",
            pixels=512 * 512,
            setup=_pipeline_setup,
            run=_pipeline_run,
            fingerprint=_pipeline_fingerprint,
            perturb=_pipeline_perturb,
            final_mae=lambda result: result.reports[-1].mae,
        ),
        Workload(
            name="ablation-128",
            pixels=128 * 128 * len(ABLATION_SEEDS) * len(simulate.ABLATION_ARMS),
            setup=_ablation_setup,
            run=_ablation_run,
            fingerprint=_ablation_fingerprint,
            perturb=_ablation_perturb,
            final_mae=lambda rows: ablation_mae(rows, "combined"),
            slope_gain=slope_gain,
        ),
        Workload(
            name="toolkit-512",
            pixels=512 * 512,
            setup=_toolkit_setup,
            run=_toolkit_run,
            fingerprint=_toolkit_fingerprint,
            perturb=_toolkit_perturb,
            final_mae=_toolkit_mae,
        ),
        Workload(
            name="windows-1024",
            pixels=1024 * 1024,
            setup=_windows_setup,
            run=_windows_run,
            fingerprint=_windows_fingerprint,
            perturb=_windows_perturb,
            final_mae=lambda out: out.report.mae,
        ),
    )
}
