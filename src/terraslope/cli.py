"""Command-line interface.

One verb per capability::

    terraslope slope      IN OUT_SLOPE OUT_DIR [--pgm LO HI]
    terraslope direction  IN OUT [--pgm]
    terraslope partition  IN OUT_PREFIX --planes M [--sigma-floor F] [--pixel R C]
    terraslope correct    IN OUT [--scale S | --fit-target PATH]
    terraslope eval       EST GT [--thresholds LIST] [--csv PATH]
    terraslope simulate   CONFIG OUT_DIR [--ablation]
    terraslope render     IN OUT --lo L --hi H

All grids are ESRI ASCII files, images are binary PGM, tables are CSV with
a header row.  Commands are idempotent and never leave partial output:
files are staged to a temporary name and renamed into place on success.

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error,
3 validation error.  A request that still runs out of memory (a
``MemoryError``) also exits 3: the input asked for more than fits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .correction import GaussianKernel, correct, fit_scale
from .metrics import DEFAULT_THRESHOLDS, evaluate, format_report, write_report_csv
from .partition import _equal_planes, pixel_range, slope_guided_partition
from .raster import GridFormatError, read_ascii_grid, render_pgm, write_ascii_grid
from .simulate import (
    StageConfig,
    TerrainSpec,
    ablation_report,
    default_stage_configs,
    generate_terrain,
    run_pipeline,
    write_ablation_csv,
    write_run_directory,
)
from .slope import (
    direction_as_grid,
    slope_and_direction,
    slope_direction_map,
    slope_factor_maps,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _pgm_sibling(path: str) -> Path:
    return Path(path).with_suffix(".pgm")


def cmd_slope(args: argparse.Namespace) -> int:
    # No name keeps the input grid or the codes, so each is freed once the
    # grids made from it exist; the slope grid has the input's metadata and mask.
    slope, direction = slope_and_direction(read_ascii_grid(args.input))
    direction = direction_as_grid(direction, like=slope)
    # The slope PGM is written first: render_pgm checks LO/HI before it
    # writes, so bad bounds leave no output.
    if args.pgm is not None:
        lo, hi = args.pgm
        render_pgm(slope, _pgm_sibling(args.out_slope), lo, hi)
        render_pgm(direction, _pgm_sibling(args.out_dir), 0.0, 8.0)
    write_ascii_grid(slope, args.out_slope)
    write_ascii_grid(direction, args.out_dir)
    return EXIT_OK


def cmd_direction(args: argparse.Namespace) -> int:
    # Not slope_and_direction: a slope beyond the float64 range must not fail
    # a direction map that does not need it.
    grid = read_ascii_grid(args.input)
    direction = direction_as_grid(slope_direction_map(grid), like=grid)
    write_ascii_grid(direction, args.output)
    if args.pgm:
        render_pgm(direction, _pgm_sibling(args.output), 0.0, 8.0)
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    grid = read_ascii_grid(args.input)
    if args.pixel is not None:
        r, c = args.pixel
        if not (0 <= r < grid.rows and 0 <= c < grid.cols):
            raise ValueError(f"pixel ({r}, {c}) outside {grid.rows}x{grid.cols} grid")
        if not grid.mask[r, c]:
            raise ValueError(f"pixel ({r}, {c}) has no valid height")
    zero_sigma = grid.with_valid(np.zeros(grid.shape), grid.mask)
    ranges = pixel_range(grid, zero_sigma, args.sigma_floor)
    factors = slope_factor_maps(grid)
    planes = slope_guided_partition(grid, ranges, factors, args.planes)
    # Lower-subrange planes sit strictly below the center estimate.
    below = (planes.planes < grid.values[:, :, None]).sum(axis=2)
    counts_low = grid.with_valid(below.astype(np.float64), grid.mask)
    counts_high = grid.with_valid(float(args.planes) - below, grid.mask)
    write_ascii_grid(counts_low, args.out_prefix + "_lower_count.asc")
    write_ascii_grid(counts_high, args.out_prefix + "_upper_count.asc")
    if args.pixel is not None:
        guided = planes.planes[r, c]
        even = _equal_planes(ranges.low[r, c], ranges.high[r, c], args.planes)
        print("slope_guided:", " ".join(f"{v:.6g}" for v in guided))
        print("equal:", " ".join(f"{v:.6g}" for v in even))
    return EXIT_OK


def cmd_correct(args: argparse.Namespace) -> int:
    grid = read_ascii_grid(args.input)
    if args.fit_target is not None:
        target = read_ascii_grid(args.fit_target)
        kernel = fit_scale(grid, target)
        print(f"scale={kernel.scale:.6f}")
    else:
        kernel = GaussianKernel(scale=args.scale)
    write_ascii_grid(correct(grid, kernel), args.output)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    est = read_ascii_grid(args.estimate)
    gt = read_ascii_grid(args.ground_truth)
    thresholds = _parse_float_list(args.thresholds, "thresholds")
    report = evaluate(est, gt, thresholds=thresholds)
    print(format_report(report))
    if args.csv is not None:
        write_report_csv(report, args.csv)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    grid = read_ascii_grid(args.input)
    render_pgm(grid, args.output, args.lo, args.hi)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _read_config(args.config)
    spec = TerrainSpec(
        rows=_parse_int(config["rows"], "rows"),
        cols=_parse_int(config["cols"], "cols"),
        kind=config["terrain"],
        amplitude=_parse_float(config["amplitude"], "amplitude"),
        roughness=_parse_float(config["roughness"], "roughness"),
        seed=_parse_int(config["seed"], "seed"),
    )
    plane_counts = _parse_int_list(config["planes"], "planes")
    floors = _parse_float_list(config["sigma_floors"], "sigma_floors")
    if len(plane_counts) != len(floors):
        raise ValueError(
            f"planes and sigma_floors must list one value per stage, "
            f"got {len(plane_counts)} and {len(floors)}"
        )
    stages = tuple(
        StageConfig(
            plane_count=m,
            sigma_floor=f,
            use_slope_partition=_parse_bool(config["slope_partition"], "slope_partition"),
            use_height_correction=_parse_bool(
                config["height_correction"], "height_correction"
            ),
            temperature=_parse_float(config["temperature"], "temperature"),
            noise=_parse_float(config["noise"], "noise"),
        )
        for m, f in zip(plane_counts, floors)
    )
    if args.ablation:
        seeds = _parse_int_list(config["ablation_seeds"], "ablation_seeds")
        if not seeds or min(seeds) < 0:
            raise ValueError(
                "ablation_seeds must list at least one seed, all >= 0, "
                f"got {config['ablation_seeds']!r}"
            )
    gt = generate_terrain(spec)
    if (config["range_low"] is None) != (config["range_high"] is None):
        raise ValueError("range_low and range_high must be given together")
    if config["range_low"] is not None:
        global_range = (
            _parse_float(config["range_low"], "range_low"),
            _parse_float(config["range_high"], "range_high"),
        )
    else:
        valid = gt.values[gt.mask]
        global_range = (float(valid.min()), float(valid.max()) + 1e-9)
    result = run_pipeline(gt, global_range, stages, seed=spec.seed)
    write_run_directory(result, gt, global_range, args.out_dir)
    for i, report in enumerate(result.reports, start=1):
        print(f"stage{i}_mae={report.mae:.6f}")
    if args.ablation:
        rows = ablation_report(gt, global_range, stages, seeds)
        write_ablation_csv(rows, Path(args.out_dir) / "ablation.csv")
        for row in rows:
            print(f"{row.label}_mae={row.mae:.6f}")
    return EXIT_OK


_DEFAULT_STAGES = default_stage_configs()
_TERRAIN_DEFAULTS = {field.name: field.default for field in fields(TerrainSpec)}
#: Stage keys default to :func:`~terraslope.simulate.default_stage_configs`
#: and terrain keys to the ``TerrainSpec`` field defaults.  ``amplitude``
#: keeps its own 200: ``TerrainSpec`` defaults to 100, and aligning the two
#: would change the outputs of existing configs.
_CONFIG_DEFAULTS: dict[str, str | None] = {
    "amplitude": "200",
    "roughness": str(_TERRAIN_DEFAULTS["roughness"]),
    "seed": str(_TERRAIN_DEFAULTS["seed"]),
    "range_low": None,
    "range_high": None,
    "planes": ",".join(str(stage.plane_count) for stage in _DEFAULT_STAGES),
    "sigma_floors": ",".join(str(stage.sigma_floor) for stage in _DEFAULT_STAGES),
    "temperature": str(_DEFAULT_STAGES[0].temperature),
    "noise": str(_DEFAULT_STAGES[0].noise),
    "slope_partition": str(_DEFAULT_STAGES[0].use_slope_partition),
    "height_correction": str(_DEFAULT_STAGES[0].use_height_correction),
    "ablation_seeds": "0,1,2,3,4,5,6,7,8,9",
}
_CONFIG_REQUIRED = ("terrain", "rows", "cols")


def _read_config(path: str) -> dict[str, str | None]:
    """Parse a flat ``key = value`` ASCII config file.

    Unknown or missing keys are reported by name, a non-ASCII byte by line.
    """
    config: dict[str, str | None] = dict(_CONFIG_DEFAULTS)
    known = set(_CONFIG_DEFAULTS) | set(_CONFIG_REQUIRED)
    # surrogateescape decodes each non-ASCII byte b to U+DC00 + b.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                byte = next(ord(ch) for ch in raw if not ch.isascii()) - 0xDC00
                raise ValueError(f"config line {lineno}: not ASCII: byte 0x{byte:02x}")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"config line {lineno}: unknown key '{key}'")
            config[key] = value
    for key in _CONFIG_REQUIRED:
        if key not in config:
            raise ValueError(f"config is missing required key '{key}'")
    return config


def _parse_float(text: str, name: str) -> float:
    """A finite number, or a ``ValueError`` that names the config key."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {text!r}")
    return value


def _parse_int(text: str, name: str) -> int:
    """An integer, or a ``ValueError`` that names the config key."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated number list, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must list finite numbers, got {text!r}")
    return values


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(
            f"{name} must be a comma-separated integer list, got {text!r}"
        ) from None


def _parse_bool(text: str, name: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{name} must be a boolean, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="terraslope", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("slope", help="write slope and direction maps of a grid")
    p.add_argument("input", help="input ASCII grid")
    p.add_argument("out_slope", help="output slope map (ASCII grid)")
    p.add_argument("out_dir", help="output direction map (ASCII grid of codes 0..8)")
    p.add_argument(
        "--pgm",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        help="also render PGM quick-looks; LO/HI scale the slope map",
    )
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("direction", help="write the slope-direction map of a grid")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--pgm", action="store_true", help="also render a PGM quick-look")
    p.set_defaults(func=cmd_direction)

    p = sub.add_parser(
        "partition", help="inspect the slope-guided plane allocation of a grid"
    )
    p.add_argument("input")
    p.add_argument("out_prefix", help="prefix for *_lower_count.asc / *_upper_count.asc")
    p.add_argument("--planes", type=int, required=True, help="planes per pixel (>= 2)")
    p.add_argument(
        "--sigma-floor",
        type=float,
        default=10.0,
        help="half-width of the per-pixel range in meters (default 10)",
    )
    p.add_argument(
        "--pixel",
        nargs=2,
        type=int,
        metavar=("ROW", "COL"),
        help="print the plane lists for one pixel",
    )
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("correct", help="apply (or fit) the Gaussian height correction")
    p.add_argument("input")
    p.add_argument("output")
    scale = GaussianKernel().scale
    p.add_argument("--scale", type=float, default=scale, help="kernel scale (default %(default)g)")
    p.add_argument(
        "--fit-target",
        help="fit the scale against this grid first (prints the fitted value)",
    )
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("eval", help="score an estimated DSM against ground truth")
    p.add_argument("estimate")
    p.add_argument("ground_truth")
    p.add_argument(
        "--thresholds",
        default=",".join(str(t) for t in DEFAULT_THRESHOLDS),
        help="comma-separated error thresholds in meters (default %(default)s)",
    )
    p.add_argument("--csv", help="also write the report as metric,value CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="run the coarse-to-fine harness from a config")
    p.add_argument("config", help="flat key = value config file")
    p.add_argument("out_dir", help="run directory for stage grids and reports")
    p.add_argument(
        "--ablation",
        action="store_true",
        help="also write the 4-row feature-combination table (ablation.csv)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="render a grid to an 8-bit PGM image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--lo", type=float, required=True, help="height mapped to black")
    p.add_argument("--hi", type=float, required=True, help="height mapped to white")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridFormatError as exc:
        print(f"terraslope: file format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"terraslope: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"terraslope: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"terraslope: validation error: out of memory{detail}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
