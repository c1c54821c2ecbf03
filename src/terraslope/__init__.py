"""Slope-aware terrain raster toolkit.

Building blocks for height-map processing around a simple idea: terrain
slope, read directly off a height grid, tells you where estimation effort
should go.  The package provides

* grid types and ASCII-grid/PGM I/O (:mod:`terraslope.raster`),
* 3x3 slope magnitude and direction maps (:mod:`terraslope.slope`),
* equal and slope-guided hypothesis-plane partition
  (:mod:`terraslope.partition`),
* Gaussian height correction with a fittable scale
  (:mod:`terraslope.correction`),
* height/direction training criteria (:mod:`terraslope.losses`),
* DSM evaluation metrics (:mod:`terraslope.metrics`),
* a coarse-to-fine simulation harness with synthetic terrain
  (:mod:`terraslope.simulate`).
"""

from .correction import BASE_WEIGHTS, GaussianKernel, correct, fit_scale
from .losses import (
    LossReport,
    direction_loss,
    height_loss,
    loss_report,
    overall_loss,
    stage_weights,
)
from .metrics import (
    DEFAULT_THRESHOLDS,
    EvalReport,
    Mvs3dReport,
    evaluate,
    format_report,
    mvs3d_report,
    write_report_csv,
)
from .partition import (
    HypothesisPlanes,
    PixelRanges,
    ProbabilityVolume,
    equal_partition,
    expected_height,
    pixel_range,
    pixel_std,
    slope_guided_partition,
)
from .raster import (
    DIRECTION_LABELS,
    GridFormatError,
    HeightGrid,
    SlopeDirectionGrid,
    read_ascii_grid,
    render_pgm,
    write_ascii_grid,
)
from .simulate import (
    AblationRow,
    SimulationResult,
    StageConfig,
    TerrainSpec,
    ablation_report,
    default_stage_configs,
    generate_terrain,
    oracle_matcher,
    run_pipeline,
    write_ablation_csv,
    write_run_directory,
)
from .slope import SlopeFactors, slope_direction_map, slope_factor_maps, slope_map

__version__ = "0.1.0"

__all__ = [
    "AblationRow",
    "BASE_WEIGHTS",
    "DEFAULT_THRESHOLDS",
    "DIRECTION_LABELS",
    "EvalReport",
    "GaussianKernel",
    "GridFormatError",
    "HeightGrid",
    "HypothesisPlanes",
    "LossReport",
    "Mvs3dReport",
    "PixelRanges",
    "ProbabilityVolume",
    "SimulationResult",
    "SlopeDirectionGrid",
    "SlopeFactors",
    "StageConfig",
    "TerrainSpec",
    "ablation_report",
    "correct",
    "default_stage_configs",
    "direction_loss",
    "equal_partition",
    "evaluate",
    "expected_height",
    "fit_scale",
    "format_report",
    "generate_terrain",
    "height_loss",
    "loss_report",
    "mvs3d_report",
    "oracle_matcher",
    "overall_loss",
    "pixel_range",
    "pixel_std",
    "read_ascii_grid",
    "render_pgm",
    "run_pipeline",
    "slope_direction_map",
    "slope_factor_maps",
    "slope_guided_partition",
    "slope_map",
    "stage_weights",
    "write_ablation_csv",
    "write_ascii_grid",
    "write_report_csv",
    "write_run_directory",
]
