"""Argument checks that no other test reaches, each pinned to its message.

Every row calls one public entry point (or the CLI's list parser) with the
smallest input that trips one ``raise`` and states the whole message.
"""

import re

import numpy as np
import pytest

from terraslope import (
    GaussianKernel,
    HeightGrid,
    HypothesisPlanes,
    PixelRanges,
    ProbabilityVolume,
    SimulationResult,
    SlopeDirectionGrid,
    SlopeFactors,
    StageConfig,
    TerrainSpec,
    ablation_report,
    default_stage_configs,
    direction_loss,
    height_loss,
    oracle_matcher,
    pixel_range,
    pixel_std,
    run_pipeline,
    slope_direction_map,
    slope_guided_partition,
)
from terraslope.cli import _parse_float_list

from conftest import NODATA

ONE = HeightGrid(np.array([[1.0]]))
TWO_BY_TWO = HeightGrid(np.zeros((2, 2)))
VALID = np.array([[True]])
PLANES = HypothesisPlanes(planes=np.array([[[0.0, 1.0]]]), mask=VALID)
PROBS_3 = ProbabilityVolume(probs=np.full((1, 1, 3), 1.0 / 3.0), mask=VALID)
RANGES = PixelRanges(low=np.zeros((2, 2)), high=np.ones((2, 2)), mask=np.ones((2, 2), bool))
FLAT = SlopeFactors(rise=np.zeros((1, 1)), drop=np.zeros((1, 1)))
ZEROS = np.zeros((2, 2))
# Row 0 is a hole and one 1025-column row of 64 planes fills a whole tile,
# so the bad cell lies in the tile that starts at row 1.
SECOND_ROW = HeightGrid(np.vstack([np.full(1025, NODATA), np.zeros(1025)]), nodata=NODATA)

REJECTIONS = {
    "losses-weight-count": (
        lambda: height_loss([ONE], [ONE], weights=[1.0, 2.0]),
        "expected 1 stage weights, got 2",
    ),
    "losses-height-stage-count": (
        lambda: height_loss([ONE], []),
        "1 predictions vs 0 ground truths",
    ),
    "losses-direction-stage-count": (
        lambda: direction_loss([slope_direction_map(ONE)], []),
        "1 predictions vs 0 references",
    ),
    "planes-not-3d": (
        lambda: HypothesisPlanes(planes=np.zeros((1, 2)), mask=VALID),
        "planes must be (rows, cols, M), got (1, 2)",
    ),
    "planes-zero-planes": (
        lambda: HypothesisPlanes(planes=np.zeros((1, 1, 0)), mask=VALID),
        "at least one plane per pixel required",
    ),
    "probs-not-3d": (
        lambda: ProbabilityVolume(probs=np.ones((1, 1)), mask=VALID),
        "probs must be (rows, cols, M), got (1, 1)",
    ),
    "ranges-shapes": (
        lambda: PixelRanges(low=np.zeros((1, 1)), high=np.zeros((1, 2)), mask=VALID),
        "range component shapes must all match",
    ),
    "ranges-low-above-high": (
        lambda: PixelRanges(low=np.ones((1, 1)), high=np.zeros((1, 1)), mask=VALID),
        "range low must not exceed high",
    ),
    "pixel-std-volumes": (
        lambda: pixel_std(PLANES, PROBS_3, ONE),
        "planes (1, 1, 2) and probs (1, 1, 3) differ",
    ),
    "pixel-std-height": (
        lambda: pixel_std(
            PLANES, ProbabilityVolume(probs=np.full((1, 1, 2), 0.5), mask=VALID), TWO_BY_TWO
        ),
        "height (2, 2) does not match (1, 1)",
    ),
    "pixel-range-shapes": (
        lambda: pixel_range(ONE, TWO_BY_TWO),
        "height (1, 1) and sigma (2, 2) differ",
    ),
    "slope-guided-shapes": (
        lambda: slope_guided_partition(ONE, RANGES, FLAT, 2),
        "height (1, 1) and ranges (2, 2) differ",
    ),
    "height-grid-not-2d": (
        lambda: HeightGrid(np.zeros(3)),
        "grid values must be 2D, got shape (3,)",
    ),
    "direction-grid-not-2d": (
        lambda: SlopeDirectionGrid(codes=np.zeros(3, dtype=np.int64), mask=np.ones(3, bool)),
        "direction codes must be 2D, got (3,)",
    ),
    "simulation-result-lengths": (
        lambda: SimulationResult(heights=(ONE,), reports=(), max_plane_spacing=()),
        "per-stage sequences must have equal length",
    ),
    "oracle-shapes": (
        lambda: oracle_matcher(PLANES, TWO_BY_TWO, temperature=1.0, noise=0.0, seed=0),
        "planes (1, 1) and gt (2, 2) differ",
    ),
    "pipeline-all-nodata": (
        lambda: run_pipeline(
            HeightGrid(np.full((2, 2), NODATA), nodata=NODATA), (0.0, 1.0), default_stage_configs()
        ),
        "ground truth has no valid pixel",
    ),
    "ablation-no-seeds": (
        lambda: ablation_report(ONE, (0.0, 2.0), default_stage_configs(), seeds=[]),
        "at least one seed required",
    ),
    "spread-names-the-whole-grid-row": (
        # far planes take probability 0 and a squared offset past float64: 0 * inf
        lambda: run_pipeline(SECOND_ROW, (-1e200, 1e200), [StageConfig(plane_count=64)] * 2),
        "stage 1: non-finite height spread nan at (1, 0)",
    ),
    "rise-factor": (
        lambda: slope_guided_partition(
            TWO_BY_TWO, RANGES, SlopeFactors(rise=np.array([[0, 0], [np.nan, 0]]), drop=ZEROS), 2
        ),
        "rise factor nan at (1, 0) is not finite and >= 0",
    ),
    "drop-factor": (
        lambda: slope_guided_partition(
            TWO_BY_TWO, RANGES, SlopeFactors(rise=ZEROS, drop=np.array([[0, -1.0], [0, 0]])), 2
        ),
        "drop factor -1.0 at (0, 1) is not finite and >= 0",
    ),
    "kernel-scale": (lambda: GaussianKernel(scale=np.inf), "kernel scale must be finite, got inf"),
    "terrain-amplitude": (
        lambda: TerrainSpec(rows=1, cols=1, amplitude=-1.0),
        "amplitude must be finite and >= 0, got -1.0",
    ),
    "terrain-roughness": (
        lambda: TerrainSpec(rows=1, cols=1, roughness=np.nan),
        "roughness must be finite, got nan",
    ),
    "stage-sigma-floor": (
        lambda: StageConfig(plane_count=2, sigma_floor=-1.0),
        "sigma_floor must be finite and >= 0, got -1.0",
    ),
    "pixel-range-sigma-floor": (
        lambda: pixel_range(ONE, ONE, sigma_floor=-1.0),
        "sigma_floor must be finite and >= 0, got -1.0",
    ),
    "height-grid-non-finite": (
        lambda: HeightGrid(np.array([[np.inf]])),
        "non-finite value inf at (0, 0) is not the nodata sentinel -9999.0",
    ),
    "cli-float-list": (
        lambda: _parse_float_list("1,x", "thresholds"),
        "thresholds must be a comma-separated number list, got '1,x'",
    ),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejects_with_its_message(case):
    call, message = REJECTIONS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
