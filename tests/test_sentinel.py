"""One owner of the in-memory sentinel: the grid hand-over in ``raster``.

Kernels, smoothers and slope maps leave whatever they compute at invalid
cells; ``raster._adopt`` writes the sentinel when a grid takes the array.
So no other module reads a grid's ``nodata``, and every check of a swept
value looks at valid cells only.
"""

import ast
from pathlib import Path

import numpy as np

import terraslope
from terraslope import HeightGrid, StageConfig, run_pipeline
from terraslope.slope import _Rows

from conftest import NODATA

PACKAGE = Path(terraslope.__file__).parent


def nodata_readers(source):
    """Sorted line numbers of ``source`` that read an attribute named ``nodata``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "nodata"
    )


def test_only_raster_reads_nodata():
    readers = {
        path.name: nodata_readers(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "raster.py"
    }
    assert {name: lines for name, lines in readers.items() if lines} == {}


def test_a_fill_outside_raster_is_flagged():
    source = "def _smooth(grid, weights):\n    out[~grid.mask] = grid.nodata\n"
    assert nodata_readers(source) == [2]


def test_row_views_carry_no_sentinel():
    assert _Rows._fields == ("values", "mask")


def test_checks_skip_what_a_stage_leaves_at_holes():
    # Far from zero, a hole's smoothed height squares past float64 in the
    # spread, while every valid pixel's spread stays finite.
    values = 1e160 + np.random.default_rng(0).uniform(-5.0, 5.0, (20, 20)) * 1e150
    values[5, 5] = NODATA
    values[10, 3:6] = NODATA
    gt = HeightGrid(values, nodata=NODATA)
    stages = [
        StageConfig(plane_count=16),
        StageConfig(plane_count=8, sigma_floor=1e150, use_height_correction=True),
        StageConfig(plane_count=8, sigma_floor=1e150, use_height_correction=True),
    ]
    valid = values[gt.mask]
    result = run_pipeline(gt, (float(valid.min()), float(valid.max())), stages)
    for height in result.heights:
        assert height.mask is gt.mask
        assert (height.values[~gt.mask] == NODATA).all()
        assert np.isfinite(height.values).all()
