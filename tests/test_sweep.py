"""The pipeline's tile schedule, run with a fake kernel, and its boundary.

``simulate._sweep`` knows the order in which tiles are estimated, settled
and written back, and nothing of planes or matchers.  A kernel that returns
a grid's own rows and a settle step that smooths them must reproduce
:func:`~terraslope.correction.correct` bit for bit, whatever the tiles,
once the grid adopts the swept rows.
"""

import ast
import threading
from pathlib import Path

import numpy as np
import pytest

import terraslope
from terraslope import HeightGrid, correct, simulate
from terraslope.correction import BASE_WEIGHTS, _smooth
from terraslope.raster import _adopt
from terraslope.slope import _strip

from conftest import NODATA, random_grid


def with_row_holes(grid, rows):
    """``grid`` with every third cell of each of ``rows`` set to nodata, offset by row."""
    values = grid.values.copy()
    for row in rows:
        values[row, row % 3 :: 3] = NODATA
    return HeightGrid(values, nodata=NODATA)


GRIDS = {
    "holes-37x23": lambda rng: random_grid(rng, 37, 23, nodata_fraction=0.2),
    # 64 planes x 512 cols give stage 1 default tiles of 4 rows; the seam is after row 11
    "holes-18x512": lambda rng: random_grid(rng, 18, 512, nodata_fraction=0.2),
    # one-row tiles put the seam after row 5
    "seam-holes-12x40": lambda rng: with_row_holes(random_grid(rng, 12, 40), range(3, 9)),
    "2x40": lambda rng: random_grid(rng, 2, 40),
    "1x30": lambda rng: random_grid(rng, 1, 30),
}


def row_tiles(grid, step):
    """Row tiles of ``step`` rows; "default" is stage 1's tiling, "one-tile" the whole grid."""
    if step == "default":
        step = max(1, simulate.TILE_BYTES // (8 * grid.cols * 64))
    elif step == "one-tile":
        step = grid.rows
    return [slice(start, min(start + step, grid.rows)) for start in range(0, grid.rows, step)]


def smoothing_sweep(grid, tiles, settled, fail_on=None):
    """Sweep ``grid``'s own rows over ``tiles``, settling each as ``correct`` smooths it.

    Returns the swept height and the widest gap.  Each tile settled is
    appended to ``settled``; settling ``fail_on`` raises instead.
    """
    height = np.empty(grid.shape)

    def kernel(tile):
        return grid.values[tile].copy(), float(tile.start), ()

    def settle(tile, kept):
        if tile == fail_on:
            raise ArithmeticError(f"settle failed at row {tile.start}")
        assert kept == ()
        settled.append(tile)
        strip, inner = _strip(height, grid.mask, tile)
        return _smooth(strip, BASE_WEIGHTS)[inner]

    return height, simulate._sweep(tiles, height, kernel, settle)


@pytest.mark.parametrize("step", [1, "default", "one-tile"])
@pytest.mark.parametrize("grid", list(GRIDS))
def test_a_fake_kernel_sweep_equals_correct(grid, step, rng):
    grid = GRIDS[grid](rng)
    tiles = row_tiles(grid, step)
    settled = []
    height, widest = smoothing_sweep(grid, tiles, settled)
    # the sweep's cells outside the mask are the kernels' own; the hand-over writes the sentinel
    assert _adopt(grid, height).values.tobytes() == correct(grid).values.tobytes()
    assert widest == float(tiles[-1].start)
    assert sorted(settled, key=lambda tile: tile.start) == tiles


@pytest.mark.parametrize("seam", ["top", "bottom"])
def test_a_seam_settle_error_propagates_after_the_join(seam, rng):
    grid = GRIDS["seam-holes-12x40"](rng)
    tiles = row_tiles(grid, 1)
    half = (len(tiles) + 1) // 2
    fail_on = tiles[half - 1] if seam == "top" else tiles[half]
    settled = []
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"^settle failed at row {fail_on.start}$"):
        smoothing_sweep(grid, tiles, settled, fail_on=fail_on)
    assert threading.active_count() == before
    # every other tile settles in its half; the seam tiles after the join, top first
    others = [tile for tile in tiles if tile not in (tiles[half - 1], tiles[half])]
    assert sorted(settled[: len(others)], key=lambda tile: tile.start) == others
    assert settled[len(others) :] == ([] if seam == "top" else [tiles[half - 1]])


#: Names of the stage's layout and matcher.  The schedule that runs any
#: kernel names none of them.
STAGE_NAMES = {
    "_oracle_probs",
    "_equal_planes",
    "_guided_planes",
    "_expectation",
    "_spread",
    "_smooth",
    "_pixel_range",
    "StageConfig",
    "TILE_BYTES",
}
PACKAGE = Path(terraslope.__file__).parent


def names_by_function(source):
    """Map the name of each function in ``source``, nested ones too, to the names it uses."""
    names = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            used = names.setdefault(node.name, set())
            used.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
            used.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
    return names


def stage_names_in_schedule(source):
    return sorted(names_by_function(source)["_sweep"] & STAGE_NAMES)


def test_the_schedule_names_no_layout_or_matcher():
    assert stage_names_in_schedule((PACKAGE / "simulate.py").read_text(encoding="utf-8")) == []


def test_a_schedule_that_names_the_matcher_is_flagged():
    source = (
        "def _sweep(tiles, height, kernel, settle):\n"
        "    for tile in tiles:\n"
        "        height[tile] = _oracle_probs(tile)\n"
    )
    assert stage_names_in_schedule(source) == ["_oracle_probs"]


def test_only_the_schedule_starts_a_thread_pool():
    users = [
        f"{path.stem}.{function}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, names in names_by_function(path.read_text(encoding="utf-8")).items()
        if "ThreadPoolExecutor" in names
    ]
    assert users == ["simulate._sweep"]
