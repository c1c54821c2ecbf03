"""One home for the package's checks: three helpers in ``raster``.

A parameter is checked by ``raster._check_real`` or ``raster._check_integer``
and a grid's cells by ``raster._check_cells``, the one place that locates a
bad cell with ``np.argwhere``.  So each rule, and the form of its messages,
is written once.
"""

import ast
from pathlib import Path

import terraslope
from terraslope import simulate, slope

PACKAGE = Path(terraslope.__file__).parent
HELPERS = ["_check_cells", "_check_integer", "_check_real"]


def argwhere_calls(tree):
    """Sorted line numbers of the ``np.argwhere`` calls in ``tree``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "argwhere"
    )


def helper_definitions(tree):
    """Sorted names of the check helpers that ``tree`` defines."""
    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in HELPERS
    )


def package_trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_only_raster_calls_argwhere():
    calls = {name: argwhere_calls(tree) for name, tree in package_trees().items()}
    assert {name: lines for name, lines in calls.items() if lines and name != "raster.py"} == {}


def test_the_helpers_are_defined_in_raster_alone():
    defined = {name: helper_definitions(tree) for name, tree in package_trees().items()}
    assert {name: found for name, found in defined.items() if found} == {"raster.py": HELPERS}


def test_the_hand_written_copies_are_gone():
    assert not hasattr(simulate, "_check_finite")
    assert not hasattr(slope, "_check_overflow")


def test_a_copy_outside_raster_is_flagged():
    tree = ast.parse("def _check_real(x):\n    r, c = np.argwhere(x)[0]\n")
    assert argwhere_calls(tree) == [2]
    assert helper_definitions(tree) == ["_check_real"]
