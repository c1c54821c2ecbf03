"""Every name a package module imports is used in that module, and comes
from numpy, the standard library or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import terraslope

PACKAGE = Path(terraslope.__file__).parent
#: ``__init__.py`` imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: The runtime dependency is numpy alone.  scipy and the test tools are
#: installed next to the package, so a stray import of them would pass
#: every other test.
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "terraslope"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = "import os\nimport sys\nfrom math import inf, pi\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: inf"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of ``source`` from outside :data:`ALLOWED_ROOTS`."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module)
    return [name for name in roots if name.split(".")[0] not in ALLOWED_ROOTS]


def test_detects_a_foreign_import():
    source = (
        "import os.path\nimport scipy.ndimage\nfrom numpy import pi\n"
        "from . import raster\nfrom pytest import raises\n"
    )
    assert foreign_imports(source) == ["scipy.ndimage", "pytest"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_needs_numpy_alone(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
