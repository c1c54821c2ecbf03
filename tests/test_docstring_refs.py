"""Every cross-reference in a package docstring or the README names something that exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import terraslope
from terraslope import simulate

PACKAGE = Path(terraslope.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROLE = re.compile(r":(func|class|data|mod):`~?([\w.]+)`")
README = PACKAGE.parent.parent / "README.md"
#: A backticked ``module.name`` of the package, as the README writes them.
README_NAME = re.compile(
    r"`(%s)\.([\w.]+)`" % "|".join(p.stem for p in MODULES if p.stem != "__init__")
)


def lookup(obj, names: list[str]) -> bool:
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def module_named(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def resolves(module, role: str, target: str) -> bool:
    """True if ``target`` is a name in ``module`` or a dotted path from a module."""
    if role == "mod":
        return module_named(target) is not None
    parts = target.split(".")
    if lookup(module, parts):
        return True
    for split in range(len(parts) - 1, 0, -1):
        found = module_named(".".join(parts[:split]))
        if found is not None:
            return lookup(found, parts[split:])
    return False


def unresolved(source: str, module) -> list[str]:
    """The references in ``source``'s docstrings that do not resolve from ``module``."""
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    missing = []
    for node in ast.walk(ast.parse(source)):
        doc = ast.get_docstring(node) if isinstance(node, nodes) else None
        for role, target in ROLE.findall(doc or ""):
            if not resolves(module, role, target):
                missing.append(f":{role}:`{target}`")
    return missing


def test_detects_a_dangling_reference():
    source = (
        '"""See :func:`run_pipeline` and :mod:`terraslope.slope`."""\n'
        "def f():\n"
        '    """Not :class:`_StageSweep`, nor :func:`~terraslope.slope.extract_3x3`,\n'
        '    but :data:`terraslope.simulate.TILE_BYTES`; not :mod:`terraslope.nowhere`."""\n'
    )
    assert unresolved(source, simulate) == [
        ":class:`_StageSweep`",
        ":func:`terraslope.slope.extract_3x3`",
        ":mod:`terraslope.nowhere`",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_docstring_reference_resolves(path):
    name = "terraslope" if path.name == "__init__.py" else f"terraslope.{path.stem}"
    module = importlib.import_module(name)
    assert unresolved(path.read_text(encoding="utf-8"), module) == []


def unresolved_names(text: str) -> list[str]:
    """The backticked ``module.name`` references in ``text`` that name nothing."""
    return [
        f"{module}.{name}"
        for module, name in README_NAME.findall(text)
        if not lookup(importlib.import_module(f"terraslope.{module}"), name.split("."))
    ]


def test_detects_a_dangling_readme_name():
    text = "`simulate.TILE_BYTES`, `slope._strip`, `gt.asc`, `slope.extract_3x3`"
    assert unresolved_names(text) == ["slope.extract_3x3"]


def test_every_readme_name_resolves():
    text = README.read_text(encoding="utf-8")
    assert README_NAME.findall(text), "the README names no module attribute"
    assert unresolved_names(text) == []
