"""The benchmark's own self-test, run as part of the test suite.

The benchmark's tracer wraps terraslope's public functions from outside and
its self-test asserts call nesting inside the library (for example that
``correction.correct`` calls ``slope.window_stack``), so a library refactor
that breaks those assumptions fails here rather than at benchmark time.
So does one that drops or renames a function the benchmark measures by name.
"""

import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: A per-layer metric of one function: ``<layer>.<function>.<figure>``.
FUNCTION_METRIC = re.compile(r"(\w+)\.(\w+)\.(?:self_s|calls|mb)")


def unmeasurable(names):
    """The function metrics among ``names`` whose function is not public in ``terraslope.<layer>``."""
    missing = []
    for name in names:
        match = FUNCTION_METRIC.fullmatch(name)
        if match is None:
            continue
        layer, function = match.groups()
        obj = getattr(importlib.import_module(f"terraslope.{layer}"), function, None)
        if (
            function.startswith("_")
            or not inspect.isfunction(obj)
            or obj.__module__ != f"terraslope.{layer}"
        ):
            missing.append(name)
    return missing


def per_layer_names():
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def test_every_per_layer_function_is_public_in_its_layer():
    names = per_layer_names()
    assert len([n for n in names if FUNCTION_METRIC.fullmatch(n)]) == 30
    assert unmeasurable(names) == []


@pytest.mark.parametrize(
    "name",
    [
        "slope.pad_edge.self_s",  # no such function
        "slope._strip.calls",  # private
        "correction.window_stack.self_s",  # imported, defined in slope
        "slope.SlopeFactors.calls",  # a class
    ],
)
def test_a_made_up_name_is_flagged(name):
    assert unmeasurable([*per_layer_names(), name]) == [name]


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test ok" in proc.stdout
