"""Self-tests of the benchmark's own machinery: run with ``run.py --self-test``.

They cover the self-time arithmetic on nested synthetic spans, the array
check (tolerates last-bit noise, rejects a 1e-6 change or a swap), the
perturbation of each workload's output, and the tracer's rebinding of
imported copies of a function.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from checks import compare, float_array_fingerprint
from tracer import PROBE, Tracer, self_times


def test_self_time_arithmetic() -> None:
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (running past the root's end); a has child d [2, 3].
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("d", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("c", 8.0, 12.0, 0, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    totals, calls = self_times(spans)
    # root: 10 - |[1, 6] u [8, 10]| = 3, plus 1 for the childless second root.
    expected = {"root": 4.0, "a": 2.0, "d": 1.0, "b": 3.0, "c": 4.0}
    assert totals == expected, totals
    assert calls == {"root": 2, "a": 1, "d": 1, "b": 1, "c": 1}, calls


def test_array_check() -> None:
    rng = np.random.default_rng(7)
    values = rng.uniform(-50.0, 250.0, (700, 600))
    mask = rng.random(values.shape) > 0.05
    reference = float_array_fingerprint(values, mask)

    noisy = values + rng.uniform(-1e-12, 1e-12, values.shape)
    assert not compare(float_array_fingerprint(noisy, mask), reference)
    # (r, c) and (r, c + 1) are both valid.
    r, c = np.argwhere(mask[:, :-1] & mask[:, 1:])[12345]
    bumped = values.copy()
    bumped[r, c] += 1e-6
    assert compare(float_array_fingerprint(bumped, mask), reference)
    swapped = values.copy()
    swapped[r, c], swapped[r, c + 1] = values[r, c + 1], values[r, c]
    assert compare(float_array_fingerprint(swapped, mask), reference)
    holes = mask.copy()
    holes[r, c] = False
    assert compare(float_array_fingerprint(values, holes), reference)


def test_scalar_check() -> None:
    reference = {"mae": 0.8714, "rows": [{"label": "combined", "n": 3}]}
    assert not compare({"mae": 0.8714 + 5e-13, "rows": [{"label": "combined", "n": 3}]}, reference)
    assert compare({"mae": 0.8714 + 1e-6, "rows": [{"label": "combined", "n": 3}]}, reference)
    assert compare({"mae": 0.8714, "rows": [{"label": "baseline", "n": 3}]}, reference)


def test_perturbation_is_caught(workdir) -> None:
    """A perturbed ablation table fails against the table's own fingerprint.

    Every benchmark run repeats this on its first output, per workload,
    against the stored reference.
    """
    import workloads

    workload = workloads.WORKLOADS["ablation-128"]
    rows = workload.run(workload.setup(0, workdir))
    reference = workload.fingerprint(rows)
    assert not compare(workload.fingerprint(rows), reference)
    assert compare(workload.fingerprint(workload.perturb(rows)), reference)


def test_tracer_rebinds_imported_copies() -> None:
    import terraslope
    from terraslope import correction, simulate, slope

    originals = (slope.window_stack, correction.window_stack, simulate.oracle_matcher)
    tracer = Tracer(probes={"simulate.matcher_noise": lambda args, kwargs, result: None})
    tracer.install()
    try:
        assert correction.window_stack is slope.window_stack is not originals[0]
        assert terraslope.oracle_matcher is simulate.oracle_matcher is not originals[2]
        assert "raster.atomic_output" not in tracer.functions
        grid = terraslope.HeightGrid(np.arange(12.0).reshape(3, 4))
        correction.correct(grid)
        simulate.matcher_noise((2, 2), 1.0, seed=0)
    finally:
        tracer.uninstall()
    assert (slope.window_stack, correction.window_stack, simulate.oracle_matcher) == originals
    names = [span[0] for span in tracer.spans]
    assert names == ["correction.correct", "slope.window_stack", "simulate.matcher_noise", PROBE]
    assert tracer.spans[1][3] == 0  # window_stack's parent is correct


def main(workdir: Path) -> None:
    test_self_time_arithmetic()
    test_array_check()
    test_scalar_check()
    test_tracer_rebinds_imported_copies()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        test_perturbation_is_caught(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test ok")
