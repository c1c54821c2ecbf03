"""Output fingerprints and their comparison with stored reference values.

A fingerprint is a small JSON-able summary of one iteration's output:

* floats (metric values) are kept as they are and compared with an
  absolute tolerance of 1e-12, the acceptance suite's tolerance;
* strings, integers and booleans are compared for equality;
* integer and boolean arrays (direction codes, validity masks) are kept
  as sha256 digests and compared exactly;
* float arrays are kept as weighted block sums (see
  :func:`float_array_fingerprint`), compared with a tolerance that every
  array within 1e-12 of the reference per element is sure to meet.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

#: Absolute tolerance on metric values, as in the acceptance suite.
SCALAR_TOL = 1e-12
#: Per-element tolerance that the block-sum tolerance is derived from.
ELEMENT_TOL = 1e-12
#: Elements per block sum.  With |values| below ~1000 the block tolerance
#: stays under 1e-7, so one element off by 1e-6 always fails the check.
BLOCK = 16384
_EPS = np.finfo(np.float64).eps


@functools.lru_cache(maxsize=8)
def _weights(size: int) -> np.ndarray:
    """Fixed pseudo-random weights in [1, 2): a permuted array changes the sums."""
    weights = 1.0 + np.random.default_rng(20250101).random(size)
    weights.flags.writeable = False
    return weights


def digest(data: bytes | np.ndarray) -> str:
    """sha256 hex digest of raw bytes or of an array's C-order bytes."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def float_array_fingerprint(values: np.ndarray, mask: np.ndarray) -> dict:
    """Weighted block sums of ``values`` over ``mask``, plus the mask digest.

    Each block sum ``S = sum(w_i * x_i)`` runs over BLOCK consecutive
    elements with weights in [1, 2).  If every element moves by at most
    ELEMENT_TOL, S moves by at most ``2 * BLOCK * ELEMENT_TOL`` plus the
    rounding of the weighted products and of numpy's pairwise summation,
    bounded here by ``64 * eps * sum(|w_i * x_i|)``.  That bound is stored
    as ``tol``.
    """
    mask = np.asarray(mask, dtype=bool)
    x = np.where(mask, values, 0.0).ravel()
    wx = x * _weights(x.size)
    sums, abs_max = [], 0.0
    for start in range(0, wx.size, BLOCK):
        block = wx[start : start + BLOCK]
        # No axis argument: numpy then always sums pairwise.
        sums.append(float(block.sum()))
        abs_max = max(abs_max, float(np.abs(block).sum()))
    tol = 2.0 * BLOCK * ELEMENT_TOL + 64.0 * _EPS * abs_max
    return {"shape": list(values.shape), "mask": digest(mask), "sums": sums, "tol": tol}


def grid_fingerprint(grid) -> dict:
    """Fingerprint of a HeightGrid: its valid values and its validity mask."""
    return float_array_fingerprint(grid.values, grid.mask)


def report_fingerprint(report) -> dict:
    """Every value of a metrics EvalReport."""
    return {
        "mae": report.mae,
        "rmse": report.rmse,
        "pct_below": {f"{t:g}": v for t, v in sorted(report.pct_below.items())},
        "median_abs": report.median_abs,
        "completeness": report.completeness,
        "joint_valid_count": report.joint_valid_count,
    }


def compare(actual, reference, path: str = "output") -> list[str]:
    """Mismatches between a fingerprint and its reference, as readable lines."""
    if isinstance(reference, dict) and "sums" in reference:
        return _compare_blocks(actual, reference, path)
    if isinstance(reference, dict):
        if not isinstance(actual, dict) or set(actual) != set(reference):
            return [f"{path}: keys differ"]
        return [m for k in reference for m in compare(actual[k], reference[k], f"{path}.{k}")]
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{path}: length differs"]
        return [
            m
            for i, (a, r) in enumerate(zip(actual, reference))
            for m in compare(a, r, f"{path}[{i}]")
        ]
    if isinstance(reference, float):
        if isinstance(actual, (int, float)) and abs(actual - reference) <= SCALAR_TOL:
            return []
        return [f"{path}: {actual!r} != {reference!r} (tolerance {SCALAR_TOL})"]
    if actual != reference or type(actual) is not type(reference):
        return [f"{path}: {actual!r} != {reference!r}"]
    return []


def _compare_blocks(actual, reference, path: str) -> list[str]:
    if not isinstance(actual, dict) or "sums" not in actual:
        return [f"{path}: not an array fingerprint"]
    if actual["shape"] != reference["shape"]:
        return [f"{path}: shape {actual['shape']} != {reference['shape']}"]
    if actual["mask"] != reference["mask"]:
        return [f"{path}: validity mask differs"]
    tol = max(actual["tol"], reference["tol"])
    return [
        f"{path}: block {i} sum {a!r} != {r!r} (tolerance {tol:.3g})"
        for i, (a, r) in enumerate(zip(actual["sums"], reference["sums"]))
        if not abs(a - r) <= tol
    ]
