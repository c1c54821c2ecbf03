"""Checked-in sha256 digests of CLI outputs.

The rerun tests elsewhere only compare two runs with each other; these pin
the actual bytes, so a change that moves any written number fails here.
A change that alters a digest on purpose must update
``fixtures/golden_digests.json`` and say why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from terraslope.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "golden_digests.json").read_text(encoding="ascii"))


def digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
    }


def test_simulate_run_directory_and_ablation(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", str(FIXTURES / "sim_config.txt"), str(out), "--ablation"]) == 0
    assert digests(out) == GOLDEN["simulate"]


@pytest.mark.parametrize(
    "argv,written",
    [
        (["slope", "IN/terrain.asc", "OUT/slope.asc", "OUT/dir.asc"], ["dir.asc", "slope.asc"]),
        (
            ["slope", "IN/terrain.asc", "OUT/slope.asc", "OUT/dir.asc", "--pgm", "0", "50"],
            ["dir.asc", "dir.pgm", "slope.asc", "slope.pgm"],
        ),
        (["eval", "IN/est.asc", "IN/gt.asc", "--csv", "OUT/eval.csv"], ["eval.csv"]),
        (["correct", "IN/noisy.asc", "OUT/corrected.asc", "--scale", "1.25"], ["corrected.asc"]),
        (
            ["direction", "IN/terrain.asc", "OUT/direction.asc", "--pgm"],
            ["direction.asc", "direction.pgm"],
        ),
        (
            ["partition", "IN/terrain.asc", "OUT/planes8", "--planes", "8"],
            ["planes8_lower_count.asc", "planes8_upper_count.asc"],
        ),
        # clipped on both sides, with a hole
        (["render", "IN/terrain.asc", "OUT/render.pgm", "--lo", "15", "--hi", "30"], ["render.pgm"]),
    ],
    ids=["slope", "slope-pgm", "eval", "correct", "direction", "partition", "render"],
)
def test_tool_outputs(argv, written, tmp_path):
    """IN/ names a fixture, OUT/ a file in the test's own directory."""
    args = [
        tok.replace("IN/", f"{FIXTURES}/", 1).replace("OUT/", f"{tmp_path}/", 1)
        for tok in argv
    ]
    assert main(args) == 0
    assert digests(tmp_path) == {name: GOLDEN["tools"][name] for name in written}
