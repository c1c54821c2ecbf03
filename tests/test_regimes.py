"""Where the slope-guided partition helps today, pinned as per-terrain counts.

ROADMAP item 3 found that the simulator backs the paper's partition claim
only in noisy regimes, and these tests state those findings as they stand:
on the acceptance terrains the partition makes the corrected estimate
worse, its later stages' widest plane gaps sit at the sigma floors, and
without matcher noise every feature hurts.  They describe the current
behaviour, not the target: item 3's fix must change these counts on
purpose, in the same change, and say why.
"""

import pytest

from terraslope import (
    TerrainSpec,
    ablation_report,
    default_stage_configs,
    generate_terrain,
    run_pipeline,
)

#: The acceptance terrains' global search range.
RANGE = (0.0, 200.0)


def terrain(seed):
    spec = TerrainSpec(rows=128, cols=128, kind="fractal", amplitude=200.0, seed=seed)
    return generate_terrain(spec)


def arm_maes(seed, noise):
    """Final-stage MAE per ablation arm on one acceptance terrain at T = 2."""
    base = default_stage_configs(temperature=2.0, noise=noise)
    rows = ablation_report(terrain(seed), RANGE, base, seeds=[seed])
    return {row.label: row.mae for row in rows}


def test_combined_is_above_height_correction_on_every_acceptance_terrain():
    worse = sum(
        maes["combined"] > maes["height_correction"]
        for maes in (arm_maes(seed, 3.0) for seed in range(10))
    )
    assert worse == 10


def test_slope_partition_widest_gaps_are_the_stage_floors():
    base = default_stage_configs(
        temperature=2.0, noise=3.0, use_slope_partition=True, use_height_correction=False
    )
    floors = tuple(cfg.sigma_floor for cfg in base[1:])
    assert floors == (80.0, 10.0)
    at_floor = sum(
        run_pipeline(terrain(seed), RANGE, base, seed=seed).max_plane_spacing[1:]
        == pytest.approx(floors, rel=1e-12)
        for seed in range(10)
    )
    assert at_floor == 10


def test_without_noise_every_feature_is_worse_than_baseline():
    runs = [arm_maes(seed, 0.0) for seed in range(5)]
    for maes in runs:
        assert maes["baseline"] == pytest.approx(0.0055, abs=2e-4)
    above = sum(
        all(mae > maes["baseline"] for label, mae in maes.items() if label != "baseline")
        for maes in runs
    )
    assert above == 5
