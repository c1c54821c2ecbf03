#!/usr/bin/env python3
"""The full coarse-to-fine harness and its four-way feature ablation.

Runs the three-stage refinement on fractal terrain with the oracle
matcher, prints how the error shrinks per stage, writes the run directory,
and finishes with the paired ablation over slope-guided partition and
height correction.
"""

from pathlib import Path

from terraslope import (
    TerrainSpec,
    ablation_report,
    default_stage_configs,
    generate_terrain,
    loss_report,
    run_pipeline,
    write_ablation_csv,
    write_run_directory,
)

out_dir = Path("demo_output/coarse_to_fine")

gt = generate_terrain(
    TerrainSpec(rows=128, cols=128, kind="fractal", amplitude=200.0, seed=0)
)
global_range = (0.0, 200.0)
stages = default_stage_configs(temperature=2.0, noise=3.0)

result = run_pipeline(gt, global_range, stages, seed=0)
print("per-stage error against ground truth (64/32/8 planes):")
for i, report in enumerate(result.reports, start=1):
    print(
        f"  stage {i}: MAE {report.mae:6.3f} m, RMSE {report.rmse:6.3f} m, "
        f"<2.5m {report.pct_below[2.5]:5.1f} %"
    )
loss = loss_report(result.heights, gt)
print(f"training criteria: height {loss.height_loss:.3f}, "
      f"direction {loss.direction_loss:.3f}, overall {loss.overall:.3f}")

write_run_directory(result, gt, global_range, out_dir)
print(f"stage grids and reports written to {out_dir}/\n")

print("paired ablation over 5 seeds (final-stage means):")
rows = ablation_report(gt, global_range, stages, seeds=[0, 1, 2, 3, 4])
print(f"  {'config':18s} {'MAE':>7s} {'RMSE':>7s} {'<2.5m':>7s} {'<7.5m':>7s}")
for row in rows:
    print(
        f"  {row.label:18s} {row.mae:7.3f} {row.rmse:7.3f} "
        f"{row.pct_lt_2_5:7.2f} {row.pct_lt_7_5:7.2f}"
    )
write_ablation_csv(rows, out_dir / "ablation.csv")
print(f"table written to {out_dir}/ablation.csv")
