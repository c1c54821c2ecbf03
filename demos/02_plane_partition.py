#!/usr/bin/env python3
"""Equal vs slope-guided hypothesis-plane partition, pixel by pixel.

Walks one pixel through the partition math: the height range around the
current estimate is split at the estimate, and the plane budget moves
toward the side with the larger slope factor.  Then shows the effect on a
whole grid: pixels on steep ascents get most planes above their estimate.
"""

import numpy as np

from terraslope import (
    HeightGrid,
    PixelRanges,
    SlopeFactors,
    TerrainSpec,
    equal_partition,
    generate_terrain,
    pixel_range,
    slope_factor_maps,
    slope_guided_partition,
)


def show(label, planes):
    print(f"  {label}: " + " ".join(f"{v:6.2f}" for v in planes))


# --- single pixel -----------------------------------------------------------
center, spread, m = 100.0, 20.0, 8
h = HeightGrid(np.array([[center]]))
ranges = PixelRanges(
    low=np.array([[center - spread]]),
    high=np.array([[center + spread]]),
    mask=np.array([[True]]),
)

print(f"pixel estimate {center} m, search range [{center - spread}, {center + spread}] m, "
      f"{m} planes\n")

equal = equal_partition(ranges, m)
show("equal intervals        ", equal.planes[0, 0])

for rise, drop in ((1.0, 1.0), (9.0, 3.0), (12.0, 0.0)):
    factors = SlopeFactors(rise=np.array([[rise]]), drop=np.array([[drop]]))
    guided = slope_guided_partition(h, ranges, factors, m)
    show(f"rise={rise:4.1f} drop={drop:4.1f}", guided.planes[0, 0])

print("\nlarger rise -> more planes above the estimate, and the estimate "
      "itself is always sampled\n")

# --- whole grid --------------------------------------------------------------
terrain = generate_terrain(
    TerrainSpec(rows=64, cols=64, kind="gaussian-hills", amplitude=120.0, seed=5)
)
sigma = terrain.with_values(np.zeros(terrain.shape))
ranges = pixel_range(terrain, sigma, sigma_floor=15.0)
factors = slope_factor_maps(terrain)
planes = slope_guided_partition(terrain, ranges, factors, 16)

above = (planes.planes >= terrain.values[:, :, None]).sum(axis=2)
uphill = factors.rise > factors.drop
print(f"on a {terrain.rows}x{terrain.cols} hills terrain with 16 planes per pixel:")
print(f"  mean planes above the estimate on uphill pixels:   {above[uphill].mean():.2f}")
print(f"  mean planes above the estimate on downhill pixels: {above[~uphill].mean():.2f}")
