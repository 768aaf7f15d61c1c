"""Location step in isolation: the degree-1 indicator on a low-frequency
complex far field.

The measurement is synthesized as a fixed tangential degree-1 field
carrying the translation phase of a body centered at (50, 50, 50); the
indicator's normalized projection energy peaks exactly where the phase
cancels.  Dumps the coarse scan for plotting and refines its best cell by
projected Newton ascent.
"""

import itertools
import math

import numpy as np

from polyscat import PlaneWave, SampleRegion, build_grid, degree_one_oracle, locate
from polyscat.locator import indicator_values

wave = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=math.pi / 25.0)
grid = build_grid(1878)
true_center = np.array([50.0, 50.0, 50.0])
samples = degree_one_oracle(grid, wave, true_center)
region = SampleRegion(lower=[0.0, 0.0, 0.0], upper=[100.0, 100.0, 100.0])

z, value, scan = locate(samples, region)
with open("indicator_scan.txt", "w") as fh:
    for (x, y, zc), v in zip(itertools.product(*region.axes(wave.k)), scan.ravel()):
        fh.write(f"{x:.3f} {y:.3f} {zc:.3f} {v:.9f}\n")
print(f"coarse scan: {scan.size} probes, indicator in "
      f"[{scan.min():.4f}, {scan.max():.4f}] -> indicator_scan.txt")
print(f"refined location: {np.round(z, 4)} (true {true_center}), I = {value:.4f}")

print("\nindicator along the x-axis through the true center:")
xs = np.linspace(30.0, 70.0, 9)
probes = np.column_stack([xs, np.full_like(xs, 50.0), np.full_like(xs, 50.0)])
for x, v in zip(xs, indicator_values(samples, probes)):
    bar = "#" * int(40 * v)
    print(f"  x={x:5.1f}  I={v:.4f}  {bar}")
