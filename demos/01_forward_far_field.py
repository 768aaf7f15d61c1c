"""Forward model walkthrough: the phaseless far-field pattern of a unit
regular tetrahedron under a plane wave, and what its peaks mean.

Synthesizes |E(xhat)| on a spherical grid, locates the two dominant peaks
(the incident direction and the specular reflection of the only lit face)
and compares the peak magnitudes with the closed-form law |C| |d.nu| / lambda.
Writes the sampled pattern to ``far_field_pattern.txt`` (x y z value per
line) for 3-D polar plotting.
"""

import numpy as np

from polyscat import (
    PlaneWave,
    build_grid,
    build_polyhedron,
    po_far_field_grid,
    sample_phaseless,
    specular_direction,
)
from polyscat.geometry import lit_faces

s8 = 1.0 / np.sqrt(8.0)
tetra = build_polyhedron(
    [[0.5, 0, -s8], [-0.5, 0, -s8], [0, 0.5, s8], [0, -0.5, s8]],
    [(1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)],
)

lam = 0.5
wave = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=2 * np.pi / lam)

print(f"tetrahedron: {tetra.num_faces} faces, areas {np.round(tetra.areas, 4)}")
print(f"incident direction d = {wave.d}, wavelength = {lam}")

lit = np.flatnonzero(lit_faces(tetra.normals, wave.d)).tolist()
print(f"lit (front) faces for this direction: {lit}")

for j in lit:
    nu = tetra.normals[j]
    xj = specular_direction(nu, wave.d)
    law = tetra.areas[j] * abs(wave.d @ nu) / lam
    E = po_far_field_grid(tetra, wave, xj[None])
    print(
        f"face {j}: specular direction {np.round(xj, 4)}, "
        f"|E| there = {np.linalg.norm(E):.4f}, law |C||d.nu|/lambda = {law:.4f}"
    )

E_d = po_far_field_grid(tetra, wave, wave.d[None])
print(f"at xhat = d: |E| = {np.linalg.norm(E_d):.4f} (second major peak)")

grid = build_grid(7518)
samples = sample_phaseless(tetra, wave, grid)
top = np.argsort(samples.values)[::-1][:5]
print("\nfive largest grid samples:")
for i in top:
    print(f"  |E| = {samples.values[i]:.4f} at {np.round(grid.points[i], 3)}")

with open("far_field_pattern.txt", "w") as fh:
    for pt, v in zip(grid.points, samples.values):
        fh.write(f"{pt[0]:.9f} {pt[1]:.9f} {pt[2]:.9f} {v:.9f}\n")
print("\nwrote far_field_pattern.txt (x y z |E| per line)")
