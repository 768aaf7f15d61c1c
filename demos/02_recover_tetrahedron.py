"""The full three-step recovery of the tetrahedron, done with library calls
so each stage's output is visible.

Step 1 turns six phaseless measurements into face normals and areas via
band-limited peak hunting; step 2 fits face offsets whose half spaces
bound the polyhedron (Minkowski reconstruction); step 3 locates the body
from one low-frequency complex measurement.
"""

import math

import numpy as np

from polyscat import (
    NoiseModel,
    PlaneWave,
    SampleRegion,
    add_noise,
    build_grid,
    build_polyhedron,
    cluster_effective_normals,
    degree_one_oracle,
    find_local_maxima,
    fit_offsets,
    locate,
    sample_phaseless,
    sht_forward,
)
from polyscat.maxima import peaks_to_faces

s8 = 1.0 / np.sqrt(8.0)
tetra = build_polyhedron(
    [[0.5, 0, -s8], [-0.5, 0, -s8], [0, 0.5, s8], [0, -0.5, s8]],
    [(1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)],
)
true_center = np.array([50.0, 50.0, 50.0])

incident = [
    ((1, 0, 0), (0, 0, 1)), ((-1, 0, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1)), ((0, -1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 0)), ((0, 0, -1), (1, 0, 0)),
]
lam = 0.5
# step 1's settings: the peak threshold, the merge angle and the band limit
e_tol, cluster_angle, cutoff = 0.5, math.radians(10.0), 6
noise = NoiseModel(delta=0.0, seed=7)

# Step 1: normals and areas from phaseless backscattering peaks; the peaks
# of all six directions are searched, selected and inverted in one batch
grid = build_grid(7518)
waves, coefficients = [], []
for idx, (d, p) in enumerate(incident):
    wave = PlaneWave(d=np.array(d, float), p=np.array(p, float), k=2 * math.pi / lam)
    samples = sample_phaseless(tetra, wave, grid)
    if noise.delta > 0:
        samples = add_noise(samples, NoiseModel(noise.delta, noise.seed + idx))
    waves.append(wave)
    coefficients.append(sht_forward(samples.grid, samples.values, cutoff))
peaks = find_local_maxima(coefficients)
faces = peaks_to_faces(peaks, [w.d for w in waves], lam, e_tol)
for name, table in (("maxima", peaks), ("critical", faces)):
    per_direction = np.bincount(table.source_indices, minlength=len(waves))
    print(f"{name} per direction: {per_direction.tolist()}")

effective = cluster_effective_normals(faces, cluster_angle)
print("\neffective normals (recovered vs true):")
for j in range(len(effective)):
    nu = effective.normals[j]
    best = min(
        (float(np.degrees(np.arccos(np.clip(nu @ t, -1, 1)))), t)
        for t in tetra.normals
    )
    print(
        f"  ({nu[0]:+.4f}, {nu[1]:+.4f}, {nu[2]:+.4f})  area {effective.areas[j]:.4f}"
        f"  ({best[0]:.2f} deg off true)"
    )

# Step 2: offsets by the Minkowski fit, which also returns the polyhedron
fit = fit_offsets(effective.normals, effective.areas)
print(f"\nfitted offsets: {np.round(fit.offsets, 4)} (true {0.2041:.4f})")
print(f"residual {fit.residual:.2e} after {fit.iterations} iterations")
shape = fit.polyhedron
print("recovered vertices (origin-referenced):")
print(np.round(shape.vertices, 4))

# Step 3: location from one low-frequency measurement
loc_grid = build_grid(1878)
loc_wave = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=math.pi / 25)
loc_samples = degree_one_oracle(loc_grid, loc_wave, true_center)
region = SampleRegion(lower=[0, 0, 0], upper=[100, 100, 100])
z, value, _ = locate(loc_samples, region)
print(f"\nlocated center: {np.round(z, 4)} (indicator {value:.4f})")

final = shape.translated(z - shape.centroid)
print("final vertices:")
print(np.round(final.vertices, 4))
err = max(
    np.linalg.norm(final.vertices - (v + true_center), axis=1).min()
    for v in tetra.vertices
)
print(f"max vertex error vs truth: {err:.4f}")
