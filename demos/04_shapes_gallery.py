"""Shape-recovery gallery: cube and triangular prism through the batch
pipeline, mirroring the published experiments beyond the tetrahedron.

Uses the flat-config front end (the same files the ``polyscat`` CLI
consumes) and prints per-shape accuracy summaries.
"""

import tempfile
from pathlib import Path

import numpy as np

from polyscat import build_polyhedron, save_obstacle
from polyscat.pipeline import parse_config, run_pipeline

INCIDENT = "\n".join(
    [
        "incident = 1 0 0  0 0 1",
        "incident = -1 0 0  0 0 1",
        "incident = 0 1 0  0 0 1",
        "incident = 0 -1 0  0 0 1",
        "incident = 0 0 1  1 0 0",
        "incident = 0 0 -1  1 0 0",
    ]
)


def make_cube():
    v = np.array(
        [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
    )
    faces = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    return build_polyhedron(v, faces)


def make_prism():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    tri -= tri.mean(axis=0)
    v = np.vstack(
        [np.column_stack([tri, np.full(3, -0.5)]), np.column_stack([tri, np.full(3, 0.5)])]
    )
    return build_polyhedron(v, [(0, 2, 1), (3, 4, 5), (0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5)])


def recover(name, poly, lam=0.5, cutoff=6, cluster_deg=10.0):
    with tempfile.TemporaryDirectory(prefix=f"gallery_{name}_") as tmp:
        work = Path(tmp)
        save_obstacle(poly, work / f"{name}.obs")
        cfg = work / f"{name}.cfg"
        cfg.write_text(
            f"obstacle = {name}.obs\n{INCIDENT}\n"
            f"lambda_shape = {lam}\nlambda_loc = 50\n"
            "grid_shape = 7518\ngrid_loc = 1878\n"
            f"cutoff = {cutoff}\ne_tol = 0.5\nexclusion_radius = 0.3\n"
            f"cluster_angle_deg = {cluster_deg}\n"
            "noise_delta = 0\nnoise_seed = 7\n"
            "location = 50 50 50\nregion = 0 100 0 100 0 100\n"
            "step3_oracle = true\noutput_dir = out\n"
        )
        report = run_pipeline(parse_config(cfg))
        rec = report.reconstructed
        rec_centered = rec.vertices - rec.centroid
        err = max(
            float(np.linalg.norm(rec_centered - v, axis=1).min()) for v in poly.vertices
        )
        print(f"\n== {name}: {poly.num_faces} true faces")
        print(f"   effective normals found: {len(report.effective)}")
        print(f"   fitted offsets: {np.round(report.fit.offsets, 3)}")
        print(f"   located at {np.round(report.location, 3)}")
        print(f"   max vertex error (centroid-aligned): {err:.4f}")
        print(f"   report files in {report.files[0].parent}")
    return err


recover("cube", make_cube())
recover("prism", make_prism())
