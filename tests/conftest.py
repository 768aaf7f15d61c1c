import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from polyscat.geometry import build_polyhedron

# property tests stay deterministic and quick in the tier-1 suite
settings.register_profile("polyscat", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("polyscat")

SQRT8 = np.sqrt(8.0)

# published experiment setup: regular unit tetrahedron and its face table
TETRA_VERTICES = np.array(
    [
        [0.5, 0.0, -1.0 / SQRT8],
        [-0.5, 0.0, -1.0 / SQRT8],
        [0.0, 0.5, 1.0 / SQRT8],
        [0.0, -0.5, 1.0 / SQRT8],
    ]
)
TETRA_FACES = [(1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)]

TETRA_TRUE_NORMALS = np.array(
    [
        [-0.81649658, 0.0, 0.57735027],
        [0.81649658, 0.0, 0.57735027],
        [0.0, -0.81649658, -0.57735027],
        [0.0, 0.81649658, -0.57735027],
    ]
)
TETRA_FACE_AREA = np.sqrt(3.0) / 4.0  # 0.4330127
TETRA_OFFSET = 1.0 / (2.0 * np.sqrt(6.0))  # inradius 0.2041241
TETRA_VOLUME = 1.0 / (6.0 * np.sqrt(2.0))

# the one message of a far-field header that is not the two lines synth writes
NOT_THE_HEADER = ("header is not the two lines synth writes: '# kind=<kind>' and "
                  "'# k=<k> d=<dx dy dz> p=<px py pz>'")

# the six incident (direction, polarization) pairs of the experiments
INCIDENT_TABLE = [
    (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([-1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, -1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])),
    (np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0])),
]

# published per-direction recovered normals and peak values (8 rows)
RECOVERED_NORMAL_TABLE = [
    (0, np.array([-0.85, 0.00, 0.53]), 0.80),
    (1, np.array([0.85, 0.00, 0.53]), 0.80),
    (2, np.array([0.00, -0.85, -0.53]), 0.80),
    (3, np.array([0.00, 0.85, -0.53]), 0.80),
    (4, np.array([0.00, 0.75, -0.66]), 0.63),
    (4, np.array([0.00, -0.75, -0.66]), 0.63),
    (5, np.array([-0.82, 0.00, 0.57]), 0.59),
    (5, np.array([0.82, 0.00, 0.57]), 0.59),
]

# published recovered tetrahedron (origin-centered)
RECOVERED_VERTEX_TABLE = np.array(
    [
        [0.50, 0.00, -0.40],
        [-0.50, 0.00, -0.40],
        [0.00, 0.50, 0.40],
        [0.00, -0.50, 0.40],
    ]
)


def make_tetrahedron():
    return build_polyhedron(TETRA_VERTICES, TETRA_FACES)


def make_cube(side=1.0, centered=True):
    half = side / 2.0
    lo, hi = (-half, half) if centered else (0.0, side)
    v = np.array([[x, y, z] for x in (lo, hi) for y in (lo, hi) for z in (lo, hi)])
    faces = [
        (0, 1, 3, 2),
        (4, 6, 7, 5),
        (0, 4, 5, 1),
        (2, 3, 7, 6),
        (0, 2, 6, 4),
        (1, 5, 7, 3),
    ]
    return build_polyhedron(v, faces)


def make_prism():
    """Triangular prism: unit equilateral cross-section, unit length,
    volume centroid at the origin."""
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    tri -= tri.mean(axis=0)
    v = np.vstack(
        [np.column_stack([tri, np.full(3, -0.5)]), np.column_stack([tri, np.full(3, 0.5)])]
    )
    faces = [
        (0, 2, 1),  # bottom, outward -z
        (3, 4, 5),  # top, outward +z
        (0, 1, 4, 3),
        (1, 2, 5, 4),
        (2, 0, 3, 5),
    ]
    return build_polyhedron(v, faces)


@pytest.fixture(scope="session")
def tetra():
    return make_tetrahedron()


@pytest.fixture(scope="session")
def cube():
    return make_cube()


@pytest.fixture(scope="session")
def prism():
    return make_prism()


def write_clockwise_obstacle(path, poly, face):
    """Write ``poly`` in the obstacle format with the cycle of ``face``
    reversed, a file that lists no convex body; return ``path``."""
    faces = [f[::-1] if j == face else f for j, f in enumerate(poly.faces)]
    lines = ["v " + " ".join(map(repr, v)) for v in poly.vertices.tolist()]
    lines += ["f " + " ".join(str(i + 1) for i in f) for f in faces]
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def angle_deg(u, v):
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def write_experiment_config(
    path,
    obstacle,
    *,
    lambda_shape=0.5,
    lambda_loc=50.0,
    grid_shape=7518,
    grid_loc=1878,
    cutoff=10,
    e_tol=0.5,
    cluster_angle_deg=5.0,
    noise_delta=0.0,
    noise_seed=7,
    location=(50.0, 50.0, 50.0),
    region=(0.0, 100.0, 0.0, 100.0, 0.0, 100.0),
    step3_oracle=True,
    output_dir="out",
    incident=INCIDENT_TABLE,
):
    lines = [f"obstacle = {obstacle}"]
    for d, p in incident:
        lines.append(
            "incident = "
            + " ".join(f"{c:g}" for c in d)
            + "  "
            + " ".join(f"{c:g}" for c in p)
        )
    lines += [
        f"lambda_shape = {lambda_shape}",
        f"lambda_loc = {lambda_loc}",
        f"grid_shape = {grid_shape}",
        f"grid_loc = {grid_loc}",
        f"cutoff = {cutoff}",
        f"e_tol = {e_tol}",
        f"cluster_angle_deg = {cluster_angle_deg}",
        f"noise_delta = {noise_delta}",
        f"noise_seed = {noise_seed}",
        "location = " + " ".join(f"{c:g}" for c in location),
        "region = " + " ".join(f"{c:g}" for c in region),
        f"step3_oracle = {'true' if step3_oracle else 'false'}",
        f"output_dir = {output_dir}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)
