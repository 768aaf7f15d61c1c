"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive end-to-end runs are shared module-scoped fixtures.  Criteria
3 and 4 are implemented exactly as stated; their angle clauses measure the
forward model's intrinsic amplitude-factor peak drift (see the companion
analysis notes), so the assertions report the model's true behavior.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import (
    INCIDENT_TABLE,
    RECOVERED_VERTEX_TABLE,
    TETRA_FACE_AREA,
    TETRA_TRUE_NORMALS,
    TETRA_VERTICES,
    angle_deg,
    make_cube,
    make_prism,
    make_tetrahedron,
    write_experiment_config,
)
from polyscat.cli import main
from polyscat.forward import PlaneWave, po_far_field_grid
from polyscat.geometry import halfspace_intersection, save_obstacle
from polyscat.locator import SampleRegion, degree_one_oracle, locate
from polyscat.maxima import normal_and_area_from_peak, specular_direction
from polyscat.minkowski import fit_offsets
from polyscat.pipeline import parse_config, run_pipeline, synthesize_dataset
from polyscat.sphgrid import build_grid, harmonic_basis, sht_forward
from quadrature_oracle import polygon_quadrature
from test_forward import random_planar_polygon

X1 = np.array([-1.0 / 3.0, 0.0, 2.0 * np.sqrt(2.0) / 3.0])


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _sph(t, p):
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def maximize_far_field(poly, wave, start):
    """Local maximum of raw PO |E| from a starting direction."""

    def neg(x):
        E = po_far_field_grid(poly, wave, _sph(*x)[None, :])
        return -float(np.linalg.norm(E[0]))

    t0 = math.acos(np.clip(start[2], -1.0, 1.0))
    p0 = math.atan2(start[1], start[0])
    res = minimize(
        neg, [t0, p0], method="Nelder-Mead",
        options=dict(xatol=1e-9, fatol=1e-14, maxiter=600),
    )
    return _sph(*res.x), -res.fun


def vertex_error(reconstructed, true_vertices):
    """Max distance from true vertices to the centroid-aligned recovery."""
    rec = reconstructed.vertices - reconstructed.centroid
    truth = np.asarray(true_vertices) - np.asarray(true_vertices).mean(axis=0)
    return max(float(np.linalg.norm(rec - v, axis=1).min()) for v in truth)


def _run(tmp_path, tag, **kwargs):
    save_obstacle(make_tetrahedron(), tmp_path / "tetra.obs")
    cfg = write_experiment_config(
        tmp_path / f"{tag}.cfg", "tetra.obs", output_dir=tag, **kwargs
    )
    # timed end to end: synthesis, then the recovery that reads its data
    t0 = time.time()
    config = parse_config(cfg)
    synthesize_dataset(config)
    rep = run_pipeline(config)
    return rep, time.time() - t0


@pytest.fixture(scope="module")
def run_05(tmp_path_factory):
    """The lambda = 0.5 tetrahedron experiment (paper table settings)."""
    return _run(
        tmp_path_factory.mktemp("r05"),
        "r05",
        lambda_shape=0.5,
        cutoff=6,
        cluster_angle_deg=10.0,
    )


@pytest.fixture(scope="module")
def run_03(tmp_path_factory):
    """The lambda = 0.3 experiment (denser grid, noise-damping cutoff)."""
    return _run(
        tmp_path_factory.mktemp("r03"),
        "r03",
        lambda_shape=0.3,
        grid_shape=15000,
        cutoff=9,
        cluster_angle_deg=5.0,
    )


@pytest.fixture(scope="module")
def run_03_noisy(tmp_path_factory):
    return _run(
        tmp_path_factory.mktemp("r03n"),
        "r03n",
        lambda_shape=0.3,
        grid_shape=15000,
        cutoff=9,
        cluster_angle_deg=5.0,
        noise_delta=1.0,
        noise_seed=7,
    )


def test_criterion_01_polygon_integral_oracle():
    from polyscat.forward import polygon_fourier_integral

    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        pts, nu = random_planar_polygon(rng)
        q = rng.normal(size=3)
        q *= rng.uniform(0.0, 50.0) / np.linalg.norm(q)
        got = polygon_fourier_integral(pts, q, nu)
        ref = polygon_quadrature(pts, q)
        worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 10.0
    report(1, ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s for 100 pairs")
    assert worst <= 1e-6
    assert elapsed <= 10.0


def test_criterion_02_inversion_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    while count < 10_000:
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        if nu @ d >= 0.0:
            nu = -nu
        if nu @ d >= 0.0:
            continue
        count += 1
        xhat = specular_direction(nu, d)
        back, _ = normal_and_area_from_peak(xhat, 1.0, d, 0.5)
        worst = max(worst, float(np.abs(back - nu).max()))
    ok = worst <= 1e-12
    report(2, ok, f"worst round-trip error {worst:.2e} over 10^4 pairs")
    assert worst <= 1e-12


def test_criterion_03_peak_law():
    tetra = make_tetrahedron()
    details = []
    ok = True
    for lam in (0.5, 0.3):
        wave = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]),
                         k=2.0 * math.pi / lam)
        peak_dir, peak_val = maximize_far_field(tetra, wave, X1)
        law = TETRA_FACE_AREA * 0.81649658 / lam
        drift = angle_deg(peak_dir, X1)
        value_ok = abs(peak_val - law) <= 0.10 * law
        angle_ok = drift <= 2.0
        ok = ok and value_ok and angle_ok
        details.append(
            f"lambda={lam}: drift {drift:.2f} deg (<=2), value {peak_val:.4f}"
            f" vs law {law:.4f} ({abs(peak_val - law) / law * 100:.1f}%)"
        )
    report(3, ok, "; ".join(details))
    for lam in (0.5, 0.3):
        wave = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]),
                         k=2.0 * math.pi / lam)
        peak_dir, peak_val = maximize_far_field(tetra, wave, X1)
        law = TETRA_FACE_AREA * 0.81649658 / lam
        assert abs(peak_val - law) <= 0.10 * law
        assert angle_deg(peak_dir, X1) <= 2.0, (
            f"PO peak near x1 drifts {angle_deg(peak_dir, X1):.2f} deg at "
            f"lambda={lam}: the amplitude factor's slope shifts the Eq.-16 "
            f"product maximum; 2 deg is unattainable under this model"
        )


def test_criterion_04_incident_direction_maximum():
    lam = 0.5
    shapes = {"tetrahedron": make_tetrahedron(), "cube": make_cube()}
    worst_angle = {}
    worst_value = {}
    for name, poly in shapes.items():
        worst_angle[name] = 0.0
        worst_value[name] = 0.0
        for d, p in INCIDENT_TABLE:
            wave = PlaneWave(d=d, p=p, k=2.0 * math.pi / lam)
            front = poly.normals @ d < 0
            law = float(
                np.sum(poly.areas[front] * np.abs(poly.normals[front] @ d)) / lam
            )
            peak_dir, peak_val = maximize_far_field(poly, wave, d)
            worst_angle[name] = max(worst_angle[name], angle_deg(peak_dir, d))
            worst_value[name] = max(worst_value[name], abs(peak_val - law) / law)
    ok = all(a <= 2.0 for a in worst_angle.values()) and all(
        v <= 0.10 for v in worst_value.values()
    )
    report(
        4,
        ok,
        "; ".join(
            f"{n}: worst drift {worst_angle[n]:.2f} deg, worst value err "
            f"{worst_value[n] * 100:.1f}%"
            for n in shapes
        ),
    )
    for name in shapes:
        assert worst_value[name] <= 0.10
        assert worst_angle[name] <= 2.0, (
            f"{name}: peak near d drifts {worst_angle[name]:.2f} deg at "
            f"lambda={lam} (amplitude-factor slope of obliquely lit faces)"
        )


def test_criterion_05_sht_round_trip_and_gram():
    grid = build_grid(7518)
    rng = np.random.default_rng(6)
    coeffs = rng.normal(size=36)
    f = harmonic_basis(grid.points, 5) @ coeffs
    recon = harmonic_basis(grid.points, 5) @ sht_forward(grid, f, 5)
    sup = float(np.abs(recon - f).max() / np.abs(f).max())

    B = harmonic_basis(grid.points, 10)
    gram = B.T @ (grid.point_weights[:, None] * B)
    gram_err = float(np.abs(gram - np.eye(B.shape[1])).max())
    ok = sup <= 1e-2 and gram_err <= 1e-3
    report(5, ok, f"round-trip sup {sup:.2e} (<=1e-2), Gram err {gram_err:.2e} (<=1e-3)")
    assert sup <= 1e-2
    assert gram_err <= 1e-3


def test_criterion_06_effective_normal_recovery(run_05):
    rep, _ = run_05
    eff = rep.effective
    count_ok = len(eff) == 4
    angles = [
        min(angle_deg(nu, t) for t in TETRA_TRUE_NORMALS) for nu in eff.normals
    ]
    matched = {
        int(np.argmin([angle_deg(nu, t) for t in TETRA_TRUE_NORMALS]))
        for nu in eff.normals
    }
    area_err = float(np.abs(eff.areas - TETRA_FACE_AREA).max() / TETRA_FACE_AREA)
    ok = count_ok and len(matched) == 4 and max(angles) <= 3.0 and area_err <= 0.15
    report(
        6,
        ok,
        f"{len(eff)} effective normals, max angle {max(angles):.2f} deg (<=3), "
        f"max area err {area_err * 100:.1f}% (<=15%)",
    )
    assert count_ok and len(matched) == 4
    assert max(angles) <= 3.0
    assert area_err <= 0.15


def test_criterion_07_minkowski_self_consistency():
    shapes = {
        "cube": make_cube(),
        "tetrahedron": make_tetrahedron(),
        "prism": make_prism(),
    }
    worst_off = 0.0
    worst_vert = 0.0
    for poly in shapes.values():
        fit = fit_offsets(poly.normals, poly.areas)
        worst_off = max(worst_off, float(np.abs(fit.offsets - poly.offsets).max()))
        rebuilt = halfspace_intersection(poly.normals, fit.offsets).polyhedron
        worst_vert = max(
            worst_vert,
            max(
                float(np.linalg.norm(rebuilt.vertices - v, axis=1).min())
                for v in poly.vertices
            ),
        )
    exact_ok = worst_off <= 1e-6 and worst_vert <= 1e-6

    normals = np.array([r[1] for r in (
        (0, np.array([-0.85, 0, 0.53])), (0, np.array([0.85, 0, 0.53])),
        (0, np.array([0.0, -0.85, -0.53])), (0, np.array([0.0, 0.85, -0.53])),
    )])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    fit = fit_offsets(normals, np.full(4, 0.47))
    off_err = float(np.abs(fit.offsets - 0.21).max())
    rebuilt = halfspace_intersection(normals, fit.offsets).polyhedron
    table_err = max(
        float(np.linalg.norm(rebuilt.vertices - v, axis=1).min())
        for v in RECOVERED_VERTEX_TABLE
    )
    noisy_ok = off_err <= 0.01 and table_err <= 0.06
    report(
        7,
        exact_ok and noisy_ok,
        f"exact shapes: offsets {worst_off:.1e}, vertices {worst_vert:.1e} (<=1e-6); "
        f"published data: offsets 0.21+-{off_err:.3f}, vertices within "
        f"{table_err:.3f} of the table (<=0.06)",
    )
    assert exact_ok
    assert noisy_ok


def test_criterion_08_end_to_end_accuracy(run_05, run_03):
    rep05, dt05 = run_05
    rep03, _ = run_03
    err05 = vertex_error(rep05.reconstructed, TETRA_VERTICES)
    err03 = vertex_error(rep03.reconstructed, TETRA_VERTICES)
    ok = err05 <= 0.07 and err03 < err05 and dt05 <= 300.0
    report(
        8,
        ok,
        f"lambda=0.5 vertex err {err05:.4f} (<=0.07) in {dt05:.0f}s (<=300); "
        f"lambda=0.3 err {err03:.4f} (strictly smaller)",
    )
    assert err05 <= 0.07
    assert err03 < err05
    assert dt05 <= 300.0


def test_criterion_09_noise_robustness(run_03, run_03_noisy):
    rep0, _ = run_03
    rep1, _ = run_03_noisy
    err0 = vertex_error(rep0.reconstructed, TETRA_VERTICES)
    err1 = vertex_error(rep1.reconstructed, TETRA_VERTICES)
    ok = err1 <= 2.0 * err0
    report(
        9,
        ok,
        f"delta=1 vertex err {err1:.4f} vs delta=0 {err0:.4f} "
        f"(ratio {err1 / err0:.2f} <= 2)",
    )
    assert err1 <= 2.0 * err0


def test_criterion_10_locator():
    grid = build_grid(1878)
    wave = PlaneWave(
        d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=math.pi / 25.0
    )
    samples = degree_one_oracle(grid, wave, [50.0, 50.0, 50.0])
    region = SampleRegion(lower=[0.0, 0.0, 0.0], upper=[100.0, 100.0, 100.0])
    z, _, vals = locate(samples, region)
    coord_err = float(np.abs(z - 50.0).max())
    bounds_ok = vals.min() >= 0.0 and vals.max() <= 1.02
    ok = coord_err <= 1e-2 and bounds_ok
    report(
        10,
        ok,
        f"location ({z[0]:.3f}, {z[1]:.3f}, {z[2]:.3f}), coord err {coord_err:.1e} "
        f"(<=1e-2), indicator in [{vals.min():.3f}, {vals.max():.3f}] (<=1.02)",
    )
    assert coord_err <= 1e-2
    assert bounds_ok


def test_criterion_11_determinism(tmp_path):
    save_obstacle(make_tetrahedron(), tmp_path / "tetra.obs")
    trees = []
    for sub in ("run1", "run2"):
        cfg = write_experiment_config(
            tmp_path / f"{sub}.cfg",
            "tetra.obs",
            grid_shape=2000,
            grid_loc=500,
            cutoff=6,
            cluster_angle_deg=10.0,
            noise_delta=1.0,
            output_dir=sub,
        )
        assert main(["synth", str(cfg)]) == 0
        assert main(["recover", str(cfg)]) == 0
        root = tmp_path / sub
        trees.append(
            {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }
        )
    identical = trees[0] == trees[1]
    report(11, identical, f"{len(trees[0])} report files byte-identical across runs")
    assert identical
