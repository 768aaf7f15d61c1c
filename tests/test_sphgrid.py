import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree

from polyscat.forward import NoiseModel, PlaneWave, add_noise, sample_phaseless
from polyscat.locator import _degree_one_basis
from polyscat.sphgrid import (
    FOUR_PI,
    HarmonicExpansion,
    SphericalGrid,
    build_grid,
    dump_expansion,
    eval_scalar_harmonic,
    fibonacci_points,
    harmonic_basis,
    load_expansion,
    sht_forward,
    synthesize,
)


def random_directions(rng, n):
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def gram_error(grid, degree):
    B = harmonic_basis(grid.points, degree)
    gram = B.T @ (grid.point_weights[:, None] * B)
    return float(np.abs(gram - np.eye(B.shape[1])).max())


class TestGrid:
    def test_minimal_grid_euler(self):
        g = build_grid(12)
        assert g.size == 12
        assert len(g.triangles) == 20
        edges = set()
        for t in g.triangles:
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                edges.add((min(a, b), max(a, b)))
        assert g.size - len(edges) + len(g.triangles) == 2

    def test_area_sums(self):
        # outward triangles tile the sphere once: signed solid angles sum to
        # 4 pi (Van Oosterom-Strackee)
        g = build_grid(7518)
        a, b, c = (g.points[g.triangles[:, k]] for k in range(3))
        num = np.einsum("ij,ij->i", a, np.cross(b, c))
        den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum(
            "ij,ij->i", b, c
        ) + np.einsum("ij,ij->i", c, a)
        assert num.min() > 0.0
        assert abs(2.0 * np.arctan2(num, den).sum() - FOUR_PI) <= 1e-9

    def test_point_weights_cover_sphere(self):
        g = build_grid(2000)
        assert_allclose(g.point_weights.sum(), FOUR_PI, rtol=1e-12)
        equal = FOUR_PI / g.size
        assert np.abs(g.point_weights / equal - 1.0).max() <= 0.01

    def test_rejects_bad_point_sets(self):
        pts = fibonacci_points(200)
        with pytest.raises(ValueError, match="unit"):
            SphericalGrid(points=1.01 * pts)
        with pytest.raises(ValueError, match="unit"):
            SphericalGrid(points=np.vstack([pts, [[np.nan, 0.0, 1.0]]]))
        with pytest.raises(ValueError, match="distinct"):
            SphericalGrid(points=np.vstack([pts, pts[:1]]))
        with pytest.raises(ValueError, match="weight"):
            SphericalGrid(points=pts[pts[:, 2] > 0.0])

    def test_near_uniform_spacing(self):
        g = build_grid(7518)
        d, _ = cKDTree(g.points).query(g.points, k=2)
        nn = d[:, 1]
        assert nn.max() / nn.min() <= 2.0

    def test_raw_fibonacci_spacing(self):
        pts = fibonacci_points(5000)
        d, _ = cKDTree(pts).query(pts, k=2)
        assert d[:, 1].max() / d[:, 1].min() <= 2.0

    def test_unit_points(self):
        g = build_grid(3000)
        assert np.abs(np.linalg.norm(g.points, axis=1) - 1.0).max() < 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            build_grid(4)


class TestScalarHarmonics:
    def test_constant_mode(self):
        rng = np.random.default_rng(0)
        pts = random_directions(rng, 10)
        vals = eval_scalar_harmonic(0, 0, pts)
        assert_allclose(vals, 1.0 / math.sqrt(FOUR_PI), rtol=1e-14)

    def test_degree_one_pole(self):
        val = eval_scalar_harmonic(1, 0, np.array([0.0, 0.0, 1.0]))
        assert_allclose(val, math.sqrt(3.0 / FOUR_PI), rtol=1e-14)

    def test_orthonormality_gram(self):
        assert gram_error(build_grid(7518), 10) <= 1e-3

    def test_quadrature_exact_at_every_grid_size(self):
        # weights are exact to degree D with (D + 1)^2 <= n / 16, so the Gram
        # matrix of the harmonics up to D // 2 is the identity to rounding
        for n in (12, 500, 1000, 1878, 7518):
            g = build_grid(n)
            degree = max(math.isqrt(n // 16) - 1, 0)
            assert_allclose(g.point_weights.sum(), FOUR_PI, rtol=1e-13)
            assert g.point_weights.min() > 0.0
            assert gram_error(g, degree // 2) <= 1e-12

    def test_basis_is_c_contiguous(self):
        # BLAS rounds a transposed view differently from a C-order array, so
        # the layout of the design matrix is part of the reported digits
        B = harmonic_basis(build_grid(500).points, 6)
        assert B.shape == (500, 49)
        assert B.flags.c_contiguous

    def test_finite_high_degrees(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pts = random_directions(rng, 10_000)
            B = harmonic_basis(pts, 30)
            assert np.isfinite(B).all()
            assert np.abs(B).max() < 1e3


class TestVectorHarmonics:
    # the locator's closed-form degree-1 fields, U_1^m and V_1^m for
    # m = -1, 0, 1 in rows 0, 2, 4 and 1, 3, 5
    def test_tangential_and_orthogonal(self):
        rng = np.random.default_rng(2)
        pts = random_directions(rng, 200)
        basis = _degree_one_basis(pts)
        assert basis.shape == (6, 200, 3)
        for U, V in zip(basis[0::2], basis[1::2]):
            assert np.abs(np.einsum("ij,ij->i", U, pts)).max() < 1e-12
            assert np.abs(np.einsum("ij,ij->i", V, pts)).max() < 1e-12
            assert np.abs(np.einsum("ij,ij->i", U, V)).max() < 1e-12

    def test_v_is_cross_of_u(self):
        rng = np.random.default_rng(3)
        pts = random_directions(rng, 100)
        basis = _degree_one_basis(pts)
        for U, V in zip(basis[0::2], basis[1::2]):
            assert np.abs(V - np.cross(pts, U)).max() < 1e-12

    def test_unit_tangential_norm(self):
        # the weights of 1878 points are exact to degree 9, and the entries
        # of the Gram matrix are polynomials of degree at most 4
        g = build_grid(1878)
        basis = _degree_one_basis(g.points)
        gram = np.einsum("i,aij,bij->ab", g.point_weights, basis, basis)
        assert np.abs(gram - np.eye(6)).max() <= 1e-12

    def test_gradient_against_finite_differences(self):
        # independent check: U_1^m is the numerical surface gradient of the
        # scalar basis column n^2 + n + m = 2 + m, divided by sqrt(2)
        rng = np.random.default_rng(4)
        pts = random_directions(rng, 20)
        U = _degree_one_basis(pts)[0::2]
        h = 1e-6
        scale = 1.0 / math.sqrt(2.0)
        for i, x in enumerate(pts):
            t1 = np.cross(x, [1.0, 0.3, -0.2])
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(x, t1)
            for t in (t1, t2):
                xp = x + h * t
                xm = x - h * t
                fp = harmonic_basis(xp / np.linalg.norm(xp), 1)[1:4]
                fm = harmonic_basis(xm / np.linalg.norm(xm), 1)[1:4]
                deriv = (fp - fm) / (2.0 * h)
                assert np.abs(scale * deriv - U[:, i] @ t).max() < 1e-5


class TestTransform:
    def test_constant_samples(self):
        g = build_grid(7518)
        ones = np.ones(g.size)
        exp = sht_forward((g, ones), 4)
        assert abs(exp.coefficient(0, 0) - math.sqrt(FOUR_PI)) < 1e-2
        rest = exp.coefficients.copy()
        rest[0] = 0.0
        assert np.abs(rest).max() < 1e-2

    def test_pure_mode(self):
        g = build_grid(7518)
        vals = eval_scalar_harmonic(3, 2, g.points)
        exp = sht_forward((g, vals), 6)
        assert abs(exp.coefficient(3, 2) - 1.0) < 1e-2
        rest = exp.coefficients.copy()
        rest[3 * 3 + 3 + 2] = 0.0
        assert np.abs(rest).max() < 1e-2

    def test_linearity(self):
        g = build_grid(500)
        rng = np.random.default_rng(5)
        f = rng.normal(size=g.size)
        h = rng.normal(size=g.size)
        lhs = sht_forward((g, 2.0 * f + 3.0 * h), 5).coefficients
        rhs = 2.0 * sht_forward((g, f), 5).coefficients + 3.0 * sht_forward(
            (g, h), 5
        ).coefficients
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_band_limited_round_trip(self):
        g = build_grid(7518)
        rng = np.random.default_rng(6)
        coeffs = rng.normal(size=36)  # degrees <= 5
        f = harmonic_basis(g.points, 5) @ coeffs
        exp = sht_forward((g, f), 5)
        recon = synthesize(exp, g.points)
        assert np.abs(recon - f).max() <= 1e-2 * np.abs(f).max()

    def test_parseval_band_limited(self):
        g = build_grid(7518)
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=36)
        f = harmonic_basis(g.points, 5) @ coeffs
        exp = sht_forward((g, f), 5)
        energy = float(exp.coefficients @ exp.coefficients)
        quad = float(np.sum(g.point_weights * f * f))
        assert abs(energy - quad) <= 0.05 * quad

    def test_noise_filtering(self, tetra):
        # the band limit is a low-pass filter: 100% relative noise moves the
        # surrogate far less than it moves the samples (clamping at zero also
        # adds a known +8.3% systematic factor Phi(1) + phi(1) at delta = 1)
        g = build_grid(7518)
        w = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=4 * math.pi)
        clean = sample_phaseless(tetra, w, g)
        noisy = add_noise(clean, NoiseModel(1.0, 11))
        f_clean = synthesize(sht_forward(clean, 10), g.points)
        f_noisy = synthesize(sht_forward(noisy, 10), g.points)
        filt = f_noisy - f_clean
        raw = noisy.values - clean.values
        rms = lambda v: math.sqrt(float(np.mean(v**2)))
        assert rms(filt) <= 0.25 * rms(raw)
        assert np.abs(filt).max() <= 0.25

    def test_scalar_and_batch_paths_agree(self):
        rng = np.random.default_rng(8)
        pts = random_directions(rng, 7)
        B = harmonic_basis(pts, 8)
        for i, x in enumerate(pts):
            assert_allclose(harmonic_basis(x, 8), B[i], atol=1e-14)

    def test_expansion_validation(self):
        with pytest.raises(ValueError):
            HarmonicExpansion(cutoff=2, coefficients=np.zeros(5))
        exp = HarmonicExpansion(cutoff=2, coefficients=np.arange(9.0))
        with pytest.raises(ValueError):
            exp.coefficient(3, 0)

    def test_dump_and_load(self, tmp_path):
        exp = HarmonicExpansion(cutoff=3, coefficients=np.arange(16.0) / 7.0)
        path = tmp_path / "exp.txt"
        dump_expansion(exp, path)
        back = load_expansion(path)
        assert back.cutoff == 3
        assert_allclose(back.coefficients, exp.coefficients, atol=1e-15)
