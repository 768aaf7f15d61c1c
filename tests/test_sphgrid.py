import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree

from polyscat.forward import NoiseModel, PlaneWave, add_noise, sample_phaseless
from polyscat.locator import _degree_one_basis
from polyscat.sphgrid import (
    FOUR_PI,
    SphericalGrid,
    build_grid,
    fibonacci_points,
    grid_of,
    harmonic_basis,
    in_own_unit,
    sht_forward,
)


def random_directions(rng, n):
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def gram_error(grid, degree):
    B = harmonic_basis(grid.points, degree)
    gram = B.T @ (grid.point_weights[:, None] * B)
    return float(np.abs(gram - np.eye(B.shape[1])).max())


class TestGrid:
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
        with pytest.raises(ValueError, match=r"^grid points must be an \(N, 3\) array$"):
            SphericalGrid(points=fibonacci_points(12)[:, :2])

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
        # the one floor of every grid, built or loaded
        with pytest.raises(ValueError, match="^a grid needs at least 12 points, got 4$"):
            build_grid(4)
        with pytest.raises(ValueError, match="^a grid needs at least 12 points, got 11$"):
            SphericalGrid(points=fibonacci_points(11))
        assert SphericalGrid(points=fibonacci_points(12)).size == 12

    def test_grid_of_builds_one_grid_per_point_set(self):
        g = build_grid(300)
        assert grid_of(g.points) is g
        assert grid_of(fibonacci_points(300).tolist()) is g
        reverse = grid_of(g.points[::-1])
        assert reverse is not g
        assert grid_of(g.points[::-1].copy()) is reverse
        with pytest.raises(ValueError, match="distinct"):
            grid_of(np.vstack([g.points, g.points[:1]]))


class TestScalarHarmonics:
    def test_constant_mode(self):
        rng = np.random.default_rng(0)
        pts = random_directions(rng, 10)
        vals = harmonic_basis(pts, 0)[:, 0]
        assert_allclose(vals, 1.0 / math.sqrt(FOUR_PI), rtol=1e-14)

    def test_degree_one_pole(self):
        val = harmonic_basis(np.array([[0.0, 0.0, 1.0]]), 1)[0, 2]
        assert_allclose(val, math.sqrt(3.0 / FOUR_PI), rtol=1e-14)

    def test_closed_forms(self):
        # columns n^2 + n + m for (2, +-2) and (3, +-1) against
        # sqrt(15 / 16 pi) (x^2 - y^2, 2 x y) and sqrt(21 / 32 pi) (x, y) (5 z^2 - 1)
        rng = np.random.default_rng(4)
        pts = np.vstack([random_directions(rng, 500), [[0, 0, 1], [0, 0, -1]]])
        x, y, z = pts.T
        B = harmonic_basis(pts, 3)
        c2 = math.sqrt(15.0 / (16.0 * math.pi))
        c3 = math.sqrt(21.0 / (32.0 * math.pi)) * (5.0 * z * z - 1.0)
        assert_allclose(B[:, 8], c2 * (x * x - y * y), rtol=0, atol=1e-15)
        assert_allclose(B[:, 4], c2 * 2.0 * x * y, rtol=0, atol=1e-15)
        assert_allclose(B[:, 13], c3 * x, rtol=0, atol=1e-15)
        assert_allclose(B[:, 11], c3 * y, rtol=0, atol=1e-15)

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
                fp = harmonic_basis([xp / np.linalg.norm(xp)], 1)[0, 1:4]
                fm = harmonic_basis([xm / np.linalg.norm(xm)], 1)[0, 1:4]
                deriv = (fp - fm) / (2.0 * h)
                assert np.abs(scale * deriv - U[:, i] @ t).max() < 1e-5


class TestTransform:
    def test_constant_samples(self):
        g = build_grid(7518)
        ones = np.ones(g.size)
        coeffs = sht_forward(g, ones, 4)
        assert abs(coeffs[0] - math.sqrt(FOUR_PI)) < 1e-2
        rest = coeffs.copy()
        rest[0] = 0.0
        assert np.abs(rest).max() < 1e-2

    def test_pure_mode(self):
        g = build_grid(7518)
        vals = harmonic_basis(g.points, 3)[:, 3 * 3 + 3 + 2]
        coeffs = sht_forward(g, vals, 6)
        assert abs(coeffs[3 * 3 + 3 + 2] - 1.0) < 1e-2
        rest = coeffs.copy()
        rest[3 * 3 + 3 + 2] = 0.0
        assert np.abs(rest).max() < 1e-2

    def test_linearity(self):
        g = build_grid(500)
        rng = np.random.default_rng(5)
        f = rng.normal(size=g.size)
        h = rng.normal(size=g.size)
        lhs = sht_forward(g, 2.0 * f + 3.0 * h, 5)
        rhs = (
            2.0 * sht_forward(g, f, 5)
            + 3.0 * sht_forward(g, h, 5)
        )
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_band_limited_round_trip(self):
        g = build_grid(7518)
        rng = np.random.default_rng(6)
        coeffs = rng.normal(size=36)  # degrees <= 5
        f = harmonic_basis(g.points, 5) @ coeffs
        got = sht_forward(g, f, 5)
        recon = harmonic_basis(g.points, 5) @ got
        assert np.abs(recon - f).max() <= 1e-2 * np.abs(f).max()

    def test_parseval_band_limited(self):
        g = build_grid(7518)
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=36)
        f = harmonic_basis(g.points, 5) @ coeffs
        got = sht_forward(g, f, 5)
        energy = float(got @ got)
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
        B = harmonic_basis(g.points, 10)
        f_clean = B @ sht_forward(g, clean.values, 10)
        f_noisy = B @ sht_forward(g, noisy.values, 10)
        filt = f_noisy - f_clean
        raw = noisy.values - clean.values
        rms = lambda v: math.sqrt(float(np.mean(v**2)))
        assert rms(filt) <= 0.25 * rms(raw)
        assert np.abs(filt).max() <= 0.25

    @pytest.mark.parametrize("cutoff", [0, 2, 10])
    def test_coefficients_are_a_read_only_array(self, cutoff):
        # the length (cutoff + 1)^2 is the only record of the cutoff
        g = build_grid(2000)
        coeffs = sht_forward(g, np.ones(g.size), cutoff)
        assert type(coeffs) is np.ndarray and coeffs.shape == ((cutoff + 1) ** 2,)
        assert not coeffs.flags.writeable


class TestOwnUnit:
    @pytest.mark.parametrize("peak", [3.0, 2.0**-1074, 5e-310, 1.7e308])
    def test_peak_lands_in_half_to_one_exactly(self, peak):
        # a subnormal or huge peak stays finite: no 2^-e is formed apart
        values = np.array([peak, -0.5 * peak, 0.0, -0.0])
        scaled, e = in_own_unit(values, peak)
        assert 0.5 <= scaled[0] < 1.0
        np.testing.assert_array_equal(np.ldexp(scaled, e), values)
        assert np.signbit(scaled[3])

    def test_complex_parts_scale_alike(self):
        values = np.array([[3e200 - 1e200j, -0.0 + 2e-100j, 1e200 + 0j]])
        scaled, e = in_own_unit(values, np.abs(values).max())
        np.testing.assert_array_equal(scaled.real, np.ldexp(values.real, -e))
        np.testing.assert_array_equal(scaled.imag, np.ldexp(values.imag, -e))
        assert 0.5 <= np.abs(scaled).max() < 1.0

    def test_power_of_two_scaling_gives_the_same_quotient(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((4, 9))
        peak = np.abs(values).max(axis=1, keepdims=True)
        for k in (-900, -60, 900):
            scaled, _ = in_own_unit(values * 2.0**k, peak * 2.0**k)
            np.testing.assert_array_equal(scaled, in_own_unit(values, peak)[0])

