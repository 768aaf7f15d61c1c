import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from conftest import (
    RECOVERED_VERTEX_TABLE,
    TETRA_FACE_AREA,
    TETRA_OFFSET,
    TETRA_TRUE_NORMALS,
)
from polyscat import minkowski
from polyscat.geometry import NotConvex, Unbounded, halfspace_intersection
from polyscat.minkowski import (
    SpanDeficient,
    balance_areas,
    facet_areas,
    fit_offsets,
    volume_hessian,
)

CUBE_NORMALS = np.vstack([np.eye(3), -np.eye(3)])


class TestBalance:
    def test_exact_areas_unchanged(self, tetra):
        out = balance_areas(tetra.normals, tetra.areas)
        assert_allclose(out, tetra.areas, atol=1e-14)

    def test_equal_perturbed_areas_unchanged(self, tetra):
        out = balance_areas(tetra.normals, np.full(4, 0.47))
        assert_allclose(out, 0.47, atol=1e-14)

    def test_projection_balances(self, prism):
        # balance holds to 1e-12 whenever the positivity clamp stays inactive
        rng = np.random.default_rng(13)
        areas = prism.areas * (1.0 + 0.1 * rng.standard_normal(prism.num_faces))
        out = balance_areas(prism.normals, areas)
        assert out.min() > 1e-6  # no clamping triggered
        assert np.linalg.norm(out @ prism.normals) < 1e-12

    def test_clamp_path(self):
        # (e1, -e1, e2): the lone e2 area cannot balance and clamps to floor
        normals = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0]])
        out = balance_areas(normals, [1.0, 0.8, 0.5])
        assert_allclose(out[:2], 0.9, atol=1e-12)
        assert 0.0 < out[2] <= 1e-9


class TestFacetAreas:
    def test_tetrahedron_at_inradius(self):
        areas = facet_areas(TETRA_TRUE_NORMALS, np.full(4, TETRA_OFFSET))
        assert_allclose(areas, TETRA_FACE_AREA, rtol=1e-7)

    def test_quadratic_scaling(self):
        a1 = facet_areas(TETRA_TRUE_NORMALS, np.full(4, TETRA_OFFSET))
        a2 = facet_areas(TETRA_TRUE_NORMALS, np.full(4, 2.0 * TETRA_OFFSET))
        assert_allclose(a2, 4.0 * a1, rtol=1e-9)

    def test_far_plane_stays_active(self):
        # a simplex facet cannot vanish by moving its plane outward: the
        # result is a 13/4-dilated tetrahedron with (still equal) areas
        offsets = np.array([1.0, 1.0, 1.0, 10.0]) * TETRA_OFFSET
        areas = facet_areas(TETRA_TRUE_NORMALS, offsets)
        assert np.all(areas > 0)
        assert_allclose(areas, areas[0], rtol=1e-7)
        assert_allclose(areas[0], TETRA_FACE_AREA * (13.0 / 4.0) ** 2, rtol=1e-7)

    def test_vanished_facet_reports_zero(self, tetra):
        normals = np.vstack([tetra.normals, [0.0, 0.0, 1.0]])
        offsets = np.append(tetra.offsets, 10.0)
        areas = facet_areas(normals, offsets)
        assert areas[4] == 0.0
        assert_allclose(areas[:4], TETRA_FACE_AREA, rtol=1e-7)

    def test_unbounded(self):
        normals = np.array(
            [[0, 0, 1.0], [0, 0, -1.0], [0, 1.0, 0], [0, -1.0, 0]]
        )
        with pytest.raises(Unbounded):
            facet_areas(normals, np.ones(4))


class TestFitOffsets:
    def test_exact_tetrahedron(self, tetra):
        fit = fit_offsets(tetra.normals, tetra.areas)
        assert_allclose(fit.offsets, TETRA_OFFSET, atol=1e-7)
        assert fit.residual <= 1e-10
        assert fit.converged
        # the start is the solution up to scale, so no step is accepted and
        # the polyhedron carries the start's scaling as well as the final one
        assert len(fit.history) == 1
        rebuilt = halfspace_intersection(tetra.normals, fit.offsets).polyhedron
        assert_allclose(fit.polyhedron.vertices, rebuilt.vertices, rtol=0, atol=1e-12)

    def test_exact_cube(self):
        fit = fit_offsets(CUBE_NORMALS, np.ones(6))
        assert_allclose(fit.offsets, 0.5, atol=1e-7)
        assert fit.residual <= 1e-10

    @staticmethod
    def _fit_with_failing_first_trial(monkeypatch, error):
        # a trial step whose intersection fails is rejected and the damping
        # raised; it must not escape the fit
        calls = []

        def first_trial_fails(normals, offsets):
            calls.append(1)
            # call 1 is the start, call 2 the first trial step
            if len(calls) == 2:
                raise error
            return halfspace_intersection(normals, offsets)

        monkeypatch.setattr(minkowski, "halfspace_intersection", first_trial_fails)
        # a 2 x 4 x 6 box start, so the fit must take steps
        fit = fit_offsets(CUBE_NORMALS, np.ones(6), alpha0=[1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        assert len(calls) > 2
        assert_allclose(fit.offsets, 0.5, atol=1e-7)
        assert fit.residual <= 1e-10

    def test_unbounded_trial_step_is_retried(self, monkeypatch):
        self._fit_with_failing_first_trial(
            monkeypatch, Unbounded("half spaces do not enclose a bounded solid")
        )

    def test_not_convex_trial_step_is_retried(self, monkeypatch):
        self._fit_with_failing_first_trial(
            monkeypatch, NotConvex("vertex protrudes beyond a face plane")
        )

    def test_exact_prism(self, prism):
        fit = fit_offsets(prism.normals, prism.areas)
        assert_allclose(fit.offsets, prism.offsets, atol=1e-6)
        result = halfspace_intersection(prism.normals, fit.offsets)
        for v in prism.vertices:
            assert np.linalg.norm(result.polyhedron.vertices - v, axis=1).min() < 1e-6

    def test_paper_noisy_data(self):
        normals = np.array(
            [[-0.85, 0, 0.53], [0.85, 0, 0.53], [0, -0.85, -0.53], [0, 0.85, -0.53]]
        )
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        fit = fit_offsets(normals, np.full(4, 0.47))
        assert np.abs(fit.offsets - 0.21).max() <= 0.01
        rebuilt = halfspace_intersection(normals, fit.offsets).polyhedron
        for v in RECOVERED_VERTEX_TABLE:
            assert np.linalg.norm(rebuilt.vertices - v, axis=1).min() <= 0.06

    def test_history_non_increasing(self, prism):
        fit = fit_offsets(prism.normals, prism.areas * 1.3)
        assert all(a >= b for a, b in zip(fit.history, fit.history[1:]))

    def test_span_deficient(self):
        normals = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
        with pytest.raises(SpanDeficient):
            fit_offsets(normals, np.ones(4))

    def test_self_consistency_random(self):
        rng = np.random.default_rng(21)
        from scipy.spatial import ConvexHull

        from polyscat.geometry import build_polyhedron

        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        hull = ConvexHull(pts)
        pts = pts - pts[hull.vertices].mean(axis=0)
        tris = hull.simplices.copy()
        for t in tris:
            if np.cross(pts[t[1]] - pts[t[0]], pts[t[2]] - pts[t[0]]) @ pts[t[0]] < 0:
                t[1], t[2] = t[2], t[1]
        used = sorted(set(hull.vertices))
        remap = {o: n for n, o in enumerate(used)}
        poly = build_polyhedron(pts[used], [tuple(remap[i] for i in t) for t in tris])
        fit = fit_offsets(poly.normals, poly.areas, alpha0=poly.offsets * 1.2)
        areas = facet_areas(poly.normals, fit.offsets)
        assert_allclose(areas, poly.areas, atol=1e-6)


def gaussian_hull(rng, n):
    """Normals, areas, offsets and vertices of the hull of ``n`` Gaussian points."""
    pts = rng.standard_normal((n, 3))
    hull = ConvexHull(pts)
    a, b, c = (pts[hull.simplices[:, i]] for i in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    return hull.equations[:, :3], areas, -hull.equations[:, 3], pts[hull.vertices]


class TestVolumeHessian:
    @staticmethod
    def central_differences(normals, offsets, h=1e-6):
        columns = []
        for j in range(len(offsets)):
            step = np.zeros(len(offsets))
            step[j] = h
            columns.append(
                (facet_areas(normals, offsets + step) - facet_areas(normals, offsets - step))
                / (2.0 * h)
            )
        return np.column_stack(columns)

    def check(self, normals, offsets):
        M = volume_hessian(normals, halfspace_intersection(normals, offsets))
        assert_allclose(M, M.T, atol=1e-12)
        fd = self.central_differences(normals, offsets)
        assert_allclose(M, fd, rtol=1e-5, atol=1e-7 * np.abs(M).max())
        # translating the body changes no facet area
        t = np.array([0.3, -0.7, 0.2])
        assert np.abs(M @ (normals @ t)).max() < 1e-12 * np.abs(M).max()
        return M

    def test_prism(self, prism):
        M = self.check(prism.normals, prism.offsets)
        # caps meet the sides at right angles; sides meet at 120 degrees
        assert_allclose(M[0, 2:], 1.0, rtol=1e-12)
        assert_allclose(np.diag(M)[2:], 2.0 / np.sqrt(3.0), rtol=1e-12)

    def test_random_hull(self):
        # an exact hull has vertices where more than three planes meet, at
        # which the Hessian has a kink; moving the planes apart makes every
        # vertex simple, so central differences are second-order accurate
        rng = np.random.default_rng(17)
        normals, _, offsets, vertices = gaussian_hull(rng, 14)
        offsets = offsets - normals @ vertices.mean(axis=0)
        offsets = offsets + 0.05 * rng.uniform(size=len(offsets))
        self.check(normals, offsets)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(8, 20))
def test_fit_recovers_random_polytope(seed, n):
    rng = np.random.default_rng(seed)
    normals, areas, offsets, vertices = gaussian_hull(rng, n)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    rotation = q * np.sign(np.diag(r))
    order = rng.permutation(len(areas))
    normals, areas, offsets = normals[order] @ rotation.T, areas[order], offsets[order]
    vertices = vertices @ rotation.T

    fit = fit_offsets(normals, areas)
    result = halfspace_intersection(normals, fit.offsets)
    kept = list(result.plane_index)
    # the fit's own polyhedron is the body at its offsets
    extent = float(np.ptp(result.polyhedron.vertices, axis=0).max())
    assert fit.polyhedron.faces == result.polyhedron.faces
    assert_allclose(
        fit.polyhedron.vertices, result.polyhedron.vertices, rtol=0, atol=1e-12 * extent
    )
    assert_allclose(fit.polyhedron.areas, fit.areas[kept], rtol=1e-12)
    fitted = np.zeros(len(areas))
    fitted[kept] = result.polyhedron.areas
    assert np.linalg.norm(fitted - areas) <= 1e-3 * np.linalg.norm(areas)
    # the offsets leave a translation free; remove it before comparing
    shift, *_ = np.linalg.lstsq(
        normals[kept], result.polyhedron.offsets - offsets[kept], rcond=None
    )
    got = np.asarray(result.polyhedron.vertices)
    err = max(float(np.linalg.norm(got - v, axis=1).min()) for v in vertices + shift)
    assert err <= 1e-2 * float(np.ptp(vertices, axis=0).max())
