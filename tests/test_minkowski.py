import json
from pathlib import Path
from types import SimpleNamespace

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
from polyscat import geometry, minkowski
from polyscat.geometry import (
    EmptyInterior,
    GeometryError,
    NotConvex,
    Unbounded,
    dual_hull,
    halfspace_intersection,
    unit_normals,
)
from polyscat.minkowski import balance_areas, fit_offsets

CUBE_NORMALS = np.vstack([np.eye(3), -np.eye(3)])
SQUARE_NORMALS = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])  # rank 2


def facet_areas(normals, offsets):
    """Facet area per input plane, zero where a facet vanished."""
    result = halfspace_intersection(normals, offsets)
    areas = np.zeros(len(normals))
    areas[list(result.plane_index)] = result.polyhedron.areas
    return areas


def trial(normals, offsets):
    """One fit trial at ``offsets``: the dual hull and what its edges give."""
    unit = unit_normals(normals)
    return minkowski._state(unit, minkowski._angle_tables(unit), np.asarray(offsets, dtype=float))


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
            return dual_hull(normals, offsets)

        monkeypatch.setattr(minkowski, "dual_hull", first_trial_fails)
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

    def test_stall_ends_the_fit(self, monkeypatch):
        # when every trial step fails, the fit gives up after one round of
        # damped trials and returns its start, scaled to the target areas
        calls = []

        def only_the_start(normals, offsets):
            calls.append(1)
            if len(calls) > 1:
                raise Unbounded("half spaces do not enclose a bounded solid")
            return dual_hull(normals, offsets)

        monkeypatch.setattr(minkowski, "dual_hull", only_the_start)
        alpha0 = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        fit = fit_offsets(CUBE_NORMALS, np.ones(6), alpha0=alpha0)
        assert len(calls) > 2
        assert not fit.converged
        assert fit.iterations == 1
        assert len(fit.history) == 1
        start = halfspace_intersection(CUBE_NORMALS, alpha0).polyhedron
        s = np.sqrt(6.0 / start.areas.sum())
        assert fit.polyhedron.faces == start.faces
        assert_allclose(fit.polyhedron.vertices, start.vertices * s, rtol=1e-14)
        assert_allclose(fit.offsets, alpha0 * s, rtol=1e-14)

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

    def test_a_total_area_beyond_the_fit_is_rejected(self):
        # just under the largest total the fit represents, the cube fits
        # with no overflow warning; twice it is an error before any step
        largest = minkowski._MAX_TOTAL_AREA
        fit = fit_offsets(CUBE_NORMALS, np.full(6, 0.999 * largest / 6))
        assert fit.converged and np.isfinite(fit.offsets).all()
        message = r"^total area 1\.03e\+124 is above the fit's limit 5\.16e\+123$"
        with pytest.raises(ValueError, match=message):
            fit_offsets(CUBE_NORMALS, np.full(6, largest / 3))

    def test_span_deficient(self):
        with pytest.raises(Unbounded):
            fit_offsets(SQUARE_NORMALS, np.ones(4))

    @pytest.mark.parametrize("solve", [fit_offsets, halfspace_intersection])
    @pytest.mark.parametrize(
        "normals, error, message",
        [
            (np.vstack([CUBE_NORMALS[:5], [np.nan, 0.0, 0.0]]), ValueError,
             "normals must be finite"),
            (CUBE_NORMALS[:, :2], ValueError,
             r"need matching \(k, 3\) normals and \(k,\) offsets"),
            (SQUARE_NORMALS, Unbounded, "normals do not span 3-space"),
        ],
        ids=["nan", "two-columns", "rank-2"],
    )
    def test_normals_are_checked_as_the_intersection_checks_them(
        self, solve, normals, error, message
    ):
        # the fit checks its normals with unit_normals before any arithmetic
        with pytest.raises(error, match=f"^{message}$"):
            solve(normals, np.ones(len(normals)))

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


def add_at_hessian(normals, result):
    """The volume Hessian read off the face rings of an intersection: twin
    edges paired by one sort, two ``np.add.at`` calls over ``np.cross`` sines."""
    poly = result.polyhedron
    flat, succ, face, _ = poly.rings
    plane = np.asarray(result.plane_index)[face]
    head = flat[succ]
    key = flat * len(poly.vertices) + head
    back = head * len(poly.vertices) + flat
    order = np.argsort(key)
    twin = order[np.minimum(np.searchsorted(key, back, sorter=order), len(key) - 1)]
    paired = key[twin] == back
    rows, cols = plane[paired], plane[twin[paired]]
    length = np.linalg.norm(poly.vertices[flat[paired]] - poly.vertices[head[paired]], axis=1)
    cos = np.einsum("ij,ij->i", normals[rows], normals[cols])
    sin = np.linalg.norm(np.cross(normals[rows], normals[cols]), axis=1)
    M = np.zeros((len(normals), len(normals)))
    np.add.at(M, (rows, cols), length / sin)
    np.add.at(M, (rows, rows), -length * cos / sin)
    return M


class TestVolumeHessian:
    def test_matches_add_at(self):
        # the frozen intersection bodies, vanished planes included; the
        # diagonal is summed in hull-edge order, not ring order, so the
        # bits differ from the ring-based sums
        path = Path(__file__).parent / "data" / "intersection_bodies.json"
        for body in json.loads(path.read_text()):
            normals = unit_normals(body["normals"])
            M = trial(normals, body["offsets"]).hessian
            want = add_at_hessian(normals, halfspace_intersection(normals, body["offsets"]))
            assert_allclose(M, want, rtol=1e-12, atol=0)

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
        M = trial(normals, offsets).hessian
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


def oracle_bodies():
    """Normals and offsets of the frozen intersection bodies (vanished
    planes included), of exact hulls of Gaussian points (vertices where
    more than three planes meet) and of the same hulls moved apart."""
    path = Path(__file__).parent / "data" / "intersection_bodies.json"
    for body in json.loads(path.read_text()):
        yield np.asarray(body["normals"]), np.asarray(body["offsets"])
    rng = np.random.default_rng(41)
    for n in (8, 14, 20):
        normals, _, offsets, vertices = gaussian_hull(rng, n)
        offsets = offsets - normals @ vertices.mean(axis=0)
        yield normals, offsets
        yield normals, offsets + 0.05 * rng.uniform(size=len(offsets))


class TestTrial:
    def test_trial_matches_body_oracle(self):
        # areas, volume, centroid, Hessian and vanished planes read off the
        # dual hull's edges against the validated body with face rings
        for normals, offsets in oracle_bodies():
            state = trial(normals, offsets)
            result = halfspace_intersection(normals, offsets)
            body = result.polyhedron
            extent = float(np.ptp(body.vertices, axis=0).max())
            assert state.vanished == result.vanished
            assert_allclose(state.areas, facet_areas(normals, offsets), rtol=1e-12, atol=0)
            assert_allclose(state.volume, body.volume, rtol=1e-12)
            assert_allclose(state.centroid, body.centroid, rtol=0, atol=1e-12 * extent)
            want = add_at_hessian(unit_normals(normals), result)
            assert_allclose(state.hessian, want, rtol=1e-12, atol=0)
            # the offsets are centred on the centroid
            assert_allclose(state.offsets, offsets - normals @ body.centroid, rtol=1e-12)

    @staticmethod
    def moved_vertex(monkeypatch, factor):
        """Make qhull's first dual facet map to its primal vertex times ``factor``."""
        convex_hull = geometry.ConvexHull

        def moved(points):
            hull = convex_hull(points)
            eqs = hull.equations.copy()
            vertex = -eqs[0, :3] / eqs[0, 3] * factor
            size = np.linalg.norm(vertex)
            eqs[0] = [*(vertex / size), -1.0 / size]
            return SimpleNamespace(
                equations=eqs, simplices=hull.simplices, neighbors=hull.neighbors
            )

        monkeypatch.setattr(geometry, "ConvexHull", moved)

    @pytest.mark.parametrize(
        "normals, offsets, factor, error",
        [
            (CUBE_NORMALS, [0.5, 0.5, 0.5, 0.5, 0.5, 0.0], 1.0, EmptyInterior),
            (CUBE_NORMALS, [0.5, 0.5, 0.5, 0.5, 0.5, -0.5], 1.0, EmptyInterior),
            # no plane bounds the body from below
            (np.vstack([np.eye(3), -np.eye(3)[:2]]), np.ones(5), 1.0, Unbounded),
            # a corner pushed out of its three planes
            (CUBE_NORMALS, np.full(6, 0.5), 1.0 + 1e-3, GeometryError),
            (CUBE_NORMALS, np.full(6, 0.5), 1.0 - 1e-3, GeometryError),
            # and moved within the tolerance
            (CUBE_NORMALS, np.full(6, 0.5), 1.0 + 1e-10, None),
        ],
    )
    def test_trial_raises_when_the_intersection_does(
        self, monkeypatch, normals, offsets, factor, error
    ):
        self.moved_vertex(monkeypatch, factor)
        for run in (halfspace_intersection, trial):
            if error is None:
                run(normals, offsets)
            else:
                with pytest.raises(error):
                    run(normals, offsets)

    def test_one_hull_per_state(self, monkeypatch):
        # a fit runs qhull once for its start and once per trial step, and
        # builds its polyhedron from the last accepted hull without another
        hulls, states = [], []
        convex_hull, state = geometry.ConvexHull, minkowski._state

        def counted_hull(points):
            hulls.append(1)
            return convex_hull(points)

        def counted_state(normals, tables, offsets):
            # a trial step to a non-positive offset is rejected before qhull
            states.append(bool(np.all(offsets > 0.0)))
            return state(normals, tables, offsets)

        monkeypatch.setattr(geometry, "ConvexHull", counted_hull)
        monkeypatch.setattr(minkowski, "_state", counted_state)
        normals, areas, _, _ = gaussian_hull(np.random.default_rng(5), 14)
        fit = fit_offsets(normals, areas)
        assert fit.converged
        assert sum(states) == len(hulls) > fit.iterations >= 2
        assert len(fit.polyhedron.vertices) >= 4


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
