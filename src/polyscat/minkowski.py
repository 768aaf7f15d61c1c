"""Step 2 of the recovery scheme: rebuild the polyhedron from face normals
and areas.

The target areas are first projected onto the closed-surface balance
constraint ``sum_j A_j nu_j = 0`` (necessary and sufficient for a convex
polytope with those normals to exist, unique up to translation).  The face
offsets then solve Little's variational form of the Minkowski problem:
minimize ``F(h) = sum_j A_j h_j - c log vol(h)``, which is convex by
Brunn-Minkowski.  Its gradient is ``A - c a / vol`` with ``a`` the facet
areas of the half-space intersection, and its Hessian comes from the
volume Hessian ``M`` (edge lengths over the sines of the dihedral angles).
A trial step runs qhull once, on the polar dual of its half spaces; the
dual hull's edges are the body's edges, and they give ``M``, the areas
``M h / 2`` (Euler's relation for 2-homogeneous areas), the volume and the
centroid without building the body.  At the minimum the facet areas are
proportional to ``A``; areas are 2-homogeneous, so a final rescale makes
them equal.  The fit builds one polyhedron, from the dual hull of its last
accepted step, placed at the fitted offsets, so step 2 needs no further
intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import INTERSECTION_REL_TOL, MIN_FACE_AREA, ConvexPolyhedron, DegenerateFace
from .geometry import DualHull, GeometryError, NonPlanarFace, NotConvex
from .geometry import cross_rows, dual_hull, unit_normals


@dataclass(frozen=True)
class OffsetFit:
    """Result of the offset fit.

    ``residual`` is the final sum of squared area mismatches, ``areas`` the
    facet areas at the fitted offsets (zero where a facet vanished) and
    ``history`` the objective after every accepted step (non-increasing).
    ``polyhedron`` is the body at ``offsets``: the last accepted
    intersection, centred and scaled as the offsets are, with faces in
    plane order skipping the ``vanished`` planes.
    """

    target_areas: np.ndarray
    offsets: np.ndarray
    residual: float
    iterations: int
    converged: bool
    vanished: tuple
    history: tuple
    areas: np.ndarray
    polyhedron: ConvexPolyhedron


def balance_areas(normals, areas) -> np.ndarray:
    """Minimal-norm correction making ``sum_j A_j nu_j = 0``.

    Projects out the component of the area vector seen by the normal
    matrix (via pseudo-inverse, so rank-deficient normal sets are handled)
    and clamps any non-positive result to the floor
    ``1e-10 max(max_j A_j, 1)``.
    """
    N = np.asarray(normals, dtype=float).T  # (3, k)
    A = np.asarray(areas, dtype=float)
    floor = 1e-10 * max(float(A.max()), 1.0)
    u = np.linalg.pinv(N @ N.T) @ (N @ A)
    adjusted = A - N.T @ u
    return np.maximum(adjusted, floor)


def _angle_tables(N: np.ndarray):
    """``1 / sin`` and ``cot`` of the angle between every pair of the unit
    normals ``N``, flat, zero where the normals are parallel."""
    k = len(N)
    r, c = np.divmod(np.arange(k * k), k)
    cos = np.einsum("ij,ij->i", N[r], N[c])
    sin = np.linalg.norm(cross_rows(N[r], N[c]), axis=1)
    ok = sin > 0.0
    return (
        np.divide(1.0, sin, out=np.zeros(k * k), where=ok),
        np.divide(cos, sin, out=np.zeros(k * k), where=ok),
    )


@dataclass(frozen=True)
class _State:
    """Offsets centred on the body's centroid, with what one dual hull
    tells about them; ``hull`` is taken before the centring and before
    scaling by ``scale``."""

    offsets: np.ndarray
    areas: np.ndarray
    volume: float
    hessian: np.ndarray
    vanished: tuple
    hull: DualHull
    centroid: np.ndarray
    scale: float = 1.0

    def scaled(self, s: float) -> "_State":
        # the body scaled by s about its centroid (the origin)
        return _State(
            self.offsets * s, self.areas * s**2, self.volume * s**3, self.hessian * s,
            self.vanished, self.hull, self.centroid, self.scale * s,
        )

    def polyhedron(self) -> ConvexPolyhedron:
        """The body at ``offsets``."""
        body = self.hull.body().polyhedron
        return body.translated(-self.centroid).scaled(self.scale)


def _state(N: np.ndarray, tables, offsets: np.ndarray) -> _State:
    """One dual hull of the unit normals ``N`` at ``offsets`` and what it
    tells, with the offsets shifted so the centroid sits at the origin, as
    the polar dual needs; translation leaves the areas, the volume and the
    Hessian unchanged.

    A dual edge ``(i, j)`` shared by triangles ``t < u`` is a primal edge
    of length ``l = |v_t - v_u|`` (exactly 0 inside a merged dual facet).
    The edges give the volume Hessian ``M`` (``M_ij = l / sin``, ``M_ii =
    -sum l cot``), the areas ``a = M h / 2`` (Euler's relation; areas are
    2-homogeneous), the volume ``h . a / 3`` and the centroid.  The trial
    is checked to the tolerances of the body it stands for.
    """
    csc, cot = tables
    k = len(N)
    hull = dual_hull(N, offsets)
    simplices, vertices = hull.simplices, hull.vertices
    t, c = np.nonzero(hull.neighbors > np.arange(len(simplices))[:, None])
    u = hull.neighbors[t, c]
    i, j = simplices[t, c - 2], simplices[t, c - 1]  # the edge opposite corner c
    ends = vertices[t], vertices[u]
    edge = ends[0] - ends[1]
    length = np.sqrt(np.einsum("ij,ij->i", edge, edge))
    # a plane keeps its facet when it has three distinct vertices, so three
    # edges of nonzero length; a vanished plane meets the body in one vertex
    # at most, so its edges have length 0 and its area and Hessian row are 0
    live = length > 0.0
    kept = np.bincount(i[live], minlength=k) + np.bincount(j[live], minlength=k) >= 3
    ij = i * k + j
    across, along = length * csc[ij], -length * cot[ij]
    bins = np.concatenate([ij, j * k + i, i * (k + 1), j * (k + 1)])
    hessian = np.bincount(bins, np.concatenate([across, across, along, along]), k * k)
    hessian = hessian.reshape(k, k)
    areas = 0.5 * (hessian @ offsets)
    volume = float(offsets @ areas) / 3.0

    tol = INTERSECTION_REL_TOL * float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    slack = vertices @ N.T - offsets  # (triangles, planes), <= 0 inside
    if np.abs(slack[np.arange(len(simplices))[:, None], simplices]).max() > tol:
        raise NonPlanarFace(f"a vertex deviates from its planes beyond {tol:.3g}")
    if slack.max() > tol:
        raise NotConvex(f"vertex protrudes {slack.max():.3g} beyond a face plane")
    if (areas[kept] < MIN_FACE_AREA).any():
        raise DegenerateFace(f"a face has area {areas[kept].min():.3g}")
    if np.linalg.norm(areas @ N) > INTERSECTION_REL_TOL * areas.sum():
        raise NotConvex("face set does not close up (area-weighted normals != 0)")

    # 12 times the first moment, from the cones (origin, foot h_i nu_i of
    # face i, edge): with d = (h_j - h_i cos) / sin the signed distance from
    # the foot to the edge, a cone has volume h_i l d / 6 and centroid
    # (h_i nu_i + v_t + v_u) / 4, and face i's areas l d / 2 sum to a_i
    hi, hj = offsets[i], offsets[j]
    cones = across * hi * hj + 0.5 * along * (hi * hi + hj * hj)
    moment = cones @ (ends[0] + ends[1]) + (offsets * offsets * areas) @ N
    centroid = moment / (12.0 * volume)
    return _State(
        offsets=offsets - N @ centroid,
        areas=areas,
        volume=volume,
        hessian=hessian,
        vanished=tuple(np.flatnonzero(~kept).tolist()),
        hull=hull,
        centroid=centroid,
    )


# Newton iteration cap, and the Newton decrement (relative to ``c``) that
# ends the fit
_MAX_ITERATIONS = 120
_TOLERANCE = 1e-14
# the largest total area S that keeps c a <= S^(5/2) / (6 sqrt(pi)) finite at
# the start (a <= S and the isoperimetric inequality): about 5.2e123
_MAX_TOTAL_AREA = (6.0 * np.sqrt(np.pi)) ** 0.4 * np.finfo(float).max ** 0.4


def fit_offsets(normals, areas, alpha0=None) -> OffsetFit:
    """Face offsets whose facet areas match the given target areas.

    Damped Newton minimization of ``F(h) = A . h - c log vol(h)`` with the
    balance-projected targets ``A``.  The start is scaled so its facet areas
    sum to ``sum A`` and ``c`` is its volume.  Each trial step makes one
    dual hull; a step is accepted when ``F`` decreases, and a trial whose
    half spaces fail to intersect (any :class:`geometry.GeometryError`) is
    rejected and the damping raised.
    The fit has converged once the Newton decrement ``g . H^-1 g`` (twice
    the fall of ``F`` that a full Newton step predicts) is at most
    ``_TOLERANCE * c``.  The polyhedron at the fitted offsets is built from
    the dual hull of the last accepted step, with no further intersection.
    The normals are first checked by :func:`geometry.unit_normals`, and a
    balanced total area above ``_MAX_TOTAL_AREA`` is a ``ValueError``.

    Parameters
    ----------
    normals : (k, 3) unit normals spanning 3-space
    areas : (k,) positive target areas
    alpha0 : optional positive initial offsets, defaults to all ones.
    """
    unit = unit_normals(normals)
    A = balance_areas(normals, areas)
    total = float(A.sum())
    if total > _MAX_TOTAL_AREA:
        raise ValueError(f"total area {total:.3g} is above the fit's limit {_MAX_TOTAL_AREA:.3g}")
    alpha = np.ones(len(unit)) if alpha0 is None else np.asarray(alpha0, dtype=float)
    tables = _angle_tables(unit)

    state = _state(unit, tables, alpha)
    state = state.scaled(np.sqrt(total / state.areas.sum()))
    c = state.volume

    def objective(s: _State) -> float:
        return float(A @ s.offsets) - c * float(np.log(s.volume))

    def newton_terms(s: _State):
        a, vol = s.areas, s.volume
        return A - c * a / vol, c * (np.outer(a, a) / vol - s.hessian) / vol

    cost = objective(state)
    history = [cost]
    grad, hess = newton_terms(state)
    # Levenberg damping on the scale of the Hessian; it also moves the
    # offsets of vanished facets, whose Hessian rows are zero
    scale = float(np.abs(np.diag(hess)).mean())
    mu, mu_min = 1e-3 * scale, 1e-12 * scale
    eye = np.eye(len(unit))
    iterations = 0
    converged = False
    for iterations in range(1, _MAX_ITERATIONS + 1):
        # Newton decrement: twice the fall of F a full Newton step predicts
        if grad @ np.linalg.solve(hess + mu_min * eye, grad) <= _TOLERANCE * c:
            converged = True
            break
        improved = False
        for _ in range(12):
            step = np.linalg.solve(hess + mu * eye, -grad)
            try:
                trial = _state(unit, tables, state.offsets + step)
            except GeometryError:
                mu *= 4.0
                continue
            cost_trial = objective(trial)
            if cost_trial < cost:
                state, cost = trial, cost_trial
                history.append(cost)
                grad, hess = newton_terms(state)
                mu = max(mu / 3.0, mu_min)
                improved = True
                break
            mu *= 4.0
        if not improved:
            break

    final = state.scaled(np.sqrt(total / state.areas.sum()))
    residual = float(np.sum((final.areas - A) ** 2))
    return OffsetFit(
        target_areas=A,
        offsets=final.offsets,
        residual=residual,
        iterations=iterations,
        converged=converged,
        vanished=tuple(int(j) for j in final.vanished),
        history=tuple(history),
        areas=final.areas,
        polyhedron=final.polyhedron(),
    )
