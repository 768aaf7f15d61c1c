"""Step 2 of the recovery scheme: rebuild the polyhedron from face normals
and areas.

The target areas are first projected onto the closed-surface balance
constraint ``sum_j A_j nu_j = 0`` (necessary and sufficient for a convex
polytope with those normals to exist, unique up to translation).  The face
offsets then solve Little's variational form of the Minkowski problem:
minimize ``F(h) = sum_j A_j h_j - c log vol(h)``, which is convex by
Brunn-Minkowski.  Its gradient is ``A - c a / vol`` with ``a`` the facet
areas of the half-space intersection, and its Hessian comes from the
volume Hessian ``M`` (edge lengths over the sines of the dihedral angles),
so one intersection per trial step gives everything a damped Newton step
needs.  At the minimum the facet areas are proportional to ``A``; areas
are 2-homogeneous, so a final rescale makes them equal.  The fit hands
back the polyhedron of its last intersection, placed at the fitted
offsets, so step 2 needs no further intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolyhedron, GeometryError, IntersectionResult
from .geometry import cross_rows, halfspace_intersection


class SpanDeficient(ValueError):
    """Normals do not span 3-space; the fit is unsolvable."""


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

    normals: np.ndarray
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


def _areas_from_result(result: IntersectionResult, k: int) -> np.ndarray:
    areas = np.zeros(k)
    areas[list(result.plane_index)] = result.polyhedron.areas
    return areas


def volume_hessian(normals, result: IntersectionResult) -> np.ndarray:
    """Hessian of the volume in the offsets, ``M_ij = d a_i / d h_j``.

    Faces ``i`` and ``j`` that share an edge of length ``l`` at normal angle
    ``theta`` give ``M_ij = l / sin(theta)``; the diagonal is
    ``M_ii = -sum_j l_ij cot(theta_ij)``.  Read off the face cycles of
    ``result``, so it costs no further intersection.
    """
    N = np.asarray(normals, dtype=float)
    poly = result.polyhedron
    flat, succ, face, _ = poly.rings
    plane = np.asarray(result.plane_index)[face]
    # pair each directed edge u -> v with its reverse v -> u by one sort
    head = flat[succ]
    key = flat * len(poly.vertices) + head
    back = head * len(poly.vertices) + flat
    order = np.argsort(key)
    twin = order[np.minimum(np.searchsorted(key, back, sorter=order), len(key) - 1)]
    paired = key[twin] == back
    rows, cols = plane[paired], plane[twin[paired]]
    length = np.linalg.norm(poly.vertices[flat[paired]] - poly.vertices[head[paired]], axis=1)
    nr, nc = N[rows], N[cols]
    cos = np.einsum("ij,ij->i", nr, nc)
    sin = np.linalg.norm(cross_rows(nr, nc), axis=1)
    # off-diagonal and diagonal entries fill disjoint bins, each summed in edge order
    k = len(N)
    bins = np.concatenate([rows * k + cols, rows * (k + 1)])
    M = np.bincount(bins, np.concatenate([length / sin, -length * cos / sin]), k * k)
    return M.reshape(k, k)


@dataclass(frozen=True)
class _State:
    """Offsets centred on the body's centroid, with what one intersection
    tells about them; ``body`` is that intersection before the centring
    and before scaling by ``scale``."""

    offsets: np.ndarray
    areas: np.ndarray
    volume: float
    hessian: np.ndarray
    vanished: tuple
    body: ConvexPolyhedron
    scale: float = 1.0

    def scaled(self, s: float) -> "_State":
        # the body scaled by s about its centroid (the origin)
        return _State(
            self.offsets * s, self.areas * s**2, self.volume * s**3,
            self.hessian * s, self.vanished, self.body, self.scale * s,
        )

    def polyhedron(self) -> ConvexPolyhedron:
        """The body at ``offsets``."""
        return self.body.translated(-self.body.centroid).scaled(self.scale)


def _state(N: np.ndarray, offsets: np.ndarray) -> _State:
    """Intersect once and shift the offsets so the centroid sits at the
    origin, as the polar dual needs; translation leaves the areas, the
    volume and the Hessian unchanged."""
    result = halfspace_intersection(N, offsets)
    poly = result.polyhedron
    return _State(
        offsets=offsets - N @ poly.centroid,
        areas=_areas_from_result(result, len(N)),
        volume=poly.volume,
        hessian=volume_hessian(N, result),
        vanished=result.vanished,
        body=poly,
    )


# Newton iteration cap, and the Newton decrement (relative to ``c``) that
# ends the fit
_MAX_ITERATIONS = 120
_TOLERANCE = 1e-14


def fit_offsets(normals, areas, alpha0=None) -> OffsetFit:
    """Face offsets whose facet areas match the given target areas.

    Damped Newton minimization of ``F(h) = A . h - c log vol(h)`` with the
    balance-projected targets ``A``.  The start is scaled so its facet areas
    sum to ``sum A`` and ``c`` is its volume.  Each trial step makes one
    half-space intersection; a step is accepted when ``F`` decreases, and a
    trial whose half spaces fail to intersect (any
    :class:`geometry.GeometryError`) is rejected and the damping raised.
    The fit has converged once the Newton decrement ``g . H^-1 g`` (twice
    the fall of ``F`` that a full Newton step predicts) is at most
    ``_TOLERANCE * c``.  The polyhedron at the fitted offsets comes from the
    last accepted intersection, with no further intersection.

    Parameters
    ----------
    normals : (k, 3) unit normals spanning 3-space
    areas : (k,) positive target areas
    alpha0 : optional positive initial offsets, defaults to all ones.
    """
    N = np.asarray(normals, dtype=float)
    A_raw = np.asarray(areas, dtype=float)
    if np.linalg.matrix_rank(N, tol=1e-9) < 3:
        raise SpanDeficient("normals do not span 3-space")
    A = balance_areas(N, A_raw)
    total = float(A.sum())
    alpha = np.ones(len(N)) if alpha0 is None else np.asarray(alpha0, dtype=float)

    state = _state(N, alpha)
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
    eye = np.eye(len(N))
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
                trial = _state(N, state.offsets + step)
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
        normals=N,
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
