"""Step 2 of the recovery scheme: rebuild the polyhedron from face normals
and areas.

The target areas are first projected onto the closed-surface balance
constraint ``sum_j A_j nu_j = 0`` (necessary and sufficient for a convex
polytope with those normals to exist, unique up to translation).  The face
offsets are then fitted by a damped Gauss-Newton loop on the residuals
``a_j(V, alpha) - A_j``, where ``a_j`` are the facet areas of the half-space
intersection; vanished facets contribute their full target area as
residual so the descent pushes their offsets back toward the active region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import IntersectionResult, Unbounded, halfspace_intersection


class SpanDeficient(ValueError):
    """Normals do not span 3-space; the fit is unsolvable."""


@dataclass(frozen=True)
class OffsetFit:
    """Result of the offset least-squares fit.

    ``residual`` is the final sum of squared area mismatches and
    ``history`` the residual after every accepted step (non-increasing).
    """

    normals: np.ndarray
    target_areas: np.ndarray
    offsets: np.ndarray
    residual: float
    iterations: int
    converged: bool
    vanished: tuple
    history: tuple


def balance_areas(normals, areas, floor=None) -> np.ndarray:
    """Minimal-norm correction making ``sum_j A_j nu_j = 0``.

    Projects out the component of the area vector seen by the normal
    matrix (via pseudo-inverse, so rank-deficient normal sets are handled)
    and clamps any non-positive result to a small positive floor.
    """
    N = np.asarray(normals, dtype=float).T  # (3, k)
    A = np.asarray(areas, dtype=float)
    if floor is None:
        floor = 1e-10 * max(float(A.max()), 1.0)
    u = np.linalg.pinv(N @ N.T) @ (N @ A)
    adjusted = A - N.T @ u
    return np.maximum(adjusted, floor)


def facet_areas(normals, offsets) -> np.ndarray:
    """Facet area per input plane of the half-space intersection.

    Vanished facets report zero area.  Raises :class:`geometry.Unbounded`
    when the half spaces do not enclose a bounded solid.
    """
    N = np.asarray(normals, dtype=float)
    result = halfspace_intersection(N, offsets)
    return _areas_from_result(result, len(N))


def _areas_from_result(result: IntersectionResult, k: int) -> np.ndarray:
    areas = np.zeros(k)
    for face_j, plane_j in enumerate(result.plane_index):
        areas[plane_j] = result.polyhedron.areas[face_j]
    return areas


def fit_offsets(
    normals,
    areas,
    alpha0=None,
    max_iterations: int = 120,
    tolerance: float = 1e-14,
) -> OffsetFit:
    """Least-squares face offsets for given normals and target areas.

    A Levenberg-damped Gauss-Newton loop with forward-difference
    Jacobian; steps are accepted only when the residual decreases and
    offsets are kept above a small positive floor so the dual transform
    stays valid.  Areas are balance-projected before fitting.

    Parameters
    ----------
    normals : (k, 3) unit normals spanning 3-space
    areas : (k,) positive target areas
    alpha0 : optional initial offsets, defaults to all ones.
    """
    N = np.asarray(normals, dtype=float)
    A_raw = np.asarray(areas, dtype=float)
    if np.linalg.matrix_rank(N, tol=1e-9) < 3:
        raise SpanDeficient("normals do not span 3-space")
    A = balance_areas(N, A_raw)
    alpha_min = 1e-3 * float(np.sqrt(A).mean())
    alpha = np.full(len(N), 1.0) if alpha0 is None else np.asarray(alpha0, dtype=float)
    alpha = np.maximum(alpha.copy(), alpha_min)

    def residual(a):
        return facet_areas(N, a) - A

    r = residual(alpha)
    cost = float(r @ r)
    history = [cost]
    mu = 1e-3
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        if cost < tolerance:
            converged = True
            break
        # forward-difference Jacobian, one column per offset
        J = np.empty((len(N), len(N)))
        for j in range(len(N)):
            h = 1e-5 * alpha[j]
            bumped = alpha.copy()
            bumped[j] += h
            J[:, j] = (residual(bumped) - r) / h
        g = J.T @ r
        if float(np.linalg.norm(g)) < 1e-12:
            converged = True
            break
        JTJ = J.T @ J
        improved = False
        for _ in range(12):
            try:
                step = np.linalg.solve(JTJ + mu * np.eye(len(N)), -g)
            except np.linalg.LinAlgError:
                mu *= 4.0
                continue
            trial = np.maximum(alpha + step, alpha_min)
            try:
                r_trial = residual(trial)
            except Unbounded:
                mu *= 4.0
                continue
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                alpha, r, cost = trial, r_trial, cost_trial
                history.append(cost)
                mu = max(mu / 3.0, 1e-12)
                improved = True
                break
            mu *= 4.0
        if not improved:
            break

    vanished = tuple(int(i) for i in np.flatnonzero(facet_areas(N, alpha) == 0.0))
    return OffsetFit(
        normals=N,
        target_areas=A,
        offsets=alpha,
        residual=cost,
        iterations=iterations,
        converged=converged or cost < tolerance,
        vanished=vanished,
        history=tuple(history),
    )
