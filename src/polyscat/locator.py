"""Step 3 of the recovery scheme: locate the obstacle from one low-frequency
complex far-field measurement.

The indicator projects the measured tangential field onto the six
phase-translated degree-1 vector spherical harmonics,

    ``I(z) = sum_{|m|<=1} |<E, e^{ik(d-x) . z} U_1^m>|^2 + |<E, ... V_1^m>|^2``

normalized by the field's squared norm; inner products use the grid's
quadrature weights, as the scalar transform does.  The six fields are
plain Cartesian fields, built in closed form by :func:`_degree_one_basis`.
When the phase factor cancels the translation of the obstacle, the
degree-1 projection captures the whole field and ``I`` attains its
maximum, which :func:`locate` finds by a coarse scan of a box and a projected
Newton ascent on the indicator's closed-form gradient and Hessian; it hands
on the scan as an array shaped like the box's grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .forward import COMPLEX_E, FarFieldSamples, PlaneWave, WrongKind
from .sphgrid import SphericalGrid


class ZeroField(ValueError):
    """Far-field samples vanish; the indicator is undefined."""


@dataclass(frozen=True)
class SampleRegion:
    """Axis-aligned search box with a coarse scan resolution per axis."""

    lower: np.ndarray
    upper: np.ndarray
    resolution: tuple = (11, 11, 11)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (3,) or upper.shape != (3,):
            raise ValueError("region bounds must be 3-vectors")
        if not np.isfinite([lower, upper]).all():
            raise ValueError("region bounds must be finite")
        if np.any(lower >= upper):
            raise ValueError("region must satisfy lower < upper on every axis")
        res = np.asarray(self.resolution)
        if res.shape != (3,) or res.dtype.kind not in "iu" or res.min() < 1:
            raise ValueError("region resolution must be three integers >= 1")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "resolution", tuple(int(r) for r in res))

    def axes(self) -> list:
        """Coarse scan coordinates along x, y and z."""
        return [
            np.linspace(self.lower[i], self.upper[i], self.resolution[i])
            for i in range(3)
        ]


# Y_1^-1, Y_1^0, Y_1^1 = sqrt(3 / 4 pi) (y, z, x): the coordinate axis of each
_DEGREE_ONE_AXES = [1, 2, 0]


def _degree_one_basis(points) -> np.ndarray:
    """The six degree-1 tangential vector harmonics at unit ``points``, as a
    ``(6, N, 3)`` array ordered ``U_1^-1, V_1^-1, U_1^0, V_1^0, U_1^1, V_1^1``.

    With ``e`` the axis of ``Y_1^m``, ``U = Grad Y / sqrt(2) = c (e - (e .
    xhat) xhat)`` and ``V = xhat x U = c xhat x e``, ``c = sqrt(3 / 8 pi)``;
    each is unit-norm in the tangential L2 sense.
    """
    x = np.asarray(points, dtype=float)
    e = np.eye(3)[_DEGREE_ONE_AXES, None, :]  # (3, 1, 3)
    U = e - x.T[_DEGREE_ONE_AXES, :, None] * x  # (3, N, 3)
    V = np.cross(x, e)
    c = math.sqrt(3.0 / (8.0 * math.pi))
    return c * np.stack((U, V), axis=1).reshape(6, len(x), 3)


def _degree_one_projector(samples: FarFieldSamples):
    """Weighted projections ``g_b[i] = w_i (E_i . W_b,i)`` and the norm."""
    if not samples.is_complex:
        raise WrongKind("the indicator needs complex tangential samples")
    grid = samples.grid
    w = grid.point_weights
    E = samples.values
    norm2 = float(np.sum(w * np.einsum("ij,ij->i", E, E.conj()).real))
    if norm2 < 1e-28:
        raise ZeroField("far field has (near) zero norm")
    G = w * np.einsum("ij,bij->bi", E, _degree_one_basis(grid.points))  # (6, N)
    K = samples.wave.k * (samples.wave.d - grid.points)  # (N, 3)
    return G, K, norm2


def indicator_values(samples: FarFieldSamples, Z) -> np.ndarray:
    """Indicator at each sampling point ``z`` (rows of ``Z``)."""
    G, K, norm2 = _degree_one_projector(samples)
    proj = G @ np.exp(-1j * (K @ np.atleast_2d(np.asarray(Z, dtype=float)).T))
    return np.sum(np.abs(proj) ** 2, axis=0) / norm2


def _scan(G, K, norm2, lower, spacing, shape) -> np.ndarray:
    """Indicator on the grid ``lower + spacing * (i, j, l)`` of ``shape``.

    ``exp(-i K . z)`` factors into one ``(n_i, N)`` table per axis, each row
    the last times ``exp(-i K_i spacing_i)``.  ``G e_x`` as ``(6 n_x, N)``
    times ``e_y (x) e_z`` as ``(n_y n_z, N)``, transposed, is one complex
    matmul, with ``2 N`` exponentials per axis instead of ``N n_x n_y n_z``.
    The values equal :func:`indicator_values` at those points up to rounding.
    """
    # (n_i, N) tables, so the products below read contiguous rows
    ex, ey, ez = (np.cumprod([np.exp(-1j * a * k), *[np.exp(-1j * h * k)] * (n - 1)], axis=0)
                  for a, h, n, k in zip(lower, spacing, shape, K.T))
    nx, ny, nz = shape
    left = (G[:, None, :] * ex).reshape(6 * nx, len(K))
    right = (ey[:, None, :] * ez).reshape(ny * nz, len(K))
    proj = (left @ right.T).reshape(6, nx, ny, nz)
    return np.sum(np.abs(proj) ** 2, axis=0) / norm2


# the Newton ascent ends at a clamped step below this fraction of the coarse
# spacing, or after this many iterations
_STEP_TOL, _MAX_ITER = 1e-12, 50


def _expansion(G, K, norm2, z):
    """Gradient ``2 Im(c K) / norm2`` and Hessian ``2 Re((PK)^H PK - K^T c K)
    / norm2`` of the indicator at ``z``, with ``P = G e^{-iK.z}`` and ``c =
    conj(P 1) P``, and ``s -> I(z + s) - I(z)``, exact where a difference of
    two indicator values would cancel."""
    P = G * np.exp(-1j * (K @ z))  # (6, N)
    PK = P @ K  # i times the gradient of each projection, (6, 3)
    c = P.sum(axis=1).conj() @ P  # (N,)
    hess = (PK.conj().T @ PK).real - (K.T * c.real) @ K

    def change(s):
        x = np.expm1(-1j * (K @ s))  # change of each phase factor
        return float(2.0 * (c @ x).real + np.sum(np.abs(P @ x) ** 2)) / norm2

    return 2.0 * (c @ K).imag / norm2, 2.0 * hess / norm2, change


def locate(samples: FarFieldSamples, region: SampleRegion):
    """Maximum of the indicator over the region.

    A coarse grid scan picks the best cell and a projected Newton ascent
    refines it (Bertsekas 1982): coordinates on a bound with an outward
    gradient are held, the rest take a Newton step with every curvature
    taken by its magnitude, capped by a trust radius, clamped and halved
    until the indicator's exact change is positive.  The radius starts at
    one coarse spacing, then follows the last step: twice it where it gained
    at least a quarter of the quadratic model's prediction, half of it where
    not, never above one spacing.  Returns ``(z, value, scan)``: the refined
    point, its value (never below the scan's maximum) and the coarse scan,
    the indicator at the points of ``region.axes()`` shaped
    ``region.resolution``.
    """
    G, K, norm2 = _degree_one_projector(samples)
    lo, hi = region.lower, region.upper
    spacing = (hi - lo) / np.maximum(np.array(region.resolution) - 1, 1)
    scan = _scan(G, K, norm2, lo, spacing, region.resolution)
    best = np.unravel_index(np.argmax(scan), scan.shape)
    z, fz = np.array([a[i] for a, i in zip(region.axes(), best)]), scan[best]
    cap = float(spacing.max())
    radius, evals = cap, 0
    for iters in range(1, _MAX_ITER + 1):
        g, H, change = _expansion(G, K, norm2, z)
        free = ~((z <= lo) & (g < 0) | (z >= hi) & (g > 0))
        gf, Hf, step = g[free], H[np.ix_(free, free)], np.zeros(3)
        if not gf.any():
            break
        # the Newton step where Hf is negative definite; with |curvature|, an
        # ascent step where it is not
        lam, V = np.linalg.eigh(Hf)
        step[free] = V @ (V.T @ gf / np.maximum(np.abs(lam), np.abs(gf).max() / cap))
        step *= min(1.0, radius / np.abs(step).max())
        while np.abs((trial := np.clip(z + step, lo, hi)) - z).max() >= _STEP_TOL * cap:
            gain = change(trial - z)
            evals += 1
            if gain > 0:
                break
            step *= 0.5
        else:  # no rising step above the tolerance
            break
        # the next cap: twice this step where it gained at least a quarter of
        # the quadratic model's prediction, half of it where not
        s = trial - z
        model = g @ s + 0.5 * s @ H @ s
        radius = min(cap, np.abs(s).max() * (2.0 if gain >= 0.25 * model else 0.5))
        z, fz = trial, fz + gain
    log = logging.getLogger("polyscat")
    if log.isEnabledFor(logging.DEBUG):  # the sort of the scan only when logged
        log.debug(
            "step 3: %d Newton iterations, %d trial evaluations, best coarse cell "
            "ahead of the next by %.3e", iters, evals, np.ptp(np.sort(scan, axis=None)[-2:]))
    return z, fz, scan


# weights of U_1^-1, V_1^-1, U_1^0, V_1^0, U_1^1, V_1^1 in the oracle field
_ORACLE_WEIGHTS = (1.0, 0.7, 0.4, 0.8, 0.5, 0.3)


def degree_one_oracle(grid: SphericalGrid, wave: PlaneWave, z0) -> FarFieldSamples:
    """Synthetic low-frequency far field: a fixed degree-1 tangential
    combination carrying the translation phase of an obstacle at ``z0``.

    This is the measurement model the locator is exact for; the true
    low-frequency field of a small scatterer is degree-1 dominated.
    """
    z0 = np.asarray(z0, dtype=float)
    combo = np.tensordot(_ORACLE_WEIGHTS, _degree_one_basis(grid.points), axes=1)
    phase = np.exp(1j * wave.k * ((wave.d - grid.points) @ z0))
    return FarFieldSamples(
        grid=grid, values=combo * phase[:, None], wave=wave, kind=COMPLEX_E
    )
