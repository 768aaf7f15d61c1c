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
maximum, which :func:`locate` searches for.
"""

from __future__ import annotations

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

    def coarse_points(self) -> np.ndarray:
        """The ``ij`` tensor grid of :meth:`axes`, x slowest, z fastest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def clamp(self, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(z, self.lower), self.upper)


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


def _indicator(G, K, norm2, Z) -> np.ndarray:
    """Indicator at ``z`` (shape ``(3,)``, a scalar) or at each row of ``Z``."""
    proj = G @ np.exp(-1j * (K @ Z.T))  # (6,) or (6, nz)
    return np.sum(np.abs(proj) ** 2, axis=0) / norm2


def indicator_values(samples: FarFieldSamples, Z) -> np.ndarray:
    """Indicator at each sampling point ``z`` (rows of ``Z``)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return _indicator(*_degree_one_projector(samples), Z)


def indicator_value(samples: FarFieldSamples, z) -> float:
    """Normalized degree-1 projection energy at a single probe point."""
    return float(indicator_values(samples, np.asarray(z, dtype=float)[None, :])[0])


def scan_indicator(samples: FarFieldSamples, region: SampleRegion):
    """Indicator over the region's coarse grid; returns ``(points, values)``
    with ``points = region.coarse_points()``.

    The grid is a tensor product, so ``exp(-i K . z)`` factors into one
    ``(N, n_i)`` table per axis.  ``G e_x`` as ``(6 n_x, N)`` times
    ``e_y (x) e_z`` as ``(N, n_y n_z)`` is one complex matmul, with
    ``N (n_x + n_y + n_z)`` exponentials instead of ``N n_x n_y n_z``.
    The values equal :func:`indicator_values` at those points up to rounding.
    """
    return _scan(*_degree_one_projector(samples), region)


def _scan(G, K, norm2, region: SampleRegion):
    ex, ey, ez = (
        np.exp(-1j * np.outer(K[:, i], axis)) for i, axis in enumerate(region.axes())
    )
    nx, ny, nz = region.resolution
    left = (G[:, None, :] * ex.T).reshape(6 * nx, len(K))
    right = (ey[:, :, None] * ez[:, None, :]).reshape(len(K), ny * nz)
    proj = (left @ right).reshape(6, nx * ny * nz)
    return region.coarse_points(), np.sum(np.abs(proj) ** 2, axis=0) / norm2


# compass steps end below this length
_REFINE_TOL = 1e-3


def locate(samples: FarFieldSamples, region: SampleRegion):
    """Maximum of the indicator over the region.

    A coarse grid scan picks the best cell, then a clamped compass search
    with step halving refines it down to ``_REFINE_TOL``.  Returns
    ``(z, value, (points, values))``: the refined point, its indicator
    value, and the coarse scan of :func:`scan_indicator`.
    """
    G, K, norm2 = _degree_one_projector(samples)
    Z, vals = _scan(G, K, norm2, region)
    best = int(np.argmax(vals))
    z = Z[best]
    fz = vals[best]

    steps = (region.upper - region.lower) / (
        np.maximum(np.array(region.resolution) - 1, 1)
    )
    step = float(steps.max())
    eye = np.eye(3)
    while step > _REFINE_TOL:
        moved = False
        for axis in range(3):
            for sgn in (1.0, -1.0):
                trial = region.clamp(z + sgn * step * eye[axis])
                ft = float(_indicator(G, K, norm2, trial))
                if ft > fz:
                    z, fz = trial, ft
                    moved = True
        if not moved:
            step *= 0.5
    return z, fz, (Z, vals)


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
