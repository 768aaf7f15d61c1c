"""Step 3 of the recovery scheme: locate the obstacle from one low-frequency
complex far-field measurement.

The indicator projects the measured tangential field onto the six
phase-translated degree-1 vector spherical harmonics,

    ``I(z) = sum_{|m|<=1} |<E, e^{ik(d-x) . z} U_1^m>|^2 + |<E, ... V_1^m>|^2``

normalized by the field's squared norm; inner products use the grid's
quadrature weights, as the scalar transform does.  When the phase
factor cancels the translation of the obstacle, the degree-1 projection
captures the whole field and ``I`` attains its extremum.  Both polarities
are supported; the default searches for the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import COMPLEX_E, FarFieldSamples, PlaneWave, WrongKind
from .sphgrid import SphericalGrid, eval_vector_harmonics


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
    basis = []
    for m in (-1, 0, 1):
        U, V = eval_vector_harmonics(1, m, grid.points)
        basis.extend((U, V))
    G = np.stack([w * np.einsum("ij,ij->i", E, W) for W in basis])  # (6, N)
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
    G, K, norm2 = _degree_one_projector(samples)
    ex, ey, ez = (
        np.exp(-1j * np.outer(K[:, i], axis)) for i, axis in enumerate(region.axes())
    )
    nx, ny, nz = region.resolution
    left = (G[:, None, :] * ex.T).reshape(6 * nx, len(K))
    right = (ey[:, :, None] * ez[:, None, :]).reshape(len(K), ny * nz)
    proj = (left @ right).reshape(6, nx * ny * nz)
    return region.coarse_points(), np.sum(np.abs(proj) ** 2, axis=0) / norm2


def locate(
    samples: FarFieldSamples,
    region: SampleRegion,
    maximize: bool = True,
    refine_tol: float = 1e-3,
):
    """Extremal point of the indicator over the region.

    A coarse grid scan picks the best cell, then a clamped compass search
    with step halving refines it down to ``refine_tol``.  Returns
    ``(z, value, (points, values))``: the refined point, its indicator
    value in the native scale, and the coarse scan of :func:`scan_indicator`.
    """
    sign = 1.0 if maximize else -1.0
    G, K, norm2 = _degree_one_projector(samples)
    Z, vals = scan_indicator(samples, region)
    best = int(np.argmax(sign * vals))
    z = Z[best]
    fz = vals[best]

    steps = (region.upper - region.lower) / (
        np.maximum(np.array(region.resolution) - 1, 1)
    )
    step = float(steps.max())
    eye = np.eye(3)
    while step > refine_tol:
        moved = False
        for axis in range(3):
            for sgn in (1.0, -1.0):
                trial = region.clamp(z + sgn * step * eye[axis])
                ft = float(_indicator(G, K, norm2, trial))
                if sign * ft > sign * fz:
                    z, fz = trial, ft
                    moved = True
        if not moved:
            step *= 0.5
    return z, fz, (Z, vals)


def degree_one_oracle(
    grid: SphericalGrid, wave: PlaneWave, z0, weights=(1.0, 0.7, 0.4, 0.8, 0.5, 0.3)
) -> FarFieldSamples:
    """Synthetic low-frequency far field: a fixed degree-1 tangential
    combination carrying the translation phase of an obstacle at ``z0``.

    This is the measurement model the locator is exact for; the true
    low-frequency field of a small scatterer is degree-1 dominated.
    """
    z0 = np.asarray(z0, dtype=float)
    combo = np.zeros((grid.size, 3), dtype=complex)
    idx = 0
    for m in (-1, 0, 1):
        U, V = eval_vector_harmonics(1, m, grid.points)
        combo += weights[idx] * U + weights[idx + 1] * V
        idx += 2
    phase = np.exp(1j * wave.k * ((wave.d - grid.points) @ z0))
    return FarFieldSamples(
        grid=grid, values=combo * phase[:, None], wave=wave, kind=COMPLEX_E
    )
