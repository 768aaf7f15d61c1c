"""Sphere sampling grids, real spherical harmonics and the forward
transform used to turn scattered sphere data into a smooth band-limited
surrogate.

A grid is a set of distinct unit directions; its quadrature weights come
from the points alone.  They are the least-norm correction to equal
weights that integrates every harmonic up to a degree fixed by the grid
size exactly, the least-squares relative of spherical designs (Sloan &
Womersley 2004).  The standard grid is the raw Fibonacci lattice
(Gonzalez 2010).  A grid is points, weights and its last transform's
basis; :func:`grid_of` builds one per distinct point set.  The lattice
neighbours that seed step 1's peak search are found in
:mod:`polyscat.maxima` from the lattice indices, with no triangulation.

The scalar basis is real and orthonormal: ``Y(n,0) = Pbar(n,0)`` and
``Y(n,+-m) = sqrt(2) Pbar(n,m) {cos,sin}(m phi)`` with fully normalized
associated Legendre functions ``Pbar``.  It is evaluated only as a design
matrix over ``(N, 3)`` points, :func:`harmonic_basis`, which runs the
stable three-term recurrence once per order and whose column
``n^2 + n + m`` is ``Y(n,m)``; the transform and step 1's evaluations
are products with it.  The transform, :func:`sht_forward`, returns a bare
coefficient array whose length ``(cutoff + 1)^2`` is its only record of
the cutoff.  The locator's degree-1 vector harmonics are plain
Cartesian fields and are built in closed form in :mod:`polyscat.locator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

FOUR_PI = 4.0 * math.pi
_P00 = 1.0 / math.sqrt(FOUR_PI)
# exact degree D of the weights: the largest with (D + 1)^2 <= N / 16
_POINTS_PER_COEFFICIENT = 16
# the fewest points a grid may have
MIN_POINTS = 12


@dataclass(frozen=True)
class SphericalGrid:
    """At least 12 distinct unit directions with quadrature weights
    computed from them.

    The weights are built, and the points validated, at construction:
    fewer than 12 points, points that are not unit vectors, exactly
    repeated points and any nonpositive weight raise ``ValueError``.

    Attributes
    ----------
    points : (N, 3) ndarray of unit vectors
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if len(pts) < MIN_POINTS:
            raise ValueError(f"a grid needs at least {MIN_POINTS} points, got {len(pts)}")
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("grid points must be an (N, 3) array")
        if not np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-9):
            raise ValueError("grid points must be unit vectors")
        if len(np.unique(pts, axis=0)) < len(pts):
            raise ValueError("grid points must be distinct")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.point_weights.min() <= 0.0:
            raise ValueError(
                "grid points do not cover the sphere: a quadrature weight is "
                "not positive"
            )

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def point_weights(self) -> np.ndarray:
        """Quadrature weight per point, exact for harmonics up to degree
        ``D``, the largest with ``(D + 1)^2 <= N / 16``.

        ``w = 4 pi / N + A y`` with ``A`` the harmonic design matrix and
        ``(A^T A) y = sqrt(4 pi) e_0 - A^T (4 pi / N)``: the least-norm
        change to equal weights that makes ``A^T w`` the exact integrals.
        """
        degree = max(math.isqrt(self.size // _POINTS_PER_COEFFICIENT) - 1, 0)
        A = harmonic_basis(self.points, degree)
        equal = np.full(self.size, FOUR_PI / self.size)
        rhs = -(A.T @ equal)
        rhs[0] += math.sqrt(FOUR_PI)
        w = equal + A @ np.linalg.solve(A.T @ A, rhs)
        w.flags.writeable = False
        return w

    def basis(self, cutoff: int) -> np.ndarray:
        """``harmonic_basis(points, cutoff)``, kept for the last cutoff asked."""
        kept = self.__dict__.get("_basis")
        if kept is None or kept[0] != cutoff:
            kept = (cutoff, harmonic_basis(self.points, cutoff))
            kept[1].flags.writeable = False
            self.__dict__["_basis"] = kept
        return kept[1]


def points_for_degree(degree: int) -> int:
    """The fewest points whose weights are exact to ``degree``: ``16
    (degree + 1)^2``."""
    return _POINTS_PER_COEFFICIENT * (degree + 1) ** 2


def fibonacci_points(n: int) -> np.ndarray:
    """``n`` quasi-uniform points on the unit sphere (golden-angle lattice)."""
    i = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * i / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = 2.0 * math.pi * i / golden
    st = np.sin(theta)
    return np.column_stack((st * np.cos(phi), st * np.sin(phi), z))


def build_grid(n: int) -> SphericalGrid:
    """Raw Fibonacci lattice of ``n`` points with its exact low-degree
    quadrature weights: :func:`grid_of` its points."""
    return _grid(*_lattice_key(int(n)))


def grid_of(points) -> SphericalGrid:
    """The grid of ``points``: one object per distinct point set (bytes and
    shape), with its weights and kept basis, for the last 8 asked for."""
    pts = np.ascontiguousarray(points, dtype=float)
    return _grid(pts.tobytes(), pts.shape)


@lru_cache(maxsize=8)
def _grid(data: bytes, shape: tuple) -> SphericalGrid:
    return SphericalGrid(points=np.frombuffer(data).reshape(shape))


@lru_cache(maxsize=8)
def _lattice_key(n: int) -> tuple:
    # one bytes object per n hashes once: a repeated build_grid(n) is cheap
    return fibonacci_points(n).tobytes(), (n, 3)


def _sphere_coords(points):
    """Return ``(ct, st, cphi, sphi)`` of ``(N, 3)`` unit points, with the
    ``phi = 0`` chart at the poles."""
    pts = np.asarray(points, dtype=float)
    ct = pts[:, 2]
    st = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.where(st > 0.0, st, 1.0)
    cphi = np.where(st > 0.0, pts[:, 0] / safe, 1.0)
    sphi = np.where(st > 0.0, pts[:, 1] / safe, 0.0)
    return ct, st, cphi, sphi


def harmonic_basis(points, n_c: int) -> np.ndarray:
    """Design matrix of real orthonormal harmonics, column ``n^2 + n + m``.

    Parameters
    ----------
    points : (N, 3) array_like of unit vectors
    n_c : int
        Cut-off degree; the matrix has ``(n_c + 1)^2`` columns.

    For each order ``m`` the normalized Legendre recurrence climbs from
    ``Pbar(m,m)`` through the degrees, and each ``(n, +-m)`` harmonic is
    written as it is produced, as one contiguous row of a ``(K, N)`` array;
    the result is its transpose copied to C order.  The copy matters: BLAS
    products with a transposed view round differently, which moves report
    digits at the 1e-13 level.
    """
    ct, st, cphi, sphi = _sphere_coords(points)
    npts = len(ct)
    B = np.empty(((n_c + 1) ** 2, npts))
    sq2 = math.sqrt(2.0)
    p_mm = np.full(npts, _P00)
    cos_m = np.ones(npts)
    sin_m = np.zeros(npts)
    for m in range(n_c + 1):
        if m:
            p_mm = math.sqrt((2 * m + 1) / (2.0 * m)) * st * p_mm
            cos_m, sin_m = cos_m * cphi - sin_m * sphi, sin_m * cphi + cos_m * sphi
        p_prev, p = None, p_mm
        for n in range(m, n_c + 1):
            if n == m + 1:
                p_prev, p = p, math.sqrt(2 * m + 3) * ct * p
            elif n > m + 1:
                a = math.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
                b = math.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
                p_prev, p = p, a * (ct * p - b * p_prev)
            if m:
                B[n * n + n + m] = sq2 * p * cos_m
                B[n * n + n - m] = sq2 * p * sin_m
            else:
                B[n * n + n] = p
    return np.ascontiguousarray(B.T)


# ---------------------------------------------------------------------------
# forward transform


def sht_forward(grid: SphericalGrid, values, cutoff: int) -> np.ndarray:
    """The ``(cutoff + 1)^2`` real harmonic coefficients of the per-point
    ``values`` on ``grid``, read-only, ``[n^2 + n + m]`` the ``(n, m)`` one:
    by the grid's quadrature weights and its kept basis."""
    B = grid.basis(cutoff)
    coeffs = B.T @ (grid.point_weights * np.asarray(values, dtype=float))
    coeffs.flags.writeable = False
    return coeffs


def in_own_unit(values, peak):
    """``(values / 2^e, e)`` with ``|peak| / 2^e`` in [1/2, 1): a pattern in its own unit, for
    steps 1 and 3.  ``np.ldexp`` of each real and imaginary part: exact, finite for any peak."""
    e, v = np.frexp(peak)[1], np.ascontiguousarray(values)
    return np.ldexp(v.view(float), -e).view(v.dtype), e
