"""Sphere sampling grids, real spherical harmonics and the forward
transform used to turn scattered sphere data into a smooth band-limited
surrogate.

A grid is a set of distinct unit directions; its quadrature weights come
from the points alone.  They are the least-norm correction to equal
weights that integrates every harmonic up to a degree fixed by the grid
size exactly, the least-squares relative of spherical designs (Sloan &
Womersley 2004).  The standard grid is the raw Fibonacci lattice
(Gonzalez 2010).

The scalar basis is real and orthonormal: ``Y(n,0) = Pbar(n,0)`` and
``Y(n,+-m) = sqrt(2) Pbar(n,m) {cos,sin}(m phi)`` with fully normalized
associated Legendre functions ``Pbar`` evaluated by stable three-term
recurrences.  The locator's degree-1 vector harmonics are plain Cartesian
fields and are built in closed form in :mod:`polyscat.locator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.spatial import ConvexHull

FOUR_PI = 4.0 * math.pi
_P00 = 1.0 / math.sqrt(FOUR_PI)
# exact degree D of the weights: the largest with (D + 1)^2 <= N / 16
_POINTS_PER_COEFFICIENT = 16


@dataclass(frozen=True)
class SphericalGrid:
    """Distinct unit directions with quadrature weights computed from them.

    The weights are built, and the points validated, at construction:
    points that are not unit vectors, exactly repeated points and any
    nonpositive weight raise ``ValueError``.

    Attributes
    ----------
    points : (N, 3) ndarray of unit vectors
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
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

    @cached_property
    def triangles(self) -> np.ndarray:
        """(T, 3) int ndarray, outward-oriented convex-hull triangles."""
        return _triangulate(self.points)


def fibonacci_points(n: int) -> np.ndarray:
    """``n`` quasi-uniform points on the unit sphere (golden-angle lattice)."""
    i = np.arange(n, dtype=float) + 0.5
    z = 1.0 - 2.0 * i / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = 2.0 * math.pi * i / golden
    st = np.sin(theta)
    return np.column_stack((st * np.cos(phi), st * np.sin(phi), z))


def _triangulate(pts: np.ndarray) -> np.ndarray:
    """Outward-oriented convex-hull triangulation of unit points."""
    tris = ConvexHull(pts).simplices.copy()
    det = np.einsum(
        "ij,ij->i", pts[tris[:, 0]], np.cross(pts[tris[:, 1]], pts[tris[:, 2]])
    )
    flip = det < 0
    tris[flip, 1], tris[flip, 2] = tris[flip, 2], tris[flip, 1].copy()
    tris.flags.writeable = False
    return tris


@lru_cache(maxsize=8)
def build_grid(n: int) -> SphericalGrid:
    """Raw Fibonacci lattice of ``n`` points (at least 12) with its exact
    low-degree quadrature weights.  Deterministic; cached per ``n``."""
    if n < 12:
        raise ValueError("need at least 12 grid points")
    return SphericalGrid(points=fibonacci_points(int(n)))


# ---------------------------------------------------------------------------
# associated Legendre recurrences (fully normalized, no Condon-Shortley)


def _tri_index(n: int, m: int) -> int:
    return n * (n + 1) // 2 + m


@lru_cache(maxsize=16)
def _recurrence_coeffs(n_max: int):
    """Constant factors of the normalized Legendre recurrences up to n_max."""
    diag = [0.0] * (n_max + 1)  # P(m,m) from P(m-1,m-1)
    step = [0.0] * (n_max + 1)  # P(m+1,m) from P(m,m)
    a = np.zeros((n_max + 1, n_max + 1))
    b = np.zeros((n_max + 1, n_max + 1))
    for m in range(1, n_max + 1):
        diag[m] = math.sqrt((2 * m + 1) / (2.0 * m))
    for m in range(n_max):
        step[m] = math.sqrt(2 * m + 3)
        for n in range(m + 2, n_max + 1):
            a[n, m] = math.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b[n, m] = math.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
    return tuple(diag), tuple(step), a, b


def _legendre_tables(n_max, ct, st):
    """Normalized ``Pbar(n,m)`` tables at ``cos/sin(theta)`` arrays, rows
    packed by ``n(n+1)/2 + m``."""
    ct = np.asarray(ct, dtype=float)
    st = np.asarray(st, dtype=float)
    diag, step, a, b = _recurrence_coeffs(n_max)
    P = np.empty((_tri_index(n_max, n_max) + 1,) + ct.shape)
    P[0] = _P00
    for m in range(0, n_max + 1):
        im = _tri_index(m, m)
        if m >= 1:
            P[im] = diag[m] * st * P[_tri_index(m - 1, m - 1)]
        if m == n_max:
            break
        P[_tri_index(m + 1, m)] = step[m] * ct * P[im]
        for n in range(m + 2, n_max + 1):
            i0 = _tri_index(n - 2, m)
            i1 = _tri_index(n - 1, m)
            P[_tri_index(n, m)] = a[n, m] * (ct * P[i1] - b[n, m] * P[i0])
    return P


def _sphere_coords(points):
    """Return ``(ct, st, cphi, sphi)`` with the ``phi = 0`` chart at poles."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    ct = pts[:, 2]
    st = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.where(st > 0.0, st, 1.0)
    cphi = np.where(st > 0.0, pts[:, 0] / safe, 1.0)
    sphi = np.where(st > 0.0, pts[:, 1] / safe, 0.0)
    return ct, st, cphi, sphi, single


def harmonic_basis(points, n_c: int) -> np.ndarray:
    """Design matrix of real orthonormal harmonics, column ``n^2 + n + m``.

    Parameters
    ----------
    points : (N, 3) array_like of unit vectors
    n_c : int
        Cut-off degree; the matrix has ``(n_c + 1)^2`` columns.

    Each harmonic is filled as one contiguous row of a ``(K, N)`` array; the
    result is its transpose copied to C order.  The copy matters: BLAS
    products with a transposed view round differently, which moves report
    digits at the 1e-13 level.
    """
    ct, st, cphi, sphi, single = _sphere_coords(points)
    P = _legendre_tables(n_c, ct, st)
    npts = len(ct)
    B = np.empty(((n_c + 1) ** 2, npts))
    cos_m = np.ones(npts)
    sin_m = np.zeros(npts)
    for n in range(n_c + 1):
        B[n * n + n] = P[_tri_index(n, 0)]
    sq2 = math.sqrt(2.0)
    for m in range(1, n_c + 1):
        cos_m, sin_m = cos_m * cphi - sin_m * sphi, sin_m * cphi + cos_m * sphi
        for n in range(m, n_c + 1):
            pnm = P[_tri_index(n, m)]
            B[n * n + n + m] = sq2 * pnm * cos_m
            B[n * n + n - m] = sq2 * pnm * sin_m
    B = np.ascontiguousarray(B.T)
    return B[0] if single else B


def eval_scalar_harmonic(n: int, m: int, points):
    """Real orthonormal spherical harmonic of degree ``n`` and order ``m``."""
    if abs(m) > n:
        raise ValueError("need |m| <= n")
    B = harmonic_basis(points, n)
    return B[..., n * n + n + m]


# ---------------------------------------------------------------------------
# forward transform and band-limited synthesis


@dataclass(frozen=True)
class HarmonicExpansion:
    """Real spherical-harmonic coefficients up to a cut-off degree.

    ``coefficients[n^2 + n + m]`` stores the (n, m) coefficient.
    """

    cutoff: int
    coefficients: np.ndarray

    def __post_init__(self):
        expected = (self.cutoff + 1) ** 2
        if len(self.coefficients) != expected:
            raise ValueError(f"expected {expected} coefficients")

    def coefficient(self, n: int, m: int) -> float:
        if n > self.cutoff or abs(m) > n:
            raise ValueError("coefficient outside the expansion")
        return float(self.coefficients[n * n + n + m])


def _grid_and_values(samples):
    if isinstance(samples, tuple) and len(samples) == 2:
        grid, values = samples
    else:
        grid, values = samples.grid, samples.values
    return grid, np.asarray(values, dtype=float)


def sht_forward(samples, cutoff: int) -> HarmonicExpansion:
    """Coefficients of per-point sphere data by the grid's quadrature weights.

    ``samples`` is either phaseless far-field samples (anything exposing
    ``grid`` and scalar ``values``) or an explicit ``(grid, values)`` pair.
    """
    grid, values = _grid_and_values(samples)
    B = harmonic_basis(grid.points, cutoff)
    coeffs = B.T @ (grid.point_weights * values)
    coeffs.flags.writeable = False
    return HarmonicExpansion(cutoff=cutoff, coefficients=coeffs)


def synthesize(expansion: HarmonicExpansion, points):
    """Evaluate the band-limited expansion at one or many unit directions."""
    B = harmonic_basis(points, expansion.cutoff)
    return B @ expansion.coefficients


def dump_expansion(expansion: HarmonicExpansion, path) -> None:
    """Write ``n m c`` lines."""
    with open(path, "w") as fh:
        for n in range(expansion.cutoff + 1):
            for m in range(-n, n + 1):
                fh.write(f"{n} {m} {expansion.coefficient(n, m):.17g}\n")


def load_expansion(path) -> HarmonicExpansion:
    entries = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            n_s, m_s, c_s = line.split()
            entries[(int(n_s), int(m_s))] = float(c_s)
    cutoff = max(n for n, _ in entries)
    coeffs = np.zeros((cutoff + 1) ** 2)
    for (n, m), c in entries.items():
        coeffs[n * n + n + m] = c
    return HarmonicExpansion(cutoff=cutoff, coefficients=coeffs)
