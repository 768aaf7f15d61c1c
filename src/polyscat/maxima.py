"""Step 1 of the recovery scheme, in three calls over all incident
directions: peak hunting on the smoothed phaseless patterns into one peak
table, selection of the critical observation directions and their
inversion into face normals and areas, and the clustering of normals.

The backscattering peak of face ``j`` sits at the specular direction
``xhat_j = d - 2 (d . nu_j) nu_j``; inverting that relation gives

    ``nu_j = (xhat_j - d) / sqrt(2 (1 - xhat_j . d))``

and the peak magnitude yields the face area ``A = lambda |E| / |d . nu|``.
Every unit ``xhat != d`` inverts to a front face (``d . nu < 0``), so
selection needs only the exclusion radius and the peak threshold
``e_tol``.  The peak search sees only the harmonic coefficients of each
pattern, bare arrays from :func:`~polyscat.sphgrid.sht_forward` whose
length ``(cutoff + 1)^2`` gives the cutoff, and polishes peaks on exact
derivatives of their Cartesian form; the incident direction and the
wavelength go to the stages that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .sphgrid import FOUR_PI, fibonacci_points, harmonic_basis, in_own_unit


_MIN_CHORD = 2e-6  # |xhat - d| below which a peak gives no face
# radians about d: the cap of the forward lobe, where no face peak is read;
# its chord 2 sin 0.15 ~ 0.299 keeps every selected peak far above _MIN_CHORD
_EXCLUSION_RADIUS = 0.3


@dataclass(frozen=True)
class PeakSet:
    """Local maxima of smoothed patterns, source after source, each by descending value."""

    directions: np.ndarray  # (n, 3) unit vectors
    values: np.ndarray  # (n,)
    source_indices: np.ndarray  # (n,) int
    failed_starts: int = 0  # seeds of all sources still moving at the iteration cap

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RecoveredFaceSet:
    """Face normals with areas, peak values and source direction indices."""

    normals: np.ndarray  # (k, 3)
    areas: np.ndarray  # (k,)
    peak_values: np.ndarray  # (k,)
    source_indices: np.ndarray  # (k,) int

    def __len__(self) -> int:
        return len(self.areas)


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products of ``(..., 3)`` arrays, rounded as 1-D ``@``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def specular_direction(nu, d) -> np.ndarray:
    """Critical observation direction: the mirror image of ``d`` in the face
    plane, ``d - 2 (d . nu) nu``; one row per row of ``nu`` or ``d``."""
    nu, d = np.asarray(nu, dtype=float), np.asarray(d, dtype=float)
    return d - 2.0 * _dot(nu, d)[..., None] * nu


def normal_and_area_from_peak(xhat, value, d, wavelength):
    """Invert critical-direction peaks into face normals and areas, row by row.

    Raises
    ------
    ValueError
        If some ``|xhat - d| < _MIN_CHORD``: for unit ``xhat`` and ``d`` that
        is ``|d . nu| = |xhat - d| / 2 < 1e-6``, a normal nearly parallel to
        the incident direction and no meaningful area.
    """
    d = np.asarray(d, dtype=float)
    delta = np.asarray(xhat, dtype=float) - d
    # |xhat - d| equals sqrt(2 (1 - xhat . d)) but has no cancellation
    chord = np.sqrt(_dot(delta, delta))
    if np.any(chord < _MIN_CHORD):
        raise ValueError("peak direction within 2e-6 of the incident one")
    nu = delta / chord[..., None]
    area = wavelength * value / np.abs(_dot(d, nu))
    return nu, area


# Step-1 peak search constants: seeding-lattice points per harmonic
# coefficient, the seed neighbourhood's radius in lattice spacings
# sqrt(4 pi / n), largest step (radians), step size that ends a polish,
# and the iteration cap.
_SEEDS_PER_COEFFICIENT = 20
_SEED_REACH = 1.5
_MAX_STEP = 0.1
_STEP_TOL = 1e-9
_MAX_ITERATIONS = 50
# a gradient below this fraction of the pattern's largest value is flat
_FLAT_GRADIENT = 1e-10
# a pattern whose lattice values span at most this fraction of its largest
# modulus is flat and has no maxima: a constant's ripples are the rounding
# of its lattice values, about 2e-15 of them at cutoff 6
_FLAT_SPAN = 1e-12
# polished peaks closer than this (radians) are one peak
_DEDUP_ANGLE = math.radians(1.0)


@lru_cache(maxsize=8)
def _seed_lattice(cutoff: int):
    """Raw Fibonacci lattice sized to the band limit ``cutoff``, its
    neighbour pairs and its harmonic basis.

    Returns ``(points, (i, j), basis)`` for ``n = _SEEDS_PER_COEFFICIENT
    (cutoff + 1)^2`` points: pairs of points a Fibonacci number apart in
    index and at most ``_SEED_REACH`` spacings apart on the sphere, and
    ``harmonic_basis(points, cutoff)``.  Every convex-hull edge of the
    lattice is such a pair (Keinert et al. 2015).
    """
    n = _SEEDS_PER_COEFFICIENT * (cutoff + 1) ** 2
    points = fibonacci_points(n)
    near = math.cos(_SEED_REACH * math.sqrt(FOUR_PI / n))
    i, j = [], []
    gap, next_gap = 1, 2
    while gap < n:
        close = np.einsum("ij,ij->i", points[:-gap], points[gap:]) >= near
        i.append(np.flatnonzero(close))
        j.append(i[-1] + gap)
        gap, next_gap = next_gap, gap + next_gap
    pairs = np.concatenate(i), np.concatenate(j)
    basis = harmonic_basis(points, cutoff)
    for a in (points, *pairs, basis):
        a.flags.writeable = False
    return points, pairs, basis


def _grid_seeds(coefficients, cutoff: int):
    """Points of a raw Fibonacci lattice sized to the band limit whose
    surrogate value is at least that of every lattice neighbour; none for a
    surrogate flat to ``_FLAT_SPAN`` on the lattice.

    Returns ``(seeds, owner, scale)``: the seeds of all patterns stacked
    in order, the pattern of each, and each pattern's largest modulus on
    the lattice.  One basis of the lattice serves every pattern.
    """
    points, (i, j), B = _seed_lattice(cutoff)
    seeds, scale = [], []
    for c in coefficients:
        values = B @ c
        neighbour_max = np.full(len(points), -np.inf)
        np.maximum.at(neighbour_max, i, values[j])
        np.maximum.at(neighbour_max, j, values[i])
        scale.append(np.abs(values).max())
        flat = np.ptp(values) <= _FLAT_SPAN * scale[-1]
        seeds.append(points[(values >= neighbour_max) & ~flat])
    owner = np.repeat(np.arange(len(seeds)), [len(s) for s in seeds])
    return np.concatenate(seeds), owner, np.array(scale)


def _monomials(x: np.ndarray, exponents) -> np.ndarray:
    """``x^i y^j z^k`` at the rows of ``x``, one column per exponent triple."""
    i, j, k = exponents
    powers = np.vander(x.ravel(), i.max() + 1, increasing=True).reshape(len(x), 3, -1)
    return powers[:, 0, i] * powers[:, 1, j] * powers[:, 2, k]


@lru_cache(maxsize=8)
def _cartesian_form(cutoff: int):
    """The harmonics up to degree ``cutoff`` as polynomials, fitted by QR on
    every fourth seed-lattice point.  Returns the ``(i, j, k)`` of the ``K =
    (cutoff + 1)^2`` monomials ``x^i y^j z^k``, ``k <= 1`` and ``i + j + k <=
    cutoff`` (a basis on the sphere, where ``z^2 = 1 - x^2 - y^2``), and the
    ``(K, 13, K)`` map from harmonic coefficients to the monomial coefficients
    of the surrogate, its gradient and its row-major Hessian.
    """
    points, _, basis = _seed_lattice(cutoff)
    exponents = np.nonzero(np.indices((cutoff + 1, cutoff + 1, 2)).sum(axis=0) <= cutoff)
    q, r = np.linalg.qr(_monomials(points[::4], exponents))
    cube = np.zeros((cutoff + 1, cutoff + 1, 2, len(r)))
    cube[exponents] = np.linalg.solve(r, q.T @ basis[::4])

    def d(c, axis):  # a derivative shifts exponents: c[e] becomes (e + 1) c[e + 1]
        return np.roll(c * np.arange(c.shape[axis]).reshape((-1,) + (1,) * (3 - axis)), -1, axis)

    grad = [d(cube, axis) for axis in range(3)]
    jets = [cube, *grad, *(d(g, axis) for g in grad for axis in range(3))]
    form = np.stack([c[exponents] for c in jets], axis=1)
    form.flags.writeable = False
    return exponents, form


def _polish(coefficients, cutoff: int, seeds, owner, scale):
    """Projected Newton ascent of the seeds of all patterns at once.

    Each iteration evaluates the surrogates' Cartesian forms at the active
    points (one monomial matrix, one product per pattern) for values,
    gradients ``g`` and Hessians ``H``: on the sphere, the gradient is ``P g``
    and the Hessian ``P H P - (x . g) P``, ``P = I - x x^T`` (Absil et al.
    2008, 5.5).  It takes the Newton step where the Hessian is negative
    definite and a curvature-scaled gradient step elsewhere, caps it at
    ``_MAX_STEP`` and retracts onto the sphere.  A point ends flat, or after
    a step below ``_STEP_TOL``, valued as before that step.

    Returns ``(points, values, seed_index, owner, failed)``: converged
    points, their values, the seed each came from, its pattern, and per
    pattern the number of seeds still moving after ``_MAX_ITERATIONS``.
    """
    exponents, form = _cartesian_form(cutoff)
    # each surrogate in its own unit: exact, and |g|^2 stays finite
    coefficients, unit = in_own_unit(coefficients, scale[:, None])
    forms = [form @ c for c in coefficients]  # (K, 13) each
    x = seeds
    index = np.arange(len(seeds))
    done = [(np.zeros((0, 3)), np.zeros(0), np.zeros(0, int), np.zeros(0, int))]
    for _ in range(_MAX_ITERATIONS):
        if len(x) == 0:
            break
        M = _monomials(x, exponents)
        # owner is sorted: each pattern's points are one block of M
        rows = np.searchsorted(owner, np.arange(len(coefficients) + 1))
        f = np.concatenate([M[a:b] @ c for c, a, b in zip(forms, rows, rows[1:])])
        f0, radial = f[:, 0], np.einsum("ki,ki->k", x, f[:, 1:4])
        g = f[:, 1:4] - radial[:, None] * x
        proj = np.eye(3) - x[:, :, None] * x[:, None, :]

        # Newton step where the Hessian is negative definite; elsewhere a
        # gradient step scaled per eigendirection by 1/|curvature|, which
        # leaves saddles along their ascending direction at full speed.  x
        # spans the Hessian's null space and is projected out of the step
        hess = proj @ f[:, 4:].reshape(-1, 3, 3) @ proj - radial[:, None, None] * proj
        lam, vec = np.linalg.eigh(hess)
        gnorm = np.linalg.norm(g, axis=1)
        floor = np.maximum(gnorm / _MAX_STEP, 1e-300)[:, None]
        along = np.einsum("kji,kj->ki", vec, g) / np.maximum(np.abs(lam), floor)
        step = np.einsum("kij,kj->ki", proj @ vec, along)
        length = np.linalg.norm(step, axis=1)
        step *= np.minimum(1.0, _MAX_STEP / np.maximum(length, 1e-300))[:, None]

        flat = gnorm <= _FLAT_GRADIENT * np.ldexp(scale, -unit[:, 0])[owner]
        x = np.where(flat[:, None], x, x + step)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        finished = flat | (length < _STEP_TOL)
        done.append((x[finished], f0[finished], index[finished], owner[finished]))
        x, index, owner = x[~finished], index[~finished], owner[~finished]
    failed = np.bincount(owner, minlength=len(coefficients))
    points, values, seed_index, source = (np.concatenate(column) for column in zip(*done))
    return points, np.ldexp(values, unit[source, 0]), seed_index, source, failed


def _suppress(directions: np.ndarray, order, angle: float) -> np.ndarray:
    """Greedy angular suppression: visit ``directions`` in ``order`` and keep
    each one farther than ``angle`` (radians) from every one already kept.
    Returns the kept indices in visiting order."""
    far = (np.arccos(np.clip(directions @ directions.T, -1.0, 1.0)) > angle).tolist()
    kept = []
    for i in order:
        if all(far[k][i] for k in kept):
            kept.append(i)
    return np.array(kept, dtype=int)


def find_local_maxima(coefficients) -> PeakSet:
    """The local maxima of band-limited patterns, all found in one batch,
    as one :class:`PeakSet` whose ``source_indices`` are the patterns'
    positions in ``coefficients``, a sequence of harmonic coefficient arrays
    of one length ``(cutoff + 1)^2`` (else ``ValueError``).

    Seeds are the discrete maxima of each surrogate on a raw Fibonacci
    lattice of ``20 (cutoff + 1)^2`` points, each at least as high as every
    lattice point a Fibonacci number away in index and within
    ``_SEED_REACH`` spacings; all seeds are then polished together by
    projected Newton ascent on exact sphere derivatives.  Per pattern, end
    points closer than ``_DEDUP_ANGLE`` are merged keeping the higher value.
    A pattern flat on the lattice has no maxima.  Seeds still moving after
    the iteration cap are only counted, in ``failed_starts``, never fatal.
    """
    lengths = sorted({len(c) for c in coefficients})
    root = math.isqrt(lengths[0]) if len(lengths) == 1 else 0
    if root == 0 or root * root != lengths[0]:
        raise ValueError(f"coefficients need one length (cutoff + 1)^2, got lengths {lengths}")
    seeded = _grid_seeds(coefficients, root - 1)
    points, values, seed_index, owner, failed = _polish(coefficients, root - 1, *seeded)
    kept = []
    for k in range(len(coefficients)):
        mine = np.flatnonzero(owner == k)
        order = np.lexsort((seed_index[mine], -values[mine]))
        kept.append(mine[_suppress(points[mine], order, _DEDUP_ANGLE)])
    kept = np.concatenate(kept)
    return PeakSet(points[kept], values[kept], owner[kept], failed_starts=int(failed.sum()))


def _rows(table, keep):
    """``table`` with only the rows ``keep`` of each of its array columns."""
    columns = {f.name: getattr(table, f.name) for f in fields(table)}
    return replace(table, **{k: v[keep] for k, v in columns.items() if isinstance(v, np.ndarray)})


def critical_mask(peaks: PeakSet, d, e_tol: float) -> np.ndarray:
    """Mask of the critical peaks of ``d`` (one, or one per peak), the one
    rule that drops a peak: at least ``_EXCLUSION_RADIUS`` from ``d`` and at
    least ``e_tol`` high.  Every such unit direction inverts to a front-face
    normal: the specular law gives ``d . nu = -|xhat - d| / 2 < 0``."""
    d = np.asarray(d, dtype=float)
    distance = np.arccos(np.clip(_dot(peaks.directions, d), -1.0, 1.0))
    return (distance >= _EXCLUSION_RADIUS) & (peaks.values >= e_tol)


def select_critical_directions(peaks: PeakSet, d, e_tol: float) -> PeakSet:
    """The peaks that :func:`critical_mask` keeps.  Idempotent."""
    return _rows(peaks, critical_mask(peaks, d, e_tol))


def peaks_to_faces(peaks: PeakSet, directions, wavelength: float, e_tol: float) -> RecoveredFaceSet:
    """Select the critical peaks, each of ``directions[source]``, and invert
    them into one face set with their ``source_indices``; ``ValueError`` if
    a source has no direction."""
    directions = np.asarray(directions, dtype=float).reshape(-1, 3)
    if np.any(peaks.source_indices >= len(directions)):
        raise ValueError(f"a peak's source has none of the {len(directions)} directions")
    kept = select_critical_directions(peaks, directions[peaks.source_indices], e_tol)
    d = directions[kept.source_indices]
    normals, areas = normal_and_area_from_peak(kept.directions, kept.values, d, wavelength)
    return RecoveredFaceSet(normals, areas, kept.values, kept.source_indices)


def cluster_effective_normals(entries: RecoveredFaceSet, cluster_angle: float) -> RecoveredFaceSet:
    """Merge near-duplicate normals, keeping the strongest peak per cluster.

    Greedy: entries are visited in order of descending peak value, and each
    is kept unless it lies within ``cluster_angle`` of one already kept.
    """
    order = np.argsort(-entries.peak_values, kind="stable")
    return _rows(entries, _suppress(entries.normals, order, cluster_angle))
