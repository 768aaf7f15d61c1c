"""Step 1 of the recovery scheme, in three calls over all incident
directions: peak hunting on the smoothed phaseless patterns, selection of
the critical observation directions and their inversion into face normals
and areas, and the clustering of near-duplicate normals.

The backscattering peak of face ``j`` sits at the specular direction
``xhat_j = d - 2 (d . nu_j) nu_j``; inverting that relation gives

    ``nu_j = (xhat_j - d) / sqrt(2 (1 - xhat_j . d))``

and the peak magnitude yields the face area ``A = lambda |E| / |d . nu|``.
Every unit ``xhat != d`` inverts to a front face (``d . nu < 0``), so
selection needs only the exclusion radius around ``d`` and the peak
threshold.  The peak search sees only the expansion; the incident
direction and the wavelength are passed to the stages that use them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .geometry import cross_rows
from .sphgrid import FOUR_PI, fibonacci_points, harmonic_basis


class DegenerateDirection(ValueError):
    """Peak direction within 2e-6 of the incident direction."""


@dataclass(frozen=True)
class PeakSet:
    """Local maxima of the smoothed pattern, sorted by descending value."""

    directions: np.ndarray  # (n, 3) unit vectors
    values: np.ndarray  # (n,)
    failed_starts: int = 0

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


@dataclass(frozen=True)
class RecoveryThresholds:
    """Knobs of the peak-selection stage.

    ``e_tol`` deletes weak maxima, ``exclusion_radius`` (radians) removes
    peaks too close to the incident direction, ``cluster_angle`` (radians)
    merges near-duplicate normals and ``cutoff`` is the harmonic band limit,
    an integer >= 0.
    """

    e_tol: float = 0.5
    exclusion_radius: float = 0.3
    cluster_angle: float = math.radians(5.0)
    cutoff: int = 10

    def __post_init__(self):
        for name in ("e_tol", "exclusion_radius", "cluster_angle"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if not isinstance(self.cutoff, numbers.Integral) or self.cutoff < 0:
            raise ValueError(f"cutoff must be an integer >= 0, got {self.cutoff!r}")


def specular_direction(nu, d) -> np.ndarray:
    """Critical observation direction: the mirror image of ``d`` in the face
    plane, ``d - 2 (d . nu) nu``; for ``(k, 3)`` normals, one row each."""
    nu = np.asarray(nu, dtype=float)
    d = np.asarray(d, dtype=float)
    return d - 2.0 * (nu @ d)[..., None] * nu


def normal_and_area_from_peak(xhat, value, d, wavelength):
    """Invert a critical-direction peak into a face normal and area.

    Raises
    ------
    DegenerateDirection
        If ``|xhat - d| < 2e-6``: for unit ``xhat`` and ``d`` that is
        ``|d . nu| = |xhat - d| / 2 < 1e-6``, a normal nearly parallel to
        the incident direction and no meaningful area.
    """
    xhat = np.asarray(xhat, dtype=float)
    d = np.asarray(d, dtype=float)
    delta = xhat - d
    # |xhat - d| equals sqrt(2 (1 - xhat . d)) but has no cancellation
    chord = float(np.linalg.norm(delta))
    if chord < 2e-6:
        raise DegenerateDirection("peak direction within 2e-6 of the incident one")
    nu = delta / chord
    area = wavelength * value / abs(float(d @ nu))
    return nu, area


# Step-1 peak search constants: seeding-lattice points per harmonic
# coefficient, the seed neighbourhood's radius in lattice spacings
# sqrt(4 pi / n), tangent-plane stencil spacing (radians), largest step
# (radians), step size that ends a polish, and the iteration cap.
_SEEDS_PER_COEFFICIENT = 20
_SEED_REACH = 1.5
_STENCIL_H = 1e-4
_MAX_STEP = 0.1
_STEP_TOL = 1e-9
_MAX_ITERATIONS = 50
# a gradient below this fraction of the pattern's largest value is flat
_FLAT_GRADIENT = 1e-10
# polished peaks closer than this (radians) are one peak
_DEDUP_ANGLE = math.radians(1.0)

# tangent-plane offsets (a, b) of the 3 x 3 stencil; index 3 (a + 1) + (b + 1)
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)], dtype=float)


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


def _grid_seeds(expansions, cutoff: int):
    """Points of a raw Fibonacci lattice sized to the band limit whose
    surrogate value is at least that of every lattice neighbour.

    Returns ``(seeds, owner, scale)``: the seeds of all expansions stacked
    in order, the expansion of each, and each expansion's largest modulus
    on the lattice.  One basis of the lattice serves every expansion.
    """
    points, (i, j), B = _seed_lattice(cutoff)
    seeds, scale = [], []
    for expansion in expansions:
        values = B @ expansion.coefficients
        neighbour_max = np.full(len(points), -np.inf)
        np.maximum.at(neighbour_max, i, values[j])
        np.maximum.at(neighbour_max, j, values[i])
        seeds.append(points[values >= neighbour_max])
        scale.append(np.abs(values).max())
    owner = np.repeat(np.arange(len(seeds)), [len(s) for s in seeds])
    return np.concatenate(seeds), owner, np.array(scale)


def _tangent_bases(x: np.ndarray):
    """Orthonormal tangent vectors ``(e1, e2)`` at each row of ``x``."""
    axis = np.eye(3)[np.argmin(np.abs(x), axis=1)]
    e1 = axis - np.einsum("ij,ij->i", axis, x)[:, None] * x
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return e1, cross_rows(x, e1)


def _polish(expansions, cutoff: int, seeds, owner, scale):
    """Projected Newton ascent of the seeds of all expansions at once.

    Each iteration evaluates the surrogates on a 3 x 3 tangent-plane stencil
    around every active point (one basis, one product per expansion), reads
    off the gradient and 2 x 2 Hessian by central differences, takes the
    Newton step where the Hessian is negative definite and a curvature-scaled
    gradient step elsewhere, caps it at ``_MAX_STEP`` and retracts onto the
    sphere.

    Returns ``(points, values, seed_index, owner, failed)``: converged
    points, their values, the seed each came from, its expansion, and per
    expansion the number of seeds still moving after ``_MAX_ITERATIONS``.
    """
    h = _STENCIL_H
    x = seeds
    index = np.arange(len(seeds))
    done = [(np.zeros((0, 3)), np.zeros(0), np.zeros(0, int), np.zeros(0, int))]
    for _ in range(_MAX_ITERATIONS):
        if len(x) == 0:
            break
        e1, e2 = _tangent_bases(x)
        stencil = x[:, None, :] + h * (
            _STENCIL[None, :, 0, None] * e1[:, None, :]
            + _STENCIL[None, :, 1, None] * e2[:, None, :]
        )
        stencil /= np.linalg.norm(stencil, axis=2, keepdims=True)
        B = harmonic_basis(stencil.reshape(-1, 3), cutoff)
        # owner is sorted: each expansion's stencil rows are one block of B
        rows = 9 * np.searchsorted(owner, np.arange(len(expansions) + 1))
        f = [B[a:b] @ e.coefficients for e, a, b in zip(expansions, rows, rows[1:])]
        f = np.concatenate(f).reshape(len(x), 9)
        f0 = f[:, 4]
        ga = (f[:, 7] - f[:, 1]) / (2.0 * h)
        gb = (f[:, 5] - f[:, 3]) / (2.0 * h)
        hess = np.empty((len(x), 2, 2))
        hess[:, 0, 0] = (f[:, 7] - 2.0 * f0 + f[:, 1]) / h**2
        hess[:, 1, 1] = (f[:, 5] - 2.0 * f0 + f[:, 3]) / h**2
        hess[:, 0, 1] = hess[:, 1, 0] = (f[:, 8] - f[:, 6] - f[:, 2] + f[:, 0]) / (4.0 * h**2)

        # Newton step where the Hessian is negative definite; elsewhere a
        # gradient step scaled per eigendirection by 1/|curvature|, which
        # leaves saddles along their ascending direction at full speed
        lam, vec = np.linalg.eigh(hess)
        g = np.stack([ga, gb], -1)
        gnorm = np.hypot(ga, gb)
        floor = np.maximum(gnorm / _MAX_STEP, 1e-300)[:, None]
        along = np.einsum("kji,kj->ki", vec, g) / np.maximum(np.abs(lam), floor)
        sa, sb = np.einsum("kij,kj->ik", vec, along)
        length = np.hypot(sa, sb)
        cap = np.minimum(1.0, _MAX_STEP / np.maximum(length, 1e-300))
        sa *= cap
        sb *= cap

        finished = (length < _STEP_TOL) | (gnorm <= _FLAT_GRADIENT * scale[owner])
        done.append((x[finished], f0[finished], index[finished], owner[finished]))
        moving = ~finished
        x = x[moving] + sa[moving, None] * e1[moving] + sb[moving, None] * e2[moving]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        index = index[moving]
        owner = owner[moving]
    failed = np.bincount(owner, minlength=len(expansions))
    return (*(np.concatenate(column) for column in zip(*done)), failed)


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


def find_local_maxima(expansions) -> list:
    """One :class:`PeakSet` of local maxima per band-limited expansion, all
    found in one batch; the expansions share one cutoff (else ``ValueError``).

    Seeds are the discrete maxima of each surrogate on a raw Fibonacci
    lattice of ``20 (cutoff + 1)^2`` points, each at least as high as every
    lattice point a Fibonacci number away in index and within
    ``_SEED_REACH`` spacings; all seeds are then polished together by
    projected Newton ascent on the sphere.  Per expansion, end points closer
    than ``_DEDUP_ANGLE`` are merged keeping the higher value.  Seeds still
    moving after the iteration cap are only counted in ``failed_starts``,
    never fatal.
    """
    cutoffs = sorted({e.cutoff for e in expansions})
    if len(cutoffs) != 1:
        raise ValueError(f"expansions must share one cutoff, got {cutoffs}")
    seeded = _grid_seeds(expansions, cutoffs[0])
    points, values, seed_index, owner, failed = _polish(expansions, cutoffs[0], *seeded)
    peak_sets = []
    for k, n_failed in enumerate(failed):
        mine = owner == k
        p, v = points[mine], values[mine]
        keep = _suppress(p, np.lexsort((seed_index[mine], -v)), _DEDUP_ANGLE)
        peak_sets.append(PeakSet(p[keep], v[keep], failed_starts=int(n_failed)))
    return peak_sets


def critical_mask(peaks: PeakSet, d, thresholds: RecoveryThresholds) -> np.ndarray:
    """Mask of the peaks of incident direction ``d`` that are critical
    observation directions: at least ``exclusion_radius`` from ``d`` and
    at least ``e_tol`` high.  Every such unit direction inverts to a
    front-face normal: the specular law gives
    ``d . nu = -|xhat - d| / 2 < 0``."""
    d = np.asarray(d, dtype=float)
    distance = np.arccos(np.clip(peaks.directions @ d, -1.0, 1.0))
    return (distance >= thresholds.exclusion_radius) & (peaks.values >= thresholds.e_tol)


def select_critical_directions(
    peaks: PeakSet, d, thresholds: RecoveryThresholds
) -> PeakSet:
    """The peaks of incident direction ``d`` that :func:`critical_mask`
    keeps.  Idempotent."""
    keep = critical_mask(peaks, d, thresholds)
    return replace(peaks, directions=peaks.directions[keep], values=peaks.values[keep])


def peaks_to_faces(
    peak_sets, directions, wavelength: float, thresholds: RecoveryThresholds
) -> RecoveredFaceSet:
    """Select the peaks of each incident direction in ``directions`` (one
    :class:`PeakSet` each) and invert them into one face set whose
    ``source_indices`` are the directions' positions.  Peaks that do not
    invert (at or next to their ``d``) are skipped."""
    normals, areas, values, sources = [], [], [], []
    for i, (peaks, d) in enumerate(zip(peak_sets, directions, strict=True)):
        selected = select_critical_directions(peaks, d, thresholds)
        for xhat, val in zip(selected.directions, selected.values):
            try:
                nu, area = normal_and_area_from_peak(xhat, val, d, wavelength)
            except DegenerateDirection:
                continue
            normals.append(nu)
            areas.append(area)
            values.append(val)
            sources.append(i)
    return RecoveredFaceSet(
        normals=np.reshape(normals, (-1, 3)),
        areas=np.array(areas),
        peak_values=np.array(values),
        source_indices=np.array(sources, dtype=int),
    )


def cluster_effective_normals(
    entries: RecoveredFaceSet, cluster_angle: float
) -> RecoveredFaceSet:
    """Merge near-duplicate normals, keeping the strongest peak per cluster.

    Greedy: entries are visited in order of descending peak value, and each
    is kept unless it lies within ``cluster_angle`` of one already kept.
    """
    order = np.argsort(-entries.peak_values, kind="stable")
    reps = _suppress(entries.normals, order, cluster_angle)
    return RecoveredFaceSet(
        normals=entries.normals[reps],
        areas=entries.areas[reps],
        peak_values=entries.peak_values[reps],
        source_indices=entries.source_indices[reps],
    )
