"""Step 1 of the recovery scheme: peak hunting on the smoothed phaseless
pattern, conversion of critical observation directions to face normals and
areas, and merging of duplicate normals across incident directions.

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

import numpy as np

from .sphgrid import HarmonicExpansion, build_grid, synthesize


class DegenerateDirection(ValueError):
    """Peak direction coincides with the incident direction."""


class GrazingNormal(ValueError):
    """Recovered normal is nearly orthogonal to the incident direction."""


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
        if min(self.e_tol, self.exclusion_radius, self.cluster_angle) < 0:
            raise ValueError("thresholds must be nonnegative")
        if not isinstance(self.cutoff, numbers.Integral) or self.cutoff < 0:
            raise ValueError(f"cutoff must be an integer >= 0, got {self.cutoff!r}")


def specular_direction(nu, d) -> np.ndarray:
    """Critical observation direction: the mirror image of ``d`` in the face
    plane, ``d - 2 (d . nu) nu``."""
    nu = np.asarray(nu, dtype=float)
    d = np.asarray(d, dtype=float)
    return d - 2.0 * float(d @ nu) * nu


def normal_and_area_from_peak(xhat, value, d, wavelength):
    """Invert a critical-direction peak into a face normal and area.

    Raises
    ------
    DegenerateDirection
        If ``xhat`` coincides with ``d`` (inversion undefined).
    GrazingNormal
        If ``|d . nu|`` is too small for the area to be meaningful.
    """
    xhat = np.asarray(xhat, dtype=float)
    d = np.asarray(d, dtype=float)
    delta = xhat - d
    # |xhat - d| equals sqrt(2 (1 - xhat . d)) but has no cancellation
    chord = float(np.linalg.norm(delta))
    if chord**2 <= 2e-12:
        raise DegenerateDirection("peak direction coincides with the incident one")
    nu = delta / chord
    grazing = abs(float(d @ nu))
    if grazing < 1e-6:
        raise GrazingNormal("face nearly parallel to the incident direction")
    area = wavelength * value / grazing
    return nu, area


# Step-1 peak search constants: seeding-lattice points per harmonic
# coefficient, tangent-plane stencil spacing (radians), largest step
# (radians), step size that ends a polish, and the iteration cap.
_SEEDS_PER_COEFFICIENT = 20
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


def _grid_seeds(expansion: HarmonicExpansion):
    """Points of a raw Fibonacci lattice sized to the band limit whose
    surrogate value is at least that of every triangulation neighbour.

    Returns ``(seeds, scale)`` with ``scale`` the largest modulus on the
    lattice.
    """
    grid = build_grid(_SEEDS_PER_COEFFICIENT * (expansion.cutoff + 1) ** 2)
    values = synthesize(expansion, grid.points)
    tri = grid.triangles
    neighbour_max = np.full(grid.size, -np.inf)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        np.maximum.at(neighbour_max, tri[:, a], values[tri[:, b]])
        np.maximum.at(neighbour_max, tri[:, b], values[tri[:, a]])
    seeds = grid.points[values >= neighbour_max]
    return seeds, float(np.abs(values).max())


def _tangent_bases(x: np.ndarray):
    """Orthonormal tangent vectors ``(e1, e2)`` at each row of ``x``."""
    axis = np.eye(3)[np.argmin(np.abs(x), axis=1)]
    e1 = axis - np.einsum("ij,ij->i", axis, x)[:, None] * x
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return e1, np.cross(x, e1)


def _polish(expansion: HarmonicExpansion, seeds: np.ndarray, scale: float):
    """Projected Newton ascent of all seeds at once.

    Each iteration evaluates the surrogate on a 3 x 3 tangent-plane stencil
    around every active point (one synthesis), reads off the gradient and
    2 x 2 Hessian by central differences, takes the Newton step where the
    Hessian is negative definite and a curvature-scaled gradient step
    elsewhere, caps it at ``_MAX_STEP`` and retracts onto the sphere.

    Returns ``(points, values, seed_index, n_failed)``: converged points,
    their values, the seed each came from, and the number of seeds still
    moving after ``_MAX_ITERATIONS``.
    """
    h = _STENCIL_H
    x = seeds
    index = np.arange(len(seeds))
    done_x, done_f, done_i = [np.zeros((0, 3))], [np.zeros(0)], [np.zeros(0, int)]
    for _ in range(_MAX_ITERATIONS):
        if len(x) == 0:
            break
        e1, e2 = _tangent_bases(x)
        stencil = x[:, None, :] + h * (
            _STENCIL[None, :, 0, None] * e1[:, None, :]
            + _STENCIL[None, :, 1, None] * e2[:, None, :]
        )
        stencil /= np.linalg.norm(stencil, axis=2, keepdims=True)
        f = synthesize(expansion, stencil.reshape(-1, 3)).reshape(len(x), 9)
        f0 = f[:, 4]
        ga = (f[:, 7] - f[:, 1]) / (2.0 * h)
        gb = (f[:, 5] - f[:, 3]) / (2.0 * h)
        haa = (f[:, 7] - 2.0 * f0 + f[:, 1]) / h**2
        hbb = (f[:, 5] - 2.0 * f0 + f[:, 3]) / h**2
        hab = (f[:, 8] - f[:, 6] - f[:, 2] + f[:, 0]) / (4.0 * h**2)

        # Newton step where the Hessian is negative definite; elsewhere a
        # gradient step scaled per eigendirection by 1/|curvature|, which
        # leaves saddles along their ascending direction at full speed
        lam, vec = np.linalg.eigh(
            np.stack([np.stack([haa, hab], -1), np.stack([hab, hbb], -1)], -2)
        )
        g = np.stack([ga, gb], -1)
        gnorm = np.hypot(ga, gb)
        floor = np.maximum(gnorm / _MAX_STEP, 1e-300)[:, None]
        along = np.einsum("kji,kj->ki", vec, g) / np.maximum(np.abs(lam), floor)
        sa, sb = np.einsum("kij,kj->ik", vec, along)
        length = np.hypot(sa, sb)
        cap = np.minimum(1.0, _MAX_STEP / np.maximum(length, 1e-300))
        sa *= cap
        sb *= cap

        finished = (length < _STEP_TOL) | (gnorm <= _FLAT_GRADIENT * scale)
        done_x.append(x[finished])
        done_f.append(f0[finished])
        done_i.append(index[finished])
        moving = ~finished
        x = x[moving] + sa[moving, None] * e1[moving] + sb[moving, None] * e2[moving]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        index = index[moving]
    return (
        np.concatenate(done_x),
        np.concatenate(done_f),
        np.concatenate(done_i),
        len(x),
    )


def _suppress(directions: np.ndarray, order, angle: float) -> np.ndarray:
    """Greedy angular suppression: visit ``directions`` in ``order`` and keep
    each one farther than ``angle`` (radians) from every one already kept.
    Returns the kept indices in visiting order."""
    kept = []
    for i in order:
        dots = directions[kept] @ directions[i]
        if np.all(np.arccos(np.clip(dots, -1.0, 1.0)) > angle):
            kept.append(i)
    return np.array(kept, dtype=int)


def find_local_maxima(expansion: HarmonicExpansion) -> PeakSet:
    """Local maxima of the band-limited pattern, found in one batch.

    Seeds are the discrete maxima of the surrogate on a raw Fibonacci
    lattice of ``20 (cutoff + 1)^2`` points; all seeds are then polished
    together by projected Newton ascent on the sphere.  End points closer
    than ``_DEDUP_ANGLE`` are merged keeping the higher value.  Seeds still
    moving after the iteration cap are only counted in ``failed_starts``,
    never fatal.
    """
    seeds, scale = _grid_seeds(expansion)
    points, values, seed_index, failed = _polish(expansion, seeds, scale)

    keep = _suppress(points, np.lexsort((seed_index, -values)), _DEDUP_ANGLE)
    return PeakSet(directions=points[keep], values=values[keep], failed_starts=failed)


def select_critical_directions(
    peaks: PeakSet, d, thresholds: RecoveryThresholds
) -> PeakSet:
    """Filter the peaks of incident direction ``d`` down to critical
    observation directions.

    Removes peaks within ``exclusion_radius`` of ``d`` and peaks below
    ``e_tol``.  Every other unit direction inverts to a front-face normal:
    the specular law gives ``d . nu = -|xhat - d| / 2 < 0``.  Idempotent.
    """
    d = np.asarray(d, dtype=float)
    distance = np.arccos(np.clip(peaks.directions @ d, -1.0, 1.0))
    keep = (distance >= thresholds.exclusion_radius) & (
        peaks.values >= thresholds.e_tol
    )
    return replace(peaks, directions=peaks.directions[keep], values=peaks.values[keep])


def peaks_to_faces(
    peaks: PeakSet, d, wavelength: float, source_index: int = 0
) -> RecoveredFaceSet:
    """Convert the selected peaks of incident direction ``d`` into face
    entries, skipping peaks that do not invert (at or next to ``d``)."""
    normals, areas, values = [], [], []
    for xhat, val in zip(peaks.directions, peaks.values):
        try:
            nu, area = normal_and_area_from_peak(xhat, val, d, wavelength)
        except (DegenerateDirection, GrazingNormal):
            continue
        normals.append(nu)
        areas.append(area)
        values.append(val)
    k = len(areas)
    return RecoveredFaceSet(
        normals=np.array(normals) if k else np.zeros((0, 3)),
        areas=np.array(areas),
        peak_values=np.array(values),
        source_indices=np.full(k, source_index, dtype=int),
    )


def merge_face_sets(sets) -> RecoveredFaceSet:
    """Concatenate per-direction face sets; there is at least one."""
    sets = list(sets)
    return RecoveredFaceSet(
        normals=np.concatenate([s.normals for s in sets]),
        areas=np.concatenate([s.areas for s in sets]),
        peak_values=np.concatenate([s.peak_values for s in sets]),
        source_indices=np.concatenate([s.source_indices for s in sets]).astype(int),
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
