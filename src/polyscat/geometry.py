"""Convex polyhedra: construction, validation, the lit-face rule and
half-space intersection.

A polyhedron stores its vertices, one flat layout of all face cycles
(``rings``), outward unit normals, face areas and plane offsets.  Face
cycles are ordered counterclockwise when viewed from outside, so the
right-hand rule yields the outward normal.  Per-face quantities, the
validity checks and the centroid are segment reductions over the rings,
not loops over faces.  :func:`lit_faces` is the one rule for which faces
a plane wave lights; the far field and ``polyscat check`` both read it.
The half-space intersection uses the polar dual transform (convex hull of
``nu_j / alpha_j``), which requires the origin strictly inside the body;
reconstructions are translation-free, so this costs no generality.  It
runs in two parts: :func:`dual_hull` runs qhull on the dual points and
maps each dual triangle to its primal vertex, and :meth:`DualHull.body`
orders every face ring with one sort by (plane, angle) and builds the body
from those rings.  The offset fit reads what it needs off the dual hull
alone.  The module also holds the package's one text writer,
:func:`write_text`, which rewrites a file in place.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

# Planarity/convexity tolerance, scaled by the bounding-box diagonal.
REL_TOL = 1e-9
# The same for bodies from computed plane intersections (qhull-level noise).
INTERSECTION_REL_TOL = 1e-7
# Faces below this times the squared bounding-box diagonal are degenerate.
MIN_FACE_AREA = 1e-12


class GeometryError(ValueError):
    """A body that does not exist: a face that is degenerate, not planar or
    not convex, or half spaces that bound no solid around the origin."""


def unit_vector(v, name):
    """Return ``v`` normalized to unit length, rejecting near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ValueError(f"{name} has near-zero length")
    return v / n


def area_floor(points) -> float:
    """``MIN_FACE_AREA`` times the squared bounding-box diagonal of ``points``."""
    return MIN_FACE_AREA * float(np.sum(np.ptp(np.asarray(points, dtype=float), axis=0) ** 2))


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two ``(n, 3)`` arrays, with the arithmetic
    (so the bits) of ``np.cross`` but not its per-call axis handling."""
    out = np.empty((len(a), 3))
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


@dataclass(frozen=True)
class ConvexPolyhedron:
    """Closed convex polyhedron with per-face geometry.

    Attributes
    ----------
    vertices : (nv, 3) ndarray
        Vertex coordinates.
    rings : tuple of four read-only integer arrays
        Face cycles, counterclockwise seen from outside, laid out flat: the
        vertex indices face after face, the position of each one's successor
        in its cycle, the face of each position and each face's first position.
    normals : (m, 3) ndarray
        Outward unit normals.
    areas : (m,) ndarray
        Face areas.
    offsets : (m,) ndarray
        Signed plane offsets; ``normals[j] @ x == offsets[j]`` on face j.
    """

    vertices: np.ndarray
    rings: tuple
    normals: np.ndarray
    areas: np.ndarray
    offsets: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.rings[3])

    @cached_property
    def faces(self) -> tuple:
        """Per-face vertex cycles as tuples of ints."""
        flat, _, _, start = self.rings
        return tuple(tuple(f.tolist()) for f in np.split(flat, start[1:]))

    @cached_property
    def volume(self) -> float:
        """Volume via the divergence theorem, ``sum_j l_j |C_j| / 3``."""
        return float(self.offsets @ self.areas) / 3.0

    @cached_property
    def centroid(self) -> np.ndarray:
        """Volume centroid (center of gravity of the solid)."""
        # fan triangles (p0, a, b) of every face: a runs over each cycle
        # but its first and last vertex
        flat, succ, face, start = self.rings
        fan = (np.arange(len(flat)) != start[face]) & (succ != start[face])
        face_of = face[fan]
        p0, a, b = self.vertices[np.stack([flat[start[face_of]], flat[fan], flat[succ[fan]]])]
        tri_area = 0.5 * np.linalg.norm(cross_rows(a - p0, b - p0), axis=1)
        # midpoint rule is exact for the quadratic integrand y_c^2 / 2
        mids_sq = ((p0 + a) ** 2 + (a + b) ** 2 + (b + p0) ** 2) / 4.0
        acc = (self.normals[face_of] * (tri_area / 6.0)[:, None] * mids_sq).sum(axis=0)
        return acc / self.volume

    def face_vertices(self, j: int) -> np.ndarray:
        return self.vertices[list(self.faces[j])]

    def translated(self, t) -> "ConvexPolyhedron":
        """The same polyhedron shifted by ``t``."""
        t = np.asarray(t, dtype=float)
        return ConvexPolyhedron(
            vertices=_frozen(self.vertices + t),
            rings=self.rings,
            normals=self.normals,
            areas=self.areas,
            offsets=_frozen(self.offsets + self.normals @ t),
        )

    def scaled(self, s: float) -> "ConvexPolyhedron":
        """The same polyhedron scaled by ``s > 0`` about the origin."""
        return ConvexPolyhedron(
            vertices=_frozen(self.vertices * s),
            rings=self.rings,
            normals=self.normals,
            areas=_frozen(self.areas * s**2),
            offsets=_frozen(self.offsets * s),
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def build_polyhedron(vertices, faces) -> ConvexPolyhedron:
    """Assemble and validate a convex polyhedron from vertices and face cycles.

    Parameters
    ----------
    vertices : (nv, 3) array_like
    faces : sequence of index cycles
        Each cycle lists vertex indices counterclockwise seen from outside.

    Returns
    -------
    ConvexPolyhedron

    Raises
    ------
    GeometryError
        If a face is degenerate, not planar or not convex.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[1] != 3:
        raise ValueError("vertices must be an (n, 3) array")
    if not np.all(np.isfinite(V)):
        raise ValueError("vertices must be finite")
    if len(V) < 4:
        raise ValueError("a polyhedron needs at least 4 vertices")
    if len(faces) < 4:
        raise ValueError("a polyhedron needs at least 4 faces")
    faces_t = tuple(tuple(map(int, f)) for f in faces)
    for f in faces_t:
        if len(f) < 3 or len(set(f)) != len(f):
            raise GeometryError(f"face {f} needs >= 3 distinct vertices")
        if min(f) < 0 or max(f) >= len(V):
            raise ValueError(f"face {f} references a missing vertex")
    sizes = np.array([len(f) for f in faces_t])
    flat = np.fromiter((i for f in faces_t for i in f), dtype=np.intp, count=int(sizes.sum()))
    return _polyhedron(V, flat, sizes, REL_TOL)


def _polyhedron(V, flat, sizes, rel_tol: float) -> ConvexPolyhedron:
    """The polyhedron whose faces list the vertex indices ``flat`` face after
    face, ``sizes[j]`` of them on face j, validated to ``rel_tol`` and :func:`area_floor`."""
    scale = float(np.linalg.norm(np.ptp(V, axis=0)))
    if scale <= 1e-14 * float(np.abs(V).max()):
        raise ValueError("all vertices coincide")
    tol, floor = rel_tol * scale, area_floor(V)

    # the layout ConvexPolyhedron.rings keeps
    start = np.cumsum(sizes) - sizes
    succ = np.arange(1, len(flat) + 1)
    succ[start + sizes - 1] = start
    face = np.repeat(np.arange(len(sizes)), sizes)
    rings = (flat, succ, face, start)
    for a in rings:
        a.flags.writeable = False  # _frozen would cast to float
    P = V[flat]
    # Newell normals: twice the vector area of each cycle, robust when near-planar
    nvec = np.add.reduceat(cross_rows(P, P[succ]), start)
    areas = 0.5 * np.linalg.norm(nvec, axis=1)
    normals = nvec / (2.0 * np.maximum(areas, floor))[:, None]
    offsets = np.einsum("ij,ij->i", normals, P[start])
    height = np.einsum("ij,ij->i", P, normals[face]) - offsets[face]
    edges = P[succ] - P
    turns = np.einsum("ij,ij->i", cross_rows(edges, edges[succ]), normals[face])
    bad = np.vstack([
        areas < floor,
        np.maximum.reduceat(np.abs(height), start) > tol,
        np.minimum.reduceat(turns, start) < -rel_tol * scale**2,
    ])
    if bad.any():
        # the first bad face, by its first failed check
        j = int(np.argmax(bad.any(axis=0)))
        raise GeometryError((
            f"face {j} has area {areas[j]:.3g}",
            f"face {j} deviates from its plane beyond {tol:.3g}",
            f"face {j} is not a convex counterclockwise cycle",
        )[int(np.argmax(bad[:, j]))])

    slack = V @ normals.T - offsets  # (nv, m), <= 0 inside
    worst = float(slack.max())
    if worst > tol:
        j = int(np.argmax(slack.max(axis=0)))
        hint = ""
        if np.min(slack[:, j]) > -tol:
            hint = " (face cycle possibly clockwise)"
        raise GeometryError(f"vertex protrudes {worst:.3g} beyond face {j} plane{hint}")
    balance = areas @ normals
    if np.linalg.norm(balance) > rel_tol * areas.sum():
        raise GeometryError("face set does not close up (area-weighted normals != 0)")

    return ConvexPolyhedron(
        vertices=_frozen(V),
        rings=rings,
        normals=_frozen(normals),
        areas=_frozen(areas),
        offsets=_frozen(offsets),
    )


def lit_faces(normals, d) -> np.ndarray:
    """Mask of the faces with outward ``normals`` that a wave travelling
    along ``d`` illuminates: ``nu . d < 0``.  Grazing faces are unlit."""
    return normals @ d < 0.0


@dataclass(frozen=True)
class IntersectionResult:
    """Half-space intersection output.

    ``polyhedron`` lists faces in input-plane order, skipping vanished
    planes; ``plane_index[j]`` maps face ``j`` back to its input plane and
    ``vanished`` lists input planes whose facet is empty.
    """

    polyhedron: ConvexPolyhedron
    plane_index: tuple
    vanished: tuple


def halfspace_intersection(normals, offsets) -> IntersectionResult:
    """Intersect the half spaces ``{x : x . nu_j <= alpha_j}``.

    Uses the polar dual: the hull of the points ``nu_j / alpha_j`` has one
    facet per vertex of the primal body, and that vertex lies on exactly the
    planes whose dual points span the facet, so faces follow the hull's
    combinatorics rather than a distance tolerance.  :func:`unit_normals`
    checks the normals and :func:`dual_hull` the offsets: all offsets must
    be strictly positive (origin interior) and the normals must positively
    span space.

    Raises
    ------
    ValueError
        If the normals or offsets are malformed or not finite.
    GeometryError
        If some offset is non-positive or the intersection is not a
        bounded solid.
    """
    return dual_hull(unit_normals(normals), offsets).body()


_SHAPES = "need matching (k, 3) normals and (k,) offsets"


def unit_normals(normals) -> np.ndarray:
    """The rows of ``normals`` rescaled to unit length, once checked to be
    ``(k, 3)``, finite, at least four, unit to 1e-6 and spanning 3-space:
    what a half-space intersection asks of its normals alone."""
    N = np.asarray(normals, dtype=float)
    if N.ndim != 2 or N.shape[1] != 3:
        raise ValueError(_SHAPES)
    if not np.isfinite(N).all():
        raise ValueError("normals must be finite")
    if len(N) < 4:
        raise GeometryError("fewer than 4 half spaces cannot bound a solid")
    norms = np.linalg.norm(N, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("normals must be unit vectors")
    N = N / norms[:, None]
    if np.linalg.matrix_rank(N, tol=1e-9) < 3:
        raise GeometryError("normals do not span 3-space")
    return N


@dataclass(frozen=True)
class DualHull:
    """The polar dual of the half spaces ``x . nu_j <= alpha_j``: qhull's
    triangles of the points ``nu_j / alpha_j``, for the unit ``normals``.

    ``simplices[t]`` lists the planes of triangle ``t``, ``neighbors[t, c]``
    the triangle across the edge opposite its corner ``c`` and
    ``vertices[t]`` the primal vertex it maps to, which lies on exactly
    those planes.  Triangles qhull cut from one merged dual facet carry
    that facet's equation, so they map to bit-equal vertices.
    """

    normals: np.ndarray
    simplices: np.ndarray
    neighbors: np.ndarray
    vertices: np.ndarray

    def body(self) -> IntersectionResult:
        """The intersection as a validated polyhedron, each face ring
        ordered by angle about its centre."""
        N = self.normals
        # the triangles of one merged dual facet give one vertex
        verts, merged_into = _distinct_rows(self.vertices)
        # a primal vertex lies on exactly the planes of its dual facets
        incident = np.zeros((len(N), len(verts)), dtype=bool)
        incident[self.simplices, merged_into[:, None]] = True
        plane, vert = np.nonzero(incident)  # plane by plane, vertices ascending
        count = np.bincount(plane, minlength=len(N))
        keep = count[plane] >= 3
        plane, vert = plane[keep], vert[keep]
        kept = np.flatnonzero(count >= 3)
        sizes = count[kept]
        ring = verts[vert]
        center = np.add.reduceat(ring, np.cumsum(sizes) - sizes) / sizes[:, None]
        # order each ring by its angle about the centre in an in-plane basis
        e1 = cross_rows(N[kept], np.eye(3)[np.argmin(np.abs(N[kept]), axis=1)])
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = cross_rows(N[kept], e1)
        seg = np.repeat(np.arange(len(kept)), sizes)
        rel = ring - center[seg]
        ang = np.arctan2(np.einsum("ij,ij->i", rel, e2[seg]), np.einsum("ij,ij->i", rel, e1[seg]))
        # keep and renumber the vertices that the kept rings use
        ids = vert[np.lexsort((ang, plane))]
        used = np.bincount(ids, minlength=len(verts)) > 0
        poly = _polyhedron(verts[used], (np.cumsum(used) - 1)[ids], sizes, INTERSECTION_REL_TOL)
        vanished = tuple(np.flatnonzero(count < 3).tolist())
        return IntersectionResult(poly, plane_index=tuple(kept.tolist()), vanished=vanished)


def dual_hull(normals: np.ndarray, offsets) -> DualHull:
    """The dual hull of the half spaces with the given unit ``normals``
    (as :func:`unit_normals` returns them, spanning 3-space).

    Raises
    ------
    ValueError
        If the offsets are malformed or not finite.
    GeometryError
        If some offset is non-positive or the intersection is not a
        bounded solid.
    """
    a = np.asarray(offsets, dtype=float)
    if a.shape != (len(normals),):
        raise ValueError(_SHAPES)
    if not np.isfinite(a).all():
        raise ValueError("offsets must be finite")
    if (a <= 0.0).any():
        raise GeometryError("all offsets must be strictly positive")
    dual = normals / a[:, None]
    try:
        hull = ConvexHull(dual)
    except QhullError as exc:
        raise GeometryError("degenerate dual hull; normals do not positively span") from exc
    eqs = hull.equations  # rows [n, b] with n.x + b <= 0 inside
    dual_scale = float(np.abs(dual).max())
    if (eqs[:, 3] > -1e-12 * dual_scale).any():
        raise GeometryError("normals do not positively span 3-space")
    # Each dual facet plane n.x = -b maps to the primal vertex n / (-b).
    prim = -eqs[:, :3] / eqs[:, 3:4]
    return DualHull(normals, hull.simplices, hull.neighbors, prim)


def _distinct_rows(x: np.ndarray):
    """The distinct rows of ``x``, sorted, and each row's index among them:
    ``np.unique(x, axis=0, return_inverse=True)`` from one ``lexsort``."""
    order = np.lexsort(x.T[::-1])
    x = x[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = np.any(x[1:] != x[:-1], axis=1)
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return x[first], inverse


def save_obstacle(poly: ConvexPolyhedron, path):
    """Write the ``v x y z`` / ``f i1 i2 ...`` obstacle format; return ``path``."""
    lines = []
    for v in poly.vertices:
        lines.append("v " + " ".join(f"{c:.17g}" for c in v))
    for f in poly.faces:
        lines.append("f " + " ".join(str(i + 1) for i in f))
    return write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str):
    """Write ``text`` to ``path`` as ``open(path, "w")`` would (same inode,
    permissions and symlink target; a new file gets ``0o666`` less the
    umask), but over the old bytes, cutting the file at the new end after
    writing instead of truncating it to zero first.  A truncate to zero
    makes ext4 (``auto_da_alloc``) and XFS start writeback on close, which
    costs about ten times the write of a small file.  Returns ``path``."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()
    return path


def load_obstacle(path) -> ConvexPolyhedron:
    """Parse the obstacle text format (1-based face indices, ``#`` comments).
    Every ``ValueError`` names ``path``."""
    vertices = []
    faces = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "v" and len(parts) == 4:
                    vertices.append([float(x) for x in parts[1:]])
                    if not np.all(np.isfinite(vertices[-1])):
                        raise ValueError("vertex coordinates must be finite")
                elif parts[0] == "f" and len(parts) >= 4:
                    faces.append([int(x) - 1 for x in parts[1:]])
                else:
                    raise ValueError("expected 'v x y z' or 'f i1 i2 ...'")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return build_polyhedron(np.array(vertices), faces)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
