"""Convex polyhedra: construction, validation, illumination bookkeeping and
half-space intersection.

A polyhedron is stored as an explicit vertex/face structure together with
outward unit normals, face areas, plane offsets and perimeters.  Face cycles
are ordered counterclockwise when viewed from outside, so the right-hand
rule yields the outward normal.  The half-space intersection uses the polar
dual transform (convex hull of ``nu_j / alpha_j``), which requires the
origin strictly inside the body; reconstructions are translation-free, so
this costs no generality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

# Planarity/convexity tolerance, scaled by the bounding-box diagonal.
REL_TOL = 1e-9
# Faces below this absolute area are rejected as degenerate.
MIN_FACE_AREA = 1e-12


class GeometryError(ValueError):
    """Base class for polyhedron construction and intersection failures."""


class NonPlanarFace(GeometryError):
    """A face's vertices do not lie on a common plane."""


class NotConvex(GeometryError):
    """A vertex lies strictly outside some face plane."""


class DegenerateFace(GeometryError):
    """A face has (near-)zero area or fewer than three distinct vertices."""


class Unbounded(GeometryError):
    """Half-space normals do not positively span space; intersection unbounded."""


class EmptyInterior(GeometryError):
    """Some half-space offset is non-positive, so the origin is not interior."""


def unit_vector(v, name="vector"):
    """Return ``v`` normalized to unit length, rejecting near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ValueError(f"{name} has near-zero length")
    return v / n


@dataclass(frozen=True)
class ConvexPolyhedron:
    """Closed convex polyhedron with per-face geometry.

    Attributes
    ----------
    vertices : (nv, 3) ndarray
        Vertex coordinates.
    faces : tuple of tuple of int
        Per-face vertex cycles, counterclockwise seen from outside.
    normals : (m, 3) ndarray
        Outward unit normals.
    areas : (m,) ndarray
        Face areas.
    offsets : (m,) ndarray
        Signed plane offsets; ``normals[j] @ x == offsets[j]`` on face j.
    perimeters : (m,) ndarray
        Face boundary lengths.
    """

    vertices: np.ndarray
    faces: tuple
    normals: np.ndarray
    areas: np.ndarray
    offsets: np.ndarray
    perimeters: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def diameter(self) -> float:
        """Bounding-box diagonal (tolerance scale)."""
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    @cached_property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def volume(self) -> float:
        """Volume via the divergence theorem, ``sum_j l_j |C_j| / 3``."""
        return float(self.offsets @ self.areas) / 3.0

    @cached_property
    def centroid(self) -> np.ndarray:
        """Volume centroid (center of gravity of the solid)."""
        # fan triangles (p0, a, b) of every face
        fans = [(f[0], f[m], f[m + 1]) for f in self.faces for m in range(1, len(f) - 1)]
        face_of = np.repeat(np.arange(self.num_faces), [len(f) - 2 for f in self.faces])
        p0, a, b = np.moveaxis(self.vertices[np.array(fans)], 1, 0)
        tri_area = 0.5 * np.linalg.norm(np.cross(a - p0, b - p0), axis=1)
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
            faces=self.faces,
            normals=self.normals,
            areas=self.areas,
            offsets=_frozen(self.offsets + self.normals @ t),
            perimeters=self.perimeters,
        )

    def scaled(self, s: float) -> "ConvexPolyhedron":
        """The same polyhedron scaled by ``s > 0`` about the origin."""
        return ConvexPolyhedron(
            vertices=_frozen(self.vertices * s),
            faces=self.faces,
            normals=self.normals,
            areas=_frozen(self.areas * s**2),
            offsets=_frozen(self.offsets * s),
            perimeters=_frozen(self.perimeters * s),
        )


@dataclass(frozen=True)
class AdmissibilityParams:
    """A priori constants bounding size, view angles, face areas/perimeters
    and the significance of a face with respect to an incident direction."""

    h0: float
    h1: float
    h2: float
    h3: float
    h4: float
    h5: float

    def __post_init__(self):
        for name in ("h0", "h1", "h2", "h3", "h4", "h5"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.h0 > self.h1:
            raise ValueError("volume bounds require h0 <= h1")


@dataclass(frozen=True)
class FrontView:
    """Partition of face indices into illuminated (front) and shadowed
    (back) sides for one incident direction, with the significant subset."""

    front: np.ndarray
    back: np.ndarray
    significant: np.ndarray


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-condition results of :func:`check_admissibility`."""

    volume: float
    size_ok: bool
    min_front_pair_cross: tuple  # one value per direction, or None
    view_ok: bool
    min_area: float
    area_ok: bool
    max_perimeter: float
    perimeter_ok: bool
    significant_faces: tuple  # per direction, tuple of face indices

    @property
    def all_ok(self) -> bool:
        return self.size_ok and self.view_ok and self.area_ok and self.perimeter_ok

    def summary(self) -> str:
        lines = [
            f"volume {self.volume:.6g}: {'pass' if self.size_ok else 'FAIL'}",
            f"front-pair cross products >= h2: {'pass' if self.view_ok else 'FAIL'}",
            f"min face area {self.min_area:.6g}: {'pass' if self.area_ok else 'FAIL'}",
            f"max face perimeter {self.max_perimeter:.6g}: "
            f"{'pass' if self.perimeter_ok else 'FAIL'}",
        ]
        for i, sig in enumerate(self.significant_faces):
            lines.append(f"direction {i}: significant faces {list(sig)}")
        lines.append("admissible" if self.all_ok else "NOT admissible")
        return "\n".join(lines)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _newell_normal(pts: np.ndarray) -> np.ndarray:
    """Twice the vector area of a closed polygon (robust for near-planar)."""
    rolled = np.roll(pts, -1, axis=0)
    return np.cross(pts, rolled).sum(axis=0)


def build_polyhedron(vertices, faces, rel_tol: float = REL_TOL) -> ConvexPolyhedron:
    """Assemble and validate a convex polyhedron from vertices and face cycles.

    Parameters
    ----------
    vertices : (nv, 3) array_like
    faces : sequence of index cycles
        Each cycle lists vertex indices counterclockwise seen from outside.
    rel_tol : float
        Planarity/convexity tolerance, scaled by the diameter.  The strict
        default suits exact synthetic inputs; reconstruction from computed
        plane intersections passes a looser value.

    Returns
    -------
    ConvexPolyhedron

    Raises
    ------
    NonPlanarFace, NotConvex, DegenerateFace
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[1] != 3:
        raise ValueError("vertices must be an (n, 3) array")
    if len(V) < 4:
        raise ValueError("a polyhedron needs at least 4 vertices")
    if len(faces) < 4:
        raise ValueError("a polyhedron needs at least 4 faces")
    faces_t = tuple(tuple(int(i) for i in f) for f in faces)
    for f in faces_t:
        if len(f) < 3 or len(set(f)) != len(f):
            raise DegenerateFace(f"face {f} needs >= 3 distinct vertices")
        if min(f) < 0 or max(f) >= len(V):
            raise ValueError(f"face {f} references a missing vertex")

    span = V.max(axis=0) - V.min(axis=0)
    scale = float(np.linalg.norm(span))
    if scale < 1e-14:
        raise ValueError("all vertices coincide")
    tol = rel_tol * scale

    normals = np.empty((len(faces_t), 3))
    areas = np.empty(len(faces_t))
    offsets = np.empty(len(faces_t))
    perims = np.empty(len(faces_t))
    for j, f in enumerate(faces_t):
        pts = V[list(f)]
        nvec = _newell_normal(pts)
        area = 0.5 * np.linalg.norm(nvec)
        if area < MIN_FACE_AREA:
            raise DegenerateFace(f"face {j} has area {area:.3g}")
        nu = nvec / (2.0 * area)
        off = float(nu @ pts[0])
        if np.max(np.abs(pts @ nu - off)) > tol:
            raise NonPlanarFace(f"face {j} deviates from its plane beyond {tol:.3g}")
        edges = np.roll(pts, -1, axis=0) - pts
        turns = np.cross(edges, np.roll(edges, -1, axis=0)) @ nu
        if np.min(turns) < -rel_tol * scale**2:
            raise NotConvex(f"face {j} is not a convex counterclockwise cycle")
        normals[j] = nu
        areas[j] = area
        offsets[j] = off
        perims[j] = np.linalg.norm(edges, axis=1).sum()

    slack = V @ normals.T - offsets  # (nv, m), <= 0 inside
    worst = float(slack.max())
    if worst > tol:
        j = int(np.argmax(slack.max(axis=0)))
        hint = ""
        if np.min(slack[:, j]) > -tol:
            hint = " (face cycle possibly clockwise)"
        raise NotConvex(
            f"vertex protrudes {worst:.3g} beyond face {j} plane{hint}"
        )
    balance = areas @ normals
    if np.linalg.norm(balance) > rel_tol * areas.sum():
        raise NotConvex("face set does not close up (area-weighted normals != 0)")

    return ConvexPolyhedron(
        vertices=_frozen(V),
        faces=faces_t,
        normals=_frozen(normals),
        areas=_frozen(areas),
        offsets=_frozen(offsets),
        perimeters=_frozen(perims),
    )


def classify_faces(poly: ConvexPolyhedron, d, h5: float = 0.0) -> FrontView:
    """Split faces into front (illuminated, ``nu . d < 0``) and back views.

    Grazing faces (``nu . d == 0``) belong to the back view.  A front face is
    *significant* when ``|d . nu| >= h5``.
    """
    d = unit_vector(d, "incident direction")
    dots = poly.normals @ d
    front = np.flatnonzero(dots < 0.0)
    back = np.flatnonzero(dots >= 0.0)
    significant = front[np.abs(dots[front]) >= h5]
    return FrontView(front=front, back=back, significant=significant)


def check_admissibility(
    poly: ConvexPolyhedron, params: AdmissibilityParams, directions
) -> AdmissibilityReport:
    """Report which admissibility conditions the obstacle satisfies.

    Checks the volume window, the pairwise non-parallelism of front-face
    normals for every supplied incident direction, the minimum face area,
    the maximum face perimeter, and lists the significant faces per
    direction.  Report-only; nothing raises on failure.
    """
    vol = poly.volume
    size_ok = params.h0 <= vol <= params.h1

    min_cross = []
    view_ok = True
    significant = []
    for d in directions:
        view = classify_faces(poly, d, params.h5)
        significant.append(tuple(int(i) for i in view.significant))
        if len(view.front) < 2:
            min_cross.append(None)
            continue
        nus = poly.normals[view.front]
        a, b = np.triu_indices(len(nus), 1)
        best = float(np.linalg.norm(np.cross(nus[a], nus[b]), axis=1).min())
        min_cross.append(best)
        if best < params.h2:
            view_ok = False

    min_area = float(poly.areas.min())
    max_perim = float(poly.perimeters.max())
    return AdmissibilityReport(
        volume=vol,
        size_ok=size_ok,
        min_front_pair_cross=tuple(min_cross),
        view_ok=view_ok,
        min_area=min_area,
        area_ok=min_area >= params.h3,
        max_perimeter=max_perim,
        perimeter_ok=max_perim <= params.h4,
        significant_faces=tuple(significant),
    )


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


def _merge_close_points(pts: np.ndarray, tol: float):
    """Average together points closer than ``tol`` (greedy chaining).

    Returns the merged points and, per input point, the index of the
    merged point it went into.
    """
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    groups = []
    assigned = np.full(len(pts), -1)
    for i in order:
        placed = False
        for g, members in enumerate(groups):
            if np.linalg.norm(pts[i] - pts[members[0]]) <= tol:
                members.append(i)
                assigned[i] = g
                placed = True
                break
        if not placed:
            assigned[i] = len(groups)
            groups.append([i])
    return np.array([pts[m].mean(axis=0) for m in groups]), assigned


def halfspace_intersection(normals, offsets) -> IntersectionResult:
    """Intersect the half spaces ``{x : x . nu_j <= alpha_j}``.

    Uses the polar dual: the hull of the points ``nu_j / alpha_j`` has one
    facet per vertex of the primal body, and that vertex lies on exactly the
    planes whose dual points span the facet, so faces follow the hull's
    combinatorics rather than a distance tolerance.  All offsets must be
    strictly positive (origin interior) and the normals must positively
    span space.

    Raises
    ------
    EmptyInterior
        If some offset is non-positive.
    Unbounded
        If the intersection is not a bounded solid.
    """
    N = np.asarray(normals, dtype=float)
    a = np.asarray(offsets, dtype=float)
    if N.ndim != 2 or N.shape[1] != 3 or len(N) != len(a):
        raise ValueError("need matching (k, 3) normals and (k,) offsets")
    if len(N) < 4:
        raise Unbounded("fewer than 4 half spaces cannot bound a solid")
    norms = np.linalg.norm(N, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("normals must be unit vectors")
    N = N / norms[:, None]
    if np.any(a <= 0.0):
        raise EmptyInterior("all offsets must be strictly positive")
    if np.linalg.matrix_rank(N, tol=1e-9) < 3:
        raise Unbounded("normals do not span 3-space")

    dual = N / a[:, None]
    try:
        hull = ConvexHull(dual)
    except QhullError as exc:
        raise Unbounded("degenerate dual hull; normals do not positively span") from exc
    eqs = hull.equations  # rows [n, b] with n.x + b <= 0 inside
    dual_scale = float(np.abs(dual).max())
    if np.any(eqs[:, 3] > -1e-12 * dual_scale):
        raise Unbounded("normals do not positively span 3-space")

    # Each dual facet plane n.x = -b maps to the primal vertex n / (-b).
    prim = -eqs[:, :3] / eqs[:, 3:4]
    scale = max(1.0, float(np.abs(prim).max()))
    # triangles qhull cut from one coplanar dual facet share its equation,
    # so they give the same vertex; distinct vertices may come very close
    verts, merged_into = _merge_close_points(prim, tol=1e-12 * scale)
    # a primal vertex lies on exactly the planes of its dual facets
    incident = np.zeros((len(verts), len(N)), dtype=bool)
    incident[merged_into[:, None], hull.simplices] = True

    faces = []
    plane_index = []
    vanished = []
    for j in range(len(N)):
        on = np.flatnonzero(incident[:, j])
        if len(on) < 3:
            vanished.append(j)
            continue
        ring = verts[on]
        center = ring.mean(axis=0)
        e1 = unit_vector(np.cross(N[j], _any_perpendicular(N[j])))
        e2 = np.cross(N[j], e1)
        ang = np.arctan2((ring - center) @ e2, (ring - center) @ e1)
        faces.append(tuple(on[np.argsort(ang)]))
        plane_index.append(j)

    used = sorted({i for f in faces for i in f})
    remap = {old: new for new, old in enumerate(used)}
    faces = tuple(tuple(remap[i] for i in f) for f in faces)
    # computed plane intersections carry qhull-level noise; validate loosely
    poly = build_polyhedron(verts[used], faces, rel_tol=1e-7)
    return IntersectionResult(
        polyhedron=poly, plane_index=tuple(plane_index), vanished=tuple(vanished)
    )


def _any_perpendicular(v: np.ndarray) -> np.ndarray:
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    return axis


def save_obstacle(poly: ConvexPolyhedron, path) -> None:
    """Write the ``v x y z`` / ``f i1 i2 ...`` obstacle text format."""
    lines = []
    for v in poly.vertices:
        lines.append("v " + " ".join(f"{c:.17g}" for c in v))
    for f in poly.faces:
        lines.append("f " + " ".join(str(i + 1) for i in f))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_obstacle(path, rel_tol: float = REL_TOL) -> ConvexPolyhedron:
    """Parse the obstacle text format (1-based face indices, ``#`` comments).

    ``rel_tol`` is forwarded to :func:`build_polyhedron`; pass a looser
    value when reading reconstructed (rather than exact) geometry.
    """
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
                elif parts[0] == "f" and len(parts) >= 4:
                    faces.append([int(x) - 1 for x in parts[1:]])
                else:
                    raise ValueError("expected 'v x y z' or 'f i1 i2 ...'")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return build_polyhedron(np.array(vertices), faces, rel_tol=rel_tol)
