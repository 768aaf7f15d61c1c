import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull, Delaunay

from conftest import (
    TETRA_FACE_AREA,
    TETRA_OFFSET,
    TETRA_TRUE_NORMALS,
    TETRA_VOLUME,
    make_cube,
    write_clockwise_obstacle,
)
from polyscat.geometry import (
    GeometryError,
    _distinct_rows,
    build_polyhedron,
    cross_rows,
    halfspace_intersection,
    load_obstacle,
    save_obstacle,
    write_text,
)

DATA = Path(__file__).parent / "data"


def test_tetrahedron_build(tetra):
    assert_allclose(tetra.normals, TETRA_TRUE_NORMALS, atol=1e-8)
    assert_allclose(tetra.areas, TETRA_FACE_AREA, rtol=1e-12)
    assert_allclose(tetra.offsets, TETRA_OFFSET, rtol=1e-12)
    assert_allclose(tetra.volume, TETRA_VOLUME, rtol=1e-12)
    assert_allclose(tetra.centroid, 0.0, atol=1e-12)


def test_cube_build():
    cube = make_cube(centered=False)
    assert sorted(np.round(cube.offsets, 12)) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert_allclose(cube.areas, 1.0, rtol=1e-12)
    assert_allclose(np.abs(cube.normals).sum(axis=1), 1.0, atol=1e-12)
    assert_allclose(cube.volume, 1.0, rtol=1e-12)
    assert_allclose(cube.centroid, 0.5, rtol=1e-12)


def test_unit_normals_and_balance(tetra, cube, prism):
    for poly in (tetra, cube, prism):
        assert_allclose(np.linalg.norm(poly.normals, axis=1), 1.0, atol=1e-12)
        balance = poly.areas @ poly.normals
        assert np.linalg.norm(balance) <= 1e-9 * poly.areas.sum()


def test_nonplanar_face_rejected():
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0.2], [0, 1, 0], [0.5, 0.5, -1.0]], float
    )
    faces = [(0, 3, 2, 1), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    with pytest.raises(GeometryError, match=r"^face 0 deviates from its plane beyond \S+$"):
        build_polyhedron(v, faces)


def test_nonconvex_rejected():
    # octahedron with the +z apex pushed inside the hull (dented top)
    v = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -0.5], [0, 0, -1]],
        float,
    )
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    message = r"^vertex protrudes \S+ beyond face \d+ plane$"
    with pytest.raises(GeometryError, match=message):
        build_polyhedron(v, faces)


def test_degenerate_face_rejected():
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (2, 4, 3), (0, 4, 2)]
    with pytest.raises(GeometryError, match=r"^face 0 has area 0$"):
        build_polyhedron(v, faces)


# malformed inputs to build_polyhedron, made from the tetrahedron by
# (vertices, faces) -> (vertices, faces), with the error and message each raises
_MALFORMED_BUILDS = {
    "flat-vertices": (
        lambda v, f: (v[:, :2], f), ValueError, r"vertices must be an \(n, 3\) array"
    ),
    "three-vertices": (
        lambda v, f: (v[:3], f), ValueError, "a polyhedron needs at least 4 vertices"
    ),
    "three-faces": (
        lambda v, f: (v, f[:3]), ValueError, "a polyhedron needs at least 4 faces"
    ),
    "repeated-vertex": (
        lambda v, f: (v, [f[0], (0, 3, 3), *f[2:]]),
        GeometryError,
        r"face \(0, 3, 3\) needs >= 3 distinct vertices",
    ),
    "two-vertices": (
        lambda v, f: (v, [f[0], (0, 3), *f[2:]]),
        GeometryError,
        r"face \(0, 3\) needs >= 3 distinct vertices",
    ),
    "missing-vertex": (
        lambda v, f: (v, [f[0], (0, 3, 4), *f[2:]]),
        ValueError,
        r"face \(0, 3, 4\) references a missing vertex",
    ),
    "negative-vertex": (
        lambda v, f: (v, [f[0], (0, 3, -1), *f[2:]]),
        ValueError,
        r"face \(0, 3, -1\) references a missing vertex",
    ),
    "coincident-vertices": (
        lambda v, f: (np.ones((4, 3)), f), ValueError, "all vertices coincide"
    ),
    # every vertex lies inside every plane, but one face is listed twice
    "open-face-set": (
        lambda v, f: (v, [*f[:3], f[2]]),
        GeometryError,
        r"face set does not close up \(area-weighted normals != 0\)",
    ),
    "clockwise-face": (
        lambda v, f: (v, [*f[:2], f[2][::-1], f[3]]),
        GeometryError,
        r"vertex protrudes \S+ beyond face 2 plane \(face cycle possibly clockwise\)",
    ),
}


@pytest.mark.parametrize("case", _MALFORMED_BUILDS)
def test_build_rejects_malformed_input(tetra, case):
    change, error, message = _MALFORMED_BUILDS[case]
    vertices, faces = change(np.array(tetra.vertices), list(tetra.faces))
    with pytest.raises(error, match=f"^{message}$") as info:
        build_polyhedron(vertices, faces)
    assert type(info.value) is error


def test_non_finite_vertices_rejected(tetra):
    for bad in (np.nan, np.inf):
        v = np.array(tetra.vertices)
        v[2, 1] = bad
        with pytest.raises(ValueError, match="^vertices must be finite$"):
            build_polyhedron(v, tetra.faces)


# vertex cycles (indices past the tetrahedron's four vertices) of faces that
# fail the per-face checks, with the error and message each must raise
_BAD_FACES = {
    "plane": ((4, 5, 6, 7), GeometryError, "deviates from its plane"),
    "area": ((8, 9, 10), GeometryError, "has area"),
    "turn": ((11, 12, 13, 14, 15), GeometryError, "is not a convex counterclockwise cycle"),
    # non-planar and not convex: the plane check comes first
    "plane_and_turn": ((16, 17, 18, 19, 20), GeometryError, "deviates from its plane"),
}
_BAD_VERTICES = [
    [0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0],  # a lifted corner
    [0, 0, 0], [1, 0, 0], [2, 0, 0],  # collinear
    [0, 0, 0], [2, 0, 0], [2, 2, 0], [1, 0.5, 0], [0, 2, 0],  # a reflex vertex
    [0, 0, 0], [2, 0, 0], [2, 2, 0], [1, 0.5, 0.3], [0, 2, 0],  # both
]


@pytest.mark.parametrize(
    "order",
    [
        ("plane", "area", "turn"),
        ("area", "turn", "plane"),
        ("turn", "plane", "area"),
        ("plane_and_turn", "turn", "area"),
    ],
    ids="-".join,
)
def test_first_bad_face_is_reported(tetra, order):
    # every face is checked for area, then plane, then turn, and the
    # first face that fails any check is the one reported
    v = np.vstack([tetra.vertices, _BAD_VERTICES])
    bad = [_BAD_FACES[kind][0] for kind in order]
    faces = [tetra.faces[0], *bad, *tetra.faces[1:]]
    _, error, message = _BAD_FACES[order[0]]
    with pytest.raises(error, match=f"^face 1 {message}"):
        build_polyhedron(v, faces)


def test_halfspace_cube():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    result = halfspace_intersection(normals, np.full(6, 0.5))
    assert result.vanished == ()
    assert_allclose(result.polyhedron.volume, 1.0, rtol=1e-9)


def test_halfspace_four_planes_meet_at_a_vertex():
    # qhull cuts each square facet of the dual into two triangles; both
    # carry the facet's equation, so they must give one primal vertex
    corners = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    r3 = np.sqrt(3.0)
    octahedron = halfspace_intersection(corners / r3, np.full(8, 1.0 / r3))
    assert len(octahedron.polyhedron.vertices) == 6
    assert [len(f) for f in octahedron.polyhedron.faces] == [3] * 8
    assert_allclose(octahedron.polyhedron.volume, 4.0 / 3.0, rtol=1e-12)

    r2 = np.sqrt(2.0)
    slants = np.array([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]) / r2
    normals = np.vstack([[0.0, 0.0, -1.0], slants])
    pyramid = halfspace_intersection(normals, [0.5] + [0.5 / r2] * 4).polyhedron
    assert len(pyramid.vertices) == 5
    apex = np.flatnonzero(pyramid.vertices[:, 2] > 0.0)
    assert len(apex) == 1
    assert_allclose(pyramid.vertices[apex[0]], [0.0, 0.0, 0.5], atol=1e-15)


def test_halfspace_tetrahedron(tetra):
    result = halfspace_intersection(TETRA_TRUE_NORMALS, np.full(4, TETRA_OFFSET))
    rebuilt = result.polyhedron
    for v in tetra.vertices:
        assert np.linalg.norm(rebuilt.vertices - v, axis=1).min() < 1e-6


def test_halfspace_vanished_plane(tetra):
    normals = np.vstack([tetra.normals, [0.0, 0.0, 1.0]])
    offsets = np.append(tetra.offsets, 10.0)
    result = halfspace_intersection(normals, offsets)
    assert result.vanished == (4,)
    assert result.plane_index == (0, 1, 2, 3)
    assert_allclose(result.polyhedron.volume, TETRA_VOLUME, rtol=1e-9)


def test_halfspace_errors(tetra):
    with pytest.raises(GeometryError, match="^all offsets must be strictly positive$"):
        halfspace_intersection(tetra.normals, [0.2, 0.2, 0.2, -0.1])
    slab = np.array([[0, 0, 1.0], [0, 0, -1.0], [0, 1, 0], [0, -1, 0]])
    with pytest.raises(GeometryError, match="^normals do not span 3-space$"):
        halfspace_intersection(slab, np.ones(4))
    # the fourth plane passes through the corner where the other three meet,
    # so the dual points lie on the plane x + y + z = 1 and qhull builds no hull
    corner = np.vstack([np.eye(3), np.ones(3) / np.sqrt(3.0)])
    degenerate = "^degenerate dual hull; normals do not positively span$"
    with pytest.raises(GeometryError, match=degenerate):
        halfspace_intersection(corner, [1.0, 1.0, 1.0, np.sqrt(3.0)])
    # non-finite input is a plain ValueError, which a fit does not take for
    # a rejected trial step
    for bad in (np.nan, np.inf, -np.inf):
        offsets = np.array(tetra.offsets)
        offsets[1] = bad
        with pytest.raises(ValueError, match="^offsets must be finite$") as info:
            halfspace_intersection(tetra.normals, offsets)
        assert not isinstance(info.value, GeometryError)
        normals = np.array(tetra.normals)
        normals[2, 0] = bad
        with pytest.raises(ValueError, match="^normals must be finite$") as info:
            halfspace_intersection(normals, tetra.offsets)
        assert not isinstance(info.value, GeometryError)


def test_halfspace_rejects_malformed_input(tetra):
    shapes = r"^need matching \(k, 3\) normals and \(k,\) offsets$"
    with pytest.raises(ValueError, match=shapes):
        halfspace_intersection(tetra.normals, tetra.offsets[:3])
    with pytest.raises(ValueError, match=shapes):
        halfspace_intersection(tetra.normals[:, :2], tetra.offsets)
    with pytest.raises(GeometryError, match="^fewer than 4 half spaces cannot bound a solid$"):
        halfspace_intersection(tetra.normals[:3], tetra.offsets[:3])
    with pytest.raises(ValueError, match="^normals must be unit vectors$") as info:
        halfspace_intersection(2.0 * tetra.normals, tetra.offsets)
    assert not isinstance(info.value, GeometryError)


def _random_polytope(rng, n=12):
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.5, 1.5, size=(n, 1))
    hull = ConvexHull(pts)
    center = pts[hull.vertices].mean(axis=0)
    pts = pts - center
    tris = hull.simplices.copy()
    for t in tris:
        nvec = np.cross(pts[t[1]] - pts[t[0]], pts[t[2]] - pts[t[0]])
        if nvec @ pts[t[0]] < 0:
            t[1], t[2] = t[2], t[1]
    used = sorted(set(hull.vertices))
    remap = {old: new for new, old in enumerate(used)}
    faces = [tuple(remap[i] for i in t) for t in tris]
    return build_polyhedron(pts[used], faces)


def test_halfspace_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        poly = _random_polytope(rng)
        result = halfspace_intersection(poly.normals, poly.offsets)
        rebuilt = result.polyhedron
        assert len(result.vanished) == 0
        scale = np.linalg.norm(poly.vertices.max(axis=0) - poly.vertices.min(axis=0))
        for v in poly.vertices:
            assert np.linalg.norm(rebuilt.vertices - v, axis=1).min() < 1e-9 * scale
        # normals and offsets round-trip in input-plane order
        for face_j, plane_j in enumerate(result.plane_index):
            assert np.allclose(
                rebuilt.normals[face_j], poly.normals[plane_j], atol=1e-9
            )
            assert abs(rebuilt.offsets[face_j] - poly.offsets[plane_j]) < 1e-9 * scale


def test_halfspace_faces_near_degenerate_vertices():
    # more than three planes meet at most vertices of a hull of random
    # points; moving the planes by ~1e-9 splits each such vertex into a
    # cluster of close ones.  Each face must list exactly the vertices its
    # plane passes through, however close they come to other planes
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = rng.standard_normal((14, 3))
        hull = ConvexHull(pts)
        normals = hull.equations[:, :3]
        offsets = -hull.equations[:, 3] - normals @ pts.mean(axis=0)
        offsets = offsets + 1e-9 * rng.standard_normal(len(offsets))
        result = halfspace_intersection(normals, offsets)
        poly = result.polyhedron
        for face, plane in zip(poly.faces, result.plane_index):
            gap = poly.vertices[list(face)] @ normals[plane] - offsets[plane]
            assert np.abs(gap).max() < 1e-12
        assert_allclose(poly.volume, ConvexHull(poly.vertices).volume, rtol=1e-12)


def test_halfspace_matches_frozen_bodies():
    # five seeded bodies (exact, jittered and moved-apart hull planes, and
    # random planes, some of which vanish) with the output of an earlier
    # per-face implementation; each cycle's start vertex and the vertex
    # numbering reach the report files, so they must not change
    bodies = json.loads((DATA / "intersection_bodies.json").read_text())
    assert len(bodies) == 5
    for body in bodies:
        result = halfspace_intersection(body["normals"], body["offsets"])
        assert result.polyhedron.faces == tuple(map(tuple, body["faces"]))
        assert result.plane_index == tuple(body["plane_index"])
        assert result.vanished == tuple(body["vanished"])
        assert np.array_equal(result.polyhedron.vertices, body["vertices"])


def test_cross_rows_is_bit_equal_to_np_cross():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((120, 3))
    b = rng.standard_normal((120, 3))
    b[:20] = a[:20] * rng.uniform(0.5, 2.0, (20, 1))  # parallel
    b[20:40] = -a[20:40] * rng.uniform(0.5, 2.0, (20, 1))  # antiparallel
    b[40:50] = a[40:50]
    b[50:70] = np.eye(3)[rng.integers(0, 3, 20)]  # the ring basis's axes
    a[70:80, rng.integers(0, 3)] = 0.0
    a[80:90, rng.integers(0, 3)] = -0.0
    got = cross_rows(a, b)
    assert got.shape == (120, 3)
    assert got.tobytes() == np.cross(a, b).tobytes()  # signed zeros included


def test_distinct_rows_against_np_unique():
    # exact repeats, with exact zeros in some columns
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 16, 17, 40, 120):
        base = rng.standard_normal((max(n // 3, 1), 3))
        base[rng.uniform(size=base.shape) < 0.3] = 0.0
        rows = base[rng.integers(0, len(base), n)]
        for zero in (0.0, -0.0):
            rows = np.where(rows == 0.0, zero, rows)
            verts, inverse = _distinct_rows(rows)
            ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
            assert verts.tobytes() == ref.tobytes()
            assert np.array_equal(inverse, ref_inverse)
        # 0.0 and -0.0 are one value to both, but np.unique's quicksort may
        # keep either as a mixed group's representative and the sort keeps
        # the first row, so only the canonical values agree
        mixed = np.where((rows == 0.0) & (rng.uniform(size=rows.shape) < 0.5), 0.0, rows)
        verts, inverse = _distinct_rows(mixed)
        ref, ref_inverse = np.unique(mixed, axis=0, return_inverse=True)
        assert (verts + 0.0).tobytes() == (ref + 0.0).tobytes()
        assert np.array_equal(inverse, ref_inverse)


def test_centroid_against_delaunay_oracle():
    # planes of a Gaussian hull moved apart give faces of 4 and more
    # vertices; the body is then moved well off the origin
    rng = np.random.default_rng(23)
    for _ in range(5):
        pts = rng.standard_normal((14, 3))
        eqs = ConvexHull(pts).equations
        offsets = -eqs[:, 3] - eqs[:, :3] @ pts.mean(axis=0)
        offsets = offsets + 0.05 * rng.uniform(size=len(offsets))
        shift = rng.uniform(2.0, 5.0, 3) * rng.choice([-1.0, 1.0], 3)
        poly = halfspace_intersection(eqs[:, :3], offsets).polyhedron.translated(shift)
        assert max(len(f) for f in poly.faces) >= 4
        tets = poly.vertices[Delaunay(poly.vertices).simplices]
        vol = np.abs(np.linalg.det(tets[:, 1:] - tets[:, :1])) / 6.0
        oracle = (vol[:, None] * tets.mean(axis=1)).sum(axis=0) / vol.sum()
        assert_allclose(poly.centroid, oracle, rtol=1e-12, atol=0)


def test_volume_against_hull_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        poly = _random_polytope(rng)
        hull = ConvexHull(poly.vertices)
        assert_allclose(poly.volume, hull.volume, rtol=1e-9)


def test_translated(tetra):
    moved = tetra.translated([1.0, 2.0, 3.0])
    assert_allclose(moved.centroid, [1.0, 2.0, 3.0], atol=1e-9)
    assert_allclose(moved.areas, tetra.areas, rtol=1e-12)
    assert_allclose(moved.normals, tetra.normals, rtol=1e-12)
    assert_allclose(moved.volume, tetra.volume, rtol=1e-9)


def test_obstacle_file_round_trip(tmp_path, tetra):
    path = tmp_path / "tetra.obs"
    save_obstacle(tetra, path)
    loaded = load_obstacle(path)
    assert_allclose(loaded.vertices, tetra.vertices, atol=1e-15)
    assert loaded.faces == tetra.faces
    # emit/consume is bit-identical
    second = tmp_path / "tetra2.obs"
    save_obstacle(loaded, second)
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "old", [None, "", "a" * 10, "b" * 1000, "c\n" * 40],
    ids=["new path", "empty", "10 bytes", "1000 bytes", "40 lines"],
)
@pytest.mark.parametrize(
    "new", ["", "short\n", "x y z  0.5\n" * 30], ids=["empty", "one line", "30 lines"]
)
def test_write_text_leaves_exactly_the_new_text(tmp_path, old, new):
    # a new path, and old text shorter than, as long as or longer than the new
    path = tmp_path / "report.txt"
    if old is not None:
        path.write_text(old)
        path.chmod(0o640)
        inode = path.stat().st_ino
    write_text(path, new)
    assert path.read_bytes() == new.encode()
    if old is not None:
        # rewritten in place, as open(path, "w") does
        assert path.stat().st_ino == inode
        assert path.stat().st_mode & 0o777 == 0o640


def test_write_text_new_file_mode_follows_the_umask(tmp_path):
    umask = os.umask(0o027)
    try:
        write_text(tmp_path / "new.txt", "text\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "new.txt").stat().st_mode & 0o777 == 0o640


def test_write_text_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old text that is longer than the new one\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
    # a dangling link creates its target, as open(path, "w") does
    dangling = tmp_path / "dangling.txt"
    dangling.symlink_to(tmp_path / "created.txt")
    write_text(dangling, "made\n")
    assert (tmp_path / "created.txt").read_text() == "made\n"


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path, tetra: write_clockwise_obstacle(path, tetra, 2),
         r"vertex protrudes \S+ beyond face 2 plane \(face cycle possibly clockwise\)"),
        (lambda path, tetra: path.write_text("# no vertex, no face\n"),
         r"vertices must be an \(n, 3\) array"),
    ],
    ids=["clockwise-face", "empty"],
)
def test_obstacle_file_of_no_body_names_the_file(tmp_path, tetra, write, message):
    # a file whose every line parses can still list no body: the error of
    # build_polyhedron names the file too
    path = tmp_path / "bad.obs"
    write(path, tetra)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_obstacle(path)


def test_obstacle_file_comments_and_errors(tmp_path):
    path = tmp_path / "bad.obs"
    path.write_text("# comment\nv 0 0 0\nf 1 2\n")
    with pytest.raises(ValueError):
        load_obstacle(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"v 0 0 0\nv 1 0 0\nv {bad} 0 0\nv 0 0 1\nf 1 2 3\n")
        message = re.escape(f"{path}:3: vertex coordinates must be finite")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_obstacle(path)
