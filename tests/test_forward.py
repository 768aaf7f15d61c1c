import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

from conftest import NOT_THE_HEADER, TETRA_FACE_AREA, angle_deg
from polyscat import forward, sphgrid
from polyscat.forward import (
    COMPLEX_E,
    MODULUS,
    FarFieldSamples,
    NoiseModel,
    PlaneWave,
    add_noise,
    apply_translation_phase,
    load_far_field,
    po_far_field_grid,
    polygon_fourier_integral,
    sample_complex,
    sample_phaseless,
    save_far_field,
)
from polyscat.geometry import GeometryError, lit_faces
from polyscat.sphgrid import SphericalGrid, build_grid, fibonacci_points
from quadrature_oracle import polygon_quadrature

X1 = np.array([-1.0 / 3.0, 0.0, 2.0 * np.sqrt(2.0) / 3.0])  # specular of d1 in face 1


@pytest.fixture()
def whole_file_parses(monkeypatch):
    """The names of the whole-file parse's calls, ``np.loadtxt`` and
    ``sphgrid.grid_of``, in the order the test makes them."""
    calls = []
    for module, name in ((np, "loadtxt"), (sphgrid, "grid_of")):
        def spy(*args, _call=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def nudged(text: str, line: int) -> str:
    """``text`` with the first number of its line ``line`` one ulp larger."""
    lines = text.split("\n")
    first, rest = lines[line].split(" ", 1)
    lines[line] = f"{np.nextafter(float(first), 2.0):+.16e} {rest}"
    return "\n".join(lines)


def decimal_cells(cells, calls=None):
    """The exact conversion of the 23-character ``cells``, as one block row,
    next to ``float()`` of each; the cells it hands to ``float()`` are appended
    to ``calls``."""
    row = np.frombuffer((" ".join(cells) + "\n").encode(), np.uint8)[None]
    with mock.patch.object(forward, "float", create=True, side_effect=float) as spy:
        values = forward._decimal_cells(row)
    if calls is not None:
        calls += [bytes(call.args[0]) for call in spy.call_args_list]
    return values.ravel(), np.array([float(cell) for cell in cells])


# finite doubles of every size, and of the decades %+.16e writes with two exponent digits
DOUBLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e100, 1e100))


@settings(max_examples=100)
@given(st.lists(DOUBLES, min_size=1, max_size=64))
def test_cells_cast_to_the_floats_they_print(xs):
    # the exact conversion of %+.16e cells with two exponent digits is float()
    # of each, and the double printed, to the bit; a cell printed from a double
    # lies at least about 2^-57 |x| from every midpoint, so none takes float()
    xs = [x for x in xs if len(forward._CELL % x) == 23] or [0.0]
    calls = []
    values, by_float = decimal_cells([forward._CELL % x for x in xs], calls)
    assert values.tobytes() == by_float.tobytes() == np.array(xs).tobytes()
    assert calls == []


CELL_PARTS = st.tuples(st.sampled_from("+-"), st.integers(0, 10**17 - 1),
                       st.sampled_from("+-"), st.integers(0, 99))


@settings(max_examples=100)
@given(st.lists(CELL_PARTS, min_size=1, max_size=64))
def test_any_cell_of_the_grammar_converts_as_float_does(parts):
    cells = [f"{s}{d // 10**16}.{d % 10**16:016d}e{t}{e:02d}" for s, d, t, e in parts]
    values, by_float = decimal_cells(cells)
    assert values.tobytes() == by_float.tobytes()


# (cell, whether it is near enough a midpoint between doubles to take float())
KERNEL_CASES = [
    ("+0.0000000000000000e+00", False),
    ("-0.0000000000000000e+00", False),
    ("+0.0000000000000000e-99", False),
    ("+1.0000000000000000e-99", False),
    ("+0.0000000000000001e-99", False),
    ("+9.9999999999999999e+99", False),
    ("-9.9999999999999999e+99", False),
    ("+9.0071992547409930e+15", True),  # 2^53 + 1, a tie: to even, 2^53
    ("-9.0071992547409950e+15", True),  # -(2^53 + 3), a tie: to even, -(2^53 + 4)
    ("+1.8014398509481986e+16", True),  # 2^54 + 2, a tie: to even, 2^54
    ("+9.0071992547409931e+15", False),  # a twentieth of a spacing past that tie
    ("+9.0071992547409940e+15", False),  # 2^53 + 2, a double
] + [
    (forward._CELL % x, False)
    for e in (-328, -1, 0, 1, 52, 53, 330)
    for x in (np.nextafter(2.0**e, 0), 2.0**e, np.nextafter(2.0**e, np.inf), -(2.0**e))
]


def test_fixed_cells_convert_as_float_does():
    cells = [cell for cell, _ in KERNEL_CASES]
    calls = []
    values, by_float = decimal_cells(cells, calls)
    assert values.tobytes() == by_float.tobytes()
    assert calls == [(cell + " ").encode() for cell, tie in KERNEL_CASES if tie]
    assert math.copysign(1.0, values[1]) == -1.0
    assert values[7] == 2.0**53 and values[8] == -(2.0**53 + 4) and values[9] == 2.0**54
    assert values[10] == 2.0**53 + 2


def wave(lam=0.5, d=(1.0, 0.0, 0.0), p=(0.0, 0.0, 1.0)):
    return PlaneWave(d=np.array(d), p=np.array(p), k=2.0 * math.pi / lam)


@pytest.fixture(scope="session")
def lattice_samples(tetra):
    """The tetrahedron's samples of each kind on the 500-point lattice."""
    g = build_grid(500)
    return {MODULUS: sample_phaseless(tetra, wave(0.5), g),
            COMPLEX_E: sample_complex(tetra, wave(0.5), g)}


# edits of a header: indent, swap or repeat a line, insert a # comment line,
# or break a line with another line separator than "\n"
HEADER_EDITS = ["indent", "swap", "repeat", "comment", "\r", "\x0c", "\u2028"]


def edit_header(header, edit, i, j, at):
    """Make ``edit`` to the list of lines ``header`` in place, at its lines
    ``i`` and ``j`` (modulo its length) and at character ``at`` of line ``i``
    (modulo the line's length plus one)."""
    i, j = i % len(header), j % len(header)
    line = header[i]
    if edit == "indent":
        header[i] = " " + line
    elif edit == "swap":
        header[i], header[j] = header[j], line
    elif edit == "repeat":
        header.insert(j, line)
    elif edit == "comment":
        header.insert(i, "# a note")
    else:
        at %= len(line) + 1
        header[i] = line[:at] + edit + line[at:]


def random_planar_polygon(rng):
    nv = rng.integers(3, 8)
    nu = rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    e1 = np.cross(nu, [1.0, 0.0, 0.0])
    if np.linalg.norm(e1) < 0.5:
        e1 = np.cross(nu, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nu, e1)
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, nv))
    rad = rng.uniform(0.3, 1.5, nv)
    ctr = rng.normal(scale=2.0, size=3)
    pts = ctr + rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)
    return pts, nu


class TestPolygonIntegral:
    def test_zero_wavevector_gives_area(self, tetra):
        val = polygon_fourier_integral(tetra.face_vertices(0), [0.0, 0.0, 0.0])
        assert_allclose(val, TETRA_FACE_AREA, rtol=1e-14)

    def test_full_period_square_vanishes(self):
        square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
        val = polygon_fourier_integral(square, [2.0 * math.pi, 0.0, 0.0])
        assert abs(val) < 1e-14

    @pytest.mark.parametrize(
        "vertices, normal, error, reason",
        [
            ([[0, 0, 0], [1, 0, 0], [2, 0, 0]], None, GeometryError,
             "polygon area 0 is at or below 4e-12"),
            ([[0, 0, 0], [1, 0, 0], [1, 1, 0]], [1.0, 0, 0], ValueError,
             "supplied normal is not perpendicular to the polygon"),
        ],
        ids=["zero-area", "normal-off-plane"],
    )
    def test_rejects_degenerate_input(self, vertices, normal, error, reason):
        with pytest.raises(error, match=f"^{reason}$"):
            polygon_fourier_integral(np.array(vertices, float), [1.0, 0, 0], normal)

    def test_repeated_vertex_adds_nothing(self):
        # the zero-length edge of a repeated vertex contributes no term
        triangle = np.array([[0, 0, 0], [1, 0, 0], [0.3, 0.8, 0]], float)
        repeated = triangle[[0, 1, 1, 2]]
        q = [7.0, 5.0, 0.3]
        assert_allclose(
            polygon_fourier_integral(repeated, q),
            polygon_fourier_integral(triangle, q),
            rtol=1e-12,
        )

    def test_tetra_face_against_oracle(self, tetra):
        q = 4.0 * math.pi * (np.array([1.0, 0, 0]) - np.array([0.0, 0, 1.0]))
        face = tetra.face_vertices(0)
        got = polygon_fourier_integral(face, q, tetra.normals[0])
        ref = polygon_quadrature(face, q)
        assert abs(got - ref) <= 1e-6 * abs(ref)

    def test_random_battery_against_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pts, nu = random_planar_polygon(rng)
            q = rng.normal(size=3)
            q *= rng.uniform(0.0, 50.0) / np.linalg.norm(q)
            got = polygon_fourier_integral(pts, q, nu)
            ref = polygon_quadrature(pts, q)
            assert abs(got - ref) <= 1e-6 * abs(ref)

    def test_series_edge_branch_consistency(self, tetra):
        face = tetra.face_vertices(0)
        nu = tetra.normals[0]
        # straddle the branch switch |q_t| * radius = 0.5
        for scale in (1e-10, 1e-6, 1e-3, 0.3, 0.9, 2.0, 40.0):
            q = scale * np.array([0.3, -0.2, 0.1])
            got = polygon_fourier_integral(face, q, nu)
            ref = polygon_quadrature(face, q)
            assert abs(got - ref) <= 1e-9 * max(abs(ref), 1e-6)

    def test_bounded_by_area(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pts, nu = random_planar_polygon(rng)
            area = polygon_fourier_integral(pts, [0.0, 0.0, 0.0], nu).real
            q = rng.normal(size=3) * rng.uniform(0, 40)
            assert abs(polygon_fourier_integral(pts, q, nu)) <= area * (1 + 1e-12)

    def test_high_frequency_decay_bound(self, tetra):
        # |integral| <= perimeter / (k |tau|) for non-critical directions
        face = tetra.face_vertices(0)
        nu = tetra.normals[0]
        d = np.array([1.0, 0.0, 0.0])
        xhat = np.array([0.0, 1.0, 0.0])
        tau = np.cross(nu, d - xhat)
        perimeter = 3.0
        k0 = 4.0 * math.pi
        for octave in range(5):
            k = k0 * 2.0**octave
            val = abs(polygon_fourier_integral(face, k * (d - xhat), nu))
            assert val <= 1.01 * perimeter / (k * np.linalg.norm(tau))


class TestFarField:
    def test_critical_direction_peak_value(self, tetra):
        (E,) = po_far_field_grid(tetra, wave(0.5), X1[None])
        law = TETRA_FACE_AREA * 0.81649658 / 0.5
        assert_allclose(np.linalg.norm(E), law, rtol=1e-7)

    def test_incident_direction_value(self, tetra):
        w = wave(0.5)
        (E,) = po_far_field_grid(tetra, w, w.d[None])
        assert_allclose(np.linalg.norm(E), 0.70710678, rtol=1e-7)

    def test_field_identities(self, tetra):
        w = wave(0.5)
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(20, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        E = po_far_field_grid(tetra, w, xs)
        assert E.shape == (20, 3)
        assert np.abs(np.einsum("ij,ij->i", E, xs)).max() < 1e-12

    def test_peak_law_within_ten_percent(self, tetra, cube):
        # side / lambda = 2: maximizing |E| near the specular direction
        # recovers |C| |d.nu| / lambda within 10%
        from scipy.optimize import minimize

        def localize(poly, w, start):
            t0 = math.acos(np.clip(start[2], -1, 1))
            p0 = math.atan2(start[1], start[0])

            def neg(x):
                pt = np.array(
                    [
                        math.sin(x[0]) * math.cos(x[1]),
                        math.sin(x[0]) * math.sin(x[1]),
                        math.cos(x[0]),
                    ]
                )
                return -np.linalg.norm(po_far_field_grid(poly, w, pt[None, :])[0])

            res = minimize(neg, [t0, p0], method="Nelder-Mead")
            return -res.fun

        w = wave(0.5)
        law = TETRA_FACE_AREA * 0.81649658 / 0.5
        assert abs(localize(tetra, w, X1) - law) <= 0.10 * law
        wc = wave(0.5, d=(0, 0, -1.0), p=(1.0, 0, 0))
        assert abs(localize(cube, wc, np.array([0, 0, -1.0])) - 2.0) <= 0.2

    def test_grid_peak_location(self, tetra):
        # the global maximum of PO |E| drifts off the stationary-phase
        # directions by the amplitude-factor slope: ~6.4 deg at lambda=0.5
        g = build_grid(7518)
        samples = sample_phaseless(tetra, wave(0.5), g)
        top = g.points[np.argmax(samples.values)]
        drift = min(angle_deg(top, X1), angle_deg(top, [1.0, 0, 0]))
        assert drift < 9.0
        assert abs(samples.values.max() - 0.736) < 0.02

    def test_cube_retroreflection(self, cube):
        g = build_grid(2000)
        w = wave(0.5, d=(0, 0, -1.0), p=(1.0, 0, 0))
        samples = sample_phaseless(cube, w, g)
        top = g.points[np.argmax(samples.values)]
        assert abs(abs(top[2]) - 1.0) < 0.01
        assert abs(samples.values.max() - 2.0) < 0.05


@pytest.mark.parametrize("name", ["tetra", "cube", "prism"])
def test_far_field_and_lit_faces_light_the_same_faces(request, monkeypatch, name):
    # the far field integrates exactly the faces lit_faces lights, those
    # with nu . d < 0, and a grazing face (nu . d == 0) is unlit
    poly = request.getfixturevalue(name)
    random = np.random.default_rng(5).normal(size=3)
    directions = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
    directions.append(random / np.linalg.norm(random))
    integrated = []
    integrals = forward._polygon_integrals

    def spy(vertices, normal, Q):
        integrated.append(normal)
        return integrals(vertices, normal, Q)

    monkeypatch.setattr(forward, "_polygon_integrals", spy)
    grazing = 0
    for d in directions:
        p = np.cross(d, [0.3, 0.5, 0.7])
        integrated.clear()
        po_far_field_grid(poly, wave(d=d, p=p / np.linalg.norm(p)), [[0.0, 0.0, 1.0]])
        front = np.flatnonzero(lit_faces(poly.normals, d))
        assert np.array_equal(front, np.flatnonzero(poly.normals @ d < 0.0))
        assert np.array_equal(np.reshape(integrated, (-1, 3)), poly.normals[front])
        flat = np.flatnonzero(poly.normals @ d == 0.0)
        assert not np.isin(flat, front).any()
        grazing += len(flat)
    assert grazing > 0


class TestSamplesOps:
    def test_translation_phase_identity(self, tetra):
        g = build_grid(500)
        s = sample_complex(tetra, wave(0.5), g)
        same = apply_translation_phase(s, [0.0, 0.0, 0.0])
        assert_allclose(same.values, s.values, atol=1e-15)

    def test_translation_phase_modulus_and_inverse(self, tetra):
        g = build_grid(500)
        s = sample_complex(tetra, wave(0.5), g)
        z = np.array([3.0, -1.0, 2.0])
        moved = apply_translation_phase(s, z)
        assert_allclose(
            np.abs(moved.values), np.abs(s.values), atol=1e-12
        )
        back = apply_translation_phase(moved, -z)
        assert_allclose(back.values, s.values, atol=1e-12)

    def test_translation_phase_wrong_kind(self, tetra):
        g = build_grid(500)
        s = sample_phaseless(tetra, wave(0.5), g)
        message = "^translation phase applies to complex far fields only$"
        with pytest.raises(ValueError, match=message):
            apply_translation_phase(s, [1.0, 0, 0])

    def test_complex_ops_reject_the_other_kind(self, tetra):
        s = sample_complex(tetra, wave(0.5), build_grid(50))
        with pytest.raises(ValueError, match="^the noise model applies to modulus samples$"):
            add_noise(s, NoiseModel(0.1, 0))

    def test_noise_zero_and_determinism(self, tetra):
        g = build_grid(500)
        s = sample_phaseless(tetra, wave(0.5), g)
        assert_allclose(add_noise(s, NoiseModel(0.0, 5)).values, s.values)
        a = add_noise(s, NoiseModel(1.0, 5)).values
        b = add_noise(s, NoiseModel(1.0, 5)).values
        assert np.array_equal(a, b)
        c = add_noise(s, NoiseModel(1.0, 6)).values
        assert not np.array_equal(a, c)

    def test_noise_statistics(self, tetra):
        g = build_grid(7518)
        s = sample_phaseless(tetra, wave(0.5), g)
        positive = s.values > 1e-9

        # unclamped regime: delta = 0.1, ratios are 1 + 0.1 r
        ratios = add_noise(s, NoiseModel(0.1, 3)).values[positive] / s.values[positive]
        n = positive.sum()
        assert abs(ratios.mean() - 1.0) <= 3.0 * 0.1 / math.sqrt(n)

        # delta = 1 clamps at zero: E[max(1 + r, 0)] = Phi(1) + phi(1)
        ratios = add_noise(s, NoiseModel(1.0, 3)).values[positive] / s.values[positive]
        mean_clamped = norm.cdf(1.0) + norm.pdf(1.0)
        var_clamped = (
            norm.cdf(1.0)
            + 2.0 * norm.pdf(1.0)
            + (norm.cdf(1.0) - norm.pdf(1.0))
            - mean_clamped**2
        )
        assert ratios.min() >= 0.0
        assert abs(ratios.mean() - mean_clamped) <= 3.0 * math.sqrt(var_clamped / n)

    def test_far_field_file_round_trip(self, tetra, tmp_path):
        g = build_grid(500)
        for kind, sampler in ((MODULUS, sample_phaseless), (COMPLEX_E, sample_complex)):
            s = sampler(tetra, wave(0.5), g)
            path = tmp_path / f"{kind}.txt"
            save_far_field(s, path)
            loaded = load_far_field(path)
            assert loaded.kind == kind
            assert_allclose(loaded.values, s.values, atol=1e-15)
            assert_allclose(loaded.wave.d, s.wave.d)
            assert_allclose(loaded.wave.k, s.wave.k)
            again = tmp_path / f"{kind}2.txt"
            save_far_field(loaded, again)
            assert path.read_bytes() == again.read_bytes()

    def test_far_field_file_bytes_match_savetxt(self, tetra, tmp_path):
        # the block writer against one np.savetxt call with the file's format:
        # every number of a row one %+.16e cell, so every row has one length
        g = build_grid(500)
        for kind, sampler in ((MODULUS, sample_phaseless), (COMPLEX_E, sample_complex)):
            s = sampler(tetra, wave(0.5), g)
            path = tmp_path / f"{kind}.txt"
            save_far_field(s, path)
            d, p = (" ".join(f"{c:.17g}" for c in v) for v in (s.wave.d, s.wave.p))
            header = f"# kind={kind}\n# k={s.wave.k:.17g} d={d} p={p}"
            values = np.ascontiguousarray(s.values).reshape(g.size, -1).view(float)
            fmt = "%+.16e %+.16e %+.16e  " + " ".join(["%+.16e"] * values.shape[1])
            ref = tmp_path / f"{kind}_savetxt.txt"
            rows = np.column_stack([g.points, values])
            np.savetxt(ref, rows, fmt=fmt, header=header, comments="")
            assert path.read_bytes() == ref.read_bytes()
            # 23 characters per number and 2 + 2 + (m - 1) spaces in a row
            m = values.shape[1]
            lengths = {len(row) for row in path.read_bytes().splitlines()[2:]}
            assert lengths == {23 * (3 + m) + m + 3}

    def test_non_finite_modulus_file_rejected(self, tetra, tmp_path):
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        coords, _ = lines[5].split("  ")
        lines[5] = f"{coords}  nan"
        path.write_text("\n".join(lines) + "\n")
        # the samples' own validation error names the file too
        finite = re.escape(str(path)) + ": .*samples must be finite"
        with pytest.raises(ValueError, match=finite):
            load_far_field(path)
        # a NaN coordinate is no lattice point and fails validation
        lines[5] = "nan 0 0  1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unit vectors"):
            load_far_field(path)

    def test_duplicated_point_file_rejected(self, tetra, tmp_path):
        # a repeated point would be counted twice by the quadrature
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[5]]) + "\n")
        with pytest.raises(ValueError, match="distinct"):
            load_far_field(path)

    def test_one_hemisphere_file_rejected(self, tetra, tmp_path):
        # points on half the sphere admit no positive quadrature weights
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        upper = [r for r in lines[2:] if float(r.split()[2]) > 0.0]
        path.write_text("\n".join(lines[:2] + upper) + "\n")
        with pytest.raises(ValueError, match="weight"):
            load_far_field(path)

    def test_matching_points_share_the_grid(self, tetra, tmp_path):
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        # the lattice's points get build_grid's cached grid
        assert load_far_field(path).grid is g

    def test_nudged_point_gets_its_own_grid(self, tetra, tmp_path):
        g = build_grid(500)
        s = sample_phaseless(tetra, wave(0.5), g)
        points = g.points.copy()
        points[7, 0] = np.nextafter(points[7, 0], 2.0)  # one ulp
        nudged = FarFieldSamples(
            grid=SphericalGrid(points=points), values=s.values, wave=s.wave
        )
        path = tmp_path / "modulus.txt"
        save_far_field(nudged, path)
        loaded = load_far_field(path)
        assert loaded.grid is not g
        assert np.array_equal(loaded.grid.points, points)

    @pytest.mark.parametrize("n", [12, 500, 1000])
    @pytest.mark.parametrize("kind", [MODULUS, COMPLEX_E])
    def test_lattice_file_parses_only_its_values(
        self, tetra, tmp_path, whole_file_parses, n, kind
    ):
        # the writer and the lattice recognition share one row layout: what
        # save_far_field writes loads with neither np.loadtxt nor grid_of
        g = build_grid(n)
        sampler = sample_phaseless if kind == MODULUS else sample_complex
        s = sampler(tetra, wave(0.5), g)
        path = tmp_path / "samples.txt"
        save_far_field(s, path)
        full = np.loadtxt(path, comments="#", ndmin=2)
        whole_file_parses.clear()
        loaded = load_far_field(path)
        assert whole_file_parses == []
        assert loaded.grid is g
        if kind == MODULUS:
            expected = full[:, 3]
        else:
            expected = full[:, 3::2] + 1j * full[:, 4::2]
        assert loaded.values.tobytes() == expected.tobytes() == s.values.tobytes()

    def test_lattice_in_another_float_format_gets_equal_weights(self, tetra, tmp_path):
        # %.17e coordinates are the lattice's floats in other text: the file
        # is parsed whole and its points, the same bits, get the lattice's grid
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        rows = [
            " ".join(f"{float(t):.17e}" for t in row.split()[:3]) + "  " + row.split()[3]
            for row in lines[2:]
        ]
        other = tmp_path / "modulus_e.txt"
        other.write_text("\n".join(lines[:2] + rows) + "\n")
        a, b = load_far_field(path), load_far_field(other)
        assert b.grid is g
        assert b.grid.point_weights.tobytes() == g.point_weights.tobytes()
        assert b.values.tobytes() == a.values.tobytes()

    # another gap between a row's coordinates and values (one space, a tab)
    # or blanks after the values take the whole-file parse
    GAPS = {
        "one space": lambda row: row.replace("  ", " "),
        "tab": lambda row: row.replace("  ", "\t"),
        "space and tab": lambda row: row.replace("  ", " \t"),
        "trailing blank": lambda row: row + " ",
        "trailing blanks": lambda row: row + "  \t ",
    }

    @pytest.mark.parametrize("rows", ["every row", "one row"])
    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("kind", [MODULUS, COMPLEX_E])
    def test_other_gap_takes_the_whole_file_parse(
        self, tetra, tmp_path, whole_file_parses, kind, gap, rows
    ):
        g = build_grid(500)
        sampler = sample_phaseless if kind == MODULUS else sample_complex
        path = tmp_path / "samples.txt"
        save_far_field(sampler(tetra, wave(0.5), g), path)
        clean = load_far_field(path)
        lines = path.read_text().splitlines()
        edited = range(2, len(lines)) if rows == "every row" else [7]
        for i in edited:
            lines[i] = self.GAPS[gap](lines[i])
        path.write_text("\n".join(lines) + "\n")
        loaded = load_far_field(path)
        assert whole_file_parses == ["loadtxt", "grid_of"]
        assert loaded.values.tobytes() == clean.values.tobytes()
        assert loaded.grid is g

    # layouts that are no lattice block: each takes the whole-file parse and
    # loads the values save_far_field wrote, on the lattice's grid unless a
    # point moved; the last two keep the row width, with value cells outside
    # the exact conversion's grammar
    LAYOUTS = {
        "three-digit exponent": lambda text: text,
        "CRLF": lambda text: text.replace("\n", "\r\n"),
        "trailing blank": lambda text: text[:-1] + " \n",
        "nudged coordinate": lambda text: nudged(text, 9),
        "capital E": lambda text: re.sub(r"e([+-]\d\d)$", r"E\1", text, flags=re.M),
        "two digits before the point": lambda text: text.replace(
            "  +1.0000000000000000e+00\n", "  +01.000000000000000e+00\n"
        ),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_other_layout_takes_the_whole_file_parse(
        self, tetra, tmp_path, whole_file_parses, layout
    ):
        g = build_grid(500)
        values = sample_phaseless(tetra, wave(0.5), g).values.copy()
        if layout == "three-digit exponent":
            values[7] = 1e-120  # written as a 24-character cell
        elif layout == "two digits before the point":
            values[7] = 1.0
        s = FarFieldSamples(grid=g, values=values, wave=wave(0.5))
        path = tmp_path / "modulus.txt"
        save_far_field(s, path)
        path.write_bytes(self.LAYOUTS[layout](path.read_text()).encode())
        whole_file_parses.clear()
        loaded = load_far_field(path)
        assert whole_file_parses == ["loadtxt", "grid_of"]
        assert loaded.values.tobytes() == values.tobytes()
        assert (loaded.grid is g) != (layout == "nudged coordinate")

    # a block edited in one cell or one row end, its width kept, that
    # np.loadtxt does not read as the block's numbers (float() takes the
    # underscore and the NUL): (kind, offset of the edit from the row's end,
    # the new text, the whole-file parse's error)
    UNREAD_BLOCKS = {
        "non-numeric cell": (MODULUS, -24, "+1.0000000000000000e+0x", "convert string"),
        "underscore in a cell": (MODULUS, -24, "+1.00000000000000_0e+00", "convert string"),
        "NUL in a cell": (MODULUS, -24, "+1.0000000000000000e+0\0", "convert string"),
        "blank in a cell": (MODULUS, -24, "+1.00000000000000 0e+00", "from 4 to 5"),
        "two rows on a line": (MODULUS, -1, " ", "from 4 to 8"),
        "a row on two lines": (COMPLEX_E, -25, "\n", "from 9 to 8"),
    }

    @pytest.mark.parametrize("case", UNREAD_BLOCKS)
    def test_block_that_does_not_parse_names_the_file(self, tetra, tmp_path, case):
        kind, offset, text, reason = self.UNREAD_BLOCKS[case]
        sampler = sample_phaseless if kind == MODULUS else sample_complex
        path = tmp_path / "samples.txt"
        save_far_field(sampler(tetra, wave(0.5), build_grid(500)), path)
        lines = path.read_text().splitlines(keepends=True)
        row = lines[5]
        i = len(row) + offset
        lines[5] = row[:i] + text + row[i + len(text):]
        assert len(lines[5]) == len(row)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{reason}.* at row"):
            load_far_field(path)

    @pytest.mark.parametrize("offset", [-24, -4])
    def test_comma_for_a_sign_names_the_file(self, tetra, tmp_path, offset):
        # "," lies between "+" and "-" byte for byte: the conversion refuses
        # it in either sign, and the whole-file parse rejects the file
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), build_grid(500)), path)
        lines = path.read_text().splitlines(keepends=True)
        i = len(lines[5]) + offset
        lines[5] = lines[5][:i] + "," + lines[5][i + 1:]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*convert string.* at row"):
            load_far_field(path)

    def test_moved_value_is_rejected(self, tetra, tmp_path):
        # row 7 ends with row 8's coordinates and row 8 holds only its value:
        # joined, the text still alternates coordinates and values, but row 8
        # is no lattice row and the whole-file parse rejects the file
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), build_grid(50)), path)
        lines = path.read_text().splitlines()
        coords, value = lines[8].split("  ")
        lines[7] += "  " + coords
        lines[8] = value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*columns"):
            load_far_field(path)

    def test_row_without_its_value_is_rejected(self, tetra, tmp_path):
        # np.loadtxt skips a blank value text, which would shift every later
        # value onto the previous point of a grid one point short
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), build_grid(50)), path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].split("  ")[0] + "  "
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*columns"):
            load_far_field(path)

    def test_one_non_lattice_file_loads_one_grid(self, tetra, tmp_path):
        g = build_grid(500)
        points = g.points[::-1].copy()  # the lattice's points in reverse order
        s = FarFieldSamples(
            grid=SphericalGrid(points=points),
            values=sample_phaseless(tetra, wave(0.5), g).values[::-1],
            wave=wave(0.5),
        )
        path = tmp_path / "modulus.txt"
        save_far_field(s, path)
        first = load_far_field(path)
        assert first.grid is not g
        assert load_far_field(path).grid is first.grid

    def test_lattice_block_of_eleven_points_is_rejected(self, tmp_path):
        # the block's grid has the whole-file parse's point floor
        path = tmp_path / "modulus.txt"
        rows = np.column_stack([fibonacci_points(11), np.ones(11)])
        header = "# kind=modulus\n# k=1 d=1 0 0 p=0 0 1"
        forward.save_table(path, rows, forward._POINT_FORMAT + forward._CELL, header)
        message = re.escape(f"{path}: a grid needs at least 12 points, got 11")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_far_field(path)

    def test_lattice_on_the_whole_file_parse_gets_the_lattice_grid(
        self, tetra, tmp_path, whole_file_parses
    ):
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        rows = [row.replace("  ", " ") for row in lines[2:]]
        path.write_text("\n".join(lines[:2] + rows) + "\n")
        assert load_far_field(path).grid is g
        assert whole_file_parses == ["loadtxt", "grid_of"]

    @pytest.mark.parametrize("extra", ["", "# a note", "   "])
    def test_blank_or_comment_line_in_the_body(self, tetra, tmp_path, extra):
        # np.loadtxt skips such a line: the file is parsed whole, as before
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        clean = load_far_field(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:7] + [extra] + lines[7:]) + "\n")
        loaded = load_far_field(path)
        assert loaded.values.tobytes() == clean.values.tobytes()
        assert loaded.grid is g

    def test_bad_imaginary_part_names_the_file(self, tetra, tmp_path):
        # intact lattice coordinates, a non-numeric value: the error is the
        # whole-file parse's, naming the file
        g = build_grid(500)
        path = tmp_path / "complex.txt"
        save_far_field(sample_complex(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(" ", 1)[0] + " 1.5x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            np.loadtxt(lines, comments="#")
        message = re.escape(f"{path}: {exc.value}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_far_field(path)

    # (line index, replacement, expected reason): a non-numeric token, a
    # non-numeric or commented-out value after intact lattice coordinates, a
    # short row and a long row; a non-numeric k, a 2-component d, a trailing
    # number, two k numbers, a repeated d, a missing p, an unknown key, a
    # line break and a non-numeric line after the wave, a
    # negative k, a non-unit d and two unknown kinds in the header; an
    # indented kind or wave line, and a line separator other than "\n" in
    # a header line: the header is then not the two lines synth writes
    MALFORMED = [
        (5, "0.5 0.5 abc  1.0", ""),
        (5, "{coordinates}  abc", ""),
        (5, "{coordinates}  #0.5", ""),
        (5, "0.6 0.8 0.0", ""),
        (5, "0.6 0.8 0.0  1.0 2.0", ""),
        (1, "# k=abc d=1 0 0 p=0 0 1", ""),
        (1, "# k=12 d=1 0 p=0 0 1", NOT_THE_HEADER),
        (1, "# k=12 d=1 0 0 p=0 0 1 9", NOT_THE_HEADER),
        (1, "# k=12 13 d=1 0 0 p=0 0 1", NOT_THE_HEADER),
        (1, "# k=12 d=1 0 0 d=1 0 0 p=0 0 1", NOT_THE_HEADER),
        (1, "# k=12 d=1 0 0", NOT_THE_HEADER),
        (1, "# k=12 d=1 0 0 p=0 0 1 q=1", NOT_THE_HEADER),
        (1, "# k=12 d=1 0 0 p=0 0 1\rjunk", NOT_THE_HEADER),
        (1, "# k=-12 d=1 0 0 p=0 0 1", "wavenumber"),
        (1, "# k=nan d=1 0 0 p=0 0 1", "wavenumber must be positive and finite"),
        (1, "# k=inf d=1 0 0 p=0 0 1", "wavenumber must be positive and finite"),
        (1, "# k=12 d=1 1 0 p=0 0 1", "unit vector"),
        (0, "# kind=foo", "kind 'foo'"),
        # the magnetic far field xhat x E carries nothing the electric one
        # lacks, and no file kind holds it
        (0, "# kind=complex-H", "unknown far-field kind 'complex-H'"),
        (0, " # kind=modulus", NOT_THE_HEADER),
        (1, "  # k=12 d=1 0 0 p=0 0 1", NOT_THE_HEADER),
        (0, "# kind=\x0cmodulus", NOT_THE_HEADER),
        (1, "# k=12 d=1 0 0 p=0 0 1\u2028junk", NOT_THE_HEADER),
    ]

    @pytest.mark.parametrize(
        "index, row, reason", MALFORMED, ids=[row for _, row, _ in MALFORMED]
    )
    def test_malformed_row_names_the_file(self, tetra, tmp_path, index, row, reason):
        g = build_grid(500)
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        lines[index] = row.format(coordinates=lines[index].rsplit(None, 1)[0])
        path.write_bytes(("\n".join(lines) + "\n").encode())
        if reason == NOT_THE_HEADER:
            message = f"^{re.escape(f'{path}: {reason}')}$"
        else:
            message = re.escape(str(path)) + ".*" + reason
        with pytest.raises(ValueError, match=message):
            load_far_field(path)

    @pytest.mark.parametrize("order", ["k p d", "p k d", "d p k"])
    def test_wave_header_keys_in_another_order_are_rejected(self, tetra, tmp_path, order):
        # the wave line is read in the one order synth writes: the same
        # numbers under their keys in another order are no header
        path = tmp_path / "modulus.txt"
        written = sample_phaseless(tetra, wave(0.5), build_grid(500))
        save_far_field(written, path)
        w = written.wave
        text = {"k": f"{w.k:.17g}", "d": "%.17g %.17g %.17g" % (*w.d,),
                "p": "%.17g %.17g %.17g" % (*w.p,)}
        lines = path.read_text().splitlines()
        assert lines[1] == f"# k={text['k']} d={text['d']} p={text['p']}"
        lines[1] = "# " + " ".join(f"{key}={text[key]}" for key in order.split())
        path.write_text("\n".join(lines) + "\n")
        message = re.escape(f"{path}: {NOT_THE_HEADER}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_far_field(path)

    # a header that says a thing twice, the same or not, on either side of
    # the other header line or of a comment, is read neither way
    REPEATED_HEADERS = {
        "two kinds": ["# kind=complex-E", "# kind=modulus", "{wave}"],
        "one kind twice": ["# kind=modulus", "{wave}", "# kind=modulus"],
        "two waves": ["# kind=modulus", "{wave}", "# k=2 d=1 0 0 p=0 0 1"],
        "one wave twice": ["{wave}", "# a note", "{wave}", "# kind=modulus"],
        "both twice": ["# kind=complex-E", "# kind=modulus", "# k=5 d=0 1 0 p=0 0 1",
                       "# k=2 d=1 0 0 p=0 0 1"],
    }

    @pytest.mark.parametrize("case", REPEATED_HEADERS)
    def test_repeated_header_line_names_the_file(self, tetra, tmp_path, case):
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), build_grid(50)), path)
        lines = path.read_text().splitlines()
        header = [row.format(wave=lines[1]) for row in self.REPEATED_HEADERS[case]]
        path.write_text("\n".join(header + lines[2:]) + "\n")
        message = re.escape(f"{path}: {NOT_THE_HEADER}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_far_field(path)

    def test_missing_header_names_the_file(self, tetra, tmp_path):
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), build_grid(500)), path)
        rows = path.read_text().splitlines()[2:]
        path.write_text("\n".join(rows) + "\n")
        message = re.escape(f"{path}: {NOT_THE_HEADER}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_far_field(path)

    def test_header_after_a_data_row_is_not_read(self, tetra, tmp_path):
        # the header is the two lines that open the file
        path = tmp_path / "modulus.txt"
        save_far_field(sample_phaseless(tetra, wave(0.5), build_grid(500)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n")
        message = re.escape(f"{path}: {NOT_THE_HEADER}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_far_field(path)

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from([MODULUS, COMPLEX_E]),
        edits=st.lists(st.tuples(st.sampled_from(HEADER_EDITS), *[st.integers(0, 99)] * 3),
                       min_size=1, max_size=3),
        crlf=st.booleans(),
    )
    def test_header_edit_loads_the_same_or_names_the_file(
        self, lattice_samples, tmp_path_factory, kind, edits, crlf
    ):
        # a file loads, its values and wave bit for bit as written, exactly
        # when it still opens with the two header lines as written, each
        # ended by "\n" or "\r\n"; any other edit is a ValueError naming it
        written = lattice_samples[kind]
        path = tmp_path_factory.getbasetemp() / f"header_edit_{kind}.txt"
        save_far_field(written, path)
        lines = path.read_text().split("\n")
        header = lines[:2]
        for edit in edits:
            edit_header(header, *edit)
        text, rows = "\n".join(header + lines[2:]), "\n".join(lines[2:])
        if crlf:
            text, rows = text.replace("\n", "\r\n"), rows.replace("\n", "\r\n")
        path.write_bytes(text.encode())
        ends = ("\n", "\r\n")
        intact = text in {lines[0] + a + lines[1] + b + rows for a in ends for b in ends}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                loaded = load_far_field(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                assert not intact
                return
        assert intact
        w, got = written.wave, loaded.wave
        assert loaded.values.tobytes() == written.values.tobytes()
        assert (got.k, got.d.tobytes(), got.p.tobytes()) == (w.k, w.d.tobytes(), w.p.tobytes())

    @settings(max_examples=100)
    @given(
        # every positive finite double, and the subnormals on their own
        k=st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False),
                    st.floats(0.0, 2.0**-1022, exclude_min=True, exclude_max=True)),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from([MODULUS, COMPLEX_E]),
    )
    def test_save_then_load_gives_the_wave_and_values_bit_for_bit(
        self, tmp_path_factory, k, seed, kind
    ):
        # a random orthonormal d and p: the header the writer formats is the
        # one the reader's pattern matches, and every number comes back
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        g = build_grid(50)
        if kind == MODULUS:
            values = rng.exponential(size=g.size)
        else:
            v = rng.normal(size=(g.size, 3)) + 1j * rng.normal(size=(g.size, 3))
            values = v - np.einsum("ij,ij->i", v, g.points)[:, None] * g.points
        w = PlaneWave(d=q[:, 0], p=q[:, 1], k=k)
        path = tmp_path_factory.getbasetemp() / f"round_trip_{kind}.txt"
        save_far_field(FarFieldSamples(grid=g, values=values, wave=w), path)
        text = path.read_bytes()
        header = text[: text.index(b"\n", text.index(b"\n") + 1) + 1]
        assert forward._HEADER_LINES.match(text).end() == len(header)
        loaded = load_far_field(path)
        got = loaded.wave
        assert (got.k, got.d.tobytes(), got.p.tobytes()) == (k, w.d.tobytes(), w.p.tobytes())
        assert loaded.values.tobytes() == values.tobytes()

    @settings(max_examples=100, derandomize=True)
    @given(kind=st.sampled_from([MODULUS, COMPLEX_E]), data=st.data())
    def test_save_then_load_gives_every_finite_double_bit_for_bit(
        self, tmp_path_factory, kind, data
    ):
        # values of every size, subnormals and +-0 among them: a value with a
        # three-digit exponent is a 24-character %+.16e cell, so its file is
        # no lattice text and takes the np.loadtxt parse, as extreme-scale
        # synth output does; each value comes back to the bit either way
        g = build_grid(data.draw(st.integers(12, 40)))
        if kind == MODULUS:
            xs = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=g.size, max_size=g.size)))
            values = np.where(xs == 0.0, xs, np.abs(xs))  # keeps -0
        else:
            # tangential from the start, a e1 + b e2, each part of a and b at
            # most half the largest double so that no sum overflows
            half = np.finfo(float).max / 2
            parts = data.draw(st.lists(st.floats(-half, half), min_size=4 * g.size,
                                       max_size=4 * g.size))
            a, b = np.array(parts).view(complex).reshape(g.size, 2).T
            e1 = np.cross([0.0, 0.0, 1.0], g.points)
            e1 /= np.linalg.norm(e1, axis=1)[:, None]
            values = a[:, None] * e1 + b[:, None] * np.cross(g.points, e1)
        path = tmp_path_factory.getbasetemp() / f"every_double_{kind}.txt"
        save_far_field(FarFieldSamples(grid=g, values=values, wave=wave(0.5)), path)
        assert load_far_field(path).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "kind, reason", [(MODULUS, "modulus rows need 4"), (COMPLEX_E, "complex rows need 9")]
    )
    def test_wrong_column_count_names_the_file(self, tetra, tmp_path, kind, reason):
        # every row one column off, so the rows parse and only the count is wrong
        g = build_grid(500)
        sampler = sample_phaseless if kind == MODULUS else sample_complex
        path = tmp_path / "samples.txt"
        save_far_field(sampler(tetra, wave(0.5), g), path)
        lines = path.read_text().splitlines()
        if kind == MODULUS:
            rows = [row + " 0.5" for row in lines[2:]]
        else:
            rows = [row.rsplit(" ", 1)[0] for row in lines[2:]]
        path.write_text("\n".join(lines[:2] + rows) + "\n")
        message = re.escape(f"{path}: {reason} columns")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_far_field(path)

    def test_plane_wave_validation(self):
        with pytest.raises(ValueError):
            PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([1.0, 0, 0]), k=1.0)
        with pytest.raises(ValueError, match="^expected a 3-vector$"):
            PlaneWave(d=np.array([1.0, 0]), p=np.array([0.0, 0, 1]), k=1.0)
        with pytest.raises(ValueError):
            PlaneWave(d=np.array([2.0, 0, 0]), p=np.array([0.0, 0, 1]), k=1.0)
        with pytest.raises(ValueError):
            PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1]), k=-1.0)

    @pytest.mark.parametrize(
        "d, p, k, reason",
        [
            ((1.0, 0, 0), (0, 0, 1.0), math.nan, "wavenumber must be positive and finite"),
            ((1.0, 0, 0), (0, 0, 1.0), math.inf, "wavenumber must be positive and finite"),
            ((math.nan, 0, 0), (0, 0, 1.0), 1.0, "d must be a finite unit vector"),
            ((1.0, 0, 0), (0, math.inf, 1.0), 1.0, "p must be a finite unit vector"),
            ((1.0, 0, 0), (0, 0, math.nan), 1.0, "p must be a finite unit vector"),
        ],
    )
    def test_plane_wave_rejects_non_finite(self, d, p, k, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            PlaneWave(d=np.array(d), p=np.array(p), k=k)

    @pytest.mark.parametrize(
        "delta, seed, reason",
        [
            (math.nan, 1, "relative noise level must be nonnegative and finite"),
            (math.inf, 1, "relative noise level must be nonnegative and finite"),
            (-0.1, 1, "relative noise level must be nonnegative and finite"),
            (0.1, math.nan, "noise seed must be an integer >= 0, got nan"),
            (0.1, 1.5, "noise seed must be an integer >= 0, got 1.5"),
            (0.1, -1, "noise seed must be an integer >= 0, got -1"),
        ],
    )
    def test_noise_model_rejects_non_finite(self, delta, seed, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            NoiseModel(delta=delta, seed=seed)

    # values of neither kind, from the 50 moduli of build_grid(50): the kind
    # is read off the values, so each is rejected by its shape or dtype; and
    # negative moduli
    NEITHER = "far-field values must be 50 real moduli or 50 complex 3-vectors, not "
    MALFORMED_VALUES = {
        "unknown-kind": (lambda m: np.column_stack([m, m]),
                         NEITHER + "float64 values of shape (50, 2)"),
        "short-moduli": (lambda m: m[:-1], NEITHER + "float64 values of shape (49,)"),
        "complex-as-moduli": (lambda m: m + 0j, NEITHER + "complex128 values of shape (50,)"),
        "column-of-moduli": (lambda m: m[:, None], NEITHER + "float64 values of shape (50, 1)"),
        "short-vectors": (lambda m: np.zeros((49, 3), complex),
                          NEITHER + "complex128 values of shape (49, 3)"),
        "text-moduli": (lambda m: m.astype(str), NEITHER + "<U32 values of shape (50,)"),
        "negative-moduli": (lambda m: -m, "moduli must be nonnegative"),
    }

    @pytest.mark.parametrize("case", MALFORMED_VALUES)
    def test_samples_reject_malformed_values(self, case):
        values, reason = self.MALFORMED_VALUES[case]
        g = build_grid(50)
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            FarFieldSamples(grid=g, values=values(np.linspace(1.0, 2.0, g.size)), wave=wave())

    def test_kind_follows_the_values(self, tetra):
        g = build_grid(50)
        moduli = FarFieldSamples(grid=g, values=np.linspace(1.0, 2.0, g.size), wave=wave())
        # a real tangential field is a complex one with no imaginary part
        field = FarFieldSamples(grid=g, values=np.cross(g.points, [0.0, 0.0, 1.0]), wave=wave())
        assert (moduli.kind, moduli.is_complex, moduli.values.dtype) == (MODULUS, False, float)
        assert (field.kind, field.is_complex, field.values.dtype) == (COMPLEX_E, True, complex)
        assert sample_complex(tetra, wave(0.5), g).kind == COMPLEX_E
        assert add_noise(moduli, NoiseModel(0.1, 0)).kind == MODULUS
        assert [f.name for f in dataclasses.fields(FarFieldSamples)] == ["grid", "values", "wave"]
        with pytest.raises(AttributeError):
            moduli.kind = COMPLEX_E

    def test_tangential_validation(self):
        g = build_grid(50)
        bad = np.ones((g.size, 3), dtype=complex)  # not tangential
        # the tolerance is relative to the field's largest modulus
        for values in (bad, bad * 1e-12):
            with pytest.raises(ValueError, match="^complex far fields must be tangential$"):
                FarFieldSamples(grid=g, values=values, wave=wave())
