"""Physical-optics far fields for convex polyhedral perfect conductors.

Only illuminated (front) faces carry surface current; each face contributes
a closed-form Fourier integral over its polygon.  The electric far field is

    ``E(xhat) = (i k / 2 pi) sum_front [xhat x (nu x (d x p))] x xhat * I(k(d - xhat))``

with ``I`` the polygon integral of ``exp(i q . y)``; the magnetic far field
``xhat x E`` carries nothing more.
The polygon integral reduces by the in-plane divergence theorem to a sum of
stable per-edge sinc terms; a per-triangle power series takes over when the
tangential wavevector is small and the edge sum would cancel.
"""

from __future__ import annotations

import math
import numbers
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import ConvexPolyhedron, GeometryError, area_floor, lit_faces, write_text
from . import sphgrid
from .sphgrid import SphericalGrid, fibonacci_points

MODULUS = "modulus"
COMPLEX_E = "complex-E"
_KINDS = (MODULUS, COMPLEX_E)
# the keys of the wave header line and the count of numbers each takes
_WAVE_KEYS = {"k": 1, "d": 3, "p": 3}

# switch from the edge sum to the series once |w| * radius drops below this
_SERIES_RADIUS = 0.5
_SERIES_TERMS = 18
_FACTORIALS = np.array([math.factorial(k) for k in range(_SERIES_TERMS + 3)])
# every number of a far-field row is one cell of 23 characters, exact to
# the bit; a row is its three coordinate cells, two spaces, its value cells
_CELL = "%+.16e"
_CELL_ZERO = (_CELL % 0.0).encode()
_POINT_FORMAT = f"{_CELL} {_CELL} {_CELL}  "
_POINT_WIDTH = len(_POINT_FORMAT % (0.0, 0.0, 0.0))


@dataclass(frozen=True)
class PlaneWave:
    """Normalized incident plane wave.

    Attributes
    ----------
    d : (3,) unit incident direction
    p : (3,) unit polarization, orthogonal to ``d``
    k : positive finite wavenumber
    """

    d: np.ndarray
    p: np.ndarray
    k: float

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen3(self.d))
        object.__setattr__(self, "p", _frozen3(self.p))
        for name in ("d", "p"):
            if not abs(np.linalg.norm(getattr(self, name)) - 1.0) <= 1e-12:
                raise ValueError(f"{name} must be a finite unit vector")
        if abs(float(self.d @ self.p)) > 1e-12:
            raise ValueError("polarization must be orthogonal to the direction")
        if not 0 < self.k < math.inf:
            raise ValueError("wavenumber must be positive and finite")


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative relative noise ``(1 + delta * r)`` with seeded gaussians."""

    delta: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError("relative noise level must be nonnegative and finite")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"noise seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class FarFieldSamples:
    """Far-field data on a spherical grid, of the kind its values are:
    ``N`` real nonnegative moduli, shape ``(N,)``, are kind ``modulus``, and
    ``N`` complex tangential vectors of the electric field, shape ``(N,
    3)`` and radial to 1e-9 of the largest modulus, are kind ``complex-E``.
    Values of any other shape, or complex moduli, are a ``ValueError``.
    """

    grid: SphericalGrid
    values: np.ndarray
    wave: PlaneWave

    def __post_init__(self):
        n, vals = self.grid.size, np.asarray(self.values)
        numeric = "biuf" if vals.ndim == 1 else "biufc"  # dtype kinds; no complex moduli
        if vals.shape not in ((n,), (n, 3)) or vals.dtype.kind not in numeric:
            raise ValueError(f"far-field values must be {n} real moduli or {n} complex "
                             f"3-vectors, not {vals.dtype} values of shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("far-field samples must be finite (no NaN or inf)")
        if vals.ndim == 1:
            vals = vals.astype(float)
            if vals.min() < 0.0:
                raise ValueError("moduli must be nonnegative")
        else:
            vals = vals.astype(complex)
            radial = np.abs(np.einsum("ij,ij->i", self.grid.points, vals))
            if radial.max() > 1e-9 * float(np.abs(vals).max()):
                raise ValueError("complex far fields must be tangential")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def kind(self) -> str:
        return COMPLEX_E if self.is_complex else MODULUS

    @property
    def is_complex(self) -> bool:
        return self.values.ndim == 2


def _frozen3(v) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector")
    v.flags.writeable = False
    return v


def _polygon_integrals(vertices, normal, Q) -> np.ndarray:
    """``integral exp(i q . y) ds`` over one planar polygon, for each row of Q.

    The area integral is orientation-free, so the winding-consistent Newell
    normal is used internally; ``normal`` only identifies the plane.
    """
    V = np.asarray(vertices, dtype=float)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    nvec = np.cross(V, np.roll(V, -1, axis=0)).sum(axis=0)
    area2 = np.linalg.norm(nvec)
    if 0.5 * area2 <= area_floor(V):
        raise GeometryError(f"polygon area {0.5 * area2:.3g} is at or below {area_floor(V):.3g}")
    nu = nvec / area2
    if normal is not None and abs(float(np.asarray(normal, dtype=float) @ nu)) < 0.99:
        raise ValueError("supplied normal is not perpendicular to the polygon")

    offset = float(nu @ V[0])
    qn = Q @ nu
    W = Q - qn[:, None] * nu
    center = V.mean(axis=0)
    Vrel = V - center
    radius = float(np.linalg.norm(Vrel, axis=1).max())
    wnorm = np.linalg.norm(W, axis=1)
    small = wnorm * radius <= _SERIES_RADIUS

    out = np.empty(len(Q), dtype=complex)
    if small.any():
        out[small] = _series_integral(Vrel, nu, W[small])
    if (~small).any():
        out[~small] = _edge_integral(Vrel, nu, W[~small], wnorm[~small])
    out *= np.exp(1j * (qn * offset + W @ center))
    return out


def _series_integral(Vrel, nu, W) -> np.ndarray:
    """Power series over fan triangles; stable for small tangential |w|."""
    acc = np.zeros(len(W), dtype=complex)
    p0 = Vrel[0]
    x = 1j * (W @ p0)
    for a, b in zip(Vrel[1:-1], Vrel[2:]):
        two_area = float(np.cross(a - p0, b - p0) @ nu)  # signed
        y = 1j * (W @ a)
        z = 1j * (W @ b)
        g = np.ones_like(x)
        h = np.ones_like(x)
        zp = np.ones_like(x)
        series = h / _FACTORIALS[2]
        for k in range(1, _SERIES_TERMS + 1):
            zp = zp * z
            g = y * g + zp
            h = x * h + g
            series += h / _FACTORIALS[k + 2]
        acc += two_area * series
    return acc


def _edge_integral(Vrel, nu, W, wnorm) -> np.ndarray:
    """In-plane divergence theorem: one analytic sinc term per edge."""
    acc = np.zeros(len(W), dtype=complex)
    inv, shortest = 1.0 / (1j * wnorm**2), 1e-15 * float(np.abs(Vrel).max())
    for a, b in zip(Vrel, np.roll(Vrel, -1, axis=0)):
        edge = b - a
        length = float(np.linalg.norm(edge))
        if length < shortest:
            continue
        n_edge = np.cross(edge / length, nu)
        beta = W @ edge
        acc += (
            (W @ n_edge)
            * inv
            * np.exp(1j * (W @ a + 0.5 * beta))
            * length
            * np.sinc(beta / (2.0 * math.pi))
        )
    return acc


def polygon_fourier_integral(vertices, q, normal=None) -> complex:
    """Closed-form ``integral exp(i q . y) ds`` over a planar polygon.

    Parameters
    ----------
    vertices : (nv, 3) array_like
        Simple planar polygon; either winding is accepted.
    q : (3,) array_like
    normal : optional plane normal used only as a cross-check.
    """
    V = np.asarray(vertices, dtype=float)
    return complex(_polygon_integrals(V, normal, np.asarray(q, dtype=float))[0])


def po_far_field_grid(poly: ConvexPolyhedron, wave: PlaneWave, points) -> np.ndarray:
    """The electric far field ``E`` at many observation directions, ``(M, 3)``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Q = wave.k * (wave.d - pts)
    H = np.zeros((len(pts), 3), dtype=complex)
    cross_dp = np.cross(wave.d, wave.p)
    front = np.flatnonzero(lit_faces(poly.normals, wave.d))
    for j in front:
        integral = _polygon_integrals(poly.face_vertices(j), poly.normals[j], Q)
        lever = np.cross(poly.normals[j], cross_dp)
        H += integral[:, None] * np.cross(pts, lever)
    H *= 1j * wave.k / (2.0 * math.pi)
    return np.cross(H, pts)


def sample_phaseless(
    poly: ConvexPolyhedron, wave: PlaneWave, grid: SphericalGrid
) -> FarFieldSamples:
    """Phaseless samples ``|E(xhat)|`` over a full spherical grid."""
    E = po_far_field_grid(poly, wave, grid.points)
    return FarFieldSamples(grid=grid, values=np.linalg.norm(E, axis=1), wave=wave)


def sample_complex(
    poly: ConvexPolyhedron, wave: PlaneWave, grid: SphericalGrid
) -> FarFieldSamples:
    """Complex electric far-field samples ``E(xhat)`` over a grid."""
    return FarFieldSamples(grid=grid, values=po_far_field_grid(poly, wave, grid.points), wave=wave)


def apply_translation_phase(samples: FarFieldSamples, z) -> FarFieldSamples:
    """Far field of the obstacle translated by ``z``: multiply by the
    unimodular factor ``exp(i k (d - xhat) . z)``."""
    if not samples.is_complex:
        raise ValueError("translation phase applies to complex far fields only")
    z = np.asarray(z, dtype=float)
    phase = np.exp(
        1j * samples.wave.k * ((samples.wave.d - samples.grid.points) @ z)
    )
    return FarFieldSamples(grid=samples.grid, values=samples.values * phase[:, None],
                           wave=samples.wave)


def add_noise(samples: FarFieldSamples, noise: NoiseModel) -> FarFieldSamples:
    """Multiply each modulus by ``(1 + delta r)``, clamping negatives to zero.

    ``r`` are i.i.d. standard normals drawn in grid order from the seeded
    generator, so output is reproducible.
    """
    if samples.is_complex:
        raise ValueError("the noise model applies to modulus samples")
    rng = np.random.default_rng(noise.seed)
    factors = 1.0 + noise.delta * rng.standard_normal(samples.grid.size)
    return FarFieldSamples(grid=samples.grid, values=np.maximum(samples.values * factors, 0.0),
                           wave=samples.wave)


def save_far_field(samples: FarFieldSamples, path):
    """Write the far-field text format: two header lines, then per point its
    coordinates and its value (a modulus, or three complex components as
    real and imaginary parts).  Every number of a row is one ``%+.16e``
    cell of 23 characters, exact to the bit; the cells are one space apart
    and the coordinates two spaces from the values, so all rows have one
    length, which :func:`load_far_field` reads as one block.  Returns
    ``path``."""
    w = samples.wave
    header = (
        f"# kind={samples.kind}\n"
        "# k={:.17g} d={:.17g} {:.17g} {:.17g} p={:.17g} {:.17g} {:.17g}".format(
            w.k, *w.d, *w.p
        )
    )
    values = np.ascontiguousarray(samples.values).reshape(samples.grid.size, -1).view(float)
    line = _POINT_FORMAT + " ".join([_CELL] * values.shape[1])
    return save_table(path, np.column_stack([samples.grid.points, values]), line, header)


def save_table(path, rows, line, header):
    """Write ``rows`` as ``np.savetxt(path, rows, fmt=line, header=header,
    comments="")`` would, with one ``%`` over the whole block instead of one
    per row; ``line`` formats one row.  The file is rewritten in place by
    :func:`~polyscat.geometry.write_text`.  Returns ``path``."""
    rows = np.asarray(rows, dtype=float)
    text = (line + "\n") * len(rows) % tuple(rows.ravel().tolist())
    return write_text(path, header + "\n" + text)


def load_far_field(path) -> FarFieldSamples:
    """Parse the far-field text format.

    The header is the run of lines that open the file with ``#`` at their
    first byte, read by :func:`_header`; the rows are the rest.  Rows that
    are the ``n`` rows :func:`save_far_field` writes for the Fibonacci
    lattice, byte for byte up to the value cells, each value a ``%+.16e``
    cell with a two-digit exponent, have only their values parsed, by one
    vectorized exact conversion (see :func:`_decimal_cells`), and get
    ``sphgrid.build_grid(n)``.  Any other rows, ones written in an earlier
    number format included, are parsed by ``np.loadtxt`` and get
    :func:`~polyscat.sphgrid.grid_of` their points, which validates them.
    Both parses give the same values for the same numbers, and both grids
    need at least 12 points.  Every ``ValueError`` of a malformed file
    names ``path``.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        start = 0  # past the lines that open the file with "#"
        while text.startswith(b"#", start):
            start = text.find(b"\n", start) + 1 or len(text)
        kind, wave = _header(text[:start].decode().splitlines())
        m = 1 if kind == MODULUS else 6
        data = _lattice_block(text, start)
        if data is not None:
            grid = sphgrid.build_grid(len(data))
        else:
            with warnings.catch_warnings():
                # a file with no rows fails the grid's point floor instead
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(text[start:].decode().splitlines(), comments="#", ndmin=2)
            grid = sphgrid.grid_of(data[:, :3])
            data = data[:, 3:]
        if data.shape[1] != m:
            raise ValueError(f"{'modulus' if m == 1 else 'complex'} rows need {m + 3} columns")
        values = data[:, 0] if m == 1 else np.ascontiguousarray(data).view(complex)
        return FarFieldSamples(grid=grid, values=values, wave=wave)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _header(lines) -> tuple:
    """The kind and the wave of the header ``lines``.  Each line opens with
    ``#``; a piece that a line separator other than ``\\n`` breaks off
    without one is a ``ValueError``, as is a second ``kind=`` line or a
    second wave line."""
    kind = wave = None
    for line in lines:
        if not line.startswith("#"):
            raise ValueError(f"header line {line!r}, after a line separator, "
                             "does not open with #")
        body = line[1:].strip()
        if body.startswith("kind="):
            if kind is not None:
                raise ValueError("header repeats its kind= line")
            kind = body[5:].strip()
        elif re.match(r"[kdp]=", body):
            if wave is not None:
                raise ValueError("header repeats its wave line")
            wave = _wave_header(body)
    if kind is None or wave is None:
        raise ValueError("missing kind/wave header lines")
    if kind not in _KINDS:
        raise ValueError(f"unknown far-field kind {kind!r}")
    return kind, wave


def _wave_header(body: str) -> PlaneWave:
    """The wave of the header line ``k=<k> d=<dx dy dz> p=<px py pz>``, read
    by key in any order; a missing, repeated or unknown key, or a key with
    the wrong count of numbers, is a ``ValueError``."""
    _, *pairs = re.split(r"(?:^|\s+)(\w+)=", body)
    values = {}
    for key, text in zip(pairs[::2], pairs[1::2]):
        if key not in _WAVE_KEYS:
            raise ValueError(f"unknown wave header key {key}=")
        if key in values:
            raise ValueError(f"wave header repeats {key}=")
        values[key] = [float(t) for t in text.split()]
        if len(values[key]) != _WAVE_KEYS[key]:
            raise ValueError(f"wave header {key}= has {len(values[key])} numbers, "
                             f"not {_WAVE_KEYS[key]}")
    missing = [key for key in _WAVE_KEYS if key not in values]
    if missing:
        raise ValueError(f"wave header misses {'= '.join(missing)}=")
    return PlaneWave(d=np.array(values["d"]), p=np.array(values["p"]), k=values["k"][0])


def _lattice_block(text: bytes, start: int):
    """The ``(n, m)`` values of the rows ``text[start:]`` when they are the
    ``n`` rows :func:`save_far_field` writes for ``fibonacci_points(n)``:
    each row's text up to its values is ``_lattice_text(n)``'s row, and then
    come ``m`` cells in the grammar of :func:`_decimal_cells`, each followed
    by a space and the last by a newline.  ``None`` otherwise, so rows in
    another layout, or with another cell, take the ``np.loadtxt`` parse,
    which reads the same values or rejects the file naming it."""
    end = text.find(b"\n", start)
    if end < 0:
        return None
    width = end + 1 - start  # the first row's, newline included
    lead, step = _POINT_WIDTH, len(_CELL_ZERO) + 1
    m, gap = divmod(width - lead, step)
    n, rest = divmod(len(text) - start, width)
    if gap or rest or m < 1:
        return None
    rows = np.frombuffer(text, np.uint8, n * width, start).reshape(n, width)
    lattice = np.array_equal(rows[:, :lead], _lattice_text(n))
    return _decimal_cells(rows[:, lead:]) if lattice else None


# the most each byte of a cell and its blank may exceed _CELL_ZERO and a blank by
_CELL_MAX = np.frombuffer(b"\2\11\0" + b"\11" * 16 + b"\0\2\11\11\0", np.uint8)


def _split(a):
    """Veltkamp's split of ``a`` into halves of 26 bits, ``a = a1 + a2``."""
    a1 = 134217729.0 * a - (134217729.0 * a - a)  # 2^27 + 1
    return a1, a - a1


def _powers_of_ten() -> np.ndarray:
    """Rows ``P, p, P1, P2`` for ``10^q``, ``q`` in ``[-115, 83]``: ``P + p`` its
    double-double, each part rounded once by ``int`` true division, ``P1 + P2 = P``."""
    table = []
    for q in range(-115, 84):
        num, den = 10 ** max(q, 0), 10 ** max(-q, 0)
        a, b = (num / den).as_integer_ratio()
        table.append((a / b, (num * b - a * den) / (den * b), *_split(a / b)))
    return np.array(table).T


def _decimal_cells(block: np.ndarray):
    """``float()`` of each cell of the ``(n, 24 m)`` bytes ``block``, as an
    ``(n, m)`` array, when every cell is ``%+.16e`` with a two-digit exponent
    and a blank after it, a newline after each row's last; ``None`` otherwise.

    A cell ``±d.dddddddddddddddde±ee`` is ``D 10^q``, ``q = ±ee - 16``.  Its 17
    digits ``D = hi 10^8 + lo``, read 8 to a word (Lemire 2021), sum exactly to
    ``S + e`` (``hi 10^8 = hi 5^8 2^8`` is exact, as ``hi 5^8 < 2^53``).  One
    Dekker (1971) product with the double-double of ``10^q`` gives ``D 10^q`` to
    about ``2^-100`` relative, rounded once.  A cell within about ``2^-70 |x|`` of
    a midpoint between doubles, such as a tie, takes ``float()``; none printed from
    a double does: it is within ``5e-17 |x|`` of it, a midpoint ``2^-54 |x|`` away."""
    n, m = block.shape[0], block.shape[1] // (len(_CELL_ZERO) + 1)
    zero = np.frombuffer(b" ".join([_CELL_ZERO] * m) + b"\n", np.uint8)
    cells = (block - zero).reshape(n, m, -1)  # a byte below its template wraps high
    sign, exp_sign = cells[..., 0], cells[..., 20]  # 0 for "+", 1 for ",", 2 for "-"
    if (cells > _CELL_MAX).any() or (sign == 1).any() or (exp_sign == 1).any():
        return None
    w = cells[..., 3:19].view("<u8")  # digits 2-9 and 10-17, first digit in the low byte
    w = w * 2561 >> 8
    w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
    w = (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
    A, lo = (cells[..., 1] * 1e8 + w[..., 0]) * 1e8, w[..., 1]
    S = A + lo
    e = lo - (S - A)  # S + e = D (Fast2Sum)
    ee = cells[..., 21] * 10 + cells[..., 22]  # uint8, as 99 + ee is at most 198
    P, p, P1, P2 = _POW10.take(np.where(exp_sign, 99 - ee, 99 + ee), axis=1)
    H, (S1, S2) = S * P, _split(S)
    c = (((S1 * P1 - H) + S1 * P2 + S2 * P1) + S2 * P2) + (S * p + e * P)
    x = H + c
    r = (H - x) + c  # the rounding error of x, exact (Fast2Sum)
    tie = x + r * (1 + 2.0**-17) != x + r * (1 - 2.0**-17)  # x + r near a midpoint
    x = np.where(sign, -x, x)
    if tie.any():
        x[tie] = [float(cell) for cell in block.view(f"S{len(_CELL_ZERO) + 1}")[tie]]
    return x


_POW10 = _powers_of_ten()


@lru_cache(maxsize=8)
def _lattice_text(n: int) -> np.ndarray:
    """The ``(n, 73)`` bytes :func:`save_far_field` writes before the values
    of each point of ``fibonacci_points(n)``.  Cached per ``n``."""
    text = _POINT_FORMAT * n % tuple(fibonacci_points(n).ravel().tolist())
    return np.frombuffer(text.encode(), np.uint8).reshape(n, -1)
