"""Batch experiment driver: dataset synthesis and the full three-step
recovery (normals/areas -> offsets/polyhedron -> location), reproducing the
published tetrahedron/cube/prism experiments from flat text configs.

Config files are flat ``key = value`` text with one repeated key::

    obstacle = tetrahedron.obs
    incident = 1 0 0  0 0 1      # d then p, one line per incident wave
    lambda_shape = 0.5
    lambda_loc = 50
    grid_shape = 7518
    grid_loc = 1878
    cutoff = 10
    e_tol = 0.5
    cluster_angle_deg = 5
    noise_delta = 0
    noise_seed = 7
    location = 50 50 50
    region = 0 100 0 100 0 100
    step3_oracle = true
    output_dir = out

``cutoff`` and ``noise_seed`` are integers >= 0, ``e_tol`` and
``cluster_angle_deg`` numbers >= 0; ``grid_shape`` is an
integer >= 12 and at least the ``(cutoff + 1)^2`` coefficients of the
shape transform, and ``grid_loc`` at least the 144 points
(:data:`~polyscat.locator.MIN_GRID_POINTS`) whose weights are exact to
degree 2, as step 3's degree-1 fields need.  The config holds
one shape wave per ``incident`` line, at ``k = 2 pi / lambda_shape``, and
step 3's wave, the first line's at ``2 pi / lambda_loc``; each is checked
by :class:`~polyscat.forward.PlaneWave` alone, its error naming the
incident line and the wavelength key.  ``obstacle`` and ``output_dir``
are paths relative to the config's directory and must not be empty: an
empty value would name that directory itself.  An ``obstacle`` that names
a directory (``.`` among others) is rejected too.  Step 3 seeks the
indicator's maximum over ``region``, scanned half a wavelength of
``lambda_loc`` apart within a point budget.  A ``multistart = <n_theta>
<n_phi>`` line from older configs is accepted and ignored with a warning:
step 1 seeds its peak search from a lattice sized by ``cutoff``.

:func:`synthesize_dataset` alone writes ``output_dir/data/``, every file or
none, and it and ``polyscat check`` alone read ``obstacle``.  The recovery
only reads the data, in the stages ``load``, ``step1``, ``step2`` and
``step3``, run in a straight line.  ``load`` rejects a missing file, naming
``polyscat synth``, and a file whose kind, ``k``, ``d``, ``p`` or point count
is not what synthesis writes there: ``shape_NN.txt`` the moduli of shape
wave ``NN`` at ``grid_shape`` points, ``location.txt`` the complex field of
step 3's wave at ``grid_loc``.  A stage's failure raises a
:class:`PipelineError` tagged with its name; an obstacle that cannot be
loaded is a config error, naming the obstacle file.  A failed recovery
removes every report file it did not write, so no file of an earlier run
stays beside its own;
a failed :func:`locate_obstacle` does the same with the two step-3 files,
and leaves ``recovered_located.obs``, which only the recovery writes.

All stages are deterministic for a fixed config and seed; report files are
byte-identical across runs.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import forward, geometry, locator, maxima, minkowski, sphgrid

log = logging.getLogger("polyscat")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(name: str, *errors):
    """Raise an exception of ``errors`` (default ``Exception``) escaping the
    block as a :class:`PipelineError` tagged ``name``; a
    :class:`PipelineError` passes through untouched."""
    try:
        yield
    except PipelineError:
        raise
    except errors or Exception as exc:
        raise PipelineError(name, str(exc)) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see module docstring for keys)."""

    obstacle: Path | None  # None without an obstacle line
    shape_waves: tuple  # of forward.PlaneWave, one per incident line
    loc_wave: forward.PlaneWave
    output_dir: Path
    lambda_shape: float
    lambda_loc: float
    grid_shape: int
    grid_loc: int
    e_tol: float
    cluster_angle: float  # radians, from cluster_angle_deg
    cutoff: int
    noise: forward.NoiseModel
    location: np.ndarray
    region: locator.SampleRegion
    step3_oracle: bool

    def __post_init__(self):
        step1 = {"e_tol": self.e_tol, "cluster_angle_deg": self.cluster_angle,
                 "cutoff": self.cutoff}
        for key, value in step1.items():
            if not 0 <= value < math.inf:
                raise ValueError(f"{key} must be nonnegative and finite")
        if self.grid_shape < sphgrid.MIN_POINTS:
            raise ValueError(f"grid_shape needs at least {sphgrid.MIN_POINTS} points")
        if self.grid_loc < locator.MIN_GRID_POINTS:
            raise ValueError(
                f"grid_loc = {self.grid_loc} is fewer than the {locator.MIN_GRID_POINTS} "
                "points whose weights are exact to degree 2, as step 3 needs"
            )
        need = (self.cutoff + 1) ** 2
        if self.grid_shape < need:
            raise ValueError(
                f"grid_shape = {self.grid_shape} is fewer points than the {need} "
                f"coefficients of cutoff {self.cutoff}"
            )
        try:
            self.region.axes(self.loc_wave.k)
        except ValueError as exc:
            raise ValueError(f"region at lambda_loc = {self.lambda_loc!r}: {exc}") from None


def _parse_bool(key: str, text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{key} must be a boolean, got {text!r}")


def _numbers(key: str, text: str, count, kind=float) -> list:
    """The whitespace-separated numbers of ``text``: finite floats, or
    integers when ``kind`` is ``int``; exactly ``count`` of them unless
    ``count`` is None."""
    try:
        nums = [kind(t) for t in text.split()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{key} must be {noun}, got {text!r}") from None
    if not all(math.isfinite(x) for x in nums):
        raise ValueError(f"{key} must be finite")
    if count is not None and len(nums) != count:
        if kind is int:
            raise ValueError(f"{key} needs one integer")
        raise ValueError(f"{key} needs {count} numbers, got {len(nums)}")
    return nums


def _plane_wave(line, key: str, wavelength: float) -> forward.PlaneWave:
    """The wave of the parsed incident line ``(where, d, p)`` at the wavelength
    of ``key``, its error naming both; lambda = 0 gives k = inf, rejected."""
    where, d, p = line
    try:
        return forward.PlaneWave(d, p, 2.0 * math.pi / wavelength if wavelength else math.inf)
    except ValueError as exc:
        raise ValueError(f"{where} at {key} = {wavelength!r}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    """Read and validate a flat ``key = value`` experiment config.

    Every real-valued key must be finite: NaN and +-inf raise ``ValueError``.
    Every ``ValueError`` names ``path``.
    """
    path = Path(path)
    try:
        return _read_config(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_config(path: Path) -> ExperimentConfig:
    raw: dict = {}
    incident = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in body.split("=", 1))
            if key == "incident":
                where = f"line {lineno}: incident"
                nums = _numbers(where, value, None)
                if len(nums) != 6:
                    raise ValueError(f"{where} needs 6 numbers (d then p)")
                incident.append(
                    (
                        where,
                        geometry.unit_vector(nums[:3], f"{where} direction"),
                        geometry.unit_vector(nums[3:], f"{where} polarization"),
                    )
                )
            elif key in raw:
                raise ValueError(f"line {lineno}: '{key}' given twice")
            else:
                raw[key] = value

    def take(key, default, count=1, kind=float):
        nums = _numbers(key, raw.pop(key, str(default)), count, kind)
        return nums[0] if count == 1 else nums

    def take_path(key, default=None):
        value = raw.pop(key, default)
        if value == "":
            raise ValueError(f"{key} has no value")
        return None if value is None else (path.parent / value).resolve()

    obstacle = take_path("obstacle")
    if obstacle is not None and obstacle.is_dir():
        raise ValueError(f"obstacle names a directory: {obstacle}")
    if not incident:
        raise ValueError("config needs at least one incident direction")
    lambda_shape, lambda_loc = take("lambda_shape", 0.5), take("lambda_loc", 50.0)
    shape_waves = tuple(_plane_wave(line, "lambda_shape", lambda_shape) for line in incident)
    loc_wave = _plane_wave(incident[0], "lambda_loc", lambda_loc)
    output_dir = take_path("output_dir", "out")
    multistart = raw.pop("multistart", None)
    if multistart is not None:
        shape = _numbers("multistart", multistart, None, int)
        if len(shape) != 2 or min(shape) < 1:
            raise ValueError("multistart needs two positive integers")
        log.warning("%s: 'multistart' is ignored; peaks are seeded from a grid", path)
    noise = forward.NoiseModel(
        delta=take("noise_delta", 0.0), seed=take("noise_seed", 7, kind=int)
    )
    region_nums = take("region", "0 100 0 100 0 100", 6)
    region = locator.SampleRegion(lower=region_nums[0::2], upper=region_nums[1::2])
    config = ExperimentConfig(
        obstacle=obstacle,
        shape_waves=shape_waves,
        loc_wave=loc_wave,
        output_dir=output_dir,
        lambda_shape=lambda_shape,
        lambda_loc=lambda_loc,
        grid_shape=take("grid_shape", 7518, kind=int),
        grid_loc=take("grid_loc", 1878, kind=int),
        e_tol=take("e_tol", 0.5),
        cluster_angle=math.radians(take("cluster_angle_deg", 5.0)),
        cutoff=take("cutoff", 10, kind=int),
        noise=noise,
        location=np.array(take("location", "0 0 0", 3)),
        region=region,
        step3_oracle=_parse_bool("step3_oracle", raw.pop("step3_oracle", "true")),
    )
    if raw:
        raise ValueError(f"unknown keys {sorted(raw)}")
    return config


# ---------------------------------------------------------------------------
# data files


def _data_file(config: ExperimentConfig, index: int):
    """Data file ``index`` as ``(path, wave, modulus, line, points)``, ``line``
    counting ``incident`` lines from 1: ``shape_NN.txt`` holds the moduli of
    shape wave ``NN`` at ``grid_shape`` points and ``location.txt``, after the
    last, the complex field of step 3's at ``grid_loc``."""
    data = config.output_dir / "data"
    if index < len(config.shape_waves):
        return (data / f"shape_{index:02d}.txt", config.shape_waves[index], True, index + 1,
                config.grid_shape)
    return data / "location.txt", config.loc_wave, False, 1, config.grid_loc


@contextmanager
def _finite(path: Path, key: str, value):
    """Raise a floating-point overflow or invalid value in the block, which
    would make the far field of data file ``path`` not finite, as a
    ``ValueError`` naming ``path`` and the config key that set ``value``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{path}: {key} = {value} gives a far field that is not "
                         f"finite ({exc})") from None


def synthesize_dataset(config: ExperimentConfig) -> list:
    """The one writer of ``output_dir/data/``: write every data file over any
    already there, the moduli of each shape wave and step 3's complex field,
    deterministically from ``obstacle``; return their paths.  Every file's
    samples are computed before any is written, so an error, such as a
    field that overflows (a ``ValueError`` naming its file and key, see
    :func:`_finite`), leaves ``data/`` as it was; a failed write removes
    every data file, so no file of an earlier run stays beside a new one."""
    if config.obstacle is None:
        raise ValueError("missing 'obstacle'")
    poly = geometry.load_obstacle(config.obstacle)
    files = []
    for i in range(len(config.shape_waves) + 1):
        path, wave, modulus, _, points = _data_file(config, i)
        grid = sphgrid.build_grid(points)
        if modulus:
            with _finite(path, "lambda_shape", config.lambda_shape):
                samples = forward.sample_phaseless(poly, wave, grid)
            if config.noise.delta > 0:
                noise = forward.NoiseModel(config.noise.delta, config.noise.seed + i)
                with _finite(path, "noise_delta", noise.delta):
                    samples = forward.add_noise(samples, noise)
        else:
            with _finite(path, "location", " ".join(map(repr, config.location.tolist()))):
                if config.step3_oracle:
                    samples = locator.degree_one_oracle(grid, wave, config.location)
                else:
                    samples = forward.apply_translation_phase(
                        forward.sample_complex(poly, wave, grid), config.location
                    )
        files.append((path, samples))
    (config.output_dir / "data").mkdir(parents=True, exist_ok=True)
    # the block keeps no file it writes: a failed write removes them all
    with _report_files(config.output_dir / "data", [path.name for path, _ in files]):
        return [forward.save_far_field(samples, path) for path, samples in files]


def _read(config: ExperimentConfig, index: int) -> forward.FarFieldSamples:
    """Load data file ``index``, naming ``polyscat synth`` if it is missing,
    and check it against :func:`_data_file`, in order: its kind; its wave's
    ``k`` to 1e-12 relative; its ``d`` and ``p`` to 1e-12 absolute; and its
    point count, ``grid_shape`` or ``grid_loc``, whose floors the config
    enforces.  The rows may be any points in any order."""
    path, wave, modulus, line, points = _data_file(config, index)
    with _stage("load", OSError, ValueError):
        try:
            samples = forward.load_far_field(path)
        except FileNotFoundError:
            raise ValueError(f"{path}: no such data file; polyscat synth writes it") from None
        got = samples.wave
        if samples.is_complex == modulus:
            need = "a shape file needs kind=modulus" if modulus else "step 3 needs a complex kind"
            error = f"kind={samples.kind}; {need}"
        elif abs(got.k - wave.k) > 1e-12 * wave.k:
            key = "lambda_shape" if modulus else "lambda_loc"
            error = f"k = {got.k!r} does not match {key} = {getattr(config, key)!r}"
        elif np.abs(np.r_[got.d - wave.d, got.p - wave.p]).max() > 1e-12:
            error = f"d = {got.d.tolist()}, p = {got.p.tolist()} do not match incident line {line}"
        elif samples.grid.size != points:
            key = "grid_shape" if modulus else "grid_loc"
            error = f"{samples.grid.size} points do not match {key} = {points}"
        else:
            return samples
        raise ValueError(f"{path}: {error}")


# ---------------------------------------------------------------------------
# recovery


@dataclass(frozen=True)
class RecoveryReport:
    """What the pipeline recovered and located, plus where it was written."""

    effective: maxima.RecoveredFaceSet
    fit: minkowski.OffsetFit
    reconstructed: geometry.ConvexPolyhedron
    location: np.ndarray
    indicator_value: float
    files: tuple


_LOCATE_FILES = ("location.csv", "indicator_scan.txt")  # step 3's
# every report file a run writes, in the order it writes them
_REPORT_FILES = (
    "recovered_faces.csv", "effective_normals.csv", "offsets.csv", "areas.csv",
    "vertices.csv", "recovered.obs", "fit_report.txt", *_LOCATE_FILES,
    "recovered_located.obs",
)


@contextmanager
def _report_files(out: Path, names):
    """Collect in the yielded list the report files the block writes; if it
    raises, remove each of ``names`` in ``out`` that it did not write."""
    files = []
    try:
        yield files
    except BaseException:
        for name in set(names) - {path.name for path in files}:
            (out / name).unlink(missing_ok=True)
        raise


def run_pipeline(config: ExperimentConfig) -> RecoveryReport:
    """Execute steps 1-3 and write the report tables.

    Each stage reads its own data files, never writes one, and fails at
    ``load`` on a file that is missing or does not carry the wave of its
    config line (see :func:`_read`).  Step 3 reads its file
    after the step-1/2 tables and ``recovered.obs`` are written.  Any stage
    failure aborts with a stage-tagged :class:`PipelineError`, keeping the
    report files this run wrote and removing the others, so that no file
    of an earlier run stays beside them; ``data/`` is not touched.
    """
    out = config.output_dir
    with _report_files(out, _REPORT_FILES) as files:
        shape_samples = [_read(config, i) for i in range(len(config.shape_waves))]

        # Step 1: peaks -> normals and areas, all incident directions in one batch
        with _stage("step1"):
            peaks = maxima.find_local_maxima(
                [sphgrid.sht_forward(s.grid, s.values, config.cutoff) for s in shape_samples]
            )
            raw_faces = maxima.peaks_to_faces(
                peaks, [s.wave.d for s in shape_samples], config.lambda_shape, config.e_tol
            )
            effective = maxima.cluster_effective_normals(raw_faces, config.cluster_angle)
        header = "source_d_index,nu_x,nu_y,nu_z,peak_value,area"
        for name, f in (("recovered_faces.csv", raw_faces), ("effective_normals.csv", effective)):
            columns = [f.source_indices, f.normals, f.peak_values, f.areas]
            files.append(_write_csv(out / name, header, columns, 1))
        if len(effective) < 4:
            raise PipelineError(
                "step1", f"only {len(effective)} effective normals; need at least 4"
            )

        # Step 2: areas -> offsets and the polyhedron they bound
        with _stage("step2"):
            fit = minkowski.fit_offsets(effective.normals, effective.areas)
        reconstructed = fit.polyhedron
        face, vertex = np.arange(len(fit.offsets)), np.arange(reconstructed.num_vertices)
        areas = [face, effective.areas, fit.target_areas, fit.areas]
        areas_header = "face,recovered_area,balanced_area,fitted_area"
        files += [
            _write_csv(out / "offsets.csv", "face,offset", [face, fit.offsets], 1),
            _write_csv(out / "areas.csv", areas_header, areas, 1),
            _write_csv(out / "vertices.csv", "vertex,x,y,z", [vertex, reconstructed.vertices], 1),
            geometry.save_obstacle(reconstructed, out / "recovered.obs"),
            _write_fit_report(out / "fit_report.txt", fit),
        ]

        # Step 3: low-frequency location
        z_star, ind_val, location_files = locate_obstacle(config)
        files.extend(location_files)
        located = reconstructed.translated(z_star - reconstructed.centroid)
        files.append(geometry.save_obstacle(located, out / "recovered_located.obs"))

        return RecoveryReport(
            effective=effective,
            fit=fit,
            reconstructed=reconstructed,
            location=z_star,
            indicator_value=ind_val,
            files=tuple(files),
        )


def locate_obstacle(config: ExperimentConfig):
    """Step 3: locate the obstacle from the low-frequency data file
    ``location.txt``, and write ``location.csv`` and ``indicator_scan.txt``
    to the output directory.  It reads no other data file and writes none.

    Returns ``(z, value, files)``; a failure raises a stage-tagged
    :class:`PipelineError` and removes whichever of the two report files
    it did not write.  ``recovered_located.obs`` belongs to
    :func:`run_pipeline`: this neither writes nor removes it.
    """
    out = config.output_dir
    with _report_files(out, _LOCATE_FILES) as files:
        samples = _read(config, len(config.shape_waves))
        with _stage("step3"):
            z, value, scan = locator.locate(samples, config.region)
        files += [
            _write_csv(out / "location.csv", "z_x,z_y,z_z,indicator", [*z, value], 0),
            _write_scan(out / "indicator_scan.txt", config.region.axes(samples.wave.k), scan),
        ]
    return z, value, tuple(files)


# ---------------------------------------------------------------------------
# report writers (fixed formatting keeps outputs byte-identical)

_FLOAT = "%.9f"


def _write_csv(path: Path, header: str, columns, ints: int) -> Path:
    """Write ``columns`` side by side (``np.column_stack``) under ``header``:
    the first ``ints`` columns as ``%d``, the rest as ``_FLOAT``."""
    rows = np.column_stack(columns)
    line = ",".join(["%d"] * ints + [_FLOAT] * (rows.shape[1] - ints))
    return forward.save_table(path, rows, line, header)


def _write_scan(path: Path, axes, scan: np.ndarray) -> Path:
    """One ``x y z value`` line per point of the scan over ``axes``, x slowest
    and z fastest (the order of ``scan.ravel()``), each coordinate formatted once."""
    coords = map(" ".join, product(*([_FLOAT % c for c in a] for a in axes)))
    cells = [cell for row in zip(coords, scan.ravel().tolist()) for cell in row]
    return geometry.write_text(path, ("%s " + _FLOAT + "\n") * scan.size % tuple(cells))


def _write_fit_report(path: Path, fit: minkowski.OffsetFit) -> Path:
    lines = [
        f"residual = {fit.residual:.6e}",
        f"iterations = {fit.iterations}",
        f"converged = {fit.converged}",
        f"vanished_facets = {list(fit.vanished)}",
        "objective_history = [" + ", ".join(f"{v:.9e}" for v in fit.history) + "]",
    ]
    return geometry.write_text(path, "\n".join(lines) + "\n")
