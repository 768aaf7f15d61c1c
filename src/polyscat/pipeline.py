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
    exclusion_radius = 0.3
    cluster_angle_deg = 5
    noise_delta = 0
    noise_seed = 7
    location = 50 50 50
    region = 0 100 0 100 0 100
    region_resolution = 11 11 11
    step3_oracle = true
    output_dir = out

``cutoff`` and ``noise_seed`` are integers >= 0; ``grid_shape`` and
``grid_loc`` are integers >= 12.  Step 3 places the obstacle at the
maximum of the degree-1 indicator over ``region``.  A
``multistart = <n_theta> <n_phi>`` line from older configs is accepted
and ignored with a warning: step 1 seeds its peak search from a lattice
sized by ``cutoff``.

All stages are deterministic for a fixed config and seed; report files are
byte-identical across runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import forward, geometry, locator, maxima, minkowski, sphgrid

log = logging.getLogger("polyscat")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see module docstring for keys)."""

    obstacle: Path
    incident: tuple  # of (d, p) pairs
    output_dir: Path
    lambda_shape: float = 0.5
    lambda_loc: float = 50.0
    grid_shape: int = 7518
    grid_loc: int = 1878
    thresholds: maxima.RecoveryThresholds = field(
        default_factory=maxima.RecoveryThresholds
    )
    noise: forward.NoiseModel = field(
        default_factory=lambda: forward.NoiseModel(delta=0.0, seed=7)
    )
    location: np.ndarray = field(default_factory=lambda: np.zeros(3))
    region: locator.SampleRegion = field(
        default_factory=lambda: locator.SampleRegion(
            lower=[0.0, 0.0, 0.0], upper=[100.0, 100.0, 100.0]
        )
    )
    step3_oracle: bool = True

    def __post_init__(self):
        if not self.incident:
            raise ValueError("config needs at least one incident direction")
        for key in ("grid_shape", "grid_loc"):
            if getattr(self, key) < 12:
                raise ValueError(f"{key} needs at least 12 points")
        if not (0 < self.lambda_shape < math.inf and 0 < self.lambda_loc < math.inf):
            raise ValueError("wavelengths must be positive and finite")
        for d, p in self.incident:
            if abs(float(np.dot(d, p))) > 1e-12:
                raise ValueError("incident polarization must be orthogonal to d")

    def shape_waves(self):
        k = 2.0 * math.pi / self.lambda_shape
        return [forward.PlaneWave(d=d, p=p, k=k) for d, p in self.incident]

    def loc_wave(self):
        d, p = self.incident[0]
        return forward.PlaneWave(d=d, p=p, k=2.0 * math.pi / self.lambda_loc)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _finite_numbers(path, key: str, text: str) -> list:
    nums = [float(t) for t in text.split()]
    if not all(math.isfinite(x) for x in nums):
        raise ValueError(f"{path}: {key} must be finite")
    return nums


def _integers(path, key: str, text: str) -> list:
    try:
        return [int(t) for t in text.split()]
    except ValueError:
        raise ValueError(f"{path}: {key} must be integers, got {text!r}") from None


def parse_config(path) -> ExperimentConfig:
    """Read and validate a flat ``key = value`` experiment config.

    Every real-valued key must be finite: NaN and +-inf raise ``ValueError``.
    """
    path = Path(path)
    raw: dict = {}
    incident = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in body.split("=", 1))
            if key == "incident":
                nums = _finite_numbers(f"{path}:{lineno}", key, value)
                if len(nums) != 6:
                    raise ValueError(
                        f"{path}:{lineno}: incident needs 6 numbers (d then p)"
                    )
                incident.append(
                    (
                        geometry.unit_vector(nums[:3], "incident direction"),
                        geometry.unit_vector(nums[3:], "polarization"),
                    )
                )
            else:
                raw[key] = value

    def take(key, default=None):
        return raw.pop(key, default)

    def take_floats(key, default):
        return _finite_numbers(path, key, take(key, default))

    def take_float(key, default):
        nums = take_floats(key, str(default))
        if len(nums) != 1:
            raise ValueError(f"{path}: {key} needs one number")
        return nums[0]

    def take_int(key, default):
        nums = _integers(path, key, take(key, str(default)))
        if len(nums) != 1:
            raise ValueError(f"{path}: {key} needs one integer")
        return nums[0]

    base = path.parent
    obstacle = take("obstacle")
    if obstacle is None:
        raise ValueError(f"{path}: missing 'obstacle'")
    output_dir = take("output_dir", "out")
    thresholds = maxima.RecoveryThresholds(
        e_tol=take_float("e_tol", 0.5),
        exclusion_radius=take_float("exclusion_radius", 0.3),
        cluster_angle=math.radians(take_float("cluster_angle_deg", 5.0)),
        cutoff=take_int("cutoff", 10),
    )
    multistart = take("multistart")
    if multistart is not None:
        shape = _integers(path, "multistart", multistart)
        if len(shape) != 2 or min(shape) < 1:
            raise ValueError(f"{path}: multistart needs two positive integers")
        log.warning("%s: 'multistart' is ignored; peaks are seeded from a grid", path)
    noise = forward.NoiseModel(
        delta=take_float("noise_delta", 0.0), seed=take_int("noise_seed", 7)
    )
    region_nums = take_floats("region", "0 100 0 100 0 100")
    if len(region_nums) != 6:
        raise ValueError(f"{path}: region needs 6 numbers (x0 x1 y0 y1 z0 z1)")
    region = locator.SampleRegion(
        lower=region_nums[0::2],
        upper=region_nums[1::2],
        resolution=tuple(
            _integers(path, "region_resolution", take("region_resolution", "11 11 11"))
        ),
    )
    config = ExperimentConfig(
        obstacle=(base / obstacle).resolve(),
        incident=tuple(incident),
        output_dir=(base / output_dir).resolve(),
        lambda_shape=take_float("lambda_shape", 0.5),
        lambda_loc=take_float("lambda_loc", 50.0),
        grid_shape=take_int("grid_shape", 7518),
        grid_loc=take_int("grid_loc", 1878),
        thresholds=thresholds,
        noise=noise,
        location=np.array(take_floats("location", "0 0 0")),
        region=region,
        step3_oracle=_parse_bool(take("step3_oracle", "true")),
    )
    if raw:
        raise ValueError(f"{path}: unknown keys {sorted(raw)}")
    return config


# ---------------------------------------------------------------------------
# dataset synthesis


def _shape_data_path(config: ExperimentConfig, index: int) -> Path:
    return config.output_dir / "data" / f"shape_{index:02d}.txt"


def _loc_data_path(config: ExperimentConfig) -> Path:
    return config.output_dir / "data" / "location.txt"


def synthesize_dataset(config: ExperimentConfig) -> list:
    """Write one modulus far-field file per incident pair plus the complex
    low-frequency file for the locator.  Deterministic for a fixed seed."""
    try:
        poly = geometry.load_obstacle(config.obstacle)
    except (OSError, ValueError, geometry.GeometryError) as exc:
        raise PipelineError("synth", f"cannot load obstacle: {exc}") from exc
    (config.output_dir / "data").mkdir(parents=True, exist_ok=True)
    written = []

    grid = sphgrid.build_grid(config.grid_shape)
    for i, wave in enumerate(config.shape_waves()):
        samples = forward.sample_phaseless(poly, wave, grid)
        if config.noise.delta > 0:
            per_direction = forward.NoiseModel(
                delta=config.noise.delta, seed=config.noise.seed + i
            )
            samples = forward.add_noise(samples, per_direction)
        path = _shape_data_path(config, i)
        forward.save_far_field(samples, path)
        written.append(path)

    loc_grid = sphgrid.build_grid(config.grid_loc)
    loc_wave = config.loc_wave()
    if config.step3_oracle:
        samples = locator.degree_one_oracle(loc_grid, loc_wave, config.location)
    else:
        samples = forward.sample_complex(poly, loc_wave, loc_grid)
        samples = forward.apply_translation_phase(samples, config.location)
    path = _loc_data_path(config)
    forward.save_far_field(samples, path)
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# recovery


@dataclass(frozen=True)
class RecoveryReport:
    """Everything the pipeline recovered, plus where it was written."""

    raw_faces: maxima.RecoveredFaceSet
    effective: maxima.RecoveredFaceSet
    fit: minkowski.OffsetFit
    reconstructed: geometry.ConvexPolyhedron
    location: np.ndarray
    indicator_value: float
    located: geometry.ConvexPolyhedron
    files: tuple


def _step1_single(index, samples, thresholds, wavelength):
    d = samples.wave.d
    peaks = maxima.find_local_maxima(sphgrid.sht_forward(samples, thresholds.cutoff))
    selected = maxima.select_critical_directions(peaks, d, thresholds)
    return maxima.peaks_to_faces(selected, d, wavelength, source_index=index)


def run_pipeline(config: ExperimentConfig) -> RecoveryReport:
    """Execute steps 1-3 and write the report tables.

    Pre-synthesized far-field files in the output directory are reused;
    missing ones are synthesized first.  Any stage failure aborts with a
    stage-tagged :class:`PipelineError`, keeping partial artifacts on disk.
    """
    needed = [_shape_data_path(config, i) for i in range(len(config.incident))]
    needed.append(_loc_data_path(config))
    if not all(p.exists() for p in needed):
        synthesize_dataset(config)

    try:
        # the shape files share one point set: its grid and weights are built once
        shape_samples = []
        grid = None
        for i in range(len(config.incident)):
            samples = forward.load_far_field(_shape_data_path(config, i), grid)
            grid = samples.grid
            shape_samples.append(samples)
        loc_samples = forward.load_far_field(_loc_data_path(config))
    except (OSError, ValueError) as exc:
        raise PipelineError("load", str(exc)) from exc

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    files = []

    # Step 1: peaks -> normals and areas, one incident direction at a time
    try:
        face_sets = [
            _step1_single(i, s, config.thresholds, config.lambda_shape)
            for i, s in enumerate(shape_samples)
        ]
        raw_faces = maxima.merge_face_sets(face_sets)
        effective = maxima.cluster_effective_normals(
            raw_faces, config.thresholds.cluster_angle
        )
    except Exception as exc:
        raise PipelineError("step1", str(exc)) from exc
    files.append(_write_face_table(out / "recovered_faces.csv", raw_faces))
    files.append(_write_face_table(out / "effective_normals.csv", effective))
    if len(effective) < 4:
        raise PipelineError(
            "step1", f"only {len(effective)} effective normals; need at least 4"
        )

    # Step 2: areas -> offsets and the polyhedron they bound
    try:
        fit = minkowski.fit_offsets(effective.normals, effective.areas)
    except Exception as exc:
        raise PipelineError("step2", str(exc)) from exc
    reconstructed = fit.polyhedron
    files.append(_write_offsets(out / "offsets.csv", fit))
    files.append(_write_areas(out / "areas.csv", effective, fit))
    files.append(_write_vertices(out / "vertices.csv", reconstructed))
    files.append(_write_fit_report(out / "fit_report.txt", fit))

    # Step 3: low-frequency location
    z_star, ind_val, location_files = locate_obstacle(config, loc_samples)
    files.extend(location_files)
    located = reconstructed.translated(z_star - reconstructed.centroid)
    geometry.save_obstacle(reconstructed, out / "recovered.obs")
    files.append(out / "recovered.obs")
    geometry.save_obstacle(located, out / "recovered_located.obs")
    files.append(out / "recovered_located.obs")

    return RecoveryReport(
        raw_faces=raw_faces,
        effective=effective,
        fit=fit,
        reconstructed=reconstructed,
        location=z_star,
        indicator_value=ind_val,
        located=located,
        files=tuple(files),
    )


def locate_obstacle(config: ExperimentConfig, samples=None):
    """Step 3: locate the obstacle from its low-frequency far field and write
    ``location.csv`` and ``indicator_scan.txt`` to the output directory.

    ``samples`` defaults to the config's low-frequency data file, which is
    synthesized first when missing.  Returns ``(z, value, files)``; a
    failure raises a stage-tagged :class:`PipelineError`.
    """
    if samples is None:
        path = _loc_data_path(config)
        if not path.exists():
            synthesize_dataset(config)
        try:
            samples = forward.load_far_field(path)
        except (OSError, ValueError) as exc:
            raise PipelineError("load", str(exc)) from exc
    try:
        z, value, (points, values) = locator.locate(samples, config.region)
    except Exception as exc:
        raise PipelineError("step3", str(exc)) from exc
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    files = (
        _write_location(out / "location.csv", z, value),
        _write_scan(out / "indicator_scan.txt", points, values),
    )
    return z, value, files


# ---------------------------------------------------------------------------
# report writers (fixed formatting keeps outputs byte-identical)

_FLOAT = "%.9f"


def _save_table(path: Path, rows, fmt, header="", delimiter=",") -> Path:
    # np.savetxt given a path opens it through np.lib._datasource, which
    # imports gzip; an open file skips that
    with open(path, "w") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter=delimiter, header=header, comments="")
    return path


def _write_face_table(path: Path, faces: maxima.RecoveredFaceSet) -> Path:
    rows = np.column_stack(
        [faces.source_indices, faces.normals, faces.peak_values, faces.areas]
    )
    header = "source_d_index,nu_x,nu_y,nu_z,peak_value,area"
    return _save_table(path, rows, ["%d"] + [_FLOAT] * 5, header)


def _write_offsets(path: Path, fit: minkowski.OffsetFit) -> Path:
    rows = np.column_stack([np.arange(len(fit.offsets)), fit.offsets])
    return _save_table(path, rows, ["%d", _FLOAT], "face,offset")


def _write_areas(
    path: Path, effective: maxima.RecoveredFaceSet, fit: minkowski.OffsetFit
) -> Path:
    rows = np.column_stack(
        [np.arange(len(fit.offsets)), effective.areas, fit.target_areas, fit.areas]
    )
    header = "face,recovered_area,balanced_area,fitted_area"
    return _save_table(path, rows, ["%d"] + [_FLOAT] * 3, header)


def _write_vertices(path: Path, poly: geometry.ConvexPolyhedron) -> Path:
    rows = np.column_stack([np.arange(poly.num_vertices), poly.vertices])
    return _save_table(path, rows, ["%d"] + [_FLOAT] * 3, "vertex,x,y,z")


def _write_location(path: Path, z: np.ndarray, value: float) -> Path:
    return _save_table(path, [np.append(z, value)], _FLOAT, "z_x,z_y,z_z,indicator")


def _write_scan(path: Path, points: np.ndarray, values: np.ndarray) -> Path:
    return _save_table(path, np.column_stack([points, values]), _FLOAT, delimiter=" ")


def _write_fit_report(path: Path, fit: minkowski.OffsetFit) -> Path:
    lines = [
        f"residual = {fit.residual:.6e}",
        f"iterations = {fit.iterations}",
        f"converged = {fit.converged}",
        f"vanished_facets = {list(fit.vanished)}",
        "objective_history = [" + ", ".join(f"{v:.9e}" for v in fit.history) + "]",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path
