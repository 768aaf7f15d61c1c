import logging
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polyscat.forward import (
    FarFieldSamples,
    PlaneWave,
    apply_translation_phase,
    sample_complex,
    sample_phaseless,
)
from conftest import write_experiment_config
from polyscat import cli, locator
from polyscat.geometry import save_obstacle
from polyscat.locator import (
    SampleRegion,
    degree_one_oracle,
    indicator_values,
    locate,
)
from polyscat.sphgrid import build_grid

LOW_WAVE = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=math.pi / 25.0)
REGION = SampleRegion(lower=[0.0, 0.0, 0.0], upper=[100.0, 100.0, 100.0])


@pytest.fixture(scope="module")
def grid():
    return build_grid(1878)


def translated_samples(grid, tetra, wave, z0, data):
    """The degree-1 oracle, or the tetrahedron's complex far field moved
    to ``z0``."""
    if data == "oracle":
        return degree_one_oracle(grid, wave, z0)
    return apply_translation_phase(sample_complex(tetra, wave, grid), z0)


class TestIndicator:
    def test_projection_onto_own_basis(self, grid):
        U = locator._degree_one_basis(grid.points)[2]
        samples = FarFieldSamples(grid=grid, values=U.astype(complex), wave=LOW_WAVE)
        assert abs(indicator_values(samples, [[0.0, 0.0, 0.0]])[0] - 1.0) <= 1e-2

    def test_the_fewest_exact_points_read_indicator_one(self):
        # 144 = 16 (2 + 1)^2 points make the weights exact to degree 2, so
        # the six fields are orthonormal and the oracle reads 1 at its own
        # location; one point fewer and the indicator exceeds 1
        z0 = [50.0, 50.0, 50.0]
        assert locator.MIN_GRID_POINTS == 144
        for n, low, high in ((144, 1.0 - 1e-12, 1.0 + 1e-12), (143, 1.00005, 1.0001)):
            samples = degree_one_oracle(build_grid(n), LOW_WAVE, z0)
            assert low <= indicator_values(samples, [z0])[0] <= high, n

    def test_degree_two_rejected(self, grid):
        # the normalized surface gradient of the degree-2 harmonic xz
        x, _, z = grid.points.T
        grad = np.column_stack((z, np.zeros_like(z), x))
        grad -= 2.0 * (x * z)[:, None] * grid.points
        norm2 = np.sum(grid.point_weights * np.einsum("ij,ij->i", grad, grad))
        U2 = grad / np.sqrt(norm2)
        samples = FarFieldSamples(grid=grid, values=U2.astype(complex), wave=LOW_WAVE)
        assert indicator_values(samples, [[0.0, 0.0, 0.0]])[0] <= 1e-2

    def test_oracle_peaks_at_translation(self, grid):
        z0 = np.array([50.0, 50.0, 50.0])
        samples = degree_one_oracle(grid, LOW_WAVE, z0)
        peak = indicator_values(samples, z0[None])[0]
        assert abs(peak - 1.0) <= 1e-2
        rng = np.random.default_rng(2)
        probes = rng.uniform(0.0, 100.0, size=(30, 3))
        probes = probes[np.linalg.norm(probes - z0, axis=1) > 10.0]
        assert indicator_values(samples, probes).max() < peak

    def test_bounds_over_scan(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [50.0, 50.0, 50.0])
        _, _, vals = locate(samples, REGION)
        assert vals.min() >= 0.0
        assert vals.max() <= 1.02

    def test_global_phase_invariance(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [20.0, 30.0, 40.0])
        rotated = FarFieldSamples(
            grid=grid,
            values=samples.values * np.exp(1j * 0.73),
            wave=LOW_WAVE,
        )
        z = np.array([15.0, 25.0, 35.0])
        assert abs(
            indicator_values(samples, z[None])[0] - indicator_values(rotated, z[None])[0]
        ) < 1e-12

    def test_translation_covariance(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [10.0, 20.0, 30.0])
        t = np.array([4.0, -6.0, 2.0])
        moved = apply_translation_phase(samples, t)
        z = np.array([12.0, 18.0, 28.0])
        assert abs(
            indicator_values(moved, z[None])[0]
            - indicator_values(samples, (z - t)[None])[0]
        ) < 1e-12

    def test_wrong_kind_and_zero_field(self, grid, tetra):
        modulus = sample_phaseless(
            tetra, PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=4 * math.pi), grid
        )
        with pytest.raises(ValueError, match="^the indicator needs complex tangential samples$"):
            indicator_values(modulus, [[0.0, 0.0, 0.0]])
        zero = FarFieldSamples(
            grid=grid,
            values=np.zeros((grid.size, 3), complex),
            wave=LOW_WAVE,
        )
        with pytest.raises(ValueError, match="^far field is 0 at every sample$"):
            indicator_values(zero, [[0.0, 0.0, 0.0]])


def grid_scan(samples, lower, upper, shape):
    """``locator._scan`` over the ``shape`` grid from ``lower`` to ``upper``."""
    spacing = (upper - lower) / np.maximum(np.array(shape) - 1, 1)
    return locator._scan(*locator._degree_one_projector(samples), lower, spacing, shape)


def region_scan(samples, region):
    """``locator._scan`` over the points of ``region.axes(k)``."""
    shape = tuple(len(a) for a in region.axes(samples.wave.k))
    return grid_scan(samples, region.lower, region.upper, shape)


class TestScan:
    @pytest.mark.parametrize("data", ["oracle", "sample_complex"])
    def test_separable_scan_matches_pointwise(self, grid, tetra, data):
        # a non-cubic shape and a nonzero lower corner catch a wrong
        # axis order or origin in the per-axis phase tables
        lower, upper, shape = np.array([-7.5, 12.0, 3.25]), np.array([41.0, 60.5, 88.0]), (1, 4, 7)
        samples = translated_samples(grid, tetra, LOW_WAVE, [20.0, 35.0, 50.0], data)
        scan = grid_scan(samples, lower, upper, shape)
        assert scan.shape == shape
        # scan[i, j, l] is the indicator at (x_i, y_j, z_l)
        axes = [np.linspace(a, b, n) for a, b, n in zip(lower, upper, shape)]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        expected = indicator_values(samples, points.reshape(-1, 3)).reshape(scan.shape)
        assert_allclose(scan, expected, rtol=1e-12, atol=0)


class TestExpansion:
    @pytest.mark.parametrize("data", ["oracle", "sample_complex"])
    def test_matches_finite_differences(self, grid, tetra, data):
        samples = translated_samples(grid, tetra, LOW_WAVE, [47.3, 52.8, 49.6], data)
        G, K, norm2 = locator._degree_one_projector(samples)

        def f(Z):
            return indicator_values(samples, Z)

        e = 1e-3 * np.eye(3)
        u = np.array([0.6, -0.48, 0.64])
        for z in ([50.0, 50.0, 50.0], [40.0, 60.0, 55.0], [20.0, 80.0, 10.0]):
            z = np.array(z)
            grad, hess, change = locator._expansion(G, K, norm2, z)
            fd_grad = (f(z + e) - f(z - e)) / 2e-3
            fd_hess = np.array(
                [f(z + ei + e) - f(z + ei - e) - f(z - ei + e) + f(z - ei - e) for ei in e]
            ) / 4e-6
            # relative to the largest entry, as some entries are near zero
            assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-6 * np.abs(fd_grad).max())
            assert_allclose(hess, fd_hess, rtol=1e-6, atol=1e-6 * np.abs(fd_hess).max())
            # the exact change: a difference of values where they resolve it,
            # and the quadratic model where the difference is rounding noise
            assert_allclose(change(2.0 * u), np.diff(f([z, z + 2.0 * u]))[0], rtol=1e-9)
            s = 1e-9 * u
            assert_allclose(change(s), grad @ s + s @ hess @ s / 2, rtol=1e-6)


def compass_reference(samples, region):
    """A coarse scan and a clamped compass search with step halving down to
    1e-3, every trial point evaluated afresh: an independent oracle for
    ``locate``."""
    G, K, norm2 = locator._degree_one_projector(samples)
    scan, axes = region_scan(samples, region), region.axes(samples.wave.k)
    best = np.unravel_index(np.argmax(scan), scan.shape)
    z, fz = np.array([a[i] for a, i in zip(axes, best)]), scan[best]
    spacing = (region.upper - region.lower) / np.maximum(np.array(scan.shape) - 1, 1)
    step = float(spacing.max())
    eye = np.eye(3)
    while step > 1e-3:
        moved = False
        for axis in range(3):
            for sgn in (1.0, -1.0):
                trial = np.clip(z + sgn * step * eye[axis], region.lower, region.upper)
                ft = float(np.sum(np.abs(G @ np.exp(-1j * (K @ trial))) ** 2) / norm2)
                if ft > fz:
                    z, fz = trial, ft
                    moved = True
        if not moved:
            step *= 0.5
    return z, fz


def count_trials(monkeypatch):
    """Patch ``locate``'s expansions to record each trial they evaluate."""
    trials = []
    expansion = locator._expansion

    def recorded(*args):
        grad, hess, change = expansion(*args)

        def counted(s):
            trials.append(s)
            return change(s)

        return grad, hess, counted

    monkeypatch.setattr(locator, "_expansion", recorded)
    return trials


class TestLocate:
    # grid-aligned, off-grid, a corner and an edge of the region, and a
    # source outside it whose maximum lies on the face x = 100: trials clamp
    Z0 = [
        (50.0, 50.0, 50.0),
        (47.3, 52.8, 49.6),
        (0.0, 0.0, 0.0),
        (100.0, 37.1, 0.0),
        (130.0, 61.7, 23.2),
    ]

    @pytest.mark.parametrize("data", ["oracle", "sample_complex"])
    @pytest.mark.parametrize("z0", Z0)
    def test_refines_past_the_compass_in_few_evaluations(
        self, grid, tetra, z0, data, monkeypatch
    ):
        samples = translated_samples(grid, tetra, LOW_WAVE, z0, data)
        ref_z, ref_value = compass_reference(samples, REGION)
        trials = count_trials(monkeypatch)
        z, value, _ = locate(samples, REGION)
        # a compass trial clamped back onto its corner re-evaluates that
        # point and can gain the last bit of the scan's value there
        assert value >= ref_value - 4 * np.spacing(ref_value)
        assert np.abs(z - ref_z).max() <= 2e-3
        assert len(trials) <= 10

    @pytest.mark.parametrize(
        "k, z0", [(0.2236, (36.3, 96.91, 94.56)), (0.2518, (35.83, 75.75, 4.66))]
    )
    def test_far_start_does_not_overshoot_back_and_forth(
        self, small_grid, tetra, k, z0, monkeypatch
    ):
        # PO data whose best coarse cell is far out on the main lobe: a full
        # Newton step lands about as far beyond the peak and still rises a
        # little, so a cap fixed at one spacing let the ascent swing across
        # the peak for 32 iterations, and in the second case for all 50
        wave = PlaneWave(d=LOW_WAVE.d, p=LOW_WAVE.p, k=k)
        samples = translated_samples(small_grid, tetra, wave, z0, "sample_complex")
        trials = count_trials(monkeypatch)
        z, _, _ = locate(samples, REGION)
        assert len(trials) <= 10
        grad, _, _ = locator._expansion(*locator._degree_one_projector(samples), z)
        assert np.abs(np.clip(z + grad, REGION.lower, REGION.upper) - z).max() <= 1e-9 * k

    def test_logs_what_the_refinement_did(self, grid, caplog):
        samples = degree_one_oracle(grid, LOW_WAVE, [47.3, 52.8, 49.6])
        with caplog.at_level(logging.DEBUG, logger="polyscat"):
            _, _, scan = locate(samples, REGION)
        top = np.sort(scan, axis=None)[-2:]
        (record,) = [r for r in caplog.records if r.name == "polyscat"]
        assert record.levelno == logging.DEBUG
        nx, ny, nz, iters, evals, margin = record.args
        assert (nx, ny, nz) == scan.shape == (5, 5, 5)
        assert 1 <= iters <= locator._MAX_ITER and 0 <= evals <= 10
        assert margin == top[1] - top[0] > 0

    # in boxes 20 and 33 wavelengths wide, z0 in [5, 95]^3: the first point,
    # then seeded draws; 11 points per axis ended on a sidelobe in each case,
    # 14 to 86 away
    WIDE = [(5.0, (29.8, 43.2, 42.5))] + [
        (wavelength, tuple(z0)) for wavelength, z0 in
        zip([5.0] * 3 + [100.0 / 33.0] * 3, np.random.default_rng(20261020).uniform(5, 95, (6, 3)))
    ]

    @pytest.mark.parametrize("wavelength, z0", WIDE)
    def test_finds_the_main_lobe_in_a_wide_box(self, small_grid, wavelength, z0):
        wave = PlaneWave(d=LOW_WAVE.d, p=LOW_WAVE.p, k=2.0 * math.pi / wavelength)
        z, _, _ = locate(degree_one_oracle(small_grid, wave, z0), REGION)
        assert np.abs(z - z0).max() <= 1e-9

    def test_polyscat_locate_prints_the_main_lobe_of_a_wide_box(self, tmp_path, tetra, capsys):
        save_obstacle(tetra, tmp_path / "tetra.obs")
        cfg = write_experiment_config(
            tmp_path / "wide.cfg", "tetra.obs", lambda_loc=5.0, grid_loc=500,
            location=self.WIDE[0][1],
        )
        assert cli.main(["synth", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["locate", str(cfg)]) == 0
        assert capsys.readouterr().out == "29.800000 43.200000 42.500000 1.000000\n"

    def test_a_scan_over_budget_is_refused_before_it_starts(self, grid, monkeypatch):
        def scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(locator, "_scan", scan)
        # lambda 0.5 over REGION: 401 points per axis
        wave = PlaneWave(d=LOW_WAVE.d, p=LOW_WAVE.p, k=4.0 * math.pi)
        with pytest.raises(ValueError, match="^401 x 401 x 401 scan points"):
            locate(degree_one_oracle(grid, wave, [50.0, 50.0, 50.0]), REGION)

    def test_recovers_grid_aligned_center(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [50.0, 50.0, 50.0])
        z, value, _ = locate(samples, REGION)
        assert np.abs(z - 50.0).max() <= 1e-2
        assert 0.9 <= value <= 1.02

    def test_returns_its_coarse_scan(self, grid, monkeypatch):
        samples = degree_one_oracle(grid, LOW_WAVE, [47.3, 52.8, 49.6])
        ref = region_scan(samples, REGION)
        scans = []
        scan_once = locator._scan

        def counted(*args):
            scans.append(scan_once(*args))
            return scans[-1]

        monkeypatch.setattr(locator, "_scan", counted)
        _, value, scan = locate(samples, REGION)
        assert len(scans) == 1 and scan is scans[0]
        assert scan.shape == tuple(len(a) for a in REGION.axes(LOW_WAVE.k))
        assert np.array_equal(scan, ref)
        assert value >= scan.max()

    def test_builds_its_projector_once(self, grid, monkeypatch):
        calls = []
        build = locator._degree_one_projector

        def counted(samples):
            calls.append(1)
            return build(samples)

        monkeypatch.setattr(locator, "_degree_one_projector", counted)
        locate(degree_one_oracle(grid, LOW_WAVE, [47.3, 52.8, 49.6]), REGION)
        assert len(calls) == 1

    def test_recovers_off_grid_center(self, grid):
        z0 = np.array([47.3, 52.8, 49.6])
        samples = degree_one_oracle(grid, LOW_WAVE, z0)
        z, _, _ = locate(samples, REGION)
        assert np.abs(z - z0).max() <= 1e-2

    def test_corner_center_clamped(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [0.0, 0.0, 0.0])
        z, _, _ = locate(samples, REGION)
        assert np.abs(z).max() <= 1e-2

    def test_frequency_independent(self, grid):
        z0 = np.array([50.0, 50.0, 50.0])
        half = PlaneWave(d=LOW_WAVE.d, p=LOW_WAVE.p, k=LOW_WAVE.k / 2.0)
        z1, _, _ = locate(degree_one_oracle(grid, LOW_WAVE, z0), REGION)
        z2, _, _ = locate(degree_one_oracle(grid, half, z0), REGION)
        assert np.abs(z1 - z2).max() <= 1e-2

    @pytest.mark.parametrize("power", [560, -560])
    def test_a_problem_scaled_by_a_power_of_two_locates_the_scaled_point(self, grid, power):
        # step 3 has no length scale of its own: with 1 / k, the box and the
        # obstacle times 2^560, K^T K would underflow, times 2^-560 overflow
        # (each a RuntimeWarning, an error under the suite's warning filter)
        z0, scale = np.array([47.3, 52.8, 49.6]), 2.0**power
        wave = PlaneWave(d=LOW_WAVE.d, p=LOW_WAVE.p, k=LOW_WAVE.k / scale)
        region = SampleRegion(lower=REGION.lower * scale, upper=REGION.upper * scale)
        z, value, scan = locate(degree_one_oracle(grid, LOW_WAVE, z0), REGION)
        scaled = locate(degree_one_oracle(grid, wave, z0 * scale), region)
        assert scaled[0].tobytes() == (z * scale).tobytes()
        assert scaled[1] == value and scaled[2].tobytes() == scan.tobytes()

    def test_region_validation(self):
        with pytest.raises(ValueError):
            SampleRegion(lower=[0.0, 0.0, 0.0], upper=[1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="^region bounds must be 3-vectors$"):
            SampleRegion(lower=[0.0, 0.0], upper=[1.0, 1.0])

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([0.0, 0.0, math.nan], [100.0, 100.0, 100.0]),
            ([0.0, 0.0, 0.0], [100.0, math.nan, 100.0]),
            ([-math.inf, 0.0, 0.0], [100.0, 100.0, 100.0]),
            ([0.0, 0.0, 0.0], [100.0, 100.0, math.inf]),
        ],
    )
    def test_region_bounds_must_be_finite(self, lower, upper):
        with pytest.raises(ValueError, match="^region bounds must be finite$"):
            SampleRegion(lower=lower, upper=upper)


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(500)


@given(
    inside=st.booleans(),
    u=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    angles=st.tuples(
        st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)
    ),
    k=st.floats(math.pi / 50, math.pi / 10),
    oracle=st.booleans(),
)
# a maximum on the face x = 100 at the end of a ridge whose curvature along
# its crest is about 2e-7, against 1.5e-4 across it: a gradient step scaled
# by the largest curvature crawls 1e-2 an iteration along it
@example(inside=False, u=(0.78125, 0.0, 0.0), angles=(0.0, 0.0, 0.0), k=0.125, oracle=False)
def test_locate_ends_at_a_box_kkt_point(small_grid, tetra, inside, u, angles, k, oracle):
    # z0 inside the region [0, 100]^3, or anywhere in [-50, 150]^3
    z0 = 50.0 + (50.0 if inside else 100.0) * np.array(u)
    # d at polar angles (theta, phi); p turned by psi from e_theta to e_phi
    theta, phi, psi = angles
    ct, st_, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    d = np.array([st_ * cp, st_ * sp, ct])
    e_theta, e_phi = np.array([ct * cp, ct * sp, -st_]), np.array([-sp, cp, 0.0])
    wave = PlaneWave(d=d, p=math.cos(psi) * e_theta + math.sin(psi) * e_phi, k=k)
    data = "oracle" if oracle else "sample_complex"
    samples = translated_samples(small_grid, tetra, wave, z0, data)
    z, value, scan = locate(samples, REGION)
    grad, _, _ = locator._expansion(*locator._degree_one_projector(samples), z)
    # the indicator is at most about 1 and varies over a length 1 / k, so k
    # is the scale of its gradient; the projected gradient vanishes
    assert np.abs(np.clip(z + grad, REGION.lower, REGION.upper) - z).max() <= 1e-9 * k
    assert value >= scan.max()
    if oracle and inside:
        assert np.abs(z - z0).max() <= 1e-9
