import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polyscat.forward import (
    COMPLEX_E,
    FarFieldSamples,
    PlaneWave,
    WrongKind,
    apply_translation_phase,
    sample_complex,
    sample_phaseless,
)
from polyscat import locator
from polyscat.locator import (
    SampleRegion,
    ZeroField,
    degree_one_oracle,
    indicator_values,
    locate,
    scan_indicator,
)
from polyscat.sphgrid import build_grid

LOW_WAVE = PlaneWave(d=np.array([1.0, 0, 0]), p=np.array([0.0, 0, 1.0]), k=math.pi / 25.0)
REGION = SampleRegion(lower=[0.0, 0.0, 0.0], upper=[100.0, 100.0, 100.0])


@pytest.fixture(scope="module")
def grid():
    return build_grid(1878)


class TestIndicator:
    def test_projection_onto_own_basis(self, grid):
        U = locator._degree_one_basis(grid.points)[2]
        samples = FarFieldSamples(
            grid=grid, values=U.astype(complex), wave=LOW_WAVE, kind=COMPLEX_E
        )
        assert abs(indicator_values(samples, [[0.0, 0.0, 0.0]])[0] - 1.0) <= 1e-2

    def test_degree_two_rejected(self, grid):
        # the normalized surface gradient of the degree-2 harmonic xz
        x, _, z = grid.points.T
        grad = np.column_stack((z, np.zeros_like(z), x))
        grad -= 2.0 * (x * z)[:, None] * grid.points
        norm2 = np.sum(grid.point_weights * np.einsum("ij,ij->i", grad, grad))
        U2 = grad / np.sqrt(norm2)
        samples = FarFieldSamples(
            grid=grid, values=U2.astype(complex), wave=LOW_WAVE, kind=COMPLEX_E
        )
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
        _, vals = scan_indicator(samples, REGION)
        assert vals.min() >= 0.0
        assert vals.max() <= 1.02

    def test_global_phase_invariance(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [20.0, 30.0, 40.0])
        rotated = FarFieldSamples(
            grid=grid,
            values=samples.values * np.exp(1j * 0.73),
            wave=LOW_WAVE,
            kind=COMPLEX_E,
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
        with pytest.raises(WrongKind):
            indicator_values(modulus, [[0.0, 0.0, 0.0]])
        zero = FarFieldSamples(
            grid=grid,
            values=np.zeros((grid.size, 3), complex),
            wave=LOW_WAVE,
            kind=COMPLEX_E,
        )
        with pytest.raises(ZeroField):
            indicator_values(zero, [[0.0, 0.0, 0.0]])


class TestScan:
    @pytest.mark.parametrize("data", ["oracle", "sample_complex"])
    def test_separable_scan_matches_pointwise(self, grid, tetra, data):
        # a non-cubic resolution and a nonzero lower corner catch a wrong
        # axis order or origin in the per-axis phase tables
        region = SampleRegion(
            lower=[-7.5, 12.0, 3.25], upper=[41.0, 60.5, 88.0], resolution=(1, 4, 7)
        )
        z0 = [20.0, 35.0, 50.0]
        if data == "oracle":
            samples = degree_one_oracle(grid, LOW_WAVE, z0)
        else:
            samples = apply_translation_phase(sample_complex(tetra, LOW_WAVE, grid), z0)
        points, values = scan_indicator(samples, region)
        assert np.array_equal(points, region.coarse_points())
        assert_allclose(values, indicator_values(samples, points), rtol=1e-12, atol=0)


def compass_reference(samples, region):
    """``locate``'s scan and compass search with every trial point
    evaluated afresh, revisits included."""
    G, K, norm2 = locator._degree_one_projector(samples)
    Z, vals = locator._scan(G, K, norm2, region)
    best = int(np.argmax(vals))
    z, fz = Z[best], vals[best]
    spacing = (region.upper - region.lower) / np.maximum(np.array(region.resolution) - 1, 1)
    step = float(spacing.max())
    eye = np.eye(3)
    while step > locator._REFINE_TOL:
        moved = False
        for axis in range(3):
            for sgn in (1.0, -1.0):
                trial = region.clamp(z + sgn * step * eye[axis])
                ft = float(locator._indicator(G, K, norm2, trial))
                if ft > fz:
                    z, fz = trial, ft
                    moved = True
        if not moved:
            step *= 0.5
    return z, fz


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

    @pytest.mark.parametrize("z0", Z0)
    def test_compass_matches_reference_and_evaluates_each_point_once(
        self, grid, z0, monkeypatch
    ):
        samples = degree_one_oracle(grid, LOW_WAVE, z0)
        ref_z, ref_value = compass_reference(samples, REGION)
        evaluated = []
        indicator = locator._indicator

        def recorded(G, K, norm2, Z):
            evaluated.append(np.asarray(Z).tobytes())
            return indicator(G, K, norm2, Z)

        monkeypatch.setattr(locator, "_indicator", recorded)
        z, value, _ = locate(samples, REGION)
        assert z.tobytes() == ref_z.tobytes()
        assert value == ref_value
        assert len(set(evaluated)) == len(evaluated)

    def test_recovers_grid_aligned_center(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [50.0, 50.0, 50.0])
        z, value, _ = locate(samples, REGION)
        assert np.abs(z - 50.0).max() <= 1e-2
        assert 0.9 <= value <= 1.02

    def test_returns_its_coarse_scan(self, grid):
        samples = degree_one_oracle(grid, LOW_WAVE, [47.3, 52.8, 49.6])
        _, value, (points, values) = locate(samples, REGION)
        ref_points, ref_values = scan_indicator(samples, REGION)
        assert np.array_equal(points, ref_points)
        assert np.array_equal(values, ref_values)
        assert value >= values.max()

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

    def test_region_validation(self):
        with pytest.raises(ValueError):
            SampleRegion(lower=[0.0, 0.0, 0.0], upper=[1.0, -1.0, 1.0])

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
