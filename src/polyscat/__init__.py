"""Phaseless backscattering recovery of convex polyhedral perfect conductors.

A physical-optics forward simulator synthesizes phaseless far-field data;
the recovery runs in three steps: backscattering peaks give face normals
and areas, a convex Newton fit of the face offsets rebuilds the polyhedron
(Minkowski problem), and a degree-1 harmonic indicator on one
low-frequency measurement pins down the location.
"""

from .forward import (
    COMPLEX_E,
    MODULUS,
    FarFieldSamples,
    NoiseModel,
    PlaneWave,
    add_noise,
    apply_translation_phase,
    po_far_field_grid,
    polygon_fourier_integral,
    sample_complex,
    sample_phaseless,
)
from .geometry import (
    ConvexPolyhedron,
    build_polyhedron,
    halfspace_intersection,
    load_obstacle,
    save_obstacle,
)
from .locator import SampleRegion, degree_one_oracle, locate
from .maxima import (
    PeakSet,
    RecoveredFaceSet,
    cluster_effective_normals,
    find_local_maxima,
    normal_and_area_from_peak,
    select_critical_directions,
    specular_direction,
)
from .minkowski import OffsetFit, balance_areas, fit_offsets
from .pipeline import ExperimentConfig, parse_config, run_pipeline, synthesize_dataset
from .sphgrid import SphericalGrid, build_grid, sht_forward

__version__ = "0.1.0"
