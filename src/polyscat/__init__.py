"""Phaseless backscattering recovery of convex polyhedral perfect conductors.

A physical-optics forward simulator synthesizes phaseless far-field data;
the recovery runs in three steps: backscattering peaks give face normals
and areas, a convex Newton fit of the face offsets rebuilds the polyhedron
(Minkowski problem), and a degree-1 harmonic indicator on one
low-frequency measurement pins down the location.
"""

from .forward import (
    COMPLEX_E,
    COMPLEX_H,
    MODULUS,
    FarFieldSamples,
    NoiseModel,
    PlaneWave,
    add_noise,
    apply_translation_phase,
    po_far_field,
    po_far_field_grid,
    polygon_fourier_integral,
    sample_complex,
    sample_phaseless,
)
from .geometry import (
    AdmissibilityParams,
    ConvexPolyhedron,
    FrontView,
    build_polyhedron,
    check_admissibility,
    classify_faces,
    halfspace_intersection,
    load_obstacle,
    save_obstacle,
)
from .locator import SampleRegion, degree_one_oracle, indicator_value, locate
from .maxima import (
    PeakSet,
    RecoveredFaceSet,
    RecoveryThresholds,
    cluster_effective_normals,
    find_local_maxima,
    normal_and_area_from_peak,
    select_critical_directions,
    specular_direction,
)
from .minkowski import OffsetFit, balance_areas, facet_areas, fit_offsets
from .pipeline import ExperimentConfig, parse_config, run_pipeline, synthesize_dataset
from .sphgrid import (
    HarmonicExpansion,
    SphericalGrid,
    build_grid,
    eval_scalar_harmonic,
    sht_forward,
    synthesize,
)

__version__ = "0.1.0"
