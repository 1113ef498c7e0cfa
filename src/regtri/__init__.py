"""Exact-arithmetic construction and enumeration of regular
triangulations of point configurations: lexicographic liftings, point
splitting, lifting sweeps, sewing of neighborly polytopes, and a
fingerprint census of the labeled types produced."""

__version__ = "0.1.0"

from .census import (
    CensusReport,
    FacetFingerprint,
    FingerprintStore,
    SewingRun,
    census,
    double_lift,
    fingerprint,
    is_k_neighborly,
    recover_sigma_suffix,
    sew,
    single_lift,
)
from .enumeration import (
    InseparabilityReport,
    RealizationRun,
    SplitPair,
    SweepTrace,
    check_inseparable,
    cyclic_inseparable_realization,
    enumerate_all_oracle,
    enumerate_regular,
    flip_neighbors,
    shared_witness,
    split_point,
    t_sweep,
    triangulation_count_bound,
)
from .errors import (
    BudgetExceeded,
    DegenerateStep,
    GenericityFailure,
    NonPureComplex,
    NonTriangulationSnapshot,
    NonUniqueIndex,
    NotAFace,
    NotATriangulation,
    NotAVertex,
    NotConvexPosition,
    NotFullDimensional,
    PointUnused,
    RegtriError,
    TooFewPoints,
    ValidationFailed,
)
from .geometry import (
    PointConfiguration,
    classify_visibility,
    configuration_in_general_position,
    cyclic_configuration,
    face_lattice_faces,
    facets,
    is_face,
    is_general_position,
    is_vertex,
    in_convex_position,
    moment_curve_point,
    orientation,
    proper_faces,
    visibility,
)
from .lifting import (
    LiftSpec,
    LiftedConfiguration,
    auto_epsilons,
    auto_lift,
    contraction,
    double_contraction,
    lex_lift,
    perturb_general,
)
from .triangulations import (
    RegularityResult,
    Subdivision,
    Triangulation,
    f_vector,
    h_vector,
    is_regular,
    is_triangulation,
    min_cells_bound,
    placing_triangulation,
    pulling_triangulation,
    regular_subdivision,
)
