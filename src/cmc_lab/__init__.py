"""cmc_lab: spacelike constant-mean-curvature surfaces in Lorentz-Minkowski
3-space, their Delaunay families and conjugates, and numerical classification
of their singular points (conelike points, the (2,5)-cuspidal-edge criterion,
and certificates excluding folds)."""

__version__ = "0.1.0"

from .lorentz import (  # noqa: F401
    ExtComplex,
    H2Point,
    LVec3,
    lorentz_cross,
    lorentz_inner,
)
from .jets import Jet1, Jet2, VectorFieldJet, apply_vector_field, iterated_field_derivative  # noqa: F401
from .quadrature import Integrand, Primitive, integrate  # noqa: F401
from .surfaces import (  # noqa: F401
    FundamentalForms,
    Surface,
    conjugate_of,
    delaunay_lightlike,
    delaunay_spacelike,
    delaunay_timelike,
    fundamental_forms,
    mesh_export,
    standard_model,
)
from .singularities import (  # noqa: F401
    CriterionReport,
    SingularPointRecord,
    cmc_fold_obstruction,
    criterion_25,
    fold_symmetry_test,
    special_null_field,
    trace_singular_curve,
)
from .representation import (  # noqa: F401
    ConformalProfile,
    GaussData,
    conformal_profile_chart,
    gauss_data_from_surface,
    gauss_map_of,
    harmonic_residual,
    integrate_representation,
    laplacian_identity_residual,
    representation_roundtrip,
)
