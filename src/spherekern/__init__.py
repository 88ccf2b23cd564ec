"""Invariant positive-definite kernel expansions on spheres and sphere fiber bundles.

Rotation-invariant kernels on S^{n-1} expand in Gegenbauer polynomials
with nonnegative coefficients; this package computes such expansions,
generalizes them to cylinders and to bundles of spheres over point
configurations, verifies the defining identities numerically, and turns
the sphere case into a certified linear programming bound for spherical
codes.
"""

from .addition import (
    AdditionConstants,
    AdditionReport,
    addition_constants,
    addition_residual,
    verify_addition,
)
from .exceptions import (
    CertificateError,
    DomainError,
    IllConditionedError,
    InfeasibleError,
    InvarianceError,
    RankError,
    SingularityError,
    SphereKernError,
    UnboundedError,
)
from .expansion import (
    BundleExpansion,
    FeatureMapCoefficient,
    ScalarExpansion,
    cylinder_coeffs,
    expansion_from_dict,
    musin_coeffs,
    poly_feature_map,
    random_feature_expansion,
    schoenberg_coeffs,
    synth_bundle_kernel,
    synth_schoenberg,
)
from .gegenbauer import (
    GegenbauerBasis,
    QuadratureRule,
    basis_for,
    eval_gegenbauer,
    gauss_gegenbauer_rule,
    gegenbauer_table,
    weight_mass,
)
from .kernel_core import (
    GramReport,
    InvarianceReport,
    Kernel,
    all_passed,
    check_invariance,
    check_pd,
    grade_gram,
    gram,
    kernel_product,
    kernel_sum,
)
from .lp_bound import (
    CertifyReport,
    LPBoundProblem,
    LPCertificate,
    certify,
    chebyshev_grid,
    delsarte_lp,
)
from .sphere import (
    ProjectorPair,
    SphereConfig,
    inner_z,
    map_t1,
    map_t2,
    projectors,
    random_config,
    sample_orthogonal,
    sample_sphere,
    stabilizer_element,
)

__version__ = "0.1.0"
