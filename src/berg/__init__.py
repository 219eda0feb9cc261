"""Bergman kernels of balls, finite ball quotients and Hartogs domains.

Public surface: exact scalars and polynomial algebra, finite unitary
groups with Cartan-style invariant generators, deck-transformation kernel
sums, the closed-form Hartogs kernel pipeline, algebraic-relation fitting
for sampled kernels, and a Monte Carlo verification harness.
"""

from .scalars import ExactComplex, PiGradeError, exact
from .cyclotomic import Cyclotomic, CyclotomicField, root_of_unity
from .polynomials import (
    HermitianPolynomial,
    HoloPolynomial,
    MultiIndex,
    monomials_of_degree,
    monomials_up_to_degree,
)
from .ball import (
    DefiningFunction,
    LeviReport,
    SingularKernelError,
    ball_kernel,
    levi_form,
    sphere_defining_function,
    u_domain_defining_function,
)
from .groups import (
    ClosureOverflowError,
    FiniteUnitaryGroup,
    FixedPointReport,
    NonUnitaryError,
    UnitaryMatrix,
    generate_group,
    is_fixed_point_free,
    is_reflection,
    matrices_from_json,
)
from .invariants import (
    BasicMap,
    Syzygy,
    compute_basic_map,
    find_syzygies,
    is_invariant,
    molien_counts,
    reynolds,
    trace_average_dimension,
)
from .quotient import (
    BranchPointError,
    CoveringSpec,
    check_deck_sum_symmetry,
    deck_sum_kernel,
    disk_power_cover,
    dual_deck_sum_kernel,
    minus_identity_cover,
    pushforward_kernel,
    scalar_rotation_cover,
)
from .hartogs import (
    BoundaryContactError,
    ChartSingularityError,
    DivergentIntegralError,
    NonConvergentError,
    RationalKernel,
    SeriesValue,
    factorial_moment,
    kernel_series,
    monomial_norm,
    omega_closed_kernel,
    omega_rational_kernel,
    square_integrable,
    u_domain_contains,
    u_kernel,
)
from .algebraic import (
    AlgebraicRelation,
    KernelSurface,
    annulus_kernel,
    best_relation_residual,
    boundary_leading_coefficient,
    fit_relation,
    fit_surface_relation,
    recover_map_from_kernel,
)
from .verify import (
    IntegrationSpec,
    VerificationReport,
    check_orthogonality,
    check_pullback_isometry,
    check_reproducing,
    check_transformation_law,
    integrate,
)

__version__ = "0.1.0"
