"""Exact combinatorial commutative algebra engine and verification harness."""

from .complexes import (
    BettiTable,
    SimplicialComplex,
    complex_of,
    depth,
    depth_via_local_cohomology,
    graded_betti,
    is_cohen_macaulay,
    projective_dimension,
    reduced_homology,
)
from .families import (
    ArtinianQuotient,
    FFamilySpec,
    f_family_report,
    fiber_product_report,
    k_plus_q_report,
    socle_and_type,
)
from .linalg import GF, QQ, FieldSpec
from .monomial import (
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    VarContext,
    make_context,
    parse_monomial,
    quotient_height,
)
from .pullback import (
    BElement,
    GradedSubmodule,
    PullbackFamily,
    cokernel_profile,
    conductor,
    verify_generation,
)
from .report import Claim, VerificationReport
from .s2 import (
    QuotientRing,
    s2_membership,
    trace_ideal_check,
    unmixed_component_principal,
)
from .semigroup import (
    NumericalSemigroup,
    QuadraticExtensionModel,
    TruncatedSubalgebra,
    semigroup_invariants,
    subalgebra_closure,
)

__version__ = "0.1.0"
