"""veechfib: exact invariants of congruence Veech fibrations.

An exact-arithmetic library and CLI computing the topological and
complex-geometric invariants (Euler characteristic, signature, Chern
numbers, Betti numbers, Kodaira type) of the complex surfaces fibered
over level-p congruence covers of the Teichmueller curves generated by
the known algebraically primitive flat surfaces, together with the
genus-one elliptic series.  No floating point enters any result: all
arithmetic runs over the rationals, number rings and finite fields.
"""

from .covers import (
    CongruenceDegree,
    CoverData,
    MatrixGroupSpec,
    OrbifoldSignature,
    congruence_degree,
    cover_twisting,
    group_closure_order,
    riemann_hurwitz_cover,
    theorem_generator_pair,
)
from .errors import VeechFibError
from .exact import (
    FFElement,
    FiniteFieldSpec,
    IntPolynomial,
    NumberFieldElement,
    RealAlgebraicField,
    RootInterval,
    element_minimal_polynomial,
    is_irreducible_mod_p,
    is_quadratic_nonresidue,
    isolate_largest_real_root,
    minpoly_two_cos,
    parse_polynomial,
)
from .families import (
    CurveDataTable,
    ExternalCurveData,
    FamilyResult,
    FamilySpec,
    admissible_primes,
    chern_scatter,
    elliptic_family,
    polygon_family,
    sporadic_family,
    weierstrass_family,
)
from .invariants import (
    FibrationInvariants,
    assemble_invariants,
    bmy_sufficient,
    kappa_bound_check,
    kappa_mu,
    kodaira_classify,
)
from .prototypes import (
    Prototype,
    enumerate_prototypes,
    prototype_twisting,
    weierstrass_alpha,
)
from .thurston_veech import (
    BipartiteIntersectionGraph,
    CylinderDatum,
    SurfaceModel,
    build_surface,
    core_curve_span_check,
    coxeter_graph,
    cylinder_bound_check,
    holonomy_basis_check,
    perron_frobenius,
    staircase_parity_check,
)

__version__ = "0.1.0"
