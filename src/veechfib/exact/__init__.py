"""Exact rational, polynomial, number-ring and finite-field arithmetic."""

from .finitefield import (
    FFElement,
    FiniteFieldSpec,
    is_irreducible_mod_p,
    is_prime,
    is_quadratic_nonresidue,
)
from .numberfield import (
    NumberFieldElement,
    RealAlgebraicField,
    coordinates_in_power_basis,
    element_minimal_polynomial,
    in_order,
)
from .polynomials import (
    DEFAULT_ROOT_WIDTH,
    IntPolynomial,
    RootInterval,
    cos_two_pi_minpoly,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    isolate_largest_real_root,
    minpoly_two_cos,
    parse_polynomial,
    prime_factors,
    rational_to_str,
    squarefree_part,
)

__all__ = [
    "DEFAULT_ROOT_WIDTH",
    "FFElement",
    "FiniteFieldSpec",
    "IntPolynomial",
    "NumberFieldElement",
    "RealAlgebraicField",
    "RootInterval",
    "coordinates_in_power_basis",
    "cos_two_pi_minpoly",
    "cyclotomic_polynomial",
    "divisors",
    "element_minimal_polynomial",
    "euler_phi",
    "in_order",
    "is_irreducible_mod_p",
    "is_prime",
    "is_quadratic_nonresidue",
    "isolate_largest_real_root",
    "minpoly_two_cos",
    "parse_polynomial",
    "prime_factors",
    "rational_to_str",
    "squarefree_part",
]
