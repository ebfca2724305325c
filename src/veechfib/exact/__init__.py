"""Exact rational, polynomial, number-ring and finite-field arithmetic.

Each exported name is imported from its submodule on first use, so a
process that never uses number rings never loads numberfield or linalg.
"""

from .. import _lazy_exports

_EXPORTS = {
    "linalg": (),
    "finitefield": (
        "FFElement",
        "FiniteFieldSpec",
        "is_irreducible_mod_p",
        "is_prime",
        "is_quadratic_nonresidue",
    ),
    "numberfield": (
        "NumberFieldElement",
        "RealAlgebraicField",
        "element_minimal_polynomial",
        "in_order",
    ),
    "polynomials": (
        "IntPolynomial",
        "cos_two_pi_minpoly",
        "cyclotomic_polynomial",
        "euler_phi",
        "isolate_largest_real_root",
        "jsonable",
        "parse_polynomial",
        "prime_factors",
        "rational_to_str",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
