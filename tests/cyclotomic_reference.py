"""Cyclotomic polynomials by recursive division: the reference for
veechfib.exact.polynomials.cyclotomic_polynomial.

This is the route the library took before the Moebius product of
binomials: Phi_n is x^n - 1 divided exactly, in ascending order, by
Phi_d for every proper divisor d of n, each found the same way.  The
division is integer long division (root_refine_reference.exact_divide).
Results are memoised in a plain dict for the test run; this only
serves tests.
"""

from root_refine_reference import exact_divide
from veechfib.exact.polynomials import IntPolynomial

_KNOWN = {}


def cyclotomic_polynomial(n):
    if n not in _KNOWN:
        result = IntPolynomial([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                result = exact_divide(result, cyclotomic_polynomial(d))
        _KNOWN[n] = result
    return _KNOWN[n]
