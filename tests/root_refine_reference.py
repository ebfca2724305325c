"""Sturm-count root refinement: the reference for RootInterval.refine.

This is the refinement the library used before it bisected by sign
changes: every step evaluates the whole Sturm chain at the midpoint and
at the upper end, and keeps (mid, hi] while it still counts a root.  The
isolation around it is the library's shrink loop, unchanged and started
from the same (-B, B) with B = root_bound, so the two routes differ
only in how they refine.  The squarefree part is f over its Fraction
gcd with f', not the library's, so the reference runs two remainder
sequences where the library runs one.  Endpoints are returned as
(lower, upper) Fraction pairs; this only serves tests.

``bisect_by_signs`` is the sign bisection the library ran on Fraction
endpoints before it bisected on integer numerators over one doubling
denominator: the midpoint is the reduced Fraction (lo + hi) / 2.
"""

import math
from fractions import Fraction

import fraction_reference
from fraction_reference import qeval
from veechfib.errors import InvalidArgumentError, NoRealRootError
from veechfib.exact.polynomials import (
    DEFAULT_ROOT_WIDTH,
    IntPolynomial,
    root_bound,
    sign_variations,
    sturm_chain,
)


def squarefree_part(f):
    """f divided by its monic gcd with f' over Q, scaled to a primitive
    integer polynomial with a positive leading term."""
    gcd = fraction_reference.gcd(f.coefficients, fraction_reference.derivative(f.coefficients))
    quotient = fraction_reference.divide(f.coefficients, gcd)[0]
    den = math.lcm(*(c.denominator for c in quotient))
    return IntPolynomial([c * den for c in quotient]).primitive_part()


def count_roots_in(chain, lo, hi):
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def refine(polynomial, lower, upper, width):
    """(lower, upper) narrowed below width around the root the interval
    isolates, by Sturm counts on (mid, upper]."""
    lower, upper, width = Fraction(lower), Fraction(upper), Fraction(width)
    if width <= 0:
        raise InvalidArgumentError("width must be positive")
    if lower == upper or upper - lower <= width:
        return lower, upper
    sf = squarefree_part(polynomial)
    chain = sturm_chain(sf)
    lo, hi = lower, upper
    while hi - lo > width:
        mid = (lo + hi) / 2
        if qeval(sf.coefficients, mid) == 0:
            lo = hi = mid
            break
        if count_roots_in(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_by_signs(polynomial, lower, upper, width):
    """(lower, upper) narrowed below width by the sign of the squarefree
    part at each Fraction midpoint; a zero at the midpoint or at upper
    collapses the interval onto it."""
    lower, upper, width = Fraction(lower), Fraction(upper), Fraction(width)
    if width <= 0:
        raise InvalidArgumentError("width must be positive")
    if lower == upper or upper - lower <= width:
        return lower, upper
    sf = squarefree_part(polynomial).coefficients
    if qeval(sf, upper) == 0:
        return upper, upper
    upper_positive = qeval(sf, upper) > 0
    lo, hi = lower, upper
    while hi - lo > width:
        mid = (lo + hi) / 2
        value = qeval(sf, mid)
        if value == 0:
            lo = hi = mid
        elif (value > 0) == upper_positive:
            hi = mid
        else:
            lo = mid
    return lo, hi


def isolate_largest_real_root(f, width=DEFAULT_ROOT_WIDTH):
    """(lower, upper) around the largest real root of f, refined by
    Sturm counts."""
    if isinstance(f, (tuple, list)):
        f = IntPolynomial(f)
    if f.is_zero:
        raise InvalidArgumentError("zero polynomial has no distinguished root")
    if f.degree == 0:
        raise NoRealRootError(f"{f} has no real root")
    sf_poly = squarefree_part(f)
    sf = sf_poly.coefficients
    chain = sturm_chain(sf_poly)
    bound = Fraction(root_bound(sf_poly))
    lo, hi = -bound, bound
    if count_roots_in(chain, lo, hi) == 0:
        raise NoRealRootError(f"{f} has no real root")
    while count_roots_in(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if qeval(sf, mid) == 0:
            if count_roots_in(chain, mid, hi) == 0:
                return mid, mid
            lo = mid
        elif count_roots_in(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return refine(f, lo, hi, width)
