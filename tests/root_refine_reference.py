"""Sturm-count root isolation and refinement: the general real-root
route that tests compare the library's certified brackets against.

The library isolates nothing: it certifies the bracket two_cos_bracket
gives for mu by Descartes' rule of signs and returns it.  Here the
largest real root is searched for by halving (-B, B), with B =
``root_bound`` above Fujiwara's bound, and refined by Sturm counts:
every step evaluates the whole Sturm chain at the midpoint and at the
upper end, and keeps (mid, hi] while it still counts a root.  The
squarefree part is f over its Fraction gcd with f'.  Endpoints are
returned as (lower, upper) Fraction pairs; this only serves tests.

``sturm_chain`` is the integer chain the library certified with before
it moved to Descartes' rule: every member is a positive multiple of the
usual one, found by integer pseudo-division with each remainder divided
by its content, and its sign at a rational is the sign of the
homogenised value.  ``exact_divide`` is exact division in Z[x], by
integer long division given up at the first step that does not divide.

``bisect_by_signs`` refines an interval by the sign of the squarefree
part at each Fraction midpoint (lo + hi) / 2; it is the refinement the
enclosure reference runs.
"""

import functools
import math
from fractions import Fraction

import fraction_reference
from fraction_reference import qeval
from veechfib.errors import DivisionByZeroError, InvalidArgumentError, VeechFibError
from veechfib.exact.polynomials import IntPolynomial, homogeneous_value, pseudo_divmod

DEFAULT_ROOT_WIDTH = Fraction(1, 10**20)


class NoRealRootError(VeechFibError):
    """The polynomial has no real root to isolate."""


def primitive_part(f):
    """f over its content, with a positive leading coefficient."""
    if f.is_zero:
        return f
    g = math.gcd(*f.coefficients) * (1 if f.leading_coefficient > 0 else -1)
    return IntPolynomial([c // g for c in f.coefficients])


def root_bound(f):
    """A power of two B with every real root of the nonconstant
    IntPolynomial f strictly inside (-B, B).

    Fujiwara's bound (1916): every complex root of a_n x^n + ... + a_0
    has modulus at most 2 max_k |a_(n-k) / a_n|^(1/k), with a_0 halved.
    B = 2^(j+1) for the least j >= 0 whose 2^j exceeds each of those
    k-th roots, found exactly as |a_n| 2^(jk) > |a_(n-k)| (with 2 |a_n|
    on the left for k = n), so B is above the bound, never on it."""
    *rest, lead = (abs(c) for c in f.coefficients)
    n, j = len(rest), 0
    for k, c in enumerate(reversed(rest), 1):
        scale = 2 * lead if k == n else lead
        while scale << (j * k) <= c:
            j += 1
    return 2 << j


@functools.lru_cache(maxsize=None)
def squarefree_part(f):
    """f divided by its monic gcd with f' over Q, scaled to a primitive
    integer polynomial with a positive leading term."""
    gcd = fraction_reference.gcd(f.coefficients, fraction_reference.derivative(f.coefficients))
    quotient = fraction_reference.divide(f.coefficients, gcd)[0]
    den = math.lcm(*(c.denominator for c in quotient))
    return primitive_part(IntPolynomial([c * den for c in quotient]))


def exact_divide(f, g):
    """f / g in Z[x], or None when it does not divide: integer long
    division, given up at the first quotient coefficient that is not an
    integer or at a nonzero remainder."""
    div = g.coefficients
    if not div:
        raise DivisionByZeroError("polynomial division by zero")
    rem = list(f.coefficients)
    quo = [0] * max(len(rem) - len(div) + 1, 0)
    for shift in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[shift + len(div) - 1], div[-1])
        if r:
            return None
        if c:
            quo[shift] = c
            for i, b in enumerate(div):
                rem[shift + i] -= c * b
    return None if any(rem) else IntPolynomial(quo)


def _content_free(coeffs):
    """Integer coefficients divided by their positive content; every
    sign is kept."""
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def sturm_chain(f):
    """Sturm chain of a nonconstant IntPolynomial.  Each member is an
    integer coefficient tuple, a positive multiple of the usual f, f',
    -rem(f, f'), ...; the last member is a primitive gcd(f, f') up to
    sign, a constant exactly when f is squarefree."""
    first = _content_free(f.coefficients)
    chain = [first, _content_free([i * c for i, c in enumerate(first)][1:])]
    while chain[-1]:
        chain.append(_content_free([-c for c in pseudo_divmod(chain[-2], chain[-1])[1]]))
    return [c for c in chain if c]


def sign_variations(chain, x):
    """Sign changes along an integer Sturm chain at the rational x,
    zero values dropped."""
    x = Fraction(x)
    a, d = x.numerator, x.denominator
    count, previous = 0, None
    for member in chain:
        value = homogeneous_value(member, a, d)
        if value:
            positive = value > 0
            if previous is not None and positive != previous:
                count += 1
            previous = positive
    return count


def count_roots_in(chain, lo, hi):
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


@functools.lru_cache(maxsize=None)
def divided_sturm_chain(f):
    """f's Sturm chain divided by its last member, gcd(f, f'): a Sturm
    chain of the squarefree part, which it starts with (up to sign)."""
    chain = sturm_chain(f)
    gcd = IntPolynomial(chain[-1])
    if gcd.degree > 0:
        chain = [exact_divide(IntPolynomial(m), gcd).coefficients for m in chain]
    return chain


def sturm_certifies(f, lo, hi):
    """Whether the Sturm counts of f put exactly one distinct real root
    in (lo, hi] and none above hi, where each chain member has the sign
    of its leading coefficient.  A repeated root counts once, also at an
    end of the bracket.  The chain is evaluated once at each end."""
    chain = divided_sturm_chain(f)
    signs = [member[-1] > 0 for member in chain]
    var_top = sum(a != b for a, b in zip(signs, signs[1:]))
    var_hi = sign_variations(chain, hi)
    return var_hi == var_top and sign_variations(chain, lo) - var_hi == 1


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
