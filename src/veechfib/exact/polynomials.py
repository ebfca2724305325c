"""Exact univariate polynomial arithmetic over Z.

Polynomials are immutable ``IntPolynomial`` values holding a tuple of
arbitrary-precision coefficients in ascending degree; the zero
polynomial is the empty tuple.  Nothing here divides in Q[x]: a
rational polynomial is an integer one up to a positive factor, so Sturm
chains and field inverses run on the integer pseudo-division
``pseudo_divmod`` (c f = q g + r, c a positive integer), with each
remainder divided by its content (the primitive PRS; Brown 1971).
Exact division is one integer long division, given up at the first
step that does not divide.

The module also hosts the cyclotomic machinery: ``cyclotomic
polynomial``, the palindromic descent producing the minimal polynomial
of ``2*cos(2*pi/N)``, and ``minpoly_two_cos`` for ``2*cos(pi/n)``.  All
of it is exact integer arithmetic; no floating point enters anywhere.

Real roots are isolated with Sturm chains on integers: every member is
a positive integer multiple of the usual one, and its sign at a
rational a/d is the sign of the homogenised value d^n f(a/d), found by
integer Horner in ``homogeneous_value``.  The last member of f's chain
is a primitive gcd(f, f'): a squarefree part divides f by it, and
isolation divides the whole chain by it, so it runs one remainder
sequence.  The chain counts roots while the search interval shrinks to
one root, one chain evaluation per halving, from (-B, B) for the power
of two B = ``root_bound(f)`` above Fujiwara's bound.  The result is a
``RootInterval``, refined to any rational width by the sign of the
squarefree part at each midpoint, through the same helper; refinement
evaluates no Sturm chain.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from ..errors import CapExceededError, DivisionByZeroError, InvalidArgumentError, NoRealRootError

# ---------------------------------------------------------------------------
# Integer coefficient sequences (ascending degree)
# ---------------------------------------------------------------------------


def scaled_integers(coeffs):
    """(numerators, denominator): ints or Fractions over their least
    common denominator, so coeffs[i] == numerators[i] / denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def homogeneous_value(coeffs, a, d):
    """d^n f(a/d) for integer coefficients (ascending, degree n), by
    integer Horner; its sign is the sign of f(a/d) when d > 0."""
    value = 0
    scale = 1
    for c in reversed(coeffs):
        value = value * a + c * scale
        scale *= d
    return value


def _content_free(coeffs):
    """Integer coefficients divided by their positive content; every
    sign is kept."""
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def pseudo_divmod(f, g):
    """(q, r, c) with c f = q g + r and deg r < deg g, for integer
    coefficient sequences f and nonzero g; c is a positive integer (a
    power of |lead g|) and r is stripped of trailing zeros."""
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    scale, sign = abs(g[-1]), (1 if g[-1] > 0 else -1)
    c = 1
    while len(rem) >= len(g):
        top = sign * rem[-1]
        shift = len(rem) - len(g)
        rem = [scale * r for r in rem]
        quo = [scale * x for x in quo]
        c *= scale
        quo[shift] += top
        for i, b in enumerate(g):
            rem[shift + i] -= top * b
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem, c


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


def exact_integer(c, what="polynomial coefficient"):
    """An int or an integral Fraction as an int; anything else is refused
    rather than truncated."""
    if isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1):
        return int(c)
    raise InvalidArgumentError(f"{what} {c!r} is not an integer")


class IntPolynomial:
    """Integer-coefficient polynomial, coefficients ascending by degree.

    Immutable; the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [c if type(c) is int else exact_integer(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def is_zero(self):
        return not self.coefficients

    @property
    def leading_coefficient(self):
        return self.coefficients[-1] if self.coefficients else 0

    @property
    def is_monic(self):
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __bool__(self):
        return bool(self.coefficients)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return IntPolynomial(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coefficients])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coefficients])
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(out)

    __rmul__ = __mul__

    def try_exact_divide(self, other):
        """Return self / other in Z[x], or None when it does not divide:
        integer long division, given up at the first quotient
        coefficient that is not an integer or at a nonzero remainder."""
        div = other.coefficients
        if not div:
            raise DivisionByZeroError("polynomial division by zero")
        rem = list(self.coefficients)
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

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coefficients)][1:])

    def content(self):
        return math.gcd(*self.coefficients)

    def primitive_part(self):
        """Content removed, leading coefficient made positive."""
        if self.is_zero:
            return self
        g = self.content()
        sign = 1 if self.leading_coefficient > 0 else -1
        return IntPolynomial([sign * c // g for c in self.coefficients])

    # -- parity -------------------------------------------------------------

    def odd_terms_only(self):
        return all(c == 0 for i, c in enumerate(self.coefficients) if i % 2 == 0)

    def even_terms_only(self):
        return all(c == 0 for i, c in enumerate(self.coefficients) if i % 2 == 1)

    # -- conversions --------------------------------------------------------

    def to_json(self):
        """JSON form: array of decimal strings, ascending degree."""
        return [str(c) for c in self.coefficients]

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            if i == 0:
                body = f"{abs(c)}"
            elif i == 1:
                body = "x" if abs(c) == 1 else f"{abs(c)}*x"
            else:
                body = f"x^{i}" if abs(c) == 1 else f"{abs(c)}*x^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({self})"


_TERM_RE = re.compile(r"([+-]?)\s*(\d+)?\s*\*?\s*(?:(x|y)(?:\^(\d+))?)?")

# Largest degree parse_polynomial expands into a coefficient list; no
# group-order --cap admits a field of degree past 4 761
MAX_PARSED_DEGREE = 10**5


def parse_polynomial(text):
    """Parse expressions like ``x^2 - x - 1`` into an IntPolynomial.

    Every term after the first starts with its sign, and all terms use
    one variable letter (x or y).  A degree past MAX_PARSED_DEGREE is
    refused (CapExceededError) from the merged terms, before any
    coefficient list is built; a digit run past Python's default
    int-to-str limit of 4 300 digits, before int() reads it."""
    text = text.strip().replace("**", "^")
    if not text:
        raise InvalidArgumentError("empty polynomial string")
    if re.search(r"\d{4301}", text):
        raise InvalidArgumentError("polynomial has a number of more than 4300 digits")
    if "x" in text and "y" in text:
        raise InvalidArgumentError(f"polynomial mixes variables: {text!r}")
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, digits, var, exp = m.groups()
        if (digits is None and var is None) or (pos and not sign):
            raise InvalidArgumentError(f"cannot parse polynomial near: {text[pos:]!r}")
        c = int(digits) if digits is not None else 1
        if sign == "-":
            c = -c
        k = 0 if var is None else (int(exp) if exp is not None else 1)
        coeffs[k] = coeffs.get(k, 0) + c
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    degree = max((k for k, c in coeffs.items() if c), default=0)
    if degree > MAX_PARSED_DEGREE:
        raise CapExceededError(
            f"polynomial degree {degree} exceeds the parse cap {MAX_PARSED_DEGREE}"
        )
    return IntPolynomial(coeffs.get(k, 0) for k in range(degree + 1))


def rational_to_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Sturm chains, squarefree parts and root isolation
# ---------------------------------------------------------------------------


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


def squarefree_part(f):
    """f with repeated roots stripped; primitive, positive leading term.
    The last member of f's Sturm chain is a primitive gcd(f, f'), so by
    Gauss's lemma it divides f in Z[x]."""
    if f.degree <= 0:
        return f.primitive_part()
    return f.try_exact_divide(IntPolynomial(sturm_chain(f)[-1])).primitive_part()


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


DEFAULT_ROOT_WIDTH = Fraction(1, 10**20)


class RootInterval:
    """Rational interval [lower, upper] isolating one real root of polynomial.

    ``refine(width)`` returns a narrower RootInterval for the same root,
    bisecting by the sign of the squarefree part (no Sturm chain); a
    collapsed interval (lower == upper) marks an exactly known rational
    root.
    """

    __slots__ = ("polynomial", "lower", "upper", "_squarefree")

    def __init__(self, polynomial, lower, upper, _squarefree=None):
        self.polynomial = polynomial
        self.lower = Fraction(lower)
        self.upper = Fraction(upper)
        if self.lower > self.upper:
            raise InvalidArgumentError("interval endpoints out of order")
        self._squarefree = _squarefree

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def is_exact(self):
        return self.lower == self.upper

    def refine(self, width):
        """Shrink the interval below the requested rational width; each
        step keeps the half across which the squarefree part changes
        sign, and a zero at a midpoint or at upper is the root, exactly."""
        width = Fraction(width)
        if width <= 0:
            raise InvalidArgumentError("width must be positive")
        if self.is_exact or self.width <= width:
            return self
        if self._squarefree is None:
            self._squarefree = squarefree_part(self.polynomial).coefficients
        sf = self._squarefree
        lo, hi = self.lower, self.upper
        upper_value = homogeneous_value(sf, hi.numerator, hi.denominator)
        if upper_value == 0:
            return RootInterval(self.polynomial, hi, hi, sf)
        upper_positive = upper_value > 0
        while hi - lo > width:
            mid = (lo + hi) / 2
            value = homogeneous_value(sf, mid.numerator, mid.denominator)
            if value == 0:
                lo = hi = mid
            elif (value > 0) == upper_positive:
                hi = mid
            else:
                lo = mid
        return RootInterval(self.polynomial, lo, hi, sf)

    def __repr__(self):
        return f"RootInterval([{self.lower}, {self.upper}], {self.polynomial})"


def isolate_largest_real_root(f, width=DEFAULT_ROOT_WIDTH):
    """Isolate the largest real root of f in a rational interval.

    Raises NoRealRootError when f has no real root.  A Sturm chain counts
    roots only while the interval shrinks to one; the result contains
    exactly the largest root and has width at most ``width`` (or is an
    exact rational point).
    """
    if isinstance(f, (tuple, list)):
        f = IntPolynomial(f)
    if f.is_zero:
        raise InvalidArgumentError("zero polynomial has no distinguished root")
    if f.degree == 0:
        raise NoRealRootError(f"{f} has no real root")
    chain = sturm_chain(f)
    gcd = IntPolynomial(chain[-1])
    if gcd.degree > 0:
        # divided by gcd(f, f'), f's chain is a Sturm chain of the
        # squarefree part, which it starts with (up to sign)
        chain = [IntPolynomial(m).try_exact_divide(gcd).coefficients for m in chain]
    sf = chain[0]
    hi = Fraction(root_bound(IntPolynomial(sf)))
    lo = -hi
    var_lo, var_hi = sign_variations(chain, lo), sign_variations(chain, hi)
    if var_lo == var_hi:
        raise NoRealRootError(f"{f} has no real root")
    # Shrink from the left until exactly one root remains in (lo, hi].
    # The counts at both ends are kept, so each halving evaluates the
    # chain once, at the midpoint.
    while var_lo - var_hi > 1:
        mid = (lo + hi) / 2
        var_mid = sign_variations(chain, mid)
        if var_mid > var_hi:
            # (mid, hi] holds a root, so a root at mid is not the largest
            lo, var_lo = mid, var_mid
        elif homogeneous_value(sf, mid.numerator, mid.denominator) == 0:
            # mid is a root and none lies above it
            return RootInterval(f, mid, mid, sf)
        else:
            hi, var_hi = mid, var_mid
    return RootInterval(f, lo, hi, sf).refine(width)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and 2cos minimal polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial, exactly, by recursive division."""
    if n < 1:
        raise InvalidArgumentError("cyclotomic index must be >= 1")
    xn_minus_1 = IntPolynomial([-1] + [0] * (n - 1) + [1])
    result = xn_minus_1
    for d in range(1, n):
        if n % d == 0:
            result = result.try_exact_divide(cyclotomic_polynomial(d))
    return result


def _two_cos_power_polys(k):
    """V_j with x^j + x^-j = V_j(x + 1/x) for j = 0..k."""
    polys = [IntPolynomial([2]), IntPolynomial([0, 1])]
    while len(polys) <= k:
        polys.append(IntPolynomial([0, 1]) * polys[-1] - polys[-2])
    return polys


@lru_cache(maxsize=None)
def cos_two_pi_minpoly(n):
    """Minimal polynomial over Q of 2*cos(2*pi/n), monic in Z[x]."""
    if n < 1:
        raise InvalidArgumentError("index must be >= 1")
    if n == 1:
        return IntPolynomial([-2, 1])
    if n == 2:
        return IntPolynomial([2, 1])
    phi = cyclotomic_polynomial(n)
    k = phi.degree // 2
    vs = _two_cos_power_polys(k)
    c = phi.coefficients
    # Phi palindromic: Phi(x)/x^k = c[k] + sum_{j>=1} c[k+j] (x^j + x^-j).
    out = IntPolynomial([c[k]])
    for j in range(1, k + 1):
        out = out + c[k + j] * vs[j]
    assert out.is_monic and out.degree == k
    return out


def translate(f, a):
    """f(x + a), by Horner's rule in Z[x]."""
    out = IntPolynomial()
    for c in reversed(f.coefficients):
        out = out * IntPolynomial([a, 1]) + IntPolynomial([c])
    return out


def minpoly_two_cos(n):
    """Minimal polynomial of 2*cos(pi/n) for n >= 3; degree phi(2n)/2."""
    if not isinstance(n, int) or n < 3:
        raise InvalidArgumentError("minpoly_two_cos requires an integer n >= 3")
    return cos_two_pi_minpoly(2 * n)


def divisors(n):
    """Positive divisors of n >= 0 in ascending order, by one scan up to
    sqrt(n); n = 0 has none."""
    if n < 1:
        return []
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def prime_factors(n):
    """Distinct primes of n in ascending order, by trial division up to
    sqrt(n); n < 2 has none."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def euler_phi(n):
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out
