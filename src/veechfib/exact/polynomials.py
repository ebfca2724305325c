"""Exact univariate polynomial arithmetic over Z.

Polynomials are immutable ``IntPolynomial`` values holding a tuple of
arbitrary-precision coefficients in ascending degree; the zero
polynomial is the empty tuple.  Nothing here divides in Q[x]: a
rational polynomial is an integer one up to a positive factor, so field
inverses run on the integer pseudo-division ``pseudo_divmod`` (c f = q g
+ r, c a positive integer), with each remainder and its cofactor divided
by their joint content (the primitive PRS; Brown 1971).

The module also hosts the cyclotomic machinery: ``cyclotomic
polynomial`` as a Moebius product of binomials x^k - 1 and the
palindromic descent producing the minimal polynomial of
``2*cos(2*pi/N)`` (so ``2*cos(pi/n)`` is at N = 2n).  All of it is
exact integer arithmetic; no floating point enters anywhere.

The real line enters in one place: ``isolate_largest_real_root``
certifies a given rational bracket (lo, hi] of the largest real root by
Descartes' rule of signs on one integer Taylor shift of f to lo, and the
sign of f at hi, and returns it as it is.  The sign of f at a rational
a/d is the sign of the homogenised value d^n f(a/d), found by integer
Horner in ``homogeneous_value``.  ``two_cos_bracket`` gives the bracket
of 2cos(pi/n), in integer fixed point, from pi pinned as a dyadic
constant and the alternating cosine series.  Nothing is searched for and
nothing is bisected.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from ..errors import (
    CapExceededError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    RootBracketError,
)

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
    degree -1.  The text of str() is built on the first call and kept,
    so a refusal message that names a large polynomial formats it once.
    """

    __slots__ = ("coefficients", "_text")

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
        try:
            return self._text
        except AttributeError:
            object.__setattr__(self, "_text", self._format())
            return self._text

    def _format(self):
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
# The certified bracket
# ---------------------------------------------------------------------------


def isolate_largest_real_root(f, start):
    """The bracket start = (lo, hi) of the largest real root of f, as
    Fractions, once it is certified: lo < hi; for lo = a/d the integer
    coefficients of F(y) = d^n f((y + a)/d), built by Horner over
    (y + a), change sign exactly once; and lead(f) f(hi) >= 0.  Any
    other start raises RootBracketError; nothing is searched for.

    Proof.  The roots of F are d(r - lo) for the roots r of f, so F's
    positive roots are f's roots above lo.  By Descartes' rule of signs,
    the number of positive roots counted with multiplicity is the number
    of sign changes less an even number; one change proves exactly one
    root r > lo, and a simple one.  So f has the sign of its leading
    coefficient on (r, oo) and the other sign on (lo, r), and lead(f)
    f(hi) >= 0 with hi > lo puts r in (lo, hi]; no root lies above it.
    The certificate is sound for every f.  It is complete when all of
    f's roots are real and its largest root is simple, where Descartes'
    count is exact; that holds for every m_mu.  A repeated largest root
    is refused, and so may be an f with roots off the real line."""
    if f.is_zero:
        raise InvalidArgumentError("zero polynomial has no distinguished root")
    lo, hi = Fraction(start[0]), Fraction(start[1])
    coeffs = f.coefficients
    if lo < hi and coeffs[-1] * homogeneous_value(coeffs, hi.numerator, hi.denominator) >= 0:
        a, d = lo.numerator, lo.denominator
        shifted, scale = [], 1
        for c in reversed(coeffs):
            shifted = [u + a * v for u, v in zip([0, *shifted], [*shifted, 0])]
            shifted[0] += c * scale
            scale *= d
        signs = [c > 0 for c in shifted if c]
        if sum(p != q for p, q in zip(signs, signs[1:])) == 1:
            return lo, hi
    raise RootBracketError(f"({lo}, {hi}] does not isolate the largest real root of {f}")


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and 2cos minimal polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial, exactly, as the Moebius product
    Phi_n = prod (x^(n/e) - 1)^mu(e) over the squarefree e | n.

    Phi_n has degree phi(n), so the product is taken modulo x^(phi(n)+1),
    where each binomial is a unit and the factors may come in any order.
    A product by x^k - 1 and a quotient by it are one shift and subtract
    each, c_j <- c_(j-k) - c_j, run from the top down for a product and
    from the bottom up for a quotient."""
    if n < 1:
        raise InvalidArgumentError("cyclotomic index must be >= 1")
    moebius = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e
    for p in prime_factors(n):
        moebius += [(e * p, -m) for e, m in moebius]
    length = euler_phi(n) + 1
    coeffs = [1] + [0] * (length - 1)
    for e, m in moebius:
        k = n // e
        for j in range(length - 1, -1, -1) if m == 1 else range(length):
            coeffs[j] = (coeffs[j - k] if j >= k else 0) - coeffs[j]
    return IntPolynomial(coeffs)


def _chebyshev_lists(k, first):
    """Coefficient lists of P_0 = first, P_1 = x, P_j = x P_(j-1) -
    P_(j-2) for j = 0..k, a shift and a subtraction per step."""
    lists = [[first], [0, 1]]
    while len(lists) <= k:
        step = [0] + lists[-1]
        for i, c in enumerate(lists[-2]):
            step[i] -= c
        lists.append(step)
    return lists


def _chebyshev_polys(k, first):
    """P_0 = first, P_1 = x, P_j = x P_(j-1) - P_(j-2) for j = 0..k.

    first = 2 gives C_j(2cos t) = 2cos(jt), that is C_j(x + 1/x) = x^j +
    x^-j; first = 1 gives U_j(2cos t) = sin((j+1)t)/sin(t).  The
    recurrence runs on coefficient lists, and each IntPolynomial is
    built once."""
    return [IntPolynomial(c) for c in _chebyshev_lists(k, first)]


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
    c = phi.coefficients
    # Phi palindromic: Phi(x)/x^k = c[k] + sum_{j>=1} c[k+j] (x^j + x^-j),
    # summed on coefficient lists
    total = [c[k]] + [0] * k
    for j, v in enumerate(_chebyshev_lists(k, 2)[1:], 1):
        scale = c[k + j]
        if scale:
            for i, a in enumerate(v):
                total[i] += scale * a
    out = IntPolynomial(total)
    if not out.is_monic or out.degree != k:
        raise MathematicalInconsistencyError(
            f"Phi_{n} gives {out}, not a monic polynomial of degree {k}"
        )
    return out


# pi as a pinned dyadic constant: _PI_64 = floor(pi 2^64), so
# 0 <= pi - _PI_64 / 2^64 < 2^-64
_PI_64 = 0x3243F6A8885A308D3
BRACKET_BITS = 37


def two_cos_bracket(n):
    """Rationals (lo, hi) with lo < 2cos(pi/n) < hi, for an integer n >= 3,
    and hi - lo < 2^-30, in integer fixed point at scale S = 2^37.

    Proof.  With t = pi/n, T = floor(_PI_64 S / (2^64 n)) gives
    0 <= tS - T < 1 + 2^-27/n < 2, and x = T/S <= t <= pi/3, so
    x^2 < 1.1.  The series terms are a_0 = S and a_k = floor(a_(k-1) T^2 /
    ((2k - 1) 2k S^2)), up to the first a_K = 0, and c = sum over k < K
    of (-1)^k a_k.  The exact terms b_k = S x^(2k) / (2k)! obey the same
    recurrence without the floor, so e_k = b_k - a_k has e_0 = 0 and
    0 <= e_k < e_(k-1) x^2 / 2 + 1 < 0.55 e_(k-1) + 1, hence e_k < 3.  The
    b_k decrease, so the alternating tail past K is at most b_K = e_K < 3,
    and |S cos x - c| < 3(K + 1).  As |sin| <= 1, |S cos t - S cos x| < 2.
    So with E = 2(3K + 5), (2c - E) / S < 2cos(pi/n) < (2c + E) / S.  As
    b_8 < 1 here, K <= 8 and hi - lo = 2E / S <= 116 / S < 2^-30."""
    if not isinstance(n, int) or n < 3:
        raise InvalidArgumentError("two_cos_bracket requires an integer n >= 3")
    s = 1 << BRACKET_BITS
    t = (_PI_64 << BRACKET_BITS) // (n << 64)
    t2, s2 = t * t, s * s
    term, c, k = s, s, 0
    while term:
        k += 1
        term = term * t2 // ((2 * k - 1) * 2 * k * s2)
        c += -term if k % 2 else term
    e = 2 * (3 * k + 5)
    return Fraction(2 * c - e, s), Fraction(2 * c + e, s)


def small_divisors(n):
    """Divisors a <= sqrt(n) of n >= 0 in ascending order, by one scan up
    to sqrt(n), over odd a only when n is odd; n = 0 has none."""
    return [a for a in range(1, math.isqrt(max(n, 0)) + 1, 1 + n % 2) if not n % a]


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
