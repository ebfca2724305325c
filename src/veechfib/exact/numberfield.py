"""Exact arithmetic in number rings Q[x]/(m).

A RealAlgebraicField is the ring Q[x]/(m) of a monic integer minimal
polynomial m, and nothing more: it holds no root and no embedding.
Which real root x stands for is settled where the field is made, as
the surface build certifies a bracket of mu before it makes mu's field
(veechfib.thurston_veech.perron_frobenius).  Elements are not ordered
and carry no sign: the library signs nothing, since the surface build
proves its heights positive in integers.

An element is one tuple of integer numerators over one positive common
denominator, in lowest terms, so equal elements have equal data.  Sums,
products, reductions, inverses, and products and quotients by x (O(n)
each) all run on those integers: since m is monic, x^n mod m is
integral, and a product is reduced by it from the top coefficient down.
An integral element (denominator 1) never forms a Fraction; ``coeffs``
builds the Fraction coordinates only when read.  Power bases of an
element (minimal polynomials, suborder membership) are one
fraction-free elimination of the integer numerators of its powers.

Elements always carry their field and combine only with elements of
the same field: mixed-field arithmetic raises MixedModulusError, and an
int or Fraction operand raises InvalidArgumentError.  Nothing is ever
coerced; a rational enters a field only through ``element``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import (
    DivisionByZeroError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MixedModulusError,
    NonIntegralElementError,
    ZeroDivisorError,
)
from .linalg import FractionFreeEchelon
from .polynomials import isolate_largest_real_root  # noqa: F401  (kept bound)
from .polynomials import IntPolynomial, pseudo_divmod, rational_to_str, scaled_integers


class RealAlgebraicField:
    """The ring Q[x]/(modulus).

    The modulus must be monic with integer coefficients and irreducible
    over Q in all intended uses (it is taken on faith here; division by
    a zero divisor of a reducible modulus raises ZeroDivisorError).
    """

    def __init__(self, modulus):
        if not isinstance(modulus, IntPolynomial):
            modulus = IntPolynomial(modulus)
        if not modulus.is_monic or modulus.degree < 1:
            raise InvalidArgumentError("modulus must be monic of degree >= 1")
        self.modulus = modulus
        self.degree = modulus.degree
        self._low = tuple(-c for c in modulus.coefficients[:-1])  # x^degree mod modulus

    def __eq__(self, other):
        return isinstance(other, RealAlgebraicField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("RealAlgebraicField", self.modulus))

    def __repr__(self):
        return f"RealAlgebraicField(Q[x]/({self.modulus}))"

    # -- element constructors -------------------------------------------------

    def element(self, coeffs):
        """The element sum_k coeffs[k] x^k for int or Fraction
        coordinates; coordinates past the degree are reduced."""
        coeffs = list(coeffs)
        if all(type(c) is int for c in coeffs):
            return self._element(coeffs, 1)
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        return self._element(*scaled_integers(coeffs))

    def _element(self, nums, den):
        """The element sum_k nums[k] x^k / den for integers nums and
        den > 0, reduced from the top down by x^degree mod modulus and
        put in lowest terms."""
        n, low = self.degree, self._low
        out = list(nums)
        while len(out) > n:
            c = out.pop()
            if c:
                for i, r in enumerate(low, len(out) - n):
                    out[i] += c * r
        return _lowest(self, out + [0] * (n - len(out)), den)

    @property
    def zero(self):
        return self.element([0])

    @property
    def one(self):
        return self.element([1])

    @property
    def generator(self):
        return self.element([0, 1])


def _lowest(field, nums, den):
    """The element nums / den (den > 0) in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return NumberFieldElement(field, tuple(nums), den)


class NumberFieldElement:
    """Element of a RealAlgebraicField: the residue sum_k nums[k] x^k / den
    of degree < deg(modulus), with den > 0 and gcd(den, *nums) == 1.

    A closed ring type: +, -, * and / take another element of the same
    field and nothing else, and == holds only between elements.  There
    is no order: < and its kin raise TypeError."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self):
        """Power-basis coordinates as a tuple of Fractions, built on each
        read."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    def _check(self, other):
        if not isinstance(other, NumberFieldElement):
            raise InvalidArgumentError(f"cannot combine field element with {type(other).__name__}")
        if other.field != self.field:
            raise MixedModulusError(
                f"mixed moduli: {self.field.modulus} vs {other.field.modulus}"
            )

    def __add__(self, other):
        self._check(other)
        a, b = self.den, other.den
        return _lowest(self.field, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        self._check(other)
        a, b = self.den, other.den
        return _lowest(self.field, [x * b - y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __mul__(self, other):
        self._check(other)
        a = self.nums
        b = list(other.nums)
        while b and not b[-1]:
            b.pop()
        prod = [0] * (len(a) + len(b) - 1) if b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        return self.field._element(prod, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse by the extended Euclidean algorithm on
        integer pseudo-remainders.

        With A the integer numerators of the element over their common
        denominator D, every pair (r, s) keeps s A = r mod the modulus;
        each step is one pseudo-division of the previous r by the last,
        and the new pair is divided by its joint content.  At a constant
        r the inverse is D s / r; a zero remainder before that means a
        common factor with the modulus.
        """
        if self.is_zero:
            raise DivisionByZeroError("inverse of zero")
        r0, r1 = self.field.modulus.coefficients, IntPolynomial(self.nums).coefficients
        s0, s1 = IntPolynomial(), IntPolynomial([1])
        while len(r1) > 1:
            q, r, c = pseudo_divmod(r0, r1)
            if not r:
                raise ZeroDivisorError("element is a zero divisor (reducible modulus?)")
            s = (s0 * c - IntPolynomial(q) * s1).coefficients
            g = math.gcd(*r, *s)
            r0, s0, r1, s1 = r1, s1, [x // g for x in r], IntPolynomial([x // g for x in s])
        sign = 1 if r1[0] > 0 else -1
        return self.field._element([sign * self.den * x for x in s1.coefficients], abs(r1[0]))

    def over_generator(self):
        """self / x in O(n), without a product: for the modulus x^n + ...
        + m_1 x + m_0, x (x^(n-1) + ... + m_1) = -m_0, so self / x has
        numerators m_0 e_(k+1) - e_0 m_(k+1) (e_n = 0, m_n = 1) over
        m_0 times the denominator.  m_0 = 0 makes x zero or a zero divisor."""
        m, e = self.field.modulus.coefficients, self.nums
        if not m[0]:
            raise ZeroDivisorError("the generator is zero or a zero divisor (reducible modulus?)")
        m0, e0 = (m[0], e[0]) if m[0] > 0 else (-m[0], -e[0])
        nums = [m0 * c - e0 * r for c, r in zip(e[1:], m[1:])] + [-e0]
        return _lowest(self.field, nums, self.den * m0)

    def times_generator(self):
        """self * x in O(n), without a product; the mirror of
        over_generator.  The numerators move up one place, and the one
        pushed to x^n folds back in by x^n = -(m_(n-1) x^(n-1) + ... +
        m_0) for the modulus x^n + ... + m_0."""
        e = self.nums
        top = e[-1]
        nums = [c + top * r for c, r in zip((0, *e[:-1]), self.field._low)]
        return _lowest(self.field, nums, self.den)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, NumberFieldElement)
            and other.field == self.field
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.modulus, self.nums, self.den))

    @property
    def is_zero(self):
        return not any(self.nums)

    @property
    def is_integral_residue(self):
        """True when all power-basis coordinates are integers."""
        return self.den == 1

    # -- lifts ----------------------------------------------------------------

    def integer_lift(self):
        """Canonical residue as IntPolynomial; requires integral coordinates."""
        if not self.is_integral_residue:
            raise InvalidArgumentError("element has non-integer coordinates")
        return IntPolynomial(self.nums)

    def to_json(self):
        return [rational_to_str(c) for c in self.coeffs]

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*a" if c != 1 else "a")
            else:
                terms.append(f"{c}*a^{i}" if c != 1 else f"a^{i}")
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Power-basis elimination: minimal polynomials and suborder membership
# ---------------------------------------------------------------------------


class PowerBasis:
    """The powers 1, alpha, alpha^2, ... of one element, eliminated once.

    Each power alpha^k = v / D (v its integer numerators) enters a
    FractionFreeEchelon as the row [v | D e_k]: pivots come from the
    ambient part, and the trailing part records which combination of
    powers each kept row is, so every row [x | a] keeps x = sum_j a_j
    alpha^j.  The first power that reduces to zero gives the minimal
    polynomial of alpha.  An element reduced against the kept rows gets
    its unique coordinates over 1, ..., alpha^(degree-1) as integers
    over one denominator, or is found outside Q(alpha).
    """

    def __init__(self, alpha):
        self.alpha = alpha
        n = alpha.field.degree
        self._echelon = FractionFreeEchelon(n)
        power = alpha.field.one
        for k in range(n + 1):
            row = list(power.nums) + [0] * (n + 1)
            row[n + k] = power.den
            reduced = self._echelon.insert(row)
            if reduced is not None:
                # 0 = sum_j a_j alpha^j with a_k = pivot * D != 0
                a = reduced[n : n + k + 1]
                self.degree = k
                self.rational_minimal_polynomial = tuple(Fraction(c, a[k]) for c in a)
                return
            power = power * alpha
        raise MathematicalInconsistencyError("no linear dependence found; corrupt field data")

    def minimal_polynomial(self):
        """Monic integer minimal polynomial of alpha.

        Raises NonIntegralElementError (carrying the exact rational
        coefficients) when alpha is not an algebraic integer.
        """
        coeffs = self.rational_minimal_polynomial
        if all(c.denominator == 1 for c in coeffs):
            return IntPolynomial([int(c) for c in coeffs])
        raise NonIntegralElementError(
            "element is not an algebraic integer; minimal polynomial has "
            "non-integer coefficients",
            coeffs,
        )

    def in_order(self, elem, count=None):
        """Exact membership of elem in the Z-span of 1, alpha, ...,
        alpha^(count-1): the subring Z[alpha] at the default count, deg alpha."""
        if elem.field != self.alpha.field:
            raise MixedModulusError("alpha and element live in different fields")
        n, d = self._echelon.pivot_columns, self.degree
        count = d if count is None else max(count, 0)
        reduced = self._echelon.reduce(list(elem.nums) + [0] * d)
        # pivot * elem.nums = -sum_j a_j alpha^j when the ambient part is 0;
        # the coordinates are unique, so a count below the degree needs
        # the ones past it to vanish
        a = reduced[n : n + d]
        if any(reduced[:n]) or any(a[count:]):
            return False
        den = self._echelon.pivot * elem.den
        return all(c % den == 0 for c in a[:count])


def element_minimal_polynomial(elem):
    """Monic integer minimal polynomial of a number-ring element.

    Found as the first linear dependence among the powers 1, elem,
    elem^2, ... in the ambient power basis; no factorization is needed.
    Raises NonIntegralElementError (carrying the exact rational
    coefficients) when the element is not an algebraic integer.
    """
    return PowerBasis(elem).minimal_polynomial()


def in_order(elem, alpha, degree):
    """Exact membership test for the subring Z[alpha]."""
    return PowerBasis(alpha).in_order(elem, degree)
