"""Exact arithmetic in real number rings Q[x]/(m) with a chosen real root.

A RealAlgebraicField wraps a monic integer minimal polynomial together
with a RootInterval picking out one real root; the interval gives every
element an exact sign (refine until the interval evaluation of its
residue excludes zero), so elements can be compared, sorted and checked
for positivity without floating point.

Elements hold Fraction coordinates in the power basis, but products,
reductions and interval evaluations run on integer numerators over a
common denominator: since m is monic, each x^k mod m is integral, and
the field keeps one table of them for reducing products.

Elements always carry their field.  Mixed-field arithmetic raises
MixedModulusError; nothing is ever coerced.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import (
    DivisionByZeroError,
    EnclosureDivergenceError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MixedModulusError,
    NonIntegralElementError,
    ZeroDivisorError,
)
from .polynomials import (
    IntPolynomial,
    isolate_largest_real_root,
    pseudo_divmod,
    rational_to_str,
    scaled_integers,
)


class RealAlgebraicField:
    """The ring Q[x]/(modulus) with a distinguished real embedding.

    The modulus must be monic with integer coefficients and irreducible
    over Q in all intended uses (it is taken on faith here; division by
    a zero divisor of a reducible modulus raises ZeroDivisorError).
    """

    def __init__(self, modulus, root=None):
        if not isinstance(modulus, IntPolynomial):
            modulus = IntPolynomial(modulus)
        if not modulus.is_monic or modulus.degree < 1:
            raise InvalidArgumentError("modulus must be monic of degree >= 1")
        self.modulus = modulus
        self.degree = modulus.degree
        # x^(degree + k) mod modulus for k = 0, 1, ...; grown on demand
        self._reductions = (tuple(-c for c in modulus.coefficients[:-1]),)
        if root is None:
            root = isolate_largest_real_root(modulus)
        self.root = root

    def __eq__(self, other):
        return isinstance(other, RealAlgebraicField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("RealAlgebraicField", self.modulus))

    def __repr__(self):
        return f"RealAlgebraicField(Q[x]/({self.modulus}))"

    # -- element constructors -------------------------------------------------

    def element(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            return self._reduced(*scaled_integers(coeffs))
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return NumberFieldElement(self, tuple(coeffs))

    def _reduced(self, nums, den):
        """The element sum_k nums[k] x^k / den, reduced by the table of
        x^k mod modulus."""
        n = self.degree
        rows = self._reductions
        if len(nums) - n > len(rows):
            rows = self._grow_reductions(len(nums) - n)
        out = list(nums[:n]) + [0] * (n - len(nums))
        for c, row in zip(nums[n:], rows):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        if den == 1:
            return NumberFieldElement(self, tuple(map(Fraction, out)))
        return NumberFieldElement(self, tuple(Fraction(c, den) for c in out))

    def _grow_reductions(self, count):
        """At least count table rows; x * row, reduced once more, gives
        the next row.  The longer table replaces the old one whole."""
        rows = list(self._reductions)
        first = rows[0]
        while len(rows) < count:
            last = rows[-1]
            top = last[-1]
            rows.append((top * first[0],) + tuple(a + top * b for a, b in zip(last, first[1:])))
        self._reductions = tuple(rows)
        return self._reductions

    def from_rational(self, x):
        return self.element([Fraction(x)])

    @property
    def zero(self):
        return self.from_rational(0)

    @property
    def one(self):
        return self.from_rational(1)

    @property
    def generator(self):
        if self.degree == 1:
            # x = -c0 in a linear field
            return self.from_rational(-self.modulus.coefficients[0])
        return self.element([0, 1])

    def _refine_root(self, width):
        self.root = self.root.refine(width)
        return self.root


class NumberFieldElement:
    """Element of a RealAlgebraicField: residue of degree < deg(modulus)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, NumberFieldElement):
            raise InvalidArgumentError(f"cannot combine field element with {type(other).__name__}")
        if other.field != self.field:
            raise MixedModulusError(
                f"mixed moduli: {self.field.modulus} vs {other.field.modulus}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        self._check(other)
        return NumberFieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement(self.field, tuple(a * other for a in self.coeffs))
        self._check(other)
        a, da = scaled_integers(self.coeffs)
        b, db = scaled_integers(other.coeffs)
        while b and not b[-1]:
            b.pop()
        prod = [0] * (len(a) + len(b) - 1) if b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        return self.field._reduced(prod, da * db)

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
        nums, den = scaled_integers(self.coeffs)
        r0, r1 = self.field.modulus.coefficients, IntPolynomial(nums).coefficients
        s0, s1 = IntPolynomial(), IntPolynomial([1])
        while len(r1) > 1:
            q, r, c = pseudo_divmod(r0, r1)
            if not r:
                raise ZeroDivisorError("element is a zero divisor (reducible modulus?)")
            s = (s0 * c - IntPolynomial(q) * s1).coefficients
            g = math.gcd(*r, *s)
            r0, s0, r1, s1 = r1, s1, [x // g for x in r], IntPolynomial([x // g for x in s])
        return self.field.element([Fraction(den * x, r1[0]) for x in s1.coefficients])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZeroError("division by zero")
            return self * Fraction(1, other)
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, NumberFieldElement) or other.field != self.field:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    @property
    def is_integral_residue(self):
        """True when all power-basis coordinates are integers."""
        return all(c.denominator == 1 for c in self.coeffs)

    # -- real embedding -------------------------------------------------------

    def _enclosure(self, done):
        """Rational bounds (lo, hi) on the value, by interval Horner over
        the field's root interval; the root is refined by width/4 until
        done(lo, hi) holds or the root is exact (then lo == hi).

        Horner runs on the integer numerators over the common
        denominator D of the coordinates and e of the interval: after k
        steps the bounds are integers over D e^(k-1), one positive
        denominator, so every min and max is the one Fraction Horner
        takes, and the bounds are the same rationals.
        """
        nums, den = scaled_integers(self.coeffs)
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return Fraction(0), Fraction(0)
        root = self.field.root
        for _ in range(400):
            (p, q), e = scaled_integers((root.lower, root.upper))
            alo = ahi = 0
            scale = 1
            for c in reversed(nums):
                products = (alo * p, alo * q, ahi * p, ahi * q)
                alo, ahi = min(products) + c * scale, max(products) + c * scale
                scale *= e
            bound_den = den * scale // e
            lo, hi = Fraction(alo, bound_den), Fraction(ahi, bound_den)
            if root.is_exact or done(lo, hi):
                return lo, hi
            root = self.field._refine_root(root.width / 4)
        raise EnclosureDivergenceError("root enclosure did not converge")

    def sign(self):
        """Sign of the element under the field's distinguished embedding."""
        if self.is_zero:
            return 0
        if self.is_rational:
            c = self.coeffs[0]
            return 1 if c > 0 else -1
        lo, hi = self._enclosure(lambda lo, hi: lo > 0 or hi < 0)
        return 1 if lo > 0 else (-1 if hi < 0 else 0)

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        self._check(other)
        return (self - other).sign() < 0

    def __le__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        self._check(other)
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return not self.__le__(other)

    def __ge__(self, other):
        return not self.__lt__(other)

    def isolating_interval(self, width):
        """Rational interval of at most the given width containing the value."""
        width = Fraction(width)
        return self._enclosure(lambda lo, hi: hi - lo <= width)

    def __float__(self):
        lo, hi = self.isolating_interval(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    # -- lifts ----------------------------------------------------------------

    def integer_lift(self):
        """Canonical residue as IntPolynomial; requires integral coordinates."""
        if not self.is_integral_residue:
            raise InvalidArgumentError("element has non-integer coordinates")
        return IntPolynomial([int(c) for c in self.coeffs])

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
# Power-basis elimination: minimal polynomials and suborder coordinates
# ---------------------------------------------------------------------------


class PowerBasis:
    """The powers 1, alpha, alpha^2, ... of one element, in echelon form.

    Powers are reduced one at a time against the rows kept so far.  Row
    i holds the reduced ambient coordinates of one power (pivot entry 1)
    and its expression over 1, alpha, ..., alpha^i; it is reduced against
    the earlier rows only, so the first k rows span 1, ..., alpha^(k-1).
    The first power that reduces to zero gives the minimal polynomial of
    alpha; an element reduced against the same rows gets its coordinates
    over Q(alpha).
    """

    def __init__(self, alpha):
        self.alpha = alpha
        self._rows = []  # (pivot column, reduced coordinates, combination)
        power = alpha.field.one
        for k in range(alpha.field.degree + 1):
            residual, coords = self._reduce(power.coeffs, k)
            if not any(residual):
                self.degree = k
                self.rational_minimal_polynomial = tuple(-c for c in coords) + (Fraction(1),)
                return
            pivot = next(i for i, x in enumerate(residual) if x)
            inv = 1 / residual[pivot]
            combination = [-c * inv for c in coords] + [inv]
            self._rows.append((pivot, [x * inv for x in residual], combination))
            power = power * alpha
        raise MathematicalInconsistencyError("no linear dependence found; corrupt field data")

    def _reduce(self, coeffs, count):
        """Residual of coeffs against the first count rows, and the
        coordinates over 1, ..., alpha^(count-1) of what was taken off."""
        vec, coords = list(coeffs), [Fraction(0)] * count
        for pivot, row, combination in self._rows[:count]:
            f = vec[pivot]
            if f:
                vec = [x - f * y if y else x for x, y in zip(vec, row)]
                for j, c in enumerate(combination):
                    coords[j] += f * c
        return vec, coords

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

    def coordinates(self, elem, count=None):
        """Coordinates of elem over 1, alpha, ..., alpha^(count-1).

        count defaults to the degree of alpha; powers past the degree get
        coordinate 0.  Returns a tuple of Fractions, or None when elem
        lies outside the Q-span of those powers.
        """
        if elem.field != self.alpha.field:
            raise MixedModulusError("alpha and element live in different fields")
        count = self.degree if count is None else max(count, 0)
        residual, coords = self._reduce(elem.coeffs, count)
        return None if any(residual) else tuple(coords)

    def in_order(self, elem, count=None):
        """Exact membership test for the subring Z[alpha]."""
        coords = self.coordinates(elem, count)
        return coords is not None and all(c.denominator == 1 for c in coords)


def element_minimal_polynomial(elem):
    """Monic integer minimal polynomial of a number-ring element.

    Found as the first linear dependence among the powers 1, elem,
    elem^2, ... in the ambient power basis; no factorization is needed.
    Raises NonIntegralElementError (carrying the exact rational
    coefficients) when the element is not an algebraic integer.
    """
    return PowerBasis(elem).minimal_polynomial()


def coordinates_in_power_basis(elem, alpha, degree):
    """Coordinates of elem in the basis 1, alpha, ..., alpha^(degree-1).

    Returns a tuple of Fractions, or None when elem lies outside the
    Q-span (i.e. outside Q(alpha) viewed inside the ambient field).
    """
    return PowerBasis(alpha).coordinates(elem, degree)


def in_order(elem, alpha, degree):
    """Exact membership test for the subring Z[alpha]."""
    return PowerBasis(alpha).in_order(elem, degree)
