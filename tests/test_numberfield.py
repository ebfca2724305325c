import functools
import math
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import enclosure_reference
import fraction_reference
import power_basis_reference as reference
import root_refine_reference
from enclosure_reference import EnclosureDivergenceError, Embedded
from power_basis_reference import power
from veechfib.errors import (
    DivisionByZeroError,
    InvalidArgumentError,
    MixedModulusError,
    NonIntegralElementError,
    VeechFibError,
    ZeroDivisorError,
)
from veechfib.exact.numberfield import (
    PowerBasis,
    RealAlgebraicField,
    element_minimal_polynomial,
    in_order,
)
from veechfib.exact.polynomials import IntPolynomial, cos_two_pi_minpoly
from veechfib.thurston_veech import perron_frobenius


@pytest.fixture
def golden_field():
    return RealAlgebraicField(IntPolynomial([-1, -1, 1]))


def test_modulus_relation(golden_field):
    mu = golden_field.generator
    assert (mu * mu - mu - golden_field.one).is_zero


def test_linear_field_generator_is_the_root():
    # Q[x]/(x + c) is Q with x = -c; the generator takes the general path
    for c in (-3, 5, 0, 7):
        field = RealAlgebraicField([c, 1])
        assert field.generator == field.element([-c])
    # the A2 graph, center 2 and the arm (1,), has Coxeter number 3 and
    # mu = 2cos(pi/3) = 1, in a linear field; its star lifts, vertex 1
    # then 2, are U_0 = 1 and U_1 = x
    _, _, _, mu, heights, lifts = perron_frobenius(2, ((1,),), 3)
    assert lifts == {1: IntPolynomial([1]), 2: IntPolynomial([0, 1])}
    assert mu.field.degree == 1
    one = mu.field.one
    assert mu == one and heights == {1: one, 2: one}


def test_element_minimal_polynomial_of_square(golden_field):
    # oracle: mu^2 = mu + 1, and (mu+1)^2 - 3(mu+1) + 1 = mu^2 - mu - 1 = 0
    mu = golden_field.generator
    assert element_minimal_polynomial(mu * mu) == IntPolynomial([1, -3, 1])


def test_element_minimal_polynomial_identity_case(golden_field):
    mu = golden_field.generator
    assert element_minimal_polynomial(mu) == golden_field.modulus


def test_element_minimal_polynomial_degree_seven_case():
    field = RealAlgebraicField(cos_two_pi_minpoly(2 * 7))
    mu = field.generator
    assert element_minimal_polynomial(mu * mu) == IntPolynomial([-1, 6, -5, 1])


def test_minimal_polynomial_annihilates_in_ring():
    for n in (5, 7, 9, 12, 18):
        field = RealAlgebraicField(cos_two_pi_minpoly(2 * n))
        mu = field.generator
        elem = mu * mu - field.element([2]) * mu + field.one
        m = element_minimal_polynomial(elem)
        acc = field.zero
        for c in reversed(m.coefficients):
            acc = acc * elem + field.element([c])
        assert acc.is_zero


def test_non_integral_element_reports_rational_polynomial(golden_field):
    half_mu = golden_field.generator / golden_field.element([2])
    with pytest.raises(NonIntegralElementError) as err:
        element_minimal_polynomial(half_mu)
    assert err.value.rational_coefficients == (
        Fraction(-1, 4),
        Fraction(-1, 2),
        Fraction(1),
    )


def test_real_embedding_sign_and_order(golden_field):
    # the enclosure reference; the elements themselves carry no order
    sign = enclosure_reference.sign
    mu = golden_field.generator
    assert sign(mu) == 1
    assert sign(-mu) == -1
    assert sign(golden_field.zero) == 0
    assert Embedded(golden_field.one) < Embedded(mu) < Embedded(golden_field.element([2]))
    assert Embedded(mu * mu) > Embedded(mu)
    # (1 + sqrt(5)) / 2 = 1.6180339887...
    assert Embedded(golden_field.element([Fraction(16180339887, 10**10)])) < Embedded(mu)
    assert Embedded(mu) < Embedded(golden_field.element([Fraction(16180339888, 10**10)]))
    # the field is the ring alone: it holds no root to sign by
    assert not hasattr(golden_field, "root")
    for compare in (
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b
    ):
        with pytest.raises(TypeError):
            compare(mu, golden_field.one)


def test_field_inverse_and_division(golden_field):
    mu = golden_field.generator
    assert mu * mu.inverse() == golden_field.one
    assert (power(mu, 3) / mu) == mu * mu
    # a rational divisor scales the coordinates
    x = mu * mu + golden_field.element([3])
    for r in (2, -7, Fraction(2, 3), Fraction(-5, 4)):
        assert (x / golden_field.element([r])).coeffs == tuple(c / r for c in x.coeffs)
    with pytest.raises(DivisionByZeroError):
        x / golden_field.zero


def test_mixed_modulus_rejected(golden_field):
    other = RealAlgebraicField(IntPolynomial([-2, 0, 1]))
    with pytest.raises(MixedModulusError):
        golden_field.generator + other.generator


def test_every_order_comparison_against_every_operand(golden_field):
    # mu = 1.618...; each operand below, above and equal to an element
    mu, rational = golden_field.generator, golden_field.element
    cases = [
        (mu, 1, 1), (mu, 2, -1), (mu, Fraction(8, 5), 1), (mu, Fraction(13, 8), -1),
        (rational([3]), 3, 0), (rational([Fraction(-2, 7)]), Fraction(-2, 7), 0),
    ]
    cases = [(x, rational([y]), sign) for x, y, sign in cases] + [
        (mu, mu, 0), (mu, mu - golden_field.one, 1),
        (mu, mu + rational([Fraction(1, 10**9)]), -1),
    ]
    for x, y, sign in cases:
        x, y = Embedded(x), Embedded(y)
        assert (x < y, x <= y, x > y, x >= y) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
        # the reflected operators, with y on the left
        assert (y < x, y <= x, y > x, y >= x) == (sign > 0, sign >= 0, sign < 0, sign <= 0)


def test_elements_combine_only_with_elements(golden_field):
    # nothing is coerced: an int or Fraction operand is refused, also
    # through the reflected product
    mu = golden_field.generator
    operators = (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: b * a,
        lambda a, b: a / b,
    )
    for r in (0, 2, Fraction(0), Fraction(1, 2)):
        for combine in operators:
            with pytest.raises(InvalidArgumentError):
                combine(mu, r)
        # no reflected sum or difference
        with pytest.raises(TypeError):
            r + mu
        with pytest.raises(TypeError):
            r - mu
    assert not mu == 1 and mu != 1
    assert golden_field.one != 1 and golden_field.zero != 0
    assert golden_field.element([Fraction(1, 2)]) != Fraction(1, 2)
    # and elements are not ordered at all
    with pytest.raises(TypeError):
        mu < mu


def test_order_comparison_refuses_foreign_operands(golden_field):
    mu = Embedded(golden_field.generator)
    other = Embedded(RealAlgebraicField(IntPolynomial([-2, 0, 1])).generator)
    for compare in (
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b
    ):
        with pytest.raises(MixedModulusError):
            compare(mu, other)
        with pytest.raises(InvalidArgumentError):
            compare(mu, Embedded("1"))
        with pytest.raises(InvalidArgumentError):
            compare(Embedded("1"), mu)


def test_suborder_membership(golden_field):
    mu = golden_field.generator
    alpha = mu * mu
    assert in_order(alpha + golden_field.one, alpha, 2)
    assert in_order(mu, alpha, 2)  # mu = alpha - 1 here
    assert not in_order(mu / golden_field.element([2]), alpha, 2)


def test_suborder_coordinates_outside_subfield():
    field = RealAlgebraicField(cos_two_pi_minpoly(2 * 18))
    mu = field.generator
    alpha = mu * mu
    assert not in_order(mu, alpha, 3)
    assert in_order(alpha * alpha - field.element([3]), alpha, 3)


def test_element_json(golden_field):
    mu = golden_field.generator
    assert (mu / golden_field.element([2])).to_json() == ["0/1", "1/2"]
    assert golden_field.element([Fraction(-3, 4), 5]).to_json() == ["-3/4", "5/1"]


def test_power_basis_minimal_polynomial_and_coordinates():
    field = RealAlgebraicField(cos_two_pi_minpoly(2 * 18))
    mu = field.generator
    basis = PowerBasis(mu * mu)
    assert basis.degree == 3
    assert basis.minimal_polynomial() == element_minimal_polynomial(mu * mu)
    assert not basis.in_order(mu)
    three, one = field.element([3]), field.one
    assert basis.in_order(power(mu, 4) - three)
    assert not basis.in_order(power(mu, 4), 2)  # alpha^2 is outside span(1, alpha)
    assert basis.in_order(mu * mu, 5)
    assert basis.in_order(mu * mu + one)
    assert not basis.in_order((mu * mu + one) / field.element([2]))


def test_power_basis_rejects_mixed_fields(golden_field):
    other = RealAlgebraicField(IntPolynomial([-2, 0, 1]))
    with pytest.raises(MixedModulusError):
        PowerBasis(golden_field.generator).in_order(other.generator)


_FIELD_NS = (5, 7, 8, 9, 12, 18)
_SMALL_POLY = st.lists(st.integers(-3, 3), max_size=7)


def _poly_in_mu(field, coeffs):
    mu, acc = field.generator, field.zero
    for c in reversed(coeffs):
        acc = acc * mu + field.element([c])
    return acc


def _minpoly_outcome(route, elem):
    try:
        return route(elem)
    except NonIntegralElementError as exc:
        return ("non-integral", exc.rational_coefficients)


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from(_FIELD_NS),
    elem_coeffs=_SMALL_POLY,
    elem_den=st.sampled_from((1, 1, 2, 3)),
    alpha_coeffs=_SMALL_POLY,
    alpha_den=st.sampled_from((1, 1, 2)),
)
@example(n=18, elem_coeffs=[0, 0, 0, 0, 1], elem_den=1, alpha_coeffs=[0, 0, 1], alpha_den=1)
@example(n=12, elem_coeffs=[1, 0, 1], elem_den=1, alpha_coeffs=[0, 0, 1], alpha_den=1)
@example(n=9, elem_coeffs=[3], elem_den=2, alpha_coeffs=[3], alpha_den=1)
@example(n=8, elem_coeffs=[0, 0, 1], elem_den=1, alpha_coeffs=[0, 0, 1], alpha_den=2)
@example(n=7, elem_coeffs=[0, 1], elem_den=1, alpha_coeffs=[0, 0, 1], alpha_den=2)
def test_power_basis_matches_dense_elimination(n, elem_coeffs, elem_den, alpha_coeffs, alpha_den):
    """PowerBasis and the dense Gauss-Jordan reference agree on minimal
    polynomials (or the non-integral refusal) and Z[alpha] membership,
    for counts below, at and above the degree of alpha."""
    field = RealAlgebraicField(cos_two_pi_minpoly(2 * n))
    elem = _poly_in_mu(field, elem_coeffs) / field.element([elem_den])
    alpha = _poly_in_mu(field, alpha_coeffs) / field.element([alpha_den])
    for x in (elem, alpha):
        assert _minpoly_outcome(element_minimal_polynomial, x) == _minpoly_outcome(
            reference.element_minimal_polynomial, x
        )
    try:
        degree = reference.element_minimal_polynomial(alpha).degree
    except NonIntegralElementError as exc:
        degree = len(exc.rational_coefficients) - 1
    for count in (degree - 1, degree, degree + 1):
        assert in_order(elem, alpha, count) == reference.in_order(elem, alpha, count)


# ---------------------------------------------------------------------------
# Integer kernels against their Fraction routes
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cos_field(h):
    return RealAlgebraicField(cos_two_pi_minpoly(2 * h))


@st.composite
def _fields_with_roots(draw):
    """(field, root): a field of 2cos(pi/h), h <= 40, with None for the
    reference's isolated root, or a random monic modulus with an
    arbitrary rational interval standing in for the root (enclosures
    take it as given)."""
    if draw(st.booleans()):
        return _cos_field(draw(st.integers(2, 40))), None
    lower = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=lower, max_size=lower)) + [1]
    lo = draw(st.fractions(-4, 4, max_denominator=2**20))
    hi = lo + draw(st.fractions(0, 1, max_denominator=2**20))
    return RealAlgebraicField(coeffs), (lo, hi)


def _fields():
    """A field of _fields_with_roots; products never look at a root."""
    return _fields_with_roots().map(lambda pair: pair[0])


def _coordinates(draw, field, count=None):
    return draw(
        st.lists(
            st.fractions(-50, 50, max_denominator=30),
            min_size=count or field.degree,
            max_size=count or field.degree,
        )
    )


# no shrink phase: a failing draw is reported as found, in seconds, where
# shrinking these products took minutes
@settings(
    max_examples=100,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(data=st.data())
def test_field_product_matches_fraction_long_division(data):
    field = data.draw(_fields())
    a = _coordinates(data.draw, field)
    b = _coordinates(data.draw, field)
    x, y = field.element(a), field.element(b)
    expected = fraction_reference.field_product(
        a, b, field.modulus.coefficients, field.degree
    )
    product = x * y
    assert product.coeffs == expected
    assert all(type(c) is Fraction for c in product.coeffs)
    length = data.draw(st.integers(field.degree + 1, 4 * field.degree))
    longer = _coordinates(data.draw, field, length)
    reduced = fraction_reference.remainder(longer, field.modulus.coefficients)
    assert field.element(longer).coeffs == reduced + (Fraction(0),) * (
        field.degree - len(reduced)
    )


# constant terms 2 (the octagon's x^4 - 4x^2 + 2), -1, 1 and -2
_GENERATOR_MODULI = ([2, 0, -4, 0, 1], [-1, -1, 1], [1, -3, 0, 1], [-2, 0, 1])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_division_by_the_generator_matches_the_product_by_its_inverse(data):
    if data.draw(st.booleans()):
        field = RealAlgebraicField(data.draw(st.sampled_from(_GENERATOR_MODULI)))
    else:
        field = data.draw(_fields())
    if not field.modulus.coefficients[0]:
        return
    elem = field.element(_coordinates(data.draw, field))
    quotient = elem.over_generator()
    assert quotient == elem * field.generator.inverse()
    assert quotient * field.generator == elem
    assert quotient.den > 0 and math.gcd(quotient.den, *quotient.nums) == 1


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_product_by_the_generator_matches_the_product(data):
    # random moduli include a zero constant term and degree 1
    field = data.draw(_fields())
    elem = field.element(_coordinates(data.draw, field))
    product = elem.times_generator()
    assert product == elem * field.generator
    assert product.den > 0 and math.gcd(product.den, *product.nums) == 1
    if field.modulus.coefficients[0]:
        assert product.over_generator() == elem


def test_division_by_a_vanishing_generator_is_typed():
    # x is zero in Q[x]/(x), and a zero divisor in Q[x]/(x^2 + x)
    for coeffs, error in (([0, 1], DivisionByZeroError), ([0, 1, 1], ZeroDivisorError)):
        field = RealAlgebraicField(coeffs)
        for route in (field.one.over_generator, field.generator.inverse):
            with pytest.raises(error):
                route()


@st.composite
def _field_elements(draw):
    field, root = draw(_fields_with_roots())
    return field, _coordinates(draw, field), root


def _quartic_case(lower, upper, coordinates):
    """An element of a quartic field, with [lower, upper] as its root
    interval."""
    return RealAlgebraicField([1, 0, -10, 0, 1]), coordinates, (lower, upper)


@settings(max_examples=150, deadline=None)
@given(case=_field_elements())
# one root interval of each sign, so both Horner branches run on every
# run: negative and straddling 0 (four products), and lower = 0 (two),
# where each bound is negative at one step and nonnegative at another
@example(case=_quartic_case(Fraction(-7, 2), Fraction(-1, 3), [3, -5, Fraction(2, 7), 4]))
@example(case=_quartic_case(Fraction(-2, 3), Fraction(5, 4), [Fraction(1, 2), -4, 7, -3]))
@example(case=_quartic_case(0, Fraction(3, 2), [-6, -6, 5, -3]))
def test_enclosure_matches_fraction_interval_horner(case):
    field, coordinates, root = case
    elem = field.element(coordinates)
    lo, hi, den, root = next(enclosure_reference.enclosures(elem, root))
    expected = fraction_reference.qeval_interval(fraction_reference.strip(elem.coeffs), *root)
    assert den > 0 and (Fraction(lo, den), Fraction(hi, den)) == expected


@pytest.mark.parametrize("h", [5, 7, 12, 17, 40])
def test_enclosure_sequence_matches_fraction_interval_horner(h):
    # the same bounds at every refinement of the root
    field = RealAlgebraicField(cos_two_pi_minpoly(2 * h))
    elem = field.element([Fraction(1, 5), Fraction(-7, 3), 0, 1])
    seen = []
    for lo, hi, den, root in enclosure_reference.enclosures(elem):
        lo, hi = Fraction(lo, den), Fraction(hi, den)
        assert (lo, hi) == fraction_reference.qeval_interval(
            fraction_reference.strip(elem.coeffs), *root
        )
        seen.append(hi - lo)
        if hi - lo <= Fraction(1, 10**30):
            break
    assert len(seen) > 1


@settings(max_examples=100, deadline=None)
@given(h=st.integers(2, 30), data=st.data())
def test_inverse_matches_fraction_extended_euclid(h, data):
    field = _cos_field(h)
    coords = _coordinates(data.draw, field)
    if not any(coords):
        coords[0] = Fraction(1, 3)
    expected = fraction_reference.inverse(coords, field.modulus.coefficients)
    assert field.element(coords).inverse().coeffs == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_on_reducible_moduli_matches_fraction_extended_euclid(data):
    # modulus a * b with random monic factors; an element sharing the
    # factor a is a zero divisor on both routes
    factors = [
        IntPolynomial(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1])
        for n in (1, data.draw(st.integers(1, 3)))
    ]
    modulus = factors[0] * factors[1]
    field = RealAlgebraicField(modulus)
    coords = _coordinates(data.draw, field)
    if data.draw(st.booleans()):
        coords = list((IntPolynomial([data.draw(st.integers(1, 5))]) * factors[0]).coefficients)
    if not any(coords):
        coords[0] = Fraction(1, 3)
    expected = fraction_reference.inverse(coords, modulus.coefficients)
    if expected is None:
        with pytest.raises(ZeroDivisorError):
            field.element(coords).inverse()
    else:
        assert field.element(coords).inverse().coeffs == expected


def test_inverse_of_zero_is_typed(golden_field):
    with pytest.raises(DivisionByZeroError) as err:
        golden_field.zero.inverse()
    assert isinstance(err.value, VeechFibError) and isinstance(err.value, ZeroDivisionError)


def test_zero_divisor_inverse_is_typed():
    # x^2 - 2 divides the reducible modulus (x^2 - 2)(x - 1)
    modulus = IntPolynomial([-2, 0, 1]) * IntPolynomial([-1, 1])
    field = RealAlgebraicField(modulus)
    with pytest.raises(ZeroDivisorError) as err:
        field.element([-2, 0, 1]).inverse()
    assert isinstance(err.value, ZeroDivisionError)


def test_enclosure_of_a_hidden_zero_is_typed():
    # x^2 - 2 vanishes at sqrt(2), the largest root of the reducible
    # modulus, yet its coordinates are nonzero: no enclosure excludes 0
    modulus = IntPolynomial([-2, 0, 1]) * IntPolynomial([-1, 1])
    field = RealAlgebraicField(modulus)
    with pytest.raises(EnclosureDivergenceError) as err:
        enclosure_reference.sign(field.element([-2, 0, 1]))
    assert isinstance(err.value, ArithmeticError) and isinstance(err.value, VeechFibError)


# ---------------------------------------------------------------------------
# Element arithmetic on integer numerators against Fraction coordinates
# ---------------------------------------------------------------------------


def _element_coordinates(draw, field):
    """Coordinates of a zero, rational, integral or general element."""
    n = field.degree
    kind = draw(st.sampled_from(("zero", "rational", "integral", "general", "general")))
    if kind == "zero":
        return [Fraction(0)] * n
    coords = _coordinates(draw, field)
    if kind == "integral":
        coords = [Fraction(round(c)) for c in coords]
    if kind == "rational":
        coords[1:] = [Fraction(0)] * (n - 1)
    return coords


def _reference_sign(coords, field):
    """Sign by Fraction interval Horner, refining the enclosures' first
    root interval by Sturm counts."""
    f = fraction_reference.strip(coords)
    modulus = field.modulus
    lower, upper = enclosure_reference.largest_root(modulus)
    for _ in range(200):
        lo, hi = fraction_reference.qeval_interval(f, lower, upper)
        if lo > 0 or hi < 0 or lo == hi:
            return (lo > 0) - (hi < 0)
        lower, upper = root_refine_reference.refine(modulus, lower, upper, (upper - lower) / 4)
    raise AssertionError("reference enclosure did not converge")


@settings(max_examples=120, deadline=None)
@given(h=st.integers(2, 30), data=st.data())
def test_element_arithmetic_matches_fraction_coordinates(h, data):
    field = _cos_field(h)
    n, modulus = field.degree, field.modulus.coefficients
    a = _element_coordinates(data.draw, field)
    b = _element_coordinates(data.draw, field)
    r = data.draw(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)))
    x, y, s = field.element(a), field.element(b), field.element([r])
    shifted = [a[0] + r] + a[1:]
    assert x.coeffs == tuple(a) and all(type(c) is Fraction for c in x.coeffs)
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (-x).coeffs == tuple(-p for p in a)
    assert (x + s).coeffs == (s + x).coeffs == tuple(shifted)
    assert (x - s).coeffs == tuple([a[0] - r] + a[1:])
    assert (s - x).coeffs == tuple([r - a[0]] + [-p for p in a[1:]])
    assert (x * y).coeffs == fraction_reference.field_product(a, b, modulus, n)
    assert (x * s).coeffs == (s * x).coeffs == tuple(p * r for p in a)
    if r:
        assert (x / s).coeffs == tuple(p / r for p in a)
    if any(b):
        inverse = fraction_reference.inverse(b, modulus)
        assert (x / y).coeffs == fraction_reference.field_product(a, inverse, modulus, n)
    # equality between elements only; equal elements hash alike
    rational = not any(a[1:])
    routes = (
        (y, b),
        (x * field.one, a),
        (field.element(shifted) - s, a),
        (field.element(a + a), None),
    )
    for other, coords in routes:
        if coords is None:
            coords = fraction_reference.remainder(a + a, modulus)
            coords += (Fraction(0),) * (n - len(coords))
        assert (x == other) == (tuple(a) == tuple(coords))
        if x == other:
            assert hash(x) == hash(other)
    assert x != _cos_field(h + 31).element(a)
    for q in (r, a[0], a[0].numerator):
        assert x != q
        assert (x == field.element([q])) == (rational and a[0] == q)
    assert x != "a" and x != 0.5
    assert x.to_json() == [f"{c.numerator}/{c.denominator}" for c in a]
    assert enclosure_reference.sign(x) == _reference_sign(a, field)
    assert x.is_zero == (not any(a))
    assert x.is_integral_residue == all(c.denominator == 1 for c in a)
