import functools
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import fraction_reference
import power_basis_reference as reference
from veechfib.errors import (
    DivisionByZeroError,
    EnclosureDivergenceError,
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
from veechfib.exact.polynomials import (
    IntPolynomial,
    RootInterval,
    cos_two_pi_minpoly,
    minpoly_two_cos,
)
from veechfib.thurston_veech import coxeter_graph, perron_frobenius


@pytest.fixture
def golden_field():
    return RealAlgebraicField(IntPolynomial([-1, -1, 1]))


def test_modulus_relation(golden_field):
    mu = golden_field.generator
    assert (mu * mu - mu - 1).is_zero


def test_linear_field_generator_is_the_root():
    # Q[x]/(x + c) is Q with x = -c; the generator takes the general path
    for c in (-3, 5, 0, 7):
        field = RealAlgebraicField([c, 1])
        assert field.generator == -c
    # the A2 graph has Coxeter number 3 and mu = 2cos(pi/3) = 1, in a linear field
    mu, heights = perron_frobenius(coxeter_graph("A", 2), 3)
    assert mu.field.degree == 1
    assert mu == 1 and heights == (1, 1)


def test_element_minimal_polynomial_of_square(golden_field):
    # oracle: mu^2 = mu + 1, and (mu+1)^2 - 3(mu+1) + 1 = mu^2 - mu - 1 = 0
    mu = golden_field.generator
    assert element_minimal_polynomial(mu * mu) == IntPolynomial([1, -3, 1])


def test_element_minimal_polynomial_identity_case(golden_field):
    mu = golden_field.generator
    assert element_minimal_polynomial(mu) == golden_field.modulus


def test_element_minimal_polynomial_degree_seven_case():
    field = RealAlgebraicField(minpoly_two_cos(7))
    mu = field.generator
    assert element_minimal_polynomial(mu * mu) == IntPolynomial([-1, 6, -5, 1])


def test_minimal_polynomial_annihilates_in_ring():
    for n in (5, 7, 9, 12, 18):
        field = RealAlgebraicField(minpoly_two_cos(n))
        elem = field.generator ** 2 - 2 * field.generator + 1
        m = element_minimal_polynomial(elem)
        acc = field.zero
        for c in reversed(m.coefficients):
            acc = acc * elem + c
        assert acc.is_zero


def test_non_integral_element_reports_rational_polynomial(golden_field):
    half_mu = golden_field.generator / 2
    with pytest.raises(NonIntegralElementError) as err:
        element_minimal_polynomial(half_mu)
    assert err.value.rational_coefficients == (
        Fraction(-1, 4),
        Fraction(-1, 2),
        Fraction(1),
    )


def test_real_embedding_sign_and_order(golden_field):
    mu = golden_field.generator
    assert mu.sign() == 1
    assert (-mu).sign() == -1
    assert golden_field.zero.sign() == 0
    assert 1 < mu < 2
    assert mu**2 > mu
    assert float(mu) == pytest.approx((1 + 5**0.5) / 2)


def test_field_inverse_and_division(golden_field):
    mu = golden_field.generator
    assert mu * mu.inverse() == golden_field.one
    assert (mu**3 / mu) == mu**2
    # a rational divisor scales the coordinates; the inverse agrees
    x = mu**2 + 3
    for r in (2, -7, Fraction(2, 3), Fraction(-5, 4)):
        assert x / r == x * golden_field.from_rational(r).inverse()
    with pytest.raises(DivisionByZeroError):
        x / 0
    with pytest.raises(DivisionByZeroError):
        x / Fraction(0)


def test_mixed_modulus_rejected(golden_field):
    other = RealAlgebraicField(IntPolynomial([-2, 0, 1]))
    with pytest.raises(MixedModulusError):
        golden_field.generator + other.generator


def test_every_order_comparison_against_every_operand(golden_field):
    # mu = 1.618...; each operand below, above and equal to an element
    mu = golden_field.generator
    cases = [
        (mu, 1, 1), (mu, 2, -1), (mu, Fraction(8, 5), 1), (mu, Fraction(13, 8), -1),
        (mu, mu, 0), (mu, mu - 1, 1), (mu, mu + Fraction(1, 10**9), -1),
        (golden_field.from_rational(3), 3, 0),
        (golden_field.from_rational(Fraction(-2, 7)), Fraction(-2, 7), 0),
    ]
    for x, y, sign in cases:
        assert (x < y, x <= y, x > y, x >= y) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
        # the reflected operators, with y on the left
        assert (y < x, y <= x, y > x, y >= x) == (sign > 0, sign >= 0, sign < 0, sign <= 0)


def test_order_comparison_refuses_foreign_operands(golden_field):
    mu = golden_field.generator
    other = RealAlgebraicField(IntPolynomial([-2, 0, 1])).generator
    for compare in (
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b
    ):
        with pytest.raises(MixedModulusError):
            compare(mu, other)
        with pytest.raises(InvalidArgumentError):
            compare(mu, "1")
        with pytest.raises(InvalidArgumentError):
            compare("1", mu)


def test_suborder_membership(golden_field):
    mu = golden_field.generator
    alpha = mu * mu
    assert in_order(alpha + 1, alpha, 2)
    assert in_order(mu, alpha, 2)  # mu = alpha - 1 here
    assert not in_order(mu / 2, alpha, 2)


def test_suborder_coordinates_outside_subfield():
    field = RealAlgebraicField(minpoly_two_cos(18))
    mu = field.generator
    alpha = mu * mu
    assert not in_order(mu, alpha, 3)
    assert in_order(alpha**2 - 3, alpha, 3)


def test_element_json(golden_field):
    mu = golden_field.generator
    assert (mu / 2).to_json() == ["0/1", "1/2"]


def test_power_basis_minimal_polynomial_and_coordinates():
    field = RealAlgebraicField(minpoly_two_cos(18))
    mu = field.generator
    basis = PowerBasis(mu * mu)
    assert basis.degree == 3
    assert basis.minimal_polynomial() == element_minimal_polynomial(mu * mu)
    assert not basis.in_order(mu)
    assert basis.in_order(mu**4 - 3)
    assert not basis.in_order(mu**4, 2)  # alpha^2 is outside span(1, alpha)
    assert basis.in_order(mu**2, 5)
    assert basis.in_order(mu**2 + 1)
    assert not basis.in_order((mu**2 + 1) / 2)


def test_power_basis_rejects_mixed_fields(golden_field):
    other = RealAlgebraicField(IntPolynomial([-2, 0, 1]))
    with pytest.raises(MixedModulusError):
        PowerBasis(golden_field.generator).in_order(other.generator)


_FIELD_NS = (5, 7, 8, 9, 12, 18)
_SMALL_POLY = st.lists(st.integers(-3, 3), max_size=7)


def _poly_in_mu(field, coeffs):
    mu, acc = field.generator, field.zero
    for c in reversed(coeffs):
        acc = acc * mu + c
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
    field = RealAlgebraicField(minpoly_two_cos(n))
    elem = _poly_in_mu(field, elem_coeffs) / elem_den
    alpha = _poly_in_mu(field, alpha_coeffs) / alpha_den
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
def _fields(draw):
    """A field of 2cos(pi/h), h <= 40, with its isolated root, or a
    random monic modulus with an arbitrary rational interval standing in
    for the root (products never look at it; enclosures take it as
    given)."""
    if draw(st.booleans()):
        return _cos_field(draw(st.integers(2, 40)))
    lower = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=lower, max_size=lower)) + [1]
    modulus = IntPolynomial(coeffs)
    lo = draw(st.fractions(-4, 4, max_denominator=2**20))
    hi = lo + draw(st.fractions(0, 1, max_denominator=2**20))
    return RealAlgebraicField(modulus, RootInterval(modulus, lo, hi))


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


@st.composite
def _field_elements(draw):
    field = draw(_fields())
    return field, _coordinates(draw, field)


def _interval_field(lower, upper):
    """A quartic field whose root interval is [lower, upper], as given."""
    modulus = IntPolynomial([1, 0, -10, 0, 1])
    return RealAlgebraicField(modulus, RootInterval(modulus, lower, upper))


@settings(max_examples=150, deadline=None)
@given(case=_field_elements())
# one root interval of each sign, so both Horner branches run on every
# run: negative and straddling 0 (four products), and lower = 0 (two),
# where each bound is negative at one step and nonnegative at another
@example(case=(_interval_field(Fraction(-7, 2), Fraction(-1, 3)), [3, -5, Fraction(2, 7), 4]))
@example(case=(_interval_field(Fraction(-2, 3), Fraction(5, 4)), [Fraction(1, 2), -4, 7, -3]))
@example(case=(_interval_field(0, Fraction(3, 2)), [-6, -6, 5, -3]))
def test_enclosure_matches_fraction_interval_horner(case):
    field, coordinates = case
    elem = field.element(coordinates)
    root = field.root
    expected = fraction_reference.qeval_interval(
        fraction_reference.strip(elem.coeffs), root.lower, root.upper
    )
    assert elem._enclosure(lambda lo, hi: True) == expected


@pytest.mark.parametrize("h", [5, 7, 12, 17, 40])
def test_enclosure_sequence_matches_fraction_interval_horner(h):
    # the same bounds at every refinement of the root, and the same float
    field = RealAlgebraicField(cos_two_pi_minpoly(2 * h))
    elem = field.generator ** 3 - Fraction(7, 3) * field.generator + Fraction(1, 5)
    seen = []

    def done(lo, hi):
        root = field.root
        assert (lo, hi) == fraction_reference.qeval_interval(
            fraction_reference.strip(elem.coeffs), root.lower, root.upper
        )
        seen.append(hi - lo)
        return hi - lo <= Fraction(1, 10**30)

    elem._enclosure(done)
    assert len(seen) > 1
    lo, hi = fraction_reference.qeval_interval(
        fraction_reference.strip(elem.coeffs), field.root.lower, field.root.upper
    )
    assert float(elem) == float((lo + hi) / 2)


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
    field = RealAlgebraicField(modulus, RootInterval(modulus, 0, 1))
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
        field.element([-2, 0, 1]).sign()
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
    """Sign by Fraction interval Horner, refining a copy of the root."""
    f = fraction_reference.strip(coords)
    root = field.root
    for _ in range(200):
        lo, hi = fraction_reference.qeval_interval(f, root.lower, root.upper)
        if lo > 0 or hi < 0 or lo == hi:
            return (lo > 0) - (hi < 0)
        root = root.refine(root.width / 4)
    raise AssertionError("reference enclosure did not converge")


@settings(max_examples=120, deadline=None)
@given(h=st.integers(2, 30), data=st.data())
def test_element_arithmetic_matches_fraction_coordinates(h, data):
    field = _cos_field(h)
    n, modulus = field.degree, field.modulus.coefficients
    a = _element_coordinates(data.draw, field)
    b = _element_coordinates(data.draw, field)
    r = data.draw(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)))
    x, y = field.element(a), field.element(b)
    shifted = [a[0] + r] + a[1:]
    assert x.coeffs == tuple(a) and all(type(c) is Fraction for c in x.coeffs)
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (-x).coeffs == tuple(-p for p in a)
    assert (x + r).coeffs == (r + x).coeffs == tuple(shifted)
    assert (x - r).coeffs == tuple([a[0] - r] + a[1:])
    assert (r - x).coeffs == tuple([r - a[0]] + [-p for p in a[1:]])
    assert (x * y).coeffs == fraction_reference.field_product(a, b, modulus, n)
    assert (x * r).coeffs == (r * x).coeffs == tuple(p * r for p in a)
    if r:
        assert (x / r).coeffs == tuple(p / r for p in a)
    if any(b):
        inverse = fraction_reference.inverse(b, modulus)
        assert (x / y).coeffs == fraction_reference.field_product(a, inverse, modulus, n)
    # equality against elements, ints and Fractions; equal values hash alike
    rational = not any(a[1:])
    routes = ((y, b), (x * 1, a), (field.element(shifted) - r, a), (field.element(a + a), None))
    for other, coords in routes:
        if coords is None:
            coords = fraction_reference.remainder(a + a, modulus)
            coords += (Fraction(0),) * (n - len(coords))
        assert (x == other) == (tuple(a) == tuple(coords))
        if x == other:
            assert hash(x) == hash(other)
    assert x != _cos_field(h + 31).element(a)
    for q in (r, a[0], a[0].numerator):
        assert (x == q) == (rational and a[0] == q)
        if x == q:
            assert hash(x) == hash(q)
    assert x != "a" and x != 0.5
    assert x.to_json() == [f"{c.numerator}/{c.denominator}" for c in a]
    assert x.sign() == _reference_sign(a, field)
    assert x.is_zero == (not any(a)) and x.is_rational == rational
    assert x.is_integral_residue == all(c.denominator == 1 for c in a)
