from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import power_basis_reference as reference
from veechfib.errors import MixedModulusError, NonIntegralElementError
from veechfib.exact.numberfield import (
    PowerBasis,
    RealAlgebraicField,
    coordinates_in_power_basis,
    element_minimal_polynomial,
    in_order,
)
from veechfib.exact.polynomials import IntPolynomial, minpoly_two_cos


@pytest.fixture
def golden_field():
    return RealAlgebraicField(IntPolynomial([-1, -1, 1]))


def test_modulus_relation(golden_field):
    mu = golden_field.generator
    assert (mu * mu - mu - 1).is_zero


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
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / Fraction(0)


def test_mixed_modulus_rejected(golden_field):
    other = RealAlgebraicField(IntPolynomial([-2, 0, 1]))
    with pytest.raises(MixedModulusError):
        golden_field.generator + other.generator


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
    assert coordinates_in_power_basis(mu, alpha, 3) is None
    coords = coordinates_in_power_basis(alpha**2 - 3, alpha, 3)
    assert coords == (Fraction(-3), Fraction(0), Fraction(1))


def test_element_json(golden_field):
    mu = golden_field.generator
    assert (mu / 2).to_json() == ["0/1", "1/2"]


def test_power_basis_minimal_polynomial_and_coordinates():
    field = RealAlgebraicField(minpoly_two_cos(18))
    mu = field.generator
    basis = PowerBasis(mu * mu)
    assert basis.degree == 3
    assert basis.minimal_polynomial() == element_minimal_polynomial(mu * mu)
    assert basis.coordinates(mu) is None
    assert basis.coordinates(mu**4 - 3) == (Fraction(-3), Fraction(0), Fraction(1))
    assert basis.coordinates(mu**4, 2) is None  # alpha^2 is outside span(1, alpha)
    assert basis.coordinates(mu**2, 5) == (0, 1, 0, 0, 0)
    assert basis.in_order(mu**2 + 1)
    assert not basis.in_order((mu**2 + 1) / 2)


def test_power_basis_rejects_mixed_fields(golden_field):
    other = RealAlgebraicField(IntPolynomial([-2, 0, 1]))
    with pytest.raises(MixedModulusError):
        PowerBasis(golden_field.generator).coordinates(other.generator)


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
    polynomials (or the non-integral refusal), coordinates and Z[alpha]
    membership, for counts below, at and above the degree of alpha."""
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
        assert coordinates_in_power_basis(elem, alpha, count) == (
            reference.coordinates_in_power_basis(elem, alpha, count)
        )
        assert in_order(elem, alpha, count) == reference.in_order(elem, alpha, count)
