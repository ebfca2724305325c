import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veechfib.errors import DivisionByZeroError, InvalidArgumentError, VeechFibError
from veechfib.exact.finitefield import (
    FiniteFieldSpec,
    is_irreducible_mod_p,
    is_prime,
    is_quadratic_nonresidue,
    pmod,
)
from veechfib.exact.polynomials import IntPolynomial

GOLDEN = IntPolynomial([-1, -1, 1])


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(97) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(91) and not is_prime(0)


def test_irreducibility_examples():
    assert is_irreducible_mod_p(GOLDEN, 3) is True
    assert is_irreducible_mod_p(GOLDEN, 5) is False  # (x-3)^2 mod 5
    assert is_irreducible_mod_p(IntPolynomial([-1, 6, -5, 1]), 3) is True


def test_irreducibility_rejects_degree_drop():
    with pytest.raises(InvalidArgumentError):
        is_irreducible_mod_p(IntPolynomial([1, 1, 3]), 3)
    with pytest.raises(InvalidArgumentError):
        is_irreducible_mod_p(GOLDEN, 6)


def test_quadratic_nonresidue_examples():
    assert is_quadratic_nonresidue(5, 3) is True
    assert is_quadratic_nonresidue(5, 11) is False  # 4^2 = 5 mod 11
    assert is_quadratic_nonresidue(8, 3) is True
    with pytest.raises(InvalidArgumentError):
        is_quadratic_nonresidue(6, 3)
    with pytest.raises(InvalidArgumentError):
        is_quadratic_nonresidue(5, 2)


@given(
    d=st.integers(min_value=2, max_value=200),
    p=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
)
@settings(max_examples=300, deadline=None)
def test_nonresidue_matches_quadratic_irreducibility(d, p):
    if d % p == 0:
        return
    assert is_quadratic_nonresidue(d, p) == is_irreducible_mod_p(
        IntPolynomial([-d, 0, 1]), p
    )


def test_field_spec_validates_modulus():
    with pytest.raises(InvalidArgumentError):
        FiniteFieldSpec(5, GOLDEN)  # reducible mod 5
    with pytest.raises(InvalidArgumentError):
        FiniteFieldSpec(4, GOLDEN)


@pytest.mark.parametrize(
    "p,modulus",
    [(3, GOLDEN), (5, IntPolynomial([-2, 0, 1])), (5, IntPolynomial([-3, 9, -6, 1]))],
)
def test_frobenius_fixes_every_element(p, modulus):
    field = FiniteFieldSpec(p, modulus)
    rng = random.Random(20240809)
    for _ in range(100):
        coeffs = tuple(rng.randrange(p) for _ in range(field.degree))
        elem = field.element(coeffs)
        assert elem**field.order == elem


def test_field_arithmetic_and_inverse():
    field = FiniteFieldSpec(3, GOLDEN)
    a = field.generator
    assert (a * a).coeffs == (1, 1)  # alpha^2 = alpha + 1
    for elem in field.elements():
        if not elem.is_zero:
            assert elem * elem.inverse() == field.one
    assert field.order == 9
    assert len(list(field.elements())) == 9


def test_inverse_of_zero_is_typed():
    field = FiniteFieldSpec(3, GOLDEN)
    with pytest.raises(DivisionByZeroError) as err:
        field.zero.inverse()
    assert isinstance(err.value, VeechFibError) and isinstance(err.value, ZeroDivisionError)


def test_polynomial_remainder_by_zero_is_typed():
    with pytest.raises(DivisionByZeroError) as err:
        pmod((1, 2, 1), (), 5)
    assert isinstance(err.value, ZeroDivisionError)


def test_element_index_round_trip():
    field = FiniteFieldSpec(5, IntPolynomial([-2, 0, 1]))
    for idx in range(field.order):
        assert field.element_index(field.element_from_index(idx)) == idx
