import itertools
import math
import random

import finitefield_reference
import pytest
from finitefield_reference import element_from_index, is_zero, pgcd, pmod, pmul
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from veechfib.errors import InvalidArgumentError
from veechfib.exact import finitefield
from veechfib.exact.finitefield import (
    FiniteFieldSpec,
    is_irreducible_mod_p,
    is_prime,
    is_quadratic_nonresidue,
    preduce,
    pstrip,
)
from veechfib.exact.polynomials import IntPolynomial
from veechfib.families import weierstrass_alpha_polynomial

GOLDEN = IntPolynomial([-1, -1, 1])


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(97) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(91) and not is_prime(0)
    # trial division finds 41^2; 43^2 and 43 * 47 are the first
    # composites with no factor <= 41, so the fast path stops below them
    assert not is_prime(41 * 41) and not is_prime(43 * 43) and not is_prime(43 * 47)
    # a strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    # psi_12, the least strong pseudoprime to every prime base <= 37,
    # is caught by base 41; psi_13 passes 2 ... 41 and bounds the test
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(1287836182261 * 2575672364521)


def test_is_prime_matches_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


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
        if not is_zero(elem):
            # Fermat: the inverse is the (q - 2)-th power
            assert elem * elem ** (field.order - 2) == field.one
    assert field.order == 9
    assert len(list(field.elements())) == 9


def test_negative_power_is_refused():
    # the square-and-multiply kernel reads only the bits of e >= 0
    field = FiniteFieldSpec(3, GOLDEN)
    for e in (-1, -7):
        with pytest.raises(InvalidArgumentError, match=f"exponent {e} is negative"):
            field.generator**e


def test_element_index_round_trip():
    field = FiniteFieldSpec(5, IntPolynomial([-2, 0, 1]))
    for idx in range(field.order):
        assert field.element_index(element_from_index(field, idx)) == idx


# -- the delayed-reduction kernel against the reference route ----------------

_PRIMES = [p for p in range(2, 102) if is_prime(p)]


def _outcome(test, f, p):
    """(result, None), or (None, (error type, message)) for a refusal."""
    try:
        return test(f, p), None
    except InvalidArgumentError as err:
        return None, (type(err), str(err))


def _kernel(f, p):
    return _outcome(is_irreducible_mod_p, f, p)


def _reference(f, p):
    return _outcome(finitefield_reference.is_irreducible_mod_p, f, p)


def _irreducible(rng, degree, p):
    """A random monic irreducible of the given degree over F_p, by trial."""
    while True:
        g = [rng.randrange(p) for _ in range(degree)] + [1]
        if finitefield_reference.is_irreducible_mod_p(g, p):
            return g


def _lift(f, p, rng):
    """Integer coefficients congruent to f mod p, leading one kept unit."""
    return [c + p * rng.randrange(-3, 4) for c in f[:-1]] + [f[-1] + p * rng.randrange(0, 3)]


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=24),
    lead=st.integers(1, 10**6),
    p=st.sampled_from(_PRIMES),
)
def test_irreducibility_matches_the_reference_route(coeffs, lead, p):
    # degrees 1-24 at every prime p <= 101, p below the degree included
    f = IntPolynomial(coeffs + [lead])
    if f.leading_coefficient % p == 0:
        f = IntPolynomial(coeffs + [lead * p + 1])
    assert _kernel(f, p) == _reference(f, p)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from(_PRIMES),
    shape=st.sampled_from(["square", "frobenius", "equal-degrees", "degrees-1-2-3"]),
)
def test_irreducibility_on_pinned_reducible_shapes(seed, p, shape):
    rng = random.Random(seed)
    if shape == "square":
        g = [rng.randrange(p) for _ in range(rng.randint(1, 12))] + [1]
        f = pmul(g, g, p)
    elif shape == "frobenius":
        # g(x^p), whose derivative vanishes mod p, of degree <= 24
        assume(p <= 24)
        d = rng.randint(1, 24 // p)
        g = [rng.randrange(p) for _ in range(d)] + [1]
        f = [0] * (d * p + 1)
        for i, c in enumerate(g):
            f[i * p] = c
    elif shape == "equal-degrees":
        # two distinct irreducibles of one degree: x^(p^k) = x at k = n/2
        # (F_2 has one irreducible quadratic, and at least two of every other degree)
        d = rng.choice([1, 3, 4] if p == 2 else [1, 2, 3, 4])
        g = _irreducible(rng, d, p)
        h = g
        while h == g:
            h = _irreducible(rng, d, p)
        f = pmul(g, h, p)
    else:
        # every factor degree divides 6 and their lcm is 6, so only the
        # gcd at k = 6/2 = 3 can see the factors
        linear, quadratic, cubic = (_irreducible(rng, d, p) for d in (1, 2, 3))
        f = pmul(pmul(linear, quadratic, p), cubic, p)
    f = _lift(f, p, rng)
    assert _kernel(f, p) == _reference(f, p) == (False, None)


def test_irreducibility_refusals_match_the_reference():
    cases = [
        (GOLDEN, 6),  # p not prime
        (GOLDEN, 1),
        (IntPolynomial([7]), 5),  # constant f
        (IntPolynomial([1, 1, 3]), 3),  # leading coefficient vanishes mod p
        (IntPolynomial([2, 0, 0, 10]), 5),
    ]
    for f, p in cases:
        result, refusal = _kernel(f, p)
        assert result is None and refusal is not None
        assert refusal == _reference(f, p)[1]


def _dense(draw, p, degree):
    """A polynomial over F_p of exactly the given degree."""
    lead = draw(st.integers(1, p - 1))
    return tuple(draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))) + (lead,)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 101, 10_007]))
def test_fold_gcd_matches_the_reference_euclid(data, p):
    # divisors of degree 1-8 and dividends of degree up to 64, sharing a
    # factor of degree 0-2; a long fold by a degree-8 divisor adds up to
    # 8 products of up to (p - 1)^2 to one slot, the worst case its width
    # is sized for
    common = _dense(data.draw, p, data.draw(st.integers(0, 2)))
    g = pmul(_dense(data.draw, p, data.draw(st.integers(1, 6))), common, p)
    f = pmul(_dense(data.draw, p, data.draw(st.integers(0, 62))), common, p)
    for a, b in ((f, g), (g, f)):
        assert finitefield._coprime(a, b, p) == (len(pgcd(a, b, p)) == 1)


def test_irreducibility_builds_the_frobenius_matrix_once(monkeypatch):
    # x^p by square-and-multiply, then one product per matrix row; every
    # later x^(p^k) is a matrix-vector product, reduced at degree n - 1,
    # not a product, reduced at degree 2n - 2
    products = []
    original = finitefield._QuotientRing.reduce

    def counted(ring, c, degree):
        assert degree in (ring.n - 1, 2 * ring.n - 2)
        if degree == 2 * ring.n - 2:
            products.append(ring.n)
        return original(ring, c, degree)

    monkeypatch.setattr(finitefield._QuotientRing, "reduce", counted)
    rng = random.Random(20261018)
    cases = [(GOLDEN, 3), (IntPolynomial([-1, 6, -5, 1]), 3)]
    for _ in range(40):
        n, p = rng.randint(2, 24), rng.choice(_PRIMES)
        cases.append((IntPolynomial([rng.randrange(p) for _ in range(n)] + [1]), p))
    for f, p in cases:
        products.clear()
        expected = finitefield_reference.is_irreducible_mod_p(f, p)
        assert is_irreducible_mod_p(f, p) == expected
        n = f.degree
        assert products and all(size == n for size in products)
        assert len(products) <= n + 2 * (p - 1).bit_length(), (f, p, len(products))


def _monic(p, degree):
    """Every monic polynomial of the given degree over F_p."""
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


# every degree 2-4 is a prime power, where the x^(p^k) = x test stands in
# for Rabin's gcds; 6 is the least degree whose gcds are taken
_EXHAUSTIVE = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (2, 6)]


@pytest.mark.parametrize("p,degree", _EXHAUSTIVE)
def test_irreducibility_matches_the_reference_on_every_monic(p, degree):
    for f in _monic(p, degree):
        assert is_irreducible_mod_p(f, p) == finitefield_reference.is_irreducible_mod_p(f, p), f


def test_gcds_are_taken_only_for_two_prime_degrees(monkeypatch):
    calls = []
    original = finitefield._coprime

    def counted(f, g, p):
        calls.append(len(f) - 1)
        return original(f, g, p)

    monkeypatch.setattr(finitefield, "_coprime", counted)
    # every Weierstrass m_alpha is a quadratic: degree 2, a prime
    for d in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 8189):
        for p in (3, 5, 7, 11, 13):
            if d % p:
                is_irreducible_mod_p(weierstrass_alpha_polynomial(d), p)
    for p, degree in [(p, degree) for p, degree in _EXHAUSTIVE if degree != 6]:
        for f in _monic(p, degree):
            is_irreducible_mod_p(f, p)
    is_irreducible_mod_p(IntPolynomial([1] * 8 + [1]), 3)  # degree 8 = 2^3
    assert calls == []
    # the degrees-1-2-3 shape: the loop never returns to x before k = 6
    rng = random.Random(20261020)
    for p in (2, 3, 5, 7):
        linear, quadratic, cubic = (_irreducible(rng, d, p) for d in (1, 2, 3))
        f = pmul(pmul(linear, quadratic, p), cubic, p)
        calls.clear()
        assert is_irreducible_mod_p(f, p) is False
        assert calls == [6]


# the nine fields of the closure-oracle benchmark, (p, modulus), q <= 343
_ORACLE_FIELDS = [
    (3, (1, 0, 1)),
    (5, (2, 0, 1)),
    (3, (1, -1, 0, 1)),
    (7, (1, 0, 1)),
    (3, (2, 1, 0, 0, 1)),
    (11, (1, 0, 1)),
    (5, (1, 1, 0, 1)),
    (3, (1, -1, 0, 0, 0, 1)),
    (7, (2, 0, 0, 1)),
]


@pytest.mark.parametrize(
    "p, modulus", [(2, (1, 1, 1)), (5, (-2, 0, 1)), (13, (-3, 1)), *_ORACLE_FIELDS]
)
def test_element_index_is_the_base_p_digit_sum(p, modulus):
    # one Horner pass over the coefficients, highest first, against the
    # sum of c * p^i over every element of the field
    field = FiniteFieldSpec(p, IntPolynomial(modulus))
    indices = [field.element_index(elem) for elem in field.elements()]
    assert indices == [
        sum(c * p**i for i, c in enumerate(elem.coeffs)) for elem in field.elements()
    ]
    assert sorted(indices) == list(range(field.order))


def _padded(coeffs, n):
    return tuple(coeffs) + (0,) * (n - len(coeffs))


@settings(max_examples=200, deadline=None)
@given(
    field_at=st.integers(0, len(_ORACLE_FIELDS) - 1),
    i=st.integers(0, 342),
    j=st.integers(0, 342),
    e=st.integers(2, 10**4),
    raw=st.lists(st.integers(-10**3, 10**3), max_size=12),
)
def test_field_elements_match_the_reference_route(field_at, i, j, e, raw):
    p, modulus = _ORACLE_FIELDS[field_at]
    field = FiniteFieldSpec(p, IntPolynomial(modulus))
    n, q = field.degree, field.order
    modbar = preduce(modulus, p)
    x, y = element_from_index(field, i % q), element_from_index(field, j % q)
    a, b = pstrip(x.coeffs), pstrip(y.coeffs)
    assert (x * y).coeffs == _padded(pmod(pmul(a, b, p), modbar, p), n)
    assert field.element(raw).coeffs == _padded(pmod(preduce(raw, p), modbar, p), n)
    for power in (0, 1, q - 2, e):
        expected = finitefield_reference.ppow_mod(a, power, modbar, p)
        assert (x**power).coeffs == _padded(expected, n), power
    if not is_zero(x):
        assert x * x ** (q - 2) == field.one
