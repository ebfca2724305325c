import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prototype_reference as reference
from veechfib import prototypes
from veechfib.covers import expand_classes
from veechfib.errors import (
    CapExceededError,
    InvalidDiscriminantError,
    SpinRequiredError,
)
from veechfib.exact.polynomials import IntPolynomial
from veechfib.prototypes import (
    MAX_DISCRIMINANT,
    Prototype,
    enumerate_prototypes,
    prototype_classes,
    prototype_twisting,
    standard_parameters,
    weierstrass_alpha,
)


def test_single_prototype_for_discriminant_five():
    assert [p.as_tuple() for p in enumerate_prototypes(5)] == [(1, 1, 0, -1)]


def test_two_prototypes_for_discriminant_eight():
    assert [p.as_tuple() for p in enumerate_prototypes(8)] == [
        (1, 1, 0, -2),
        (2, 1, 0, 0),
    ]


def test_square_discriminant_rejected():
    with pytest.raises(InvalidDiscriminantError):
        enumerate_prototypes(4)
    with pytest.raises(InvalidDiscriminantError):
        enumerate_prototypes(9)
    with pytest.raises(InvalidDiscriminantError):
        enumerate_prototypes(7)  # 3 mod 4


def test_spin_filter_required_for_one_mod_eight():
    with pytest.raises(SpinRequiredError):
        enumerate_prototypes(17)
    # a trivial filter exposes both spin classes: six quadruples in all
    assert len(enumerate_prototypes(17, spin_filter=lambda p: True)) == 6


def test_every_prototype_revalidates():
    for d in (5, 8, 12, 13, 20, 21, 24, 28, 29, 32):
        for proto in enumerate_prototypes(d):
            assert reference.Prototype(*proto).validate()


def test_enumeration_matches_brute_force_scan():
    for d in range(5, 101):
        if d % 4 not in (0, 1) or math.isqrt(d) ** 2 == d or d % 8 == 1:
            continue
        assert len(enumerate_prototypes(d)) == reference.brute_force_count(d), d


def test_twisting_examples():
    assert prototype_twisting(Prototype(2, 1, 0, 0, 8)) == 3
    assert prototype_twisting(Prototype(1, 1, 0, -1, 5)) == 2
    assert prototype_twisting(Prototype(3, 2, 0, 1, 25)) == 5


@given(w=st.integers(1, 60), h=st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_twisting_is_numerator_plus_denominator(w, h):
    d = 4 * w * h  # synthetic discriminant; twisting depends on (w, h) only
    proto = Prototype(w, h, 0, 0, d)
    g = math.gcd(w, h)
    assert prototype_twisting(proto) == w // g + h // g
    assert prototype_twisting(proto) >= 2


def test_weierstrass_alpha_examples():
    assert weierstrass_alpha(1, 1) == IntPolynomial([-1, -1, 1])
    assert weierstrass_alpha(2, 0) == IntPolynomial([2, -4, 1])
    assert weierstrass_alpha(3, 1) == IntPolynomial([3, -5, 1])


def test_weierstrass_alpha_discriminant_identity():
    for w in range(1, 40):
        for e in (-1, 0, 1):
            f = weierstrass_alpha(w, e)
            b, c = f.coefficients[1], f.coefficients[0]
            assert b * b - 4 * c == e * e + 4 * w


def test_standard_parameters_give_valid_prototype():
    for d in (5, 8, 12, 13, 20, 21, 24, 28, 29):
        w, e = standard_parameters(d)
        assert e * e + 4 * w == d
        proto = Prototype(w, 1, 0, e, d)
        assert reference.Prototype(*proto).validate()
        assert proto in enumerate_prototypes(d)


def _discriminants(limit=3000):
    return [d for d in range(5, limit) if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]


def _selective(proto):
    # keeps part of each D's prototypes, from several fields at once
    return (proto.w + 2 * proto.t - proto.e) % 3 != 0


def test_enumeration_matches_dataclass_reference():
    for d in _discriminants():
        filters = (None,) if d % 8 != 1 else (lambda _p: True, _selective)
        for spin_filter in filters:
            got = enumerate_prototypes(d, spin_filter)
            want = [p.as_tuple() for p in reference.enumerate_prototypes(d, spin_filter)]
            assert [p.as_tuple() for p in got] == want, (d, spin_filter)
            twists = tuple(map(prototype_twisting, got))
            classes = prototype_classes(d, spin_filter)
            assert expand_classes(classes) == twists, (d, spin_filter)
            assert min((m for _, m in classes), default=1) >= 1, (d, spin_filter)
            if spin_filter is None:  # one class per (w, h) of a prototype
                assert len(classes) == len({p.as_tuple()[:2] for p in got}), d


@given(st.integers(5, 10**5).filter(lambda d: d % 4 in (0, 1) and math.isqrt(d) ** 2 != d))
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_dataclass_reference_to_1e5(d):
    filters = (None,) if d % 8 != 1 else (lambda _p: True, _selective)
    for spin_filter in filters:
        got = enumerate_prototypes(d, spin_filter)
        want = [p.as_tuple() for p in reference.enumerate_prototypes(d, spin_filter)]
        assert [p.as_tuple() for p in got] == want, spin_filter
        twists = tuple(map(prototype_twisting, got))
        assert expand_classes(prototype_classes(d, spin_filter)) == twists, spin_filter


class _Divided(Exception):
    pass


def test_discriminant_past_the_size_cap_is_refused_before_any_divisor(monkeypatch):
    # a broken guard reaches the divisor scan and fails at once instead
    # of trial-dividing (D - e^2)/4 for every e
    def refuse(n):
        raise _Divided(n)

    monkeypatch.setattr(prototypes, "small_divisors", refuse)
    prototypes.divisor_scan.cache_clear()
    assert MAX_DISCRIMINANT == 10**7
    for d in (10**7 + 1, 10**7 + 12, 10**12 + 5):
        with pytest.raises(CapExceededError, match="size cap"):
            enumerate_prototypes(d, lambda _p: True)
    with pytest.raises(_Divided):
        enumerate_prototypes(MAX_DISCRIMINANT)


def test_spin_filter_sees_every_candidate_prototype():
    seen, seen_reference = [], []
    kept = enumerate_prototypes(41, lambda p: seen.append(p) or _selective(p))
    reference.enumerate_prototypes(41, lambda p: seen_reference.append(p) or True)
    assert all(isinstance(p, Prototype) for p in seen)
    assert sorted(p.as_tuple() for p in seen) == sorted(p.as_tuple() for p in seen_reference)
    assert seen == sorted(seen)
    assert 0 < len(kept) < len(seen)


def test_prototype_twists_refuse_as_the_enumeration():
    with pytest.raises(SpinRequiredError):
        prototype_classes(17)
    with pytest.raises(InvalidDiscriminantError):
        prototype_classes(9)
    with pytest.raises(CapExceededError):
        prototype_classes(10**7 + 1, lambda _p: True)
    with pytest.raises(CapExceededError):  # the cap is checked before squareness
        prototype_classes(10**8)


def test_prototype_twists_spin_filter_sees_every_candidate_once():
    seen, seen_reference = [], []
    kept = expand_classes(prototype_classes(41, lambda p: seen.append(p) or _selective(p)))
    reference.enumerate_prototypes(41, lambda p: seen_reference.append(p) or True)
    assert all(isinstance(p, Prototype) for p in seen)
    assert sorted(p.as_tuple() for p in seen) == sorted(p.as_tuple() for p in seen_reference)
    assert [p.as_tuple() for p in seen] == sorted(p.as_tuple() for p in seen)
    assert 0 < len(kept) < len(seen)


def test_prototype_repr_order_and_fields_unchanged():
    proto = Prototype(1, 1, 0, -1, 5)
    assert repr(proto) == "Prototype(w=1, h=1, t=0, e=-1, discriminant=5)"
    assert repr(proto) == repr(reference.Prototype(1, 1, 0, -1, 5))
    assert Prototype._fields == ("w", "h", "t", "e", "discriminant")
    assert proto.as_tuple() == (1, 1, 0, -1)
    fields = [(3, 1, 0, 1, 13), (1, 3, 0, -3, 21), (3, 1, 0, -3, 21), (2, 2, 1, 0, 16),
              (2, 2, 0, 1, 17), (1, 1, 0, -1, 5), (3, 1, 0, -1, 13), (2, 2, 1, -1, 17)]
    got = [p.as_tuple() for p in sorted(Prototype(*f) for f in fields)]
    want = [p.as_tuple() for p in sorted(reference.Prototype(*f) for f in fields)]
    assert got == want
    with pytest.raises(AttributeError):
        proto.w = 2


def test_table_twist_sum_equals_prototype_twisting_sum():
    # the closed form's sum of (1 + h/w) * w/gcd(w, h), in Fractions,
    # against the integer sum the pipeline uses
    for d in _discriminants():
        protos = enumerate_prototypes(d, (lambda _p: True) if d % 8 == 1 else None)
        table = sum((1 + Fraction(q.h, q.w)) * (q.w // math.gcd(q.w, q.h)) for q in protos)
        assert table == sum(map(prototype_twisting, protos)), d
