import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invariants_reference as reference
from veechfib.errors import (
    InvalidArgumentError,
    MathematicalInconsistencyError,
    VeechFibError,
)
from veechfib.invariants import (
    assemble_invariants,
    bmy_sufficient,
    kappa_bound_check,
    kappa_mu,
    kodaira_classify,
)


# the weierstrass-5 member at level 3: e = 116, sigma = -72, c1^2 = 16
HEADLINE = (2, 0, 20, 120, (2,))


def test_kappa_mu_values():
    assert kappa_mu((2,)) == Fraction(2, 9)
    assert kappa_mu((1, 3)) == Fraction(7, 16)
    assert kappa_mu((6,)) == Fraction(4, 7)
    assert kappa_mu(()) == 0


def test_euler_characteristic():
    assert assemble_invariants(*HEADLINE).euler == 116
    assert assemble_invariants(1, 0, 9, 12, ()).euler == 12
    assert assemble_invariants(7, 1, 0, 0, (1,) * 12).euler == 0
    with pytest.raises(InvalidArgumentError):
        assemble_invariants(0, 1, 0, 0, ())


def test_signature_formula():
    # (kappa, chi(B), T) = (2/9, -18, 120), (0, -7, 12), (0, 0, 0)
    assert assemble_invariants(*HEADLINE).sigma == -72
    assert assemble_invariants(1, 0, 9, 12, ()).sigma == -8
    assert assemble_invariants(1, 1, 0, 0, ()).sigma == 0


def test_c1_squared_formula():
    assert assemble_invariants(*HEADLINE).c1_squared == 16
    # kappa = 7/16, chi(B) = 0, g = 3
    assert assemble_invariants(3, 1, 0, 0, (1, 3)).c1_squared == 0
    # cross-check against 3 sigma + 2 c2 for the headline values
    assert 3 * (-72) + 2 * 116 == 16


def test_derived_characteristics_headline():
    d = assemble_invariants(*HEADLINE)
    assert d.c2 == 116
    assert d.chi_holomorphic == 11
    assert d.geometric_genus == 10
    assert (d.b2, d.b2_plus, d.b2_minus) == (114, 21, 93)


def test_derived_characteristics_rational_elliptic():
    d = assemble_invariants(1, 0, 9, 12, ())
    assert (d.euler, d.sigma, d.b1) == (12, -8, 0)
    assert d.chi_holomorphic == 1 and d.geometric_genus == 0
    assert (d.b2, d.b2_plus, d.b2_minus) == (10, 1, 9)


def test_derived_characteristics_symmetric():
    d = assemble_invariants(2, 1, 6, 4, (2,))
    assert (d.euler, d.sigma, d.b1) == (4, 0, 2)
    assert (d.b2, d.b2_plus, d.b2_minus) == (6, 3, 3)


def test_derived_characteristics_divisibility_guard():
    # e = 5, sigma = 1, c1^2 = 13: c1^2 + c2 = 18
    with pytest.raises(MathematicalInconsistencyError, match="Noether fails"):
        assemble_invariants(2, 0, 16, 9, (1, 1))


def test_bmy_check():
    r = assemble_invariants(*HEADLINE)
    assert r.bmy_slack == Fraction(332, 3) and r.bmy_strict
    r = assemble_invariants(2, 1, 6, 3, (1, 1))
    assert (r.euler, r.sigma) == (3, 1)
    assert r.bmy_slack == 0 and not r.bmy_strict


def test_bmy_sufficient():
    assert bmy_sufficient(2, 20, 120)
    assert bmy_sufficient(3, 2, 3)
    assert not bmy_sufficient(5, 10, 20)


def test_kappa_bound_examples():
    assert kappa_bound_check((1, 1))
    assert 12 * kappa_mu((1, 1)) == 3
    assert kappa_bound_check((2,))
    assert 12 * kappa_mu((2,)) == Fraction(8, 3)
    assert kappa_bound_check((6,))
    assert 12 * kappa_mu((6,)) == Fraction(48, 7)


def _partitions(total, largest=None):
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_kappa_bound_exhaustive_up_to_genus_eight():
    for genus in range(2, 9):
        for partition in _partitions(2 * genus - 2):
            assert kappa_bound_check(partition), partition
            is_equality = 12 * kappa_mu(partition) == 3 * genus - 3
            assert is_equality == all(m == 1 for m in partition), partition


@given(
    parts=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=10)
)
@settings(max_examples=200, deadline=None)
def test_kappa_bound_random_partitions(parts):
    total = sum(parts)
    if total % 2 != 0:
        parts = parts + [1]
    assert kappa_bound_check(tuple(parts))


def test_section_self_intersection():
    assert assemble_invariants(*HEADLINE).zero_section_self_intersections == (-3,)
    # chi(B) = -4(m + 1) for a zero of order m
    for m, g, cusps, twisting in ((1, 2, 10, 12), (2, 3, 14, 16), (5, 6, 26, 64)):
        inv = assemble_invariants(g, 0, cusps, twisting, (m, m))
        assert inv.zero_section_self_intersections == (-2, -2)
    inv = assemble_invariants(*HEADLINE)
    assert inv.intersection_form_parity == "odd"  # S^2 = -3 is odd


def test_kodaira_classification():
    assert kodaira_classify(3, 118) == "minimal-general-type"
    assert kodaira_classify(1, 0, elliptic_level=3) == "elliptic-rational-beauville"
    assert kodaira_classify(1, 0, elliptic_level=4) == "elliptic-k3"
    assert kodaira_classify(1, 0, elliptic_level=5) == "elliptic-proper"
    assert kodaira_classify(2, 0, minimality_proven=True) == "minimal-general-type"
    assert kodaira_classify(2, 0) == "undetermined-base-genus-0"


def test_assembled_invariants_satisfy_identities():
    inv = assemble_invariants(2, 0, 20, 120, (2,), minimality_proven=True)
    assert inv.verify_identities()
    assert 12 * inv.chi_holomorphic == inv.c1_squared + inv.c2
    assert 3 * inv.sigma == inv.c1_squared - 2 * inv.c2
    assert inv.noether_line
    assert inv.intersection_form_parity == "odd"
    assert inv.zero_section_self_intersections == (Fraction(-3),)


def test_assembly_refuses_data_no_fibration_has():
    with pytest.raises(InvalidArgumentError, match=r"^cusp count -8 is negative$"):
        assemble_invariants(1, 5, -8, 0, (1, 3))
    with pytest.raises(InvalidArgumentError, match=r"^zero partition \(2,\) does not sum to 2g - 2$"):
        assemble_invariants(3, 1, 6, 4, (2,))
    with pytest.raises(InvalidArgumentError, match=r"^zero partition \(1, 3\) does not sum"):
        assemble_invariants(1, 1, 0, 0, (1, 3))


def test_assembly_rejects_non_integral_signature():
    # T = 1 makes sigma fractional for this base
    with pytest.raises(MathematicalInconsistencyError):
        assemble_invariants(2, 1, 1, 1, (2,))


@st.composite
def _cover_data(draw):
    """(g, b, |cusps|, T, zero partition of 2g - 2), with at most one value
    out of range.

    The alignment level decides which later check may fail.  From level 1
    chi(B) is a multiple of 6 lcm(m + 1) and T of 3, so sigma and c1^2
    are integers; at level 2 T also makes c1^2 + c2 divisible by 12, so
    b2 and its parity decide."""
    g = draw(st.integers(1, 8))
    b = draw(st.integers(0, 6))
    partition, rest = [], 2 * g - 2
    while rest:
        m = draw(st.integers(1, rest))
        partition.append(m)
        rest -= m
    level = draw(st.sampled_from((0, 1, 2)))
    if level:
        step = 6 * math.lcm(*(m + 1 for m in partition))
        low = max(0, -(-(2 * b - 2) // step))
        cusps = 2 - 2 * b + step * draw(st.integers(low, low + 4))
        twisting = 3 * draw(st.integers(0, 150))
        if level == 2:
            noether = 6 * kappa_mu(partition) * (2 - 2 * b - cusps)
            twisting = twisting // 12 * 12 + int(noether) % 12
    else:
        cusps = draw(st.integers(0, 60))
        twisting = draw(st.integers(0, 400))
    broken = draw(st.sampled_from((None,) * 6 + ("g", "b", "T", "order")))
    if broken == "g":
        g = draw(st.integers(-1, 0))
    elif broken == "b":
        b = -1
    elif broken == "T":
        twisting = draw(st.integers(-3, -1))
    elif broken == "order":
        partition.insert(draw(st.integers(0, len(partition))), draw(st.integers(-1, 0)))
    options = {
        "elliptic_level": draw(st.sampled_from((None, 3, 4, 5, 7))),
        "minimality_proven": draw(st.booleans()),
    }
    return g, b, cusps, twisting, tuple(partition), options


def _outcome(assemble, *args, **options):
    try:
        return assemble(*args, **options)
    except VeechFibError as exc:
        return type(exc), str(exc)


@given(_cover_data())
@settings(max_examples=400, deadline=None)
def test_assembly_matches_helper_chain_reference(data):
    g, b, cusps, twisting, partition, options = data
    got = _outcome(assemble_invariants, g, b, cusps, twisting, partition, **options)
    want = _outcome(
        reference.assemble_invariants, g, b, cusps, twisting, partition, 2 * b, **options
    )
    if isinstance(want, tuple):  # the same exception and message
        assert got == want
    else:
        assert got == want
        assert got.to_json() == want.to_json()
