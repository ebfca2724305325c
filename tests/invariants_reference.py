"""The helper chain the library used before assemble_invariants stated
each formula once: the reference for assemble_invariants.

euler_characteristic, signature, c1_squared, derived_characteristics,
bmy_check and section_self_intersection each compute one group of
characteristic numbers, and assemble_invariants composes them from an
explicit b1, re-checking the signature theorem, the integrality of
sigma and the zero orders along the way.  It shares kappa_mu,
kodaira_classify and the FibrationInvariants record with
veechfib.invariants, and only serves tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from veechfib.errors import InvalidArgumentError, MathematicalInconsistencyError
from veechfib.invariants import FibrationInvariants, kappa_mu, kodaira_classify


def euler_characteristic(fiber_genus, base_genus, twisting):
    """e = 4(g-1)(b-1) + T."""
    if fiber_genus < 1 or base_genus < 0 or twisting < 0:
        raise InvalidArgumentError("need g >= 1, b >= 0, T >= 0")
    return 4 * (fiber_genus - 1) * (base_genus - 1) + twisting


def signature(kappa, chi_base, twisting):
    """sigma = -2 kappa chi(B) - (2/3) T, as an exact rational."""
    return -2 * Fraction(kappa) * Fraction(chi_base) - Fraction(2 * twisting, 3)


def c1_squared(kappa, chi_base, fiber_genus, base_genus):
    """c1^2 = -6 kappa chi(B) + 8(g-1)(b-1)."""
    return -6 * Fraction(kappa) * Fraction(chi_base) + 8 * (fiber_genus - 1) * (
        base_genus - 1
    )


def _as_int(x, what):
    x = Fraction(x)
    if x.denominator != 1:
        raise MathematicalInconsistencyError(f"{what} = {x} is not an integer")
    return x.numerator


@dataclass(frozen=True)
class DerivedCharacteristics:
    c2: int
    chi_holomorphic: int
    geometric_genus: int
    b2: int
    b2_plus: int
    b2_minus: int


def derived_characteristics(euler, sigma, b1):
    """Betti and Hodge-type numbers from (e, sigma, b1).

    c2 = e; chi(O) = (c1^2 + c2)/12 with c1^2 = 3 sigma + 2 e; p_g =
    chi(O) - 1 + b1/2 (irregularity = b1/2); b2 = e - 2 + 2 b1 and
    b2_pm = (b2 +- sigma)/2.  Divisibility and parity are enforced, not
    rounded.
    """
    sigma = _as_int(sigma, "signature")
    if b1 < 0 or b1 % 2 != 0:
        raise InvalidArgumentError("b1 must be a nonnegative even integer")
    c2 = euler
    c1sq = 3 * sigma + 2 * euler
    if (c1sq + c2) % 12 != 0:
        raise MathematicalInconsistencyError(
            f"Noether fails: c1^2 + c2 = {c1sq + c2} is not divisible by 12"
        )
    chi_o = (c1sq + c2) // 12
    p_g = chi_o - 1 + b1 // 2
    b2 = euler - 2 + 2 * b1
    if b2 < 0 or (b2 + sigma) % 2 != 0:
        raise MathematicalInconsistencyError(f"b2 = {b2}, sigma = {sigma} incompatible")
    return DerivedCharacteristics(
        c2=c2,
        chi_holomorphic=chi_o,
        geometric_genus=p_g,
        b2=b2,
        b2_plus=(b2 + sigma) // 2,
        b2_minus=(b2 - sigma) // 2,
    )


@dataclass(frozen=True)
class BmyResult:
    slack: Fraction
    strict: bool


def bmy_check(euler, sigma):
    """Slack e/3 - sigma of the Bogomolov-Miyaoka-Yau bound sigma <= e/3."""
    slack = Fraction(euler, 3) - Fraction(sigma)
    return BmyResult(slack=slack, strict=slack > 0)


def section_self_intersection(chi_base, zero_order):
    """Self-intersection (2 - 2b - |cusps|)/(2(m+1)) of a zero section."""
    if zero_order < 1:
        raise InvalidArgumentError("zero order must be >= 1")
    return Fraction(chi_base) / (2 * (zero_order + 1))


def assemble_invariants(
    fiber_genus,
    base_genus,
    cusp_count,
    twisting,
    zero_partition,
    b1,
    elliptic_level=None,
    minimality_proven=False,
):
    """Build the full invariant record from cover data; all exact.

    chi(B) is the open-base Euler characteristic 2 - 2b - |cusps|; b1
    is the first Betti number of the total space (2b when the
    fundamental group matches the completed base).
    """
    kappa = kappa_mu(zero_partition)
    chi_base = Fraction(2 - 2 * base_genus - cusp_count)
    e = euler_characteristic(fiber_genus, base_genus, twisting)
    sigma_val = _as_int(signature(kappa, chi_base, twisting), "signature")
    c1sq = _as_int(c1_squared(kappa, chi_base, fiber_genus, base_genus), "c1^2")
    derived = derived_characteristics(e, sigma_val, b1)
    if c1sq != 3 * sigma_val + 2 * e:
        raise MathematicalInconsistencyError(
            "signature theorem fails: c1^2 != 3 sigma + 2 c2"
        )
    bmy = bmy_check(e, sigma_val)
    sections = tuple(section_self_intersection(chi_base, m) for m in zero_partition)
    parity = "odd" if any(
        s.denominator == 1 and s.numerator % 2 != 0 for s in sections
    ) else "unknown"
    noether = c1sq == 2 * derived.geometric_genus - 4
    inv = FibrationInvariants(
        fiber_genus=fiber_genus,
        base_genus=base_genus,
        cusp_count=cusp_count,
        twisting=twisting,
        zero_partition=tuple(zero_partition),
        kappa=kappa,
        euler=e,
        sigma=sigma_val,
        c1_squared=c1sq,
        c2=derived.c2,
        chi_holomorphic=derived.chi_holomorphic,
        geometric_genus=derived.geometric_genus,
        b1=b1,
        b2=derived.b2,
        b2_plus=derived.b2_plus,
        b2_minus=derived.b2_minus,
        bmy_slack=bmy.slack,
        bmy_strict=bmy.strict,
        noether_line=noether,
        kodaira_tag=kodaira_classify(
            fiber_genus, base_genus, elliptic_level, minimality_proven
        ),
        zero_section_self_intersections=sections,
        intersection_form_parity=parity,
    )
    inv.verify_identities()
    return inv
