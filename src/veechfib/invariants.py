"""Closed-form characteristic numbers of a fibered complex surface.

Everything is exact: integers over a known denominator, one Fraction
per rational output.  The three inputs are the fiber data (genus g and
the zero partition, through the constant kappa), the open-base Euler
characteristic chi(B) = 2 - 2b - |cusps|, and the total twisting T (the
number of vanishing cycles).  From those:

    e     = 4(g-1)(b-1) + T
    sigma = -2 kappa chi(B) - (2/3) T
    c1^2  = -6 kappa chi(B) + 8(g-1)(b-1)

and the remaining characteristic numbers follow from Noether's formula
12 chi(O) = c1^2 + c2 and the signature identity 3 sigma = c1^2 - 2 c2,
which every assembled result re-checks exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidArgumentError, MathematicalInconsistencyError
from .exact.polynomials import rational_to_str


def kappa_mu(partition):
    """kappa = (1/12) sum m(m+2)/(m+1) over the zero orders m."""
    num, den = 0, 1
    for m in partition:
        if m < 1:
            raise InvalidArgumentError("zero orders must be positive")
        num, den = num * (m + 1) + m * (m + 2) * den, den * (m + 1)
    return Fraction(num, 12 * den)


def _as_int(num, den, what):
    quotient, rest = divmod(num, den)
    if rest:
        raise MathematicalInconsistencyError(f"{what} = {Fraction(num, den)} is not an integer")
    return quotient


def bmy_sufficient(fiber_genus, cusp_count, twisting):
    """Sufficient criterion for strict BMY: (g-1)/2 * |cusps| < T.

    Assumes the base has genus >= 1 (the caller's responsibility).
    """
    return (fiber_genus - 1) * cusp_count < 2 * twisting


def kappa_bound_check(partition):
    """12 kappa <= 3g - 3, equality exactly for the all-ones partition."""
    if not partition:
        raise InvalidArgumentError("partition must be nonempty")
    genus2 = sum(partition) + 2
    if genus2 % 2 != 0:
        raise InvalidArgumentError("partition must sum to 2g - 2")
    g = genus2 // 2
    twelve_kappa, bound = 12 * kappa_mu(partition), 3 * g - 3
    if all(m == 1 for m in partition):
        return twelve_kappa == bound
    return twelve_kappa < bound


GENERAL_TYPE = "minimal-general-type"
ELLIPTIC_RATIONAL = "elliptic-rational-beauville"
ELLIPTIC_K3 = "elliptic-k3"
ELLIPTIC_PROPER = "elliptic-proper"
UNDETERMINED_BASE_GENUS_0 = "undetermined-base-genus-0"


def kodaira_classify(fiber_genus, base_genus, elliptic_level=None, minimality_proven=False):
    """Coarse Kodaira classification tag of the total space.

    Fiber genus >= 2 over a positive-genus base is minimal general
    type.  Genus-one fibers give elliptic surfaces, subdivided by the
    congruence level (3: rational, 4: K3, >= 5: properly elliptic).
    Base genus 0 with fiber genus >= 2 is undetermined in general;
    minimality_proven marks the members with a dedicated argument.
    """
    if fiber_genus == 1:
        if elliptic_level == 3:
            return ELLIPTIC_RATIONAL
        if elliptic_level == 4:
            return ELLIPTIC_K3
        return ELLIPTIC_PROPER
    if fiber_genus >= 2 and base_genus >= 1:
        return GENERAL_TYPE
    if fiber_genus >= 2 and minimality_proven:
        return GENERAL_TYPE
    return UNDETERMINED_BASE_GENUS_0


class FibrationInvariants(NamedTuple):
    """The complete invariant record of one fibration."""

    fiber_genus: int
    base_genus: int
    cusp_count: int
    twisting: int
    zero_partition: tuple
    kappa: Fraction
    euler: int
    sigma: int
    c1_squared: int
    c2: int
    chi_holomorphic: int
    geometric_genus: int
    b1: int
    b2: int
    b2_plus: int
    b2_minus: int
    bmy_slack: Fraction
    bmy_strict: bool
    noether_line: bool
    kodaira_tag: str
    zero_section_self_intersections: tuple
    intersection_form_parity: str
    # every family's core curves cross the polygon boundary once
    pi1_isomorphic_to_base = True

    def verify_identities(self):
        """Noether and signature-theorem identities, exactly."""
        if 12 * self.chi_holomorphic != self.c1_squared + self.c2:
            raise MathematicalInconsistencyError("12 chi(O) != c1^2 + c2")
        if 3 * self.sigma != self.c1_squared - 2 * self.c2:
            raise MathematicalInconsistencyError("3 sigma != c1^2 - 2 c2")
        if self.c2 != self.euler:
            raise MathematicalInconsistencyError("c2 != e")
        return True

    def to_json(self):
        return {
            "fiber_genus": self.fiber_genus,
            "base_genus": self.base_genus,
            "cusp_count": self.cusp_count,
            "twisting": self.twisting,
            "zero_partition": list(self.zero_partition),
            "kappa": rational_to_str(self.kappa),
            "euler": self.euler,
            "sigma": self.sigma,
            "c1_squared": self.c1_squared,
            "c2": self.c2,
            "chi_holomorphic": self.chi_holomorphic,
            "geometric_genus": self.geometric_genus,
            "b1": self.b1,
            "b2": self.b2,
            "b2_plus": self.b2_plus,
            "b2_minus": self.b2_minus,
            "bmy_slack": rational_to_str(self.bmy_slack),
            "bmy_strict": self.bmy_strict,
            "noether_line": self.noether_line,
            "kodaira": self.kodaira_tag,
            "zero_section_self_intersections": [
                rational_to_str(s) for s in self.zero_section_self_intersections
            ],
            "intersection_form_parity": self.intersection_form_parity,
            "pi1_isomorphic_to_base": self.pi1_isomorphic_to_base,
            "formulas": {
                "euler": "e = 4(g-1)(b-1) + T",
                "sigma": "sigma = -2 kappa chi(B) - (2/3) T",
                "c1_squared": "c1^2 = -6 kappa chi(B) + 8(g-1)(b-1)",
                "chi_holomorphic": "chi(O) = (c1^2 + c2)/12",
                "geometric_genus": "p_g = chi(O) - 1 + b1/2",
                "zero_section": "S^2 = (2 - 2b - |cusps|) / (2(m+1))",
                "bmy": "slack = e/3 - sigma",
            },
        }


def assemble_invariants(
    fiber_genus,
    base_genus,
    cusp_count,
    twisting,
    zero_partition,
    elliptic_level=None,
    minimality_proven=False,
):
    """Build the full invariant record from cover data; all exact.

    chi(B) = 2 - 2b - |cusps| is the open-base Euler characteristic and
    b1 = 2b, since the fundamental group is that of the completed base.
    Besides e, sigma and c1^2: c2 = e; chi(O) = (c1^2 + c2)/12; p_g =
    chi(O) - 1 + b1/2; b2 = e - 2 + 2 b1 and b2_pm = (b2 +- sigma)/2;
    the BMY slack is e/3 - sigma; a zero of order m gives a section of
    self-intersection chi(B)/(2(m+1)).  A negative cusp count or a zero
    partition that does not sum to 2g - 2 is refused; integrality,
    divisibility and parity are enforced, not rounded.
    """
    kappa = kappa_mu(zero_partition)
    if fiber_genus < 1 or base_genus < 0 or twisting < 0:
        raise InvalidArgumentError("need g >= 1, b >= 0, T >= 0")
    if cusp_count < 0:
        raise InvalidArgumentError(f"cusp count {cusp_count} is negative")
    if sum(zero_partition) != 2 * fiber_genus - 2:
        raise InvalidArgumentError(f"zero partition {tuple(zero_partition)} does not sum to 2g - 2")
    chi_base = 2 - 2 * base_genus - cusp_count
    genus_term = (fiber_genus - 1) * (base_genus - 1)
    e = 4 * genus_term + twisting
    # kappa chi(B) = k / q, so sigma = (-6k - 2Tq) / 3q and c1^2 = (-6k + 8(g-1)(b-1)q) / q
    k, q = kappa.numerator * chi_base, kappa.denominator
    sigma = _as_int(-6 * k - 2 * twisting * q, 3 * q, "signature")
    c1sq = _as_int(-6 * k + 8 * genus_term * q, q, "c1^2")
    if (c1sq + e) % 12 != 0:
        raise MathematicalInconsistencyError(
            f"Noether fails: c1^2 + c2 = {c1sq + e} is not divisible by 12"
        )
    chi_o = (c1sq + e) // 12
    p_g = chi_o - 1 + base_genus
    b1 = 2 * base_genus
    b2 = e - 2 + 2 * b1
    if b2 < 0 or (b2 + sigma) % 2 != 0:
        raise MathematicalInconsistencyError(f"b2 = {b2}, sigma = {sigma} incompatible")
    bmy_slack = Fraction(e - 3 * sigma, 3)
    sections = tuple(Fraction(chi_base, 2 * m + 2) for m in zero_partition)
    parity = "odd" if any(
        s.denominator == 1 and s.numerator % 2 != 0 for s in sections
    ) else "unknown"
    inv = FibrationInvariants(
        fiber_genus=fiber_genus,
        base_genus=base_genus,
        cusp_count=cusp_count,
        twisting=twisting,
        zero_partition=tuple(zero_partition),
        kappa=kappa,
        euler=e,
        sigma=sigma,
        c1_squared=c1sq,
        c2=e,
        chi_holomorphic=chi_o,
        geometric_genus=p_g,
        b1=b1,
        b2=b2,
        b2_plus=(b2 + sigma) // 2,
        b2_minus=(b2 - sigma) // 2,
        bmy_slack=bmy_slack,
        bmy_strict=e > 3 * sigma,
        noether_line=c1sq == 2 * p_g - 4,
        kodaira_tag=kodaira_classify(
            fiber_genus, base_genus, elliptic_level, minimality_proven
        ),
        zero_section_self_intersections=sections,
        intersection_form_parity=parity,
    )
    inv.verify_identities()
    return inv
