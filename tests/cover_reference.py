"""The Fraction and per-cusp routes of the per-level bookkeeping: the
reference for veechfib.invariants.kappa_mu, veechfib.covers.
OrbifoldSignature's euler_characteristic, and veechfib.covers.
riemann_hurwitz_cover and cover_twisting.

kappa_mu, OrbifoldSignature and riemann_hurwitz_cover are kept as the
library evaluated them, term by term on Fraction, before it moved to
integers over a known denominator.  riemann_hurwitz_cover and
cover_twisting take one entry per base cusp, as the library did before
it read the cusps in (image order, multiplicity) classes; this
riemann_hurwitz_cover returns the per-cusp fields as a PerCuspCover.
The one change is riemann_hurwitz_cover's refusal of a cone order
below 2, which the library added at the same place (the Fraction route
divided by a zero order).  This only serves tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from veechfib.errors import InconsistentCoverError, InvalidArgumentError, InvalidRootDataError


def kappa_mu(partition):
    """kappa = (1/12) sum m(m+2)/(m+1) over the zero orders m."""
    total = Fraction(0)
    for m in partition:
        if m < 1:
            raise InvalidArgumentError("zero orders must be positive")
        total += Fraction(m * (m + 2), m + 1)
    return total / 12


class _OrbifoldFields(NamedTuple):
    base_genus: int
    orbifold_orders: tuple
    cusp_count: int


class OrbifoldSignature(_OrbifoldFields):
    """Hyperbolic orbifold data: genus, cone orders, cusp count."""

    __slots__ = ()

    def __new__(cls, base_genus, orbifold_orders, cusp_count):
        self = super().__new__(cls, base_genus, orbifold_orders, cusp_count)
        if base_genus < 0 or cusp_count < 0:
            raise InvalidArgumentError("negative orbifold data")
        if any(n < 2 for n in orbifold_orders):
            raise InvalidArgumentError("orbifold orders must be >= 2")
        if self.euler_characteristic >= 0:
            raise InvalidArgumentError("orbifold is not hyperbolic")
        return self

    @property
    def euler_characteristic(self):
        chi = Fraction(2 - 2 * self.base_genus - self.cusp_count)
        for n in self.orbifold_orders:
            chi -= Fraction(n - 1, n)
        return chi


class PerCuspCover(NamedTuple):
    degree: int
    base_genus: int
    cusp_count: int
    cusps_per_orbit: tuple
    cusp_image_orders: tuple


def riemann_hurwitz_cover(chi_orb, degree, orbifold_orders, cusp_image_orders):
    """Genus and cusp count of a degree-d cover of a hyperbolic orbifold:
    2 - 2b - |cusps| = d * chi_orb, evaluated on Fraction."""
    if degree < 1:
        raise InvalidArgumentError("degree must be positive")
    if min(cusp_image_orders, default=1) < 1:
        raise InvalidArgumentError("cusp image orders must be positive")
    if min(orbifold_orders, default=2) < 2:
        raise InvalidArgumentError("orbifold orders must be >= 2")
    for order in orbifold_orders:
        if degree % order != 0:
            raise InconsistentCoverError(f"degree {degree} not divisible by {order}")
    cusps_per_orbit = []
    for k in cusp_image_orders:
        if degree % k != 0:
            raise InconsistentCoverError(f"cusp image order {k} does not divide {degree}")
        cusps_per_orbit.append(degree // k)
    cusp_count = sum(cusps_per_orbit)
    chi_cover = degree * chi_orb
    genus2 = 2 - cusp_count - chi_cover  # = 2b
    if genus2.denominator != 1 or genus2.numerator % 2 != 0 or genus2 < 0:
        raise InconsistentCoverError(
            f"cover genus is not a nonnegative integer: 2b = {genus2}"
        )
    return PerCuspCover(
        degree=degree,
        base_genus=int(genus2) // 2,
        cusp_count=cusp_count,
        cusps_per_orbit=tuple(cusps_per_orbit),
        cusp_image_orders=tuple(cusp_image_orders),
    )


def cover_twisting(cusps_per_orbit, image_orders, base_twists, roots):
    """Total twisting T = sum over base cusps of degree * T_c / k_c.

    base_twists[c] counts the Dehn twists in the minimal multitwist at
    base cusp c; roots[c] = k_c when the cusp generator is a k_c-th
    root of that multitwist.  Each cusp over c is a multitwist with
    order * T_c / k_c twists, which must be an integer
    (InvalidRootDataError); a twist count or root index below 1 is
    invalid input (InvalidArgumentError).
    """
    lengths = {len(cusps_per_orbit), len(image_orders), len(base_twists), len(roots)}
    if len(lengths) != 1:
        raise InvalidArgumentError("per-cusp sequences must have equal length")
    if min(base_twists, default=1) < 1 or min(roots, default=1) < 1:
        raise InvalidArgumentError("twists and root indices must be positive")
    total = 0
    per_cusp = []
    for count, order, twists, k in zip(cusps_per_orbit, image_orders, base_twists, roots):
        num = order * twists
        if num % k != 0:
            raise InvalidRootDataError(
                f"k = {k} does not divide order * twists = {num}; fractional multitwist"
            )
        per_cusp.append(num // k)
        total += count * (num // k)
    return total, tuple(per_cusp)
