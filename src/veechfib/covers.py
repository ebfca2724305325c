"""Degrees, cusps, genus and twisting of level-p congruence covers.

congruence_degree is the one level decision: it alone admits a level p
and picks the image of the monodromy there, from the classical
generation theorem for SL(2) over a finite field: two opposite
elementary matrices [[1, a], [0, 1]] and [[1, 0], [1, 1]] with a
generating the field generate all of SL(2, F_q), except over F_9 where
they generate a copy of SL(2, 5) of order 120.  The deck group of the
cover is that image modulo its center's -I when the Veech group
contains -I, whence the degree is q(q^2 - 1) or q(q^2 - 1)/2.

group_closure_order provides the independent oracle: the exact order
of the generated matrix group by orbit-stabiliser on F_q^2 (the orbit
of (1, 0) times its unipotent stabiliser), usable whenever |SL(2, q)|
fits under a configurable cap.

riemann_hurwitz_cover and cover_twisting are the bookkeeping half:
cusp counts |G|/k per base cusp, the genus from the base's orbifold
Euler characteristic chi_orb by multiplicativity (2 - 2b - |cusps| =
d * chi_orb, the one place this formula is evaluated), and T = sum
over base cusps of d * (twists) / (root index).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .caps import DEFAULT_CLOSURE_CAP
from .errors import (
    CapExceededError,
    InadmissiblePrimeError,
    InconsistentCoverError,
    InvalidArgumentError,
    InvalidRootDataError,
)
from .exact.finitefield import FiniteFieldSpec, is_irreducible_mod_p, is_prime
from .exact.polynomials import IntPolynomial, prime_factors, rational_to_str


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


class CoverData(NamedTuple):
    """Summary of a finite cover of a cusped hyperbolic orbifold.

    per_cusp_twists holds the twist count of the monodromy around one
    cusp in each fiber over a base cusp orbit; total_twisting is the
    grand total over all cusps of the cover.  Both are None until
    with_twisting fills them in.
    """

    degree: int
    base_genus: int
    cusp_count: int
    cusps_per_orbit: tuple
    cusp_image_orders: tuple
    per_cusp_twists: tuple = None
    total_twisting: int = None
    group_label: str = ""
    exceptional: bool = False

    def with_twisting(self, per_cusp_twists, total_twisting):
        return self._replace(
            per_cusp_twists=tuple(per_cusp_twists), total_twisting=total_twisting
        )

    def euler_characteristic(self):
        return Fraction(2 - 2 * self.base_genus - self.cusp_count)

    def to_json(self):
        return {
            "degree": self.degree,
            "base_genus": self.base_genus,
            "cusp_count": self.cusp_count,
            "cusps_per_orbit": list(self.cusps_per_orbit),
            "cusp_image_orders": list(self.cusp_image_orders),
            "per_cusp_twists": list(self.per_cusp_twists or ()),
            "total_twisting": self.total_twisting,
            "group_label": self.group_label,
            "exceptional": self.exceptional,
            "euler_characteristic": rational_to_str(self.euler_characteristic()),
            "formula": "chi(cover) = 2 - 2b - |cusps| = degree * chi_orb(base)",
        }


class CongruenceDegree(NamedTuple):
    degree: int
    group_order: int
    group_label: str
    exceptional: bool


def congruence_degree(alpha_minpoly, p, genus, contains_minus_i):
    """Cover degree for the level-p congruence cover of a trace field.

    The one level decision: p must be an odd prime and alpha_minpoly,
    the degree-g minimal polynomial of the congruence parameter, must be
    irreducible mod p (else InadmissiblePrimeError).  The image is
    SL(2, p^g), of order p^g (p^2g - 1), except for (p, g) = (3, 2)
    where it is the order-120 copy of SL(2, 5) inside SL(2, 9).  The
    returned degree divides out the center when the Veech group
    contains -I.
    """
    if not isinstance(alpha_minpoly, IntPolynomial):
        alpha_minpoly = IntPolynomial(alpha_minpoly)
    if not is_prime(p) or p < 3:
        raise InvalidArgumentError(f"{p} is not an odd prime")
    if alpha_minpoly.degree != genus:
        raise InvalidArgumentError(
            f"minimal polynomial degree {alpha_minpoly.degree} != genus {genus}"
        )
    if not is_irreducible_mod_p(alpha_minpoly, p):
        raise InadmissiblePrimeError(
            f"{alpha_minpoly} is reducible mod {p}; level {p} is inadmissible"
        )
    if (p, genus) == (3, 2):
        order = 120
        label = "PSL(2,5)" if contains_minus_i else "SL(2,5)"
        exceptional = True
    else:
        q = p**genus
        order = q * (q * q - 1)
        label = f"PSL(2,{q})" if contains_minus_i else f"SL(2,{q})"
        exceptional = False
    degree = order // 2 if contains_minus_i else order
    return CongruenceDegree(degree, order, label, exceptional)


# ---------------------------------------------------------------------------
# Group order oracle
# ---------------------------------------------------------------------------


class _MatrixGroupFields(NamedTuple):
    field: FiniteFieldSpec
    generators: tuple


class MatrixGroupSpec(_MatrixGroupFields):
    """Finite field plus a list of 2x2 generator matrices of determinant 1."""

    __slots__ = ()

    def __new__(cls, field, generators):
        for mat in generators:
            (a, b), (c, d) = mat
            for entry in (a, b, c, d):
                if entry.spec != field:
                    raise InvalidArgumentError("generator entries live in the wrong field")
            det = a * d - b * c
            if det != field.one:
                raise InvalidArgumentError("generator determinant is not 1")
        return super().__new__(cls, field, generators)


def theorem_generator_pair(field, abar=None):
    """The pair [[1, abar], [0, 1]], [[1, 0], [1, 1]].

    abar defaults to the residue of x; pass the residue of the actual
    congruence parameter when it differs (over F_9 the generated group
    genuinely depends on it: it is the order-120 copy of SL(2, 5) when
    abar^2 = -1 and all of SL(2, 9) otherwise).
    """
    one, zero = field.one, field.zero
    if abar is None:
        abar = field.generator
    return MatrixGroupSpec(
        field,
        (
            ((one, abar), (zero, one)),
            ((one, zero), (one, one)),
        ),
    )


def group_closure_order(spec, cap=DEFAULT_CLOSURE_CAP):
    """Exact order of the generated matrix group by orbit-stabiliser.

    G acts on F_q^2; the orbit-stabiliser theorem gives |G| =
    |G e1| * |Stab(e1)| (Sims 1970).  The orbit of e1 = (1, 0) is walked
    breadth-first, keeping for each orbit point v a transversal element
    u_v = [v | w_v] with u_v e1 = v.  By Schreier's lemma the stabiliser
    is generated by the elements u_{sv}^-1 s u_v, and since every
    generator has determinant 1 these all have the form [[1, t], [0, 1]]:
    Stab(e1) is a subgroup of (F_q, +), elementary abelian, so its order
    is p^rank where rank is the F_p-dimension of the span of the t.  The
    walk stops collecting t once that span is all of F_q.

    The oracle requires |SL(2, q)| = q(q^2 - 1) <= cap and raises
    CapExceededError up front otherwise; the generated group lies in
    SL(2, q), so no search can outgrow an admitted cap.
    """
    field = spec.field
    p, q, n = field.p, field.order, field.degree
    if q * (q * q - 1) > cap:
        raise CapExceededError(
            f"|SL(2,{q})| = {q * (q * q - 1)} exceeds cap = {cap}; "
            "raise the cap to search this field"
        )
    mul, add = _field_tables(field)
    neg = mul[field.element_index(-field.one)]
    idx = field.element_index
    # a generator as its four multiplication rows: s (x, y) = (ax + by, cx + dy)
    gens = [tuple(mul[idx(e)] for e in (a, b, c, d)) for (a, b), (c, d) in spec.generators]
    # w_v, the second column of u_v, keyed by v = (x, y) as x * q + y;
    # indices: element_index maps 1 -> 1, 0 -> 0, so e1 is key q
    second = [None] * (q * q)
    second[q] = (0, 1)
    orbit = [(1, 0)]
    basis = {}  # echelon rows of the t digit vectors, keyed by pivot
    for x, y in orbit:  # grows while it is walked
        b, d = second[x * q + y]
        for ma, mb, mc, md in gens:
            sx, sy = add[ma[x]][mb[y]], add[mc[x]][md[y]]
            w = second[sx * q + sy]
            if w is None:
                second[sx * q + sy] = (add[ma[b]][mb[d]], add[mc[b]][md[d]])
                orbit.append((sx, sy))
            elif len(basis) < n:
                # t is the top-right entry of u_{sv}^-1 (s u_v)
                sb, sd = add[ma[b]][mb[d]], add[mc[b]][md[d]]
                t = add[mul[w[1]][sb]][neg[mul[w[0]][sd]]]
                if t:
                    _add_to_span(basis, t, p, n)
    return len(orbit) * p ** len(basis)


def _add_to_span(basis, t, p, n):
    """Reduce the base-p digits of index t against the echelon rows in
    basis (each row is zero at the pivots of the rows before it) and
    keep the remainder as a new row when it is nonzero."""
    digits = []
    for _ in range(n):
        t, r = divmod(t, p)
        digits.append(r)
    for k, row in basis.items():
        c = digits[k]
        if c:
            digits = [(a - c * r) % p for a, r in zip(digits, row)]
    for k, c in enumerate(digits):
        if c:
            inv = pow(c, -1, p)
            basis[k] = [a * inv % p for a in digits]
            return


def _field_tables(field):
    """Multiplication and addition tables of F_q on element indices.

    Index i is the residue whose coefficients are the base-p digits of
    i (FiniteFieldSpec.element_index).  Products come from discrete
    logarithms to a primitive element, sums from digitwise addition
    mod p, so the only FFElement products are the q - 1 powers of that
    element.
    """
    p, q = field.p, field.order
    g = _primitive_element(field)
    exp = []
    power = field.one
    for _ in range(q - 1):
        exp.append(field.element_index(power))
        power = power * g
    log = [0] * q
    for k, e in enumerate(exp):
        log[e] = k
    exp2 = exp + exp
    logs = log[1:]
    mul = [[0] * q] + [[0] + [exp2[log[i] + k] for k in logs] for i in range(1, q)]
    # i = i0 + p * i' adds digitwise: (i0 + j0) mod p + p * (i' + j')
    low = [[(a + b) % p for b in range(p)] for a in range(p)]
    add = low
    while len(add) < q:
        add = [
            [p * h + lo for h in add[i // p] for lo in low[i % p]]
            for i in range(len(add) * p)
        ]
    return mul, add


def _primitive_element(field):
    """Least-index generator of the multiplicative group of the field."""
    m = field.order - 1
    primes = prime_factors(m)
    return next(
        g
        for g in map(field.element_from_index, range(1, field.order))
        if all(g ** (m // r) != field.one for r in primes)
    )


# ---------------------------------------------------------------------------
# Cusp and genus bookkeeping
# ---------------------------------------------------------------------------


def riemann_hurwitz_cover(
    chi_orb, degree, orbifold_orders, orbifold_image_orders, cusp_image_orders
):
    """Genus and cusp count of a degree-d cover of a hyperbolic orbifold.

    The base has orbifold Euler characteristic chi_orb, one cusp per
    entry of cusp_image_orders and (at least) the cone points listed in
    orbifold_orders.  Each listed orbifold point must map to an element
    of its full order (the cover is then an honest surface, unbranched
    over the cone points in the orbifold sense); each base cusp with
    image order k contributes d/k cusps.  The genus solves
    2 - 2b - |cusps| = d * chi_orb exactly and must come out a
    nonnegative integer.  A degree or cusp image order below 1 is
    invalid input (InvalidArgumentError), not an inconsistency.
    """
    if degree < 1:
        raise InvalidArgumentError("degree must be positive")
    if min(cusp_image_orders, default=1) < 1:
        raise InvalidArgumentError("cusp image orders must be positive")
    if len(orbifold_image_orders) != len(orbifold_orders):
        raise InvalidArgumentError("one image order per orbifold point required")
    for full, image in zip(orbifold_orders, orbifold_image_orders):
        if image != full:
            raise InconsistentCoverError(
                f"orbifold point of order {full} has image order {image}; "
                "the cover would be an orbifold, not a surface"
            )
        if degree % image != 0:
            raise InconsistentCoverError(f"degree {degree} not divisible by {image}")
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
    return CoverData(
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
