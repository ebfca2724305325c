"""Degrees, cusps, genus and twisting of level-p congruence covers.

congruence_degree is the one level decision: it alone admits a level p
(by Rabin's test on the trace-field polynomial, or for a model of
Coxeter number h by the order of p mod h up to sign) and picks the
image of the monodromy there, from the classical generation theorem
for SL(2) over a finite field: two opposite elementary matrices
[[1, a], [0, 1]] and [[1, 0], [1, 1]] with a generating the field
generate all of SL(2, F_q), except over F_9 where they generate a copy
of SL(2, 5) of order 120.  The deck group of the cover is that image
modulo its center's -I when the Veech group contains -I, whence the
degree is q(q^2 - 1) or q(q^2 - 1)/2.

group_closure_order provides the independent oracle: the exact order
of the generated matrix group by orbit-stabiliser on F_q^2 (the orbit
of (1, 0) times its unipotent stabiliser), usable whenever |SL(2, q)|
fits under a configurable cap.  The walk stops once the stabiliser is
all of F_q, and the order is then a closed form: q(q^2 - 1) when a
generator leaves the upper triangular group, and q times the order of
the group its diagonal entries generate otherwise.
No field table is q x q: sums add digits with no carry through one of
(2p - 1)^n entries, and products go through logs and antilogs (< 4q).

riemann_hurwitz_cover and cover_twisting are the bookkeeping half, one
step per class of base cusps that share their data: cusp counts |G|/k
per base cusp, the genus from the base's orbifold Euler characteristic
chi_orb by multiplicativity (2 - 2b - |cusps| = d * chi_orb, the one
place this formula is evaluated), and T = sum over cusp classes of
multiplicity * d * twists / root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DEFAULT_CLOSURE_CAP,
    CapExceededError,
    InadmissiblePrimeError,
    InconsistentCoverError,
    InvalidArgumentError,
    InvalidRootDataError,
    check_int,
)
from .exact.finitefield import FiniteFieldSpec, check_odd_prime, is_irreducible_mod_p
from .exact.polynomials import IntPolynomial, jsonable


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
        num, den = 2 - 2 * self.base_genus - self.cusp_count, 1
        for n in self.orbifold_orders:
            num, den = num * n - (n - 1) * den, den * n
        return Fraction(num, den)


class CoverData(NamedTuple):
    """Summary of a finite cover of a cusped hyperbolic orbifold.

    cusp_classes holds (image order, m) for m base cusps, twist_classes
    the (image order, twists, root, m) classes cover_twisting read and
    total_twisting their total; the last two are None until set
    (_replace).  The per-cusp lists exist only in to_json.
    """

    degree: int
    base_genus: int
    cusp_count: int
    cusp_classes: tuple
    twist_classes: tuple = None
    total_twisting: int = None
    group_label: str = ""
    exceptional: bool = False

    def euler_characteristic(self):
        return Fraction(2 - 2 * self.base_genus - self.cusp_count)

    def to_json(self):
        """Per base cusp: the cusps over it, its image order, and the
        twists around one cusp over it (order * twists / root)."""
        return jsonable({
            "degree": self.degree,
            "base_genus": self.base_genus,
            "cusp_count": self.cusp_count,
            "cusps_per_orbit": expand_classes((self.degree // k, m) for k, m in self.cusp_classes),
            "cusp_image_orders": expand_classes(self.cusp_classes),
            "per_cusp_twists": expand_classes(
                (k * t // r, m) for k, t, r, m in self.twist_classes or ()
            ),
            "total_twisting": self.total_twisting,
            "group_label": self.group_label,
            "exceptional": self.exceptional,
            "euler_characteristic": self.euler_characteristic(),
            "formula": "chi(cover) = 2 - 2b - |cusps| = degree * chi_orb(base)",
        })


def expand_classes(classes):
    """Each value of (value, multiplicity) classes, multiplicity times."""
    out = []
    for value, m in classes:
        out += [value] * m  # a list extends in place; a tuple would copy
    return tuple(out)


class CongruenceDegree(NamedTuple):
    degree: int
    group_order: int
    group_label: str
    exceptional: bool


def congruence_degree(alpha_minpoly, p, genus, contains_minus_i, coxeter_number=None):
    """Cover degree for the level-p congruence cover of a trace field.

    The one level decision: p must be an odd prime and alpha_minpoly,
    the degree-g minimal polynomial of the congruence parameter, must be
    irreducible mod p (else InadmissiblePrimeError, whose message names
    p and the degree of m_alpha, never its coefficients).  The image is
    SL(2, p^g), of order p^g (p^2g - 1), except for (p, g) = (3, 2)
    where it is the order-120 copy of SL(2, 5) inside SL(2, 9).  The
    returned degree divides out the center when the Veech group
    contains -I.

    Irreducibility is decided along one of two routes.  Without
    coxeter_number, by Rabin's test on alpha_minpoly mod p.  With it, an
    integer h >= 3 (else InvalidArgumentError), the caller asserts that
    alpha = 2 + 2cos(2pi/h), so that alpha generates Q(zeta_h)^+, Z[alpha]
    is its ring of integers and g = phi(h)/2.  By Dedekind-Kummer, m_alpha mod
    p then factors as p does in that ring, and the decomposition group
    of p is generated by its Frobenius p mod h in the Galois group
    (Z/h)^x / {+-1} (Washington, Introduction to Cyclotomic Fields,
    ch. 2).  For h > 6 a p dividing h ramifies, and g >= 2, so m_alpha
    is irreducible mod p exactly when p does not divide h and p has
    order g there, which is what is tested.
    """
    if not isinstance(alpha_minpoly, IntPolynomial):
        alpha_minpoly = IntPolynomial(alpha_minpoly)
    check_odd_prime(p)
    if alpha_minpoly.degree != genus:
        raise InvalidArgumentError(
            f"minimal polynomial degree {alpha_minpoly.degree} != genus {genus}"
        )
    if coxeter_number is None:
        irreducible = is_irreducible_mod_p(alpha_minpoly, p)
    elif not isinstance(coxeter_number, int) or coxeter_number < 3:
        raise InvalidArgumentError("the Coxeter number must be an integer >= 3")
    else:
        irreducible = _order_mod_sign(p, coxeter_number, genus) == genus
    if not irreducible:
        raise InadmissiblePrimeError(
            f"m_alpha of degree {genus} is reducible mod {p}; level {p} is inadmissible"
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


def _order_mod_sign(p, h, bound):
    """Least k <= bound with p^k = +-1 mod h, the order of p in
    (Z/h)^x / {+-1}; None when there is none (always when p divides h)."""
    x = p % h
    for k in range(1, bound + 1):
        if x in (1, h - 1):
            return k
        x = x * p % h
    return None


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
    Stab(e1) is a subgroup of (F_q, +), kept as the set of its t.  A
    new t joins with its multiples, the cosets stab + t, ...,
    stab + (p - 1) t.  The walk ends with the orbit or once the set is all
    of F_q.  Then U = {[[1, t], [0, 1]]} <= G, and the orbit is a union of
    U-orbits: the rows R_y = {(x, y)}, y != 0, and the points (x, 0).  A
    generator [[a, b], [c, d]] with c != 0 puts R_c = U (a, c) in the orbit
    and maps each row R_y onto the line {(by + ax, dy + cx)}, which meets
    every row, and row 0 at (-y/c, 0); so the orbit is all q^2 - 1 nonzero
    vectors and |G| = q(q^2 - 1).  Otherwise G is upper triangular, g -> a
    maps it onto <a_1, ..., a_k> <= F_q^* with kernel U, and so |G| =
    q(q - 1) / gcd(q - 1, log a_1, ..., log a_k), logs to a primitive g.

    Field elements are indices, and a generator entry e is its row
    j -> code(e j), so that ax + by is one lookup in red (_field_kernel).

    The oracle requires |SL(2, q)| = q(q^2 - 1) <= cap and raises
    CapExceededError up front otherwise (check_closure_cap); the
    generated group lies in SL(2, q), so no search can outgrow an
    admitted cap.
    """
    field = spec.field
    p, q = field.p, field.order
    check_closure_cap(p, field.degree, cap)
    code, red, log, cexp, nexp = _field_kernel(field)
    idx = field.element_index
    logs = [[log[idx(e)] for e in (a, b, c, d)] for (a, b), (c, d) in spec.generators]
    # a generator as its four rows j -> code(e j): s (x, y) = (ax + by, cx + dy)
    gens = [tuple([cexp[i + k] for k in log] for i in row) for row in logs]
    # w_v, the second column of u_v, keyed by v = (x, y) as x * q + y;
    # indices: element_index maps 1 -> 1, 0 -> 0, so e1 is key q
    second = [None] * (q * q)
    second[q] = (0, 1)
    orbit = [(1, 0)]
    stab = {0}
    for x, y in orbit:  # the orbit grows while it is walked
        b, d = second[x * q + y]
        for ma, mb, mc, md in gens:
            sx, sy = red[ma[x] + mb[y]], red[mc[x] + md[y]]
            w = second[sx * q + sy]
            if w is None:
                second[sx * q + sy] = (red[ma[b] + mb[d]], red[mc[b] + md[d]])
                orbit.append((sx, sy))
            else:
                # t is the top-right entry of u_{sv}^-1 (s u_v)
                sb, sd = red[ma[b] + mb[d]], red[mc[b] + md[d]]
                t = red[cexp[log[w[1]] + log[sb]] + nexp[log[w[0]] + log[sd]]]
                if t not in stab:
                    coset = list(stab)
                    for _ in range(p - 1):
                        coset = [red[code[r] + code[t]] for r in coset]
                        stab.update(coset)
        if len(stab) == q:
            if any(mc[1] for _, _, mc, _ in gens):  # c != 0
                return q * (q * q - 1)
            return q * ((q - 1) // math.gcd(q - 1, *[row[0] for row in logs]))
    return len(orbit) * len(stab)


def check_closure_cap(p, degree, cap):
    """Refuse a cap that is not an int or is below 1 (InvalidArgumentError)
    and a closure search over F_q, q = p^degree, whose |SL(2, q)| =
    q(q^2 - 1) exceeds the cap (CapExceededError), before the field and
    its irreducibility test.  Once q may pass 2^4096 it is written
    p^degree: q(q^2 - 1) would be slow to form and too long to print, and
    a cap past 4096 bits is written by its bit length."""
    check_int(cap, "cap")
    shown = cap
    if cap.bit_length() > 4096:
        shown = f"a {'negative ' * (cap < 0)}{cap.bit_length()}-bit integer"
    if cap < 1:
        raise InvalidArgumentError(f"cap must be a positive integer, not {shown}")
    # q >= 2^low: once 3 low passes the cap's bits, q(q^2 - 1) >= 2^(3 low - 1) > cap
    low = degree * (p.bit_length() - 1)
    if 3 * low <= cap.bit_length() and p**degree * (p ** (2 * degree) - 1) <= cap:
        return
    if degree * p.bit_length() > 4096:
        order = f"|SL(2,{p}^{degree})|"
    else:
        q = p**degree
        order = f"|SL(2,{q})| = {q * (q * q - 1)}"
    raise CapExceededError(f"{order} exceeds cap = {shown}; raise the cap to search this field")


def _field_kernel(field):
    """Codes, reduction table, logs and antilogs of F_q: no q x q table.

    Index i is the residue whose coefficients are the base-p digits of
    i (FiniteFieldSpec.element_index).  Its code reads those digits in
    base 2p - 1, so two codes add with no carry, and red, of (2p - 1)^n
    entries, maps a sum of codes to the index of the sum.  Multiplication
    by x shifts the digits up one place and folds the top digit back as
    that multiple of x^n mod f, the only field value formed.  A product
    by a fixed g is F_p-linear, so its row is built from x's; g is the
    first element from x (from 1 when n = 1; for n > 1 no scalar is
    primitive) whose row cycles through all q - 1 units.  cexp[k] and
    nexp[k] are the codes of g^k and -g^k, and zero's log 2(q - 1) lies
    past every sum of two logs, where both are padded by zero's code 0:
    w z - w' z' = red[cexp[log w + log z] + nexp[log w' + log z']].
    """
    p, q, n = field.p, field.order, field.degree
    code = red = [0]
    while len(code) < q:  # index i0 + p i' has code i0 + (2p - 1) code(i')
        code = [(2 * p - 1) * c + i0 for c in code for i0 in range(p)]
        red = [p * r + u % p for r in red for u in range(2 * p - 1)]
    top, xn = q // p, code[field.element_index(field.element([0] * n + [1]))]
    times_x = [p * j for j in range(top)]
    for j in range(top, q):  # x j = x (j - top) + x^n
        times_x.append(red[code[times_x[j - top]] + xn])
    g, powers = p - 1 if n > 1 else 0, ()
    while len(powers) != q - 1:
        g += 1
        row = times_x if g == p else [0, g]
        for j in range(len(row), q):  # g j = g (j - 1) + g; g (x j') = x (g j')
            row.append(times_x[row[j // p]] if j % p == 0 else red[code[row[j - 1]] + code[g]])
        powers = [1]
        while row[powers[-1]] != 1:
            powers.append(row[powers[-1]])
    log = [2 * q - 2] * q
    for k, v in enumerate(powers):
        log[v] = k
    cyc, half, pad = [code[v] for v in powers], log[p - 1], [0] * (2 * q - 1)
    return code, red, log, cyc * 2 + pad, (cyc[half:] + cyc[:half]) * 2 + pad  # -1 = g^half


# ---------------------------------------------------------------------------
# Cusp and genus bookkeeping
# ---------------------------------------------------------------------------


def riemann_hurwitz_cover(chi_orb, degree, orbifold_orders, cusp_classes):
    """Genus and cusp count of a degree-d cover of a hyperbolic orbifold.

    The base has orbifold Euler characteristic chi_orb, m cusps of image
    order k per (k, m) in cusp_classes and (at least) the cone points
    listed in orbifold_orders.  Each listed cone point is assumed to map
    to an element of its full order, so the cover is an honest surface,
    unbranched over the cone points in the orbifold sense, and the
    degree must be divisible by each cone order.  Each base cusp with
    image order k contributes d/k cusps.  The genus solves
    2 - 2b - |cusps| = d * chi_orb exactly and must come out a
    nonnegative integer.  A degree, cusp image order or multiplicity
    below 1, or a cone order below 2, is invalid input
    (InvalidArgumentError).
    """
    check_int(degree, "degree")
    if degree < 1:
        raise InvalidArgumentError("degree must be positive")
    cusp_classes = tuple(cusp_classes)
    if min((k for k, _ in cusp_classes), default=1) < 1:
        raise InvalidArgumentError("cusp image orders must be positive")
    if min((m for _, m in cusp_classes), default=1) < 1:
        raise InvalidArgumentError("cusp image orders and multiplicities must be positive")
    if min(orbifold_orders, default=2) < 2:
        raise InvalidArgumentError("orbifold orders must be >= 2")
    for order in orbifold_orders:
        if degree % order != 0:
            raise InconsistentCoverError(f"degree {degree} not divisible by {order}")
    cusp_count = 0
    for k, m in cusp_classes:
        if degree % k != 0:
            raise InconsistentCoverError(f"cusp image order {k} does not divide {degree}")
        cusp_count += degree // k * m
    # 2b = 2 - |cusps| - d chi_orb, times the denominator of chi_orb
    num, den = chi_orb.numerator, chi_orb.denominator
    top = (2 - cusp_count) * den - degree * num
    genus2, rest = divmod(top, den)
    if rest or genus2 % 2 != 0 or genus2 < 0:
        raise InconsistentCoverError(
            f"cover genus is not a nonnegative integer: 2b = {Fraction(top, den)}"
        )
    return CoverData(
        degree=degree,
        base_genus=genus2 // 2,
        cusp_count=cusp_count,
        cusp_classes=cusp_classes,
    )


def cover_twisting(degree, classes):
    """Total twisting T over cusp classes (order, T_c, k_c, m) of a
    degree-d cover: m base cusps c of image order `order` whose generator
    is a k_c-th root of the minimal multitwist at c, of T_c Dehn twists.
    Each of the d/order cusps over c is a multitwist with order * T_c /
    k_c twists, which must be an integer (InvalidRootDataError); a twist
    count or root index below 1, judged over every class before any
    root, is invalid input (InvalidArgumentError), and so is an order or
    multiplicity below 1.
    """
    check_int(degree, "degree")
    total, fractional = 0, None
    for order, twists, k, m in classes:
        if twists < 1 or k < 1:
            raise InvalidArgumentError("twists and root indices must be positive")
        if order < 1 or m < 1:
            raise InvalidArgumentError("cusp image orders and multiplicities must be positive")
        num = order * twists
        if num % k:
            fractional = fractional or (k, num)
            continue
        total += degree // order * m * (num // k)
    if fractional:
        k, num = fractional
        raise InvalidRootDataError(
            f"k = {k} does not divide order * twists = {num}; fractional multitwist"
        )
    return total
