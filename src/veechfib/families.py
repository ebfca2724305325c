"""Complete invariant tables for the congruence fibration families.

Four series are orchestrated end to end:

  * weierstrass(D): the genus-2 eigenform curves, cusps enumerated by
    integer prototypes, curve Euler characteristics ingested (or, for
    fundamental discriminants, computed from the real-quadratic zeta
    value at -1 via the classical divisor-sum formula);
  * polygon(n): regular n-gon surfaces for n an odd prime > 3, twice
    such a prime, or a power of two >= 8, built exactly through the
    staircase model;
  * sporadic E7 / E8, built from the exceptional diagrams;
  * elliptic(m): the genus-one series over principal congruence covers
    of the modular curve.

Each family builds its spec, checks the level, finds the cover degree,
the base's orbifold Euler characteristic, its own checks and its closed
forms; one shared step, evaluate, then runs Riemann-Hurwitz, twisting,
the characteristic numbers and the BMY check for all of them and returns
the finished result.  One builder, model_spec, gives the polygon and
E7 / E8 specs: each Veech group is fixed by the Coxeter number h (Veech
1989; Leininger 2004), Delta(2, h, oo) for odd h and Delta(h/2, oo, oo)
for even h.  The level test needs only h, and congruence_degree takes it
from the polygon, sporadic and primes paths; m_alpha for
alpha = 2 + 2cos(2pi/h), which coxeter_alpha_polynomial alone reads off
m_mu for mu = 2cos(pi/h), fixes the genus and the refusal message.  So
admissible_primes builds no model, and model_spec reads m_alpha once per
model.  All but the elliptic family are also evaluated through literal
closed-form tables (genus, cusps, e, sigma as functions of d, n, p) so
the two code paths can be diffed; see closed_forms_* below.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import starmap
from operator import itemgetter, mul
from typing import NamedTuple

from . import _lazy_exports
from .covers import (
    CongruenceDegree,
    CoverData,
    OrbifoldSignature,
    congruence_degree,
    cover_twisting,
    expand_classes,
    riemann_hurwitz_cover,
)
from .errors import (
    CapExceededError,
    InadmissiblePrimeError,
    InconsistentCoverError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MissingCurveDataError,
    check_int,
)
from .exact.finitefield import check_odd_prime, is_prime, is_quadratic_nonresidue
from .exact.finitefield import is_irreducible_mod_p  # noqa: F401  (kept bound)
from .exact.polynomials import (
    IntPolynomial, cos_two_pi_minpoly, prime_factors, rational_to_str
)
from .invariants import FibrationInvariants, assemble_invariants, bmy_sufficient
from .prototypes import enumerate_prototypes  # noqa: F401  (kept bound)
from .prototypes import (
    check_enumerable,
    check_size,
    divisor_scan,
    prototype_classes,
    standard_parameters,
    weierstrass_alpha,
)
from .tags import capped_surface_tag, check_polygon_n, read_tag, sporadic_tag

# The model layer (thurston_veech, and numberfield and linalg under it)
# is loaded on first use, not at import.  The model path calls it as
# attributes of this module (_self.build_surface, ...), so a name bound
# here first, by a rebinding, is the one it calls.
__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "thurston_veech": (
            "build_surface",
            "core_curve_span_check",  # (kept bound)
            "cylinder_bound_check",
            "holonomy_basis_check",
            "staircase_parity_check",
        ),
        "exact": ("element_minimal_polynomial",),  # (kept bound)
    },
    "veechfib",
)
_self = sys.modules[__name__]


# ---------------------------------------------------------------------------
# External curve data for the Weierstrass series
# ---------------------------------------------------------------------------


class _CurveDataFields(NamedTuple):
    discriminant: int
    chi: Fraction
    e2: int = None


class ExternalCurveData(_CurveDataFields):
    __slots__ = ()

    def __new__(cls, discriminant, chi, e2=None):
        if chi >= 0:
            raise InvalidArgumentError("curve Euler characteristic must be negative")
        if e2 is not None and e2 < 0:
            raise InvalidArgumentError("e2 must be a nonnegative integer")
        return super().__new__(cls, discriminant, chi, e2)


def is_fundamental_discriminant(d):
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _squarefree(n):
    n = abs(n)
    return all(n % (p * p) for p in prime_factors(n))


def real_quadratic_zeta_minus_one(d):
    """zeta_K(-1) for K real quadratic of fundamental discriminant d >= 5,
    as a Fraction; d past prototypes.MAX_DISCRIMINANT is refused first.

    Classical divisor-sum evaluation:
        zeta_K(-1) = (1/60) * sum over b = d mod 2, b^2 < d
                     of sigma_1((d - b^2)/4),
    the sigma total of prototypes.divisor_scan, shared with the classes.
    """
    check_int(d, "D")
    if d < 5:
        raise InvalidArgumentError(f"{d} is not the discriminant of a real quadratic field")
    check_size(d)
    if not is_fundamental_discriminant(d):
        raise InvalidArgumentError(f"{d} is not a fundamental discriminant")
    return Fraction(divisor_scan(d)[0], 60)


# chi values pinned independently of the zeta formula
_BUILTIN_CHI = {5: Fraction(-3, 10), 8: Fraction(-3, 4)}


class CurveDataTable:
    """chi(C_D) and order-2 point counts, from a CSV and/or formulas.

    Lookup order: user CSV rows, the pinned values for D in {5, 8}, the
    size cap on |D|, then the zeta formula chi = -(9/2) * 2 * zeta_K(-1) for
    fundamental D not 1 mod 8 (for D = 1 mod 8 the formula only gives
    the total over both spin components, so it is not used).  e2 is
    taken from the CSV when present; for 8 < D <= 41 with D != 1 mod 8
    it can be derived from chi and the cusp count because the curve has
    genus 0 and only order-2 orbifold points there.
    """

    def __init__(self, rows=()):
        self._rows = {r.discriminant: r for r in rows}

    @classmethod
    def from_csv(cls, path):
        """Rows of a CSV with columns D, chi_num, chi_den and optional e2;
        a file that cannot be read or parsed raises InvalidArgumentError."""
        import csv  # only a --data request reads CSV

        rows = []
        try:
            with open(path, newline="") as fh:
                for rec in csv.DictReader(fh):
                    rows.append(
                        ExternalCurveData(
                            discriminant=int(rec["D"]),
                            chi=Fraction(int(rec["chi_num"]), int(rec["chi_den"])),
                            e2=int(rec["e2"]) if rec.get("e2") not in (None, "", "-") else None,
                        )
                    )
        except (OSError, csv.Error, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidArgumentError(f"bad curve data file {str(path)!r}: {exc!r}") from None
        return cls(rows)

    def chi(self, d):
        check_int(d, "D")
        if d in self._rows:
            return self._rows[d].chi, "table"
        if d in _BUILTIN_CHI:
            return _BUILTIN_CHI[d], "builtin"
        check_size(abs(d))  # |D| also bounds the squarefree test of a D < 5
        if d % 8 != 1 and (d >= 5 or is_fundamental_discriminant(d)):
            try:  # zeta runs the one squarefree test of a D >= 5
                return -9 * real_quadratic_zeta_minus_one(d), "zeta-formula"
            except InvalidArgumentError:
                if d < 5:  # fundamental, but of no real quadratic field
                    raise
        raise MissingCurveDataError(
            f"no Euler characteristic available for D = {d}; supply a data CSV"
        )

    def e2(self, d, cusp_count):
        row = self._rows.get(d)
        if row is not None and row.e2 is not None:
            return row.e2
        if 8 < d <= 41 and d % 8 != 1:
            chi, _ = self.chi(d)
            # genus 0, only order-2 points: chi = 2 - |cusps| - e2/2
            e2 = 2 * (2 - cusp_count - chi)
            if e2.denominator != 1 or e2 < 0:
                raise MissingCurveDataError(f"derived e2 for D = {d} is not admissible")
            return int(e2)
        return None


# ---------------------------------------------------------------------------
# Family data and results
# ---------------------------------------------------------------------------


class FamilySpec(NamedTuple):
    """Static data of one family member, before choosing a level.

    cusp_classes holds (twists, m) for m base cusps whose generator is a
    minimal multitwist of that many Dehn twists (root index 1): on a model,
    the sum of twist_count over the cylinders of the cusp's direction.
    """

    tag: str
    fiber_genus: int
    zero_partition: tuple
    alpha_minimal_polynomial: object
    contains_minus_identity: bool
    signature_orbifold: object  # OrbifoldSignature or None (Weierstrass)
    cusp_classes: tuple

    @property
    def base_twists(self):
        """Twist count per base cusp, written out for to_json."""
        return expand_classes(self.cusp_classes)

    @property
    def roots(self):
        """Root index per base cusp: 1 in every family."""
        return (1,) * sum(map(itemgetter(1), self.cusp_classes))

    def to_json(self):
        return {
            "tag": self.tag,
            "fiber_genus": self.fiber_genus,
            "zero_partition": list(self.zero_partition),
            "alpha_minimal_polynomial": self.alpha_minimal_polynomial.to_json(),
            "contains_minus_identity": self.contains_minus_identity,
            "base_twists": list(self.base_twists),
            "roots": list(self.roots),
            "pi1_criterion": True,  # core curves cross the polygon boundary once
        }


class FamilyResult(NamedTuple):
    spec: FamilySpec
    level: int
    cover: CoverData
    invariants: FibrationInvariants
    checks: dict
    closed_forms: dict = None

    def to_json(self):
        out = {
            "family": self.spec.tag,
            "level": self.level,
            "spec": self.spec.to_json(),
            "cover": self.cover.to_json(),
            "invariants": self.invariants.to_json(),
            "checks": {k: _jsonable(v) for k, v in self.checks.items()},
        }
        if self.closed_forms is not None:
            out["closed_forms"] = {k: _jsonable(v) for k, v in self.closed_forms.items()}
        return out


def _jsonable(v):
    # every checks and closed_forms value is a scalar or a Fraction
    return rational_to_str(v) if isinstance(v, Fraction) else v


# the members over a base of genus 0 proven minimal: the double pentagon at level 3
_PROVEN_MINIMAL = frozenset({("weierstrass-5", 3), ("polygon-5", 3)})


def evaluate(spec, level, degree_data, chi_orb, checks, closed_forms=None):
    """Cover, twisting and invariants: the one pipeline every family runs,
    returning the finished result with the family's checks and closed forms.

    The base has orbifold Euler characteristic chi_orb, the cone points
    of spec.signature_orbifold (the Weierstrass chi_orb carries its own)
    and the cusps of spec.cusp_classes, each of image order the level:
    a cusp generator is unipotent and nontrivial mod the level, of order
    p at a prime level p and m in SL(2, Z/m).  A genus-one fiber's level
    grades its Kodaira class, _PROVEN_MINIMAL marks the members over a
    genus-0 base proven minimal, and a fiber of genus >= 2 over a base of
    genus >= 1 gets checks["bmy_sufficient"].
    """
    sig = spec.signature_orbifold
    orbifold_orders = sig.orbifold_orders if sig is not None else ()
    classes, degree = spec.cusp_classes, degree_data.degree
    cusps = sum(map(itemgetter(1), classes))
    try:
        cover = riemann_hurwitz_cover(
            chi_orb, degree, orbifold_orders, [(level, cusps)] if cusps else []
        )
    except InconsistentCoverError as exc:
        branch = ", exceptional branch" if degree_data.exceptional else ""
        raise InconsistentCoverError(
            f"{spec.tag} at level {level} (degree {degree}{branch}): {exc}"
        ) from None
    twist_classes = tuple([(level, twists, 1, m) for twists, m in classes])
    total_t = cover_twisting(degree, twist_classes)
    cover = cover._replace(
        twist_classes=twist_classes, total_twisting=total_t,
        group_label=degree_data.group_label, exceptional=degree_data.exceptional,
    )
    genus = spec.fiber_genus
    invariants = assemble_invariants(
        fiber_genus=genus,
        base_genus=cover.base_genus,
        cusp_count=cover.cusp_count,
        twisting=total_t,
        zero_partition=spec.zero_partition,
        elliptic_level=level if genus == 1 else None,
        minimality_proven=(spec.tag, level) in _PROVEN_MINIMAL,
    )
    if genus >= 2 and cover.base_genus >= 1:
        checks["bmy_sufficient"] = bmy_sufficient(genus, cover.cusp_count, total_t)
    return FamilyResult(spec, level, cover, invariants, checks, closed_forms)


# ---------------------------------------------------------------------------
# Weierstrass series
# ---------------------------------------------------------------------------


def weierstrass_alpha_polynomial(d):
    """m_alpha of discriminant D from its standard parameters."""
    w, e = standard_parameters(d)
    m_alpha = weierstrass_alpha(w, e)
    # discriminant identity: disc(m_alpha) = e^2 + 4w = D
    b, c = m_alpha.coefficients[1], m_alpha.coefficients[0]
    if b * b - 4 * c != d:
        raise InvalidArgumentError("trace-field polynomial discriminant mismatch")
    return m_alpha


def weierstrass_family(d, p, data=None, spin_filter=None):
    """Full pipeline for the discriminant-D eigenform at level p; every
    refusal comes before the prototypes are counted (order of the
    checks: see veechfib.prototypes)."""
    data = data if data is not None else CurveDataTable()
    check_enumerable(d, spin_filter)
    m_alpha = weierstrass_alpha_polynomial(d)
    try:
        degree_data = congruence_degree(m_alpha, p, 2, True)
    except InadmissiblePrimeError:
        if d % p == 0:  # ramified: m_alpha has a double root mod p
            raise
        degree_data = None
    # Euler's criterion, an independent second route to an unramified level
    if d % p and is_quadratic_nonresidue(d, p) != (degree_data is not None):
        raise InvalidArgumentError("residue test disagrees with irreducibility")
    if degree_data is None:
        raise InadmissiblePrimeError(f"D = {d} is a quadratic residue mod {p}; level inadmissible")
    chi, chi_source = data.chi(d)
    classes = prototype_classes(d, spin_filter)
    n_orbits = sum(map(itemgetter(1), classes))
    spec = FamilySpec(
        tag=f"weierstrass-{d}",
        fiber_genus=2,
        zero_partition=(2,),
        alpha_minimal_polynomial=m_alpha,
        contains_minus_identity=True,
        signature_orbifold=None,
        cusp_classes=classes,
    )
    # bmy_sufficient is null over a genus-0 base
    checks = {
        "chi_source": chi_source, "chi": chi, "prototype_count": n_orbits, "bmy_sufficient": None
    }
    e2 = data.e2(d, n_orbits)
    if 8 < d <= 41 and e2 is not None:
        # genus positivity of the cover for every p >= 3:
        # |P|/2 + e2/4 - |P|/(2p) >= 1, times 4p
        checks["genus_positivity"] = 2 * p * n_orbits + p * e2 - 2 * n_orbits >= 4 * p
        checks["e2"] = e2
    closed_forms = closed_forms_weierstrass(p, degree_data.degree, chi, classes)
    return evaluate(spec, p, degree_data, chi, checks, closed_forms)


def closed_forms_weierstrass(p, degree, chi, classes):
    """Tabulated closed forms for the Weierstrass series, from the
    (twist, multiplicity) classes of prototypes.prototype_classes: n = sum
    of m prototypes, each of twist count (w + h)/gcd(w, h).

    The twist sum is the table's sum of (1 + h/w) * w/gcd(w, h), which
    equals (w + h)/gcd(w, h) = prototype_twisting term by term.
    """
    check_odd_prime(p)
    d, n, t = degree, sum(map(itemgetter(1), classes)), degree * sum(starmap(mul, classes))
    a, b = chi.numerator, chi.denominator
    # for chi = a/b: cusps = dn/p, genus = 1 - dn/2p - (d/2) chi,
    # e = -2(d chi + cusps) + T and sigma = -(4d/9) chi - (2/3) T
    return {
        "degree": d,
        "cusps": Fraction(d * n, p),
        "genus": Fraction(2 * b * p - d * (n * b + a * p), 2 * b * p),
        "twisting": Fraction(t),
        "euler": Fraction(-2 * d * (a * p + n * b) + t * b * p, b * p),
        "sigma": Fraction(-4 * d * a - 6 * t * b, 9 * b),
    }


# ---------------------------------------------------------------------------
# Polygon series
# ---------------------------------------------------------------------------


def model_spec(tag):
    """Spec, cached model and structural checks of the polygon-n, E7 or E8
    surface: the base and its cusps follow from the model's Coxeter number
    h.  Both are made once per model, in one memo entry; a model whose
    checks fail is refused, else the checks come as a fresh dict."""
    tag = capped_surface_tag(tag)[0]
    model = _self.build_surface(tag)
    memo = model.memo.get("model_spec")
    if memo is None:
        h = model.coxeter_number
        holonomy_basis = _self.holonomy_basis_check(model)  # first: the tracer's span order
        checks = {
            "staircase_parity": _self.staircase_parity_check(model),
            "holonomy_basis": holonomy_basis,
            "cylinder_bounds": _self.cylinder_bound_check(model),
            "core_curve_span": True,  # the build refuses a genus that is not rank Q
        }
        signature = OrbifoldSignature(0, (2, h), 1) if h % 2 else OrbifoldSignature(0, (h // 2,), 2)
        sides = (model.horizontal,) if h % 2 else (model.horizontal, model.vertical)
        spec = FamilySpec(
            tag=tag,
            fiber_genus=model.genus,
            zero_partition=model.zero_partition,
            alpha_minimal_polynomial=coxeter_alpha_polynomial(h),
            contains_minus_identity=tag.startswith("polygon-"),
            signature_orbifold=signature,
            cusp_classes=tuple((sum(c.twist_count for c in side), 1) for side in sides),
        )
        memo = model.memo["model_spec"] = spec, checks
    spec, checks = memo
    if not all(checks.values()):
        raise MathematicalInconsistencyError(f"structural checks failed: {checks}")
    return spec, model, dict(checks)


def polygon_family(n, p):
    """Full pipeline for the regular n-gon surface at level p."""
    check_polygon_n(n)
    return _model_family(f"polygon-{n}", p)


def _model_family(tag, p):
    """The polygon and sporadic pipeline over the surface model of the tag:
    the model's Coxeter number h decides the level, and the tag picks the
    closed forms."""
    spec, model, checks = model_spec(tag)
    h, tag = model.coxeter_number, spec.tag
    degree_data = congruence_degree(
        spec.alpha_minimal_polynomial, p, spec.fiber_genus, spec.contains_minus_identity,
        coxeter_number=h,
    )
    d = degree_data.degree
    if tag.startswith("polygon-"):
        closed_forms = closed_forms_polygon(h, p, d)
    else:
        closed_forms = closed_forms_sporadic(tag, p, d)
    chi_orb = spec.signature_orbifold.euler_characteristic
    return evaluate(spec, p, degree_data, chi_orb, checks, closed_forms)


def closed_forms_polygon(n, p, degree):
    """Literal closed forms of the polygon tables, as exact rationals.

    For n = 2q the tabulated signature disagrees with the signature
    formula applied to the fiber's zero partition (the tabulated value
    corresponds to doubling kappa); it is reproduced here verbatim so
    the two code paths can be compared.  p is checked, then n as surface_tag
    does, then that the degree is an int.
    """
    check_odd_prime(p)
    check_polygon_n(n)
    check_int(degree, "degree")
    d = degree
    if n % 2 == 1:
        # genus = 1 + (d/2)(1/2 - 1/q - 1/p), e = d((q-3)(1/2 - 1/q - 1/p) + (q-1)/2)
        q = n
        s = p * q - 2 * p - 2 * q  # 2pq(1/2 - 1/q - 1/p)
        genus = Fraction(4 * p * q + d * s, 4 * p * q)
        cusps = Fraction(d, p)
        twisting = d * (q - 1) // 2
        e = Fraction(d * ((q - 3) * s + p * q * (q - 1)), 2 * p * q)
        sigma = Fraction(-d * (q * q - 1), 4 * q)
    elif (n // 2) % 2 == 1:
        # genus = 1 + d(1/2 - 1/2q - 1/p), e = d((2q-6)(1/2 - 1/2q - 1/p) + q)
        q = n // 2
        s = p * q - p - 2 * q  # 2pq(1/2 - 1/2q - 1/p)
        genus = Fraction(2 * p * q + d * s, 2 * p * q)
        cusps = Fraction(2 * d, p)
        twisting = d * q
        e = Fraction(d * ((q - 3) * s + p * q * q), p * q)
        sigma = Fraction(-d * (q * q + 2 * q + 3), 3 * q)
    else:
        # genus = 1 + d(1/2 - 1/n - 1/p), e = d((m-4)(1/2 - 1/m - 1/p) + m/2) for m = 2^k <= n
        m = 1 << (n.bit_length() - 1)
        genus = Fraction(2 * n * p + d * (n * p - 2 * p - 2 * n), 2 * n * p)
        cusps = Fraction(2 * d, p)
        twisting = d * m // 2
        e = Fraction(d * ((m - 4) * (m * p - 2 * p - 2 * m) + m * m * p), 2 * m * p)
        sigma = Fraction(-d * (3 * m + 4), 12)
    return {
        "degree": d,
        "genus": genus,
        "cusps": cusps,
        "twisting": twisting,
        "euler": e,
        "sigma": sigma,
    }


# ---------------------------------------------------------------------------
# Sporadic series
# ---------------------------------------------------------------------------


def sporadic_family(which, p):
    """Full pipeline for the E7 or E8 surface at level p."""
    return _model_family(sporadic_tag(which), p)


def closed_forms_sporadic(which, p, degree):
    check_odd_prime(p)
    d = degree
    if sporadic_tag(which) == "E7":
        # genus = 1 + (d/2)(8/9 - 2/p), e = d(95/9 - 8/p), sigma = -(35/9) d
        genus = Fraction(9 * p + d * (4 * p - 9), 9 * p)
        e = Fraction(d * (95 * p - 72), 9 * p)
        sigma = Fraction(-35 * d, 9)
        g = 3
    else:
        # genus = 1 + (d/2)(14/15 - 2/p), e = d(68/5 - 12/p), sigma = -(64/15) d
        genus = Fraction(15 * p + d * (7 * p - 15), 15 * p)
        e = Fraction(d * (68 * p - 60), 5 * p)
        sigma = Fraction(-64 * d, 15)
        g = 4
    return {
        "degree": d,
        "genus": genus,
        "cusps": Fraction(2 * d, p),
        "twisting": (g + 4) * d,
        "euler": e,
        "sigma": sigma,
    }


# ---------------------------------------------------------------------------
# Elliptic series
# ---------------------------------------------------------------------------


def principal_congruence_index(m):
    """Index of the level-m principal congruence subgroup in PSL(2, Z)."""
    check_int(m, "level m")
    if m < 3:
        raise InvalidArgumentError("level must be >= 3")
    idx = m**3
    for p in prime_factors(m):
        idx = idx // (p * p) * (p * p - 1)
    return idx // 2


# Largest elliptic level: the index factors m by trial division to sqrt(m)
MAX_ELLIPTIC_M = 10**12
# Largest primes --bound: admissible_primes runs the level test per odd
# prime, the order of p mod h for a model tag and Rabin's test on the
# quadratic m_alpha for a Weierstrass tag
MAX_PRIME_BOUND = 10**5
# Largest scatter D: chern_scatter(5, 10**5, 7) takes 9.2 to 9.5 s (CPython 3.11,
# one core of a 2-core x86-64 VM whose speed drifts about 2x over hours, while
# perfbench/speed.py's fraction_probe read 0.39 to 0.44 ms)
MAX_SCATTER_D = 10**5


def elliptic_family(m):
    """Genus-one fibration over the level-m principal congruence cover."""
    check_int(m, "level m")
    if m > MAX_ELLIPTIC_M:
        raise CapExceededError(f"level m = {m} exceeds the size cap m <= {MAX_ELLIPTIC_M}")
    degree = principal_congruence_index(m)
    sig = OrbifoldSignature(0, (2, 3), 1)
    spec = FamilySpec(
        tag=f"elliptic-{m}",
        fiber_genus=1,
        zero_partition=(),
        alpha_minimal_polynomial=_X_MINUS_ONE,
        contains_minus_identity=True,
        signature_orbifold=sig,
        cusp_classes=((1, 1),),
    )
    smooth_tag = {3: "E(1)", 4: "E(2)", 5: "E(5)"}.get(m)
    checks = {"smooth_4manifold": smooth_tag} if smooth_tag else {}
    degree_data = CongruenceDegree(degree, 2 * degree, f"PSL(2,Z/{m})", False)
    return evaluate(spec, m, degree_data, sig.euler_characteristic, checks)


_X_MINUS_ONE = IntPolynomial([-1, 1])


# ---------------------------------------------------------------------------
# Level admissibility and the Chern scatter
# ---------------------------------------------------------------------------


def coxeter_alpha_polynomial(h):
    """m_alpha of a surface of Coxeter number h, of degree its genus.

    alpha = mu^2 = 2 + 2cos(2pi/h) for mu = 2cos(pi/h), whose minimal
    polynomial f = cos_two_pi_minpoly(2h) has degree n.  For even h,
    f = g(x^2) and m_alpha = g; for odd h, m_alpha(x^2) = (-1)^n f(x) f(-x).
    No model is built.
    """
    f = cos_two_pi_minpoly(2 * h)
    if h % 2:
        mirrored = IntPolynomial([-c if i % 2 else c for i, c in enumerate(f.coefficients)])
        f = f * mirrored * (-1) ** f.degree
    return IntPolynomial(f.coefficients[::2])


def admissible_primes(family_tag, bound):
    """(p, exceptional) for each odd prime p <= bound that congruence_degree
    admits, with exceptional as congruence_degree reports it.  A model
    tag's levels are decided from its Coxeter number, a Weierstrass tag's
    by Rabin's test."""
    check_int(bound, "bound")
    if bound < 3:
        raise InvalidArgumentError("bound must be >= 3")
    if bound > MAX_PRIME_BOUND:
        raise CapExceededError(f"bound {bound} exceeds the size cap bound <= {MAX_PRIME_BOUND}")
    kind, number = read_tag(family_tag)
    if kind == "weierstrass":
        h, m_alpha = None, weierstrass_alpha_polynomial(number)
    else:
        h = capped_surface_tag(family_tag)[1]
        m_alpha = coxeter_alpha_polynomial(h)
    genus = m_alpha.degree
    out = []
    for p in filter(is_prime, range(3, bound + 1, 2)):
        try:
            degree_data = congruence_degree(m_alpha, p, genus, True, coxeter_number=h)
            out.append((p, degree_data.exceptional))
        except InadmissiblePrimeError:
            pass
    return out


def chern_scatter(d_min, d_max, p, data=None):
    """(c2, c1^2) per admissible nonsquare discriminant in [d_min, d_max].

    Discriminants that are squares, residues mod p, spin-split (D = 1
    mod 8), missing curve data, or whose cover genus is not an integer
    (inconsistent-cover, D = 8 at p = 3) are skipped (and reported).
    A d_max above MAX_SCATTER_D is refused before the sweep.
    """
    check_odd_prime(p)
    check_int(d_min, "min D")
    check_int(d_max, "max D")
    if d_max > MAX_SCATTER_D:
        raise CapExceededError(f"max D = {d_max} exceeds the size cap D <= {MAX_SCATTER_D}")
    data = data if data is not None else CurveDataTable()
    rows = []
    skipped = []
    for d in range(max(d_min, 5), d_max + 1):
        if d % 4 not in (0, 1):
            continue
        if math.isqrt(d) ** 2 == d:
            continue
        if d % 8 == 1:
            skipped.append((d, "spin-filter-required"))
            continue
        if d % p == 0:
            skipped.append((d, "ramified"))
            continue
        try:
            # the cheap filter; weierstrass_family's Euler test is the compared second route
            if not is_quadratic_nonresidue(d, p):
                skipped.append((d, "residue"))
                continue
            result = weierstrass_family(d, p, data=data)
        except MissingCurveDataError:
            skipped.append((d, "missing-curve-data"))
            continue
        except InconsistentCoverError:
            skipped.append((d, "inconsistent-cover"))
            continue
        rows.append((d, result.invariants.c2, result.invariants.c1_squared))
    return rows, skipped
