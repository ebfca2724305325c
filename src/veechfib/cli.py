"""Command-line interface: every pipeline with machine-readable output.

Exit codes: 0 success, 1 mathematical inconsistency (with a structured
JSON diagnostic on stderr), 2 invalid arguments.  Output is
deterministic: fixed key order, exact rationals as "num/den" strings,
no timestamps.

Each subcommand imports the modules it runs when it runs, and calls
the pipeline through its home module (families.polygon_family, ...).
Building the parser loads no arithmetic, so a usage error costs none.
Only tv-build, verify, and polygon and sporadic requests with a
supported tag load the surface-model layer (thurston_veech,
numberfield, linalg); primes decides its tag in veechfib.tags.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _lazy_exports
from .errors import DEFAULT_CLOSURE_CAP, InvalidArgumentError, VeechFibError

# Pipeline names that the commands do not call (they call through the
# home modules) but that perfbench/tracer.py rebinds on this module:
# each resolves on its first lookup and then stays bound.  (kept bound)
__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "families": (
            "admissible_primes",
            "chern_scatter",
            "polygon_family",
            "sporadic_family",
            "weierstrass_family",
        ),
        "prototypes": ("enumerate_prototypes",),
        "thurston_veech": ("build_surface",),
        "covers": ("cover_twisting", "group_closure_order", "riemann_hurwitz_cover"),
    },
    "veechfib",
)


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    elif fmt == "csv":
        _write_csv(zip(*_flatten(payload)))
    else:
        for key, value in _flatten(payload):
            print(f"{key:42s} {value}")


_TABLE_COLUMNS = (
    "family",
    "level",
    "degree",
    "cusps",
    "genus",
    "twisting",
    "euler",
    "sigma",
)


def _flatten(payload, prefix=""):
    items = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            items.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, list):
        items.append((prefix.rstrip("."), json.dumps(payload)))
    else:
        items.append((prefix.rstrip("."), payload))
    return items


def _write_csv(rows):
    """The one CSV writer: RFC 4180 quoting, None as an empty cell."""
    import csv

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _data_table(families, args):
    if getattr(args, "data", None):
        return families.CurveDataTable.from_csv(args.data)
    return families.CurveDataTable()


def _cmd_prototypes(args):
    from . import prototypes

    protos = prototypes.enumerate_prototypes(args.D)
    if args.format == "csv":
        _write_csv(
            [("D", "w", "h", "t", "e", "twisting")]
            + [(p.discriminant, *p.as_tuple(), prototypes.prototype_twisting(p)) for p in protos]
        )
    else:
        payload = {
            "D": args.D,
            "count": len(protos),
            "prototypes": [list(p.as_tuple()) for p in protos],
        }
        _emit(payload, args.format)
    return 0


def _load_spin_plugin(spec_text):
    """Import a user-supplied spin predicate given as 'module:function'; a
    module that raises anything on import, a missing or non-callable
    attribute, or an exception raised by the predicate is invalid input."""
    import importlib

    module_name, _, attr = spec_text.partition(":")
    if not module_name or not attr:
        raise InvalidArgumentError("spin plugin must be given as module:function")
    try:
        predicate = getattr(importlib.import_module(module_name), attr)
    except Exception as exc:
        raise InvalidArgumentError(f"bad spin plugin {spec_text!r}: {exc!r}") from None
    if not callable(predicate):
        raise InvalidArgumentError(f"bad spin plugin {spec_text!r}: {attr!r} is not callable")

    def guarded(prototype):
        try:
            return predicate(prototype)
        except Exception as exc:
            raise InvalidArgumentError(f"bad spin plugin {spec_text!r}: {exc!r}") from None

    return guarded


# subcommand -> its family evaluation, called as families.<name>_family
# so that a rebinding of that name on the families module is the one
# the CLI runs
_FAMILY_COMMANDS = {
    # the spin plugin is loaded before the data CSV is read
    "weierstrass": lambda families, args: families.weierstrass_family(
        args.D,
        args.p,
        spin_filter=_load_spin_plugin(args.spin_plugin) if args.spin_plugin else None,
        data=_data_table(families, args),
    ),
    "polygon": lambda families, args: families.polygon_family(args.n, args.p),
    "sporadic": lambda families, args: families.sporadic_family(args.which, args.p),
    "elliptic": lambda families, args: families.elliptic_family(args.m),
}


def _cmd_family(args):
    from . import families

    result = _FAMILY_COMMANDS[args.command](families, args)
    if args.format == "csv":
        row = (
            result.spec.tag,
            result.level,
            result.cover.degree,
            result.cover.cusp_count,
            result.cover.base_genus,
            result.cover.total_twisting,
            result.invariants.euler,
            result.invariants.sigma,
        )
        _write_csv([_TABLE_COLUMNS, row])
    else:
        _emit(result.to_json(), args.format)
    return 0


def _int_list(text, flag):
    """Parse a comma-separated list of integers given to a flag."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidArgumentError(
            f"{flag} {text!r} is not a comma-separated list of integers"
        ) from None


def _cusp_classes(cusp_orders, twists, roots):
    """The cover command's per-cusp lists as classes of multiplicity 1."""
    if not len(cusp_orders) == len(twists) == len(roots):
        raise InvalidArgumentError("per-cusp sequences must have equal length")
    return tuple((k, t, r, 1) for k, t, r in zip(cusp_orders, twists, roots))


def _cmd_cover(args):
    from . import covers

    if args.roots and not args.base_twists:
        raise InvalidArgumentError("--roots needs --base-twists")
    orders = _int_list(args.orbifold_orders, "--orbifold-orders") if args.orbifold_orders else ()
    cusp_orders = _int_list(args.cusp_image_orders, "--cusp-image-orders")
    sig = covers.OrbifoldSignature(args.base_genus, orders, len(cusp_orders))
    cover = covers.riemann_hurwitz_cover(
        sig.euler_characteristic, args.degree, orders, [(k, 1) for k in cusp_orders]
    )
    if args.base_twists:
        twists = _int_list(args.base_twists, "--base-twists")
        roots = _int_list(args.roots, "--roots") if args.roots else tuple(1 for _ in twists)
        classes = _cusp_classes(cusp_orders, twists, roots)
        total = covers.cover_twisting(args.degree, classes)
        cover = cover._replace(twist_classes=classes, total_twisting=total)
    _emit(cover.to_json(), args.format)
    return 0


def _cmd_group_order(args):
    from . import covers
    from .exact.finitefield import FiniteFieldSpec, is_prime
    from .exact.polynomials import parse_polynomial

    modulus = parse_polynomial(args.modulus)
    if is_prime(args.p):  # else FiniteFieldSpec refuses --p, before any size test
        covers.check_closure_cap(args.p, modulus.degree, args.cap)
    field = FiniteFieldSpec(args.p, modulus)
    abar = None
    if args.alpha is not None:
        abar = field.element(_int_list(args.alpha, "--alpha"))
    spec = covers.theorem_generator_pair(field, abar)
    order = covers.group_closure_order(spec, cap=args.cap)
    _emit({"p": args.p, "modulus": modulus.to_json(), "order": order}, args.format)
    return 0


def _cmd_tv_build(args):
    from . import thurston_veech

    model = thurston_veech.build_surface(args.family)
    _emit(model.to_json(), args.format)
    return 0


def _cmd_primes(args):
    from . import families

    primes = families.admissible_primes(args.family, args.bound)
    payload = {
        "family": args.family,
        "bound": args.bound,
        "admissible": [
            {"p": p, "exceptional": exceptional} for p, exceptional in primes
        ],
    }
    _emit(payload, args.format)
    return 0


def _cmd_scatter(args):
    from . import families

    rows, skipped = families.chern_scatter(
        args.min_D, args.max_D, args.p, data=_data_table(families, args)
    )
    print("# bmy-line: c1sq = 3*c2")
    print("# noether-line: c1sq = (c2 - 36)/5")
    _write_csv(
        [("D", "c2", "c1sq", "c1sq_over_c2")]
        + [(d, c2, c1sq, _decimal_string(c1sq, c2, 12)) for d, c2, c1sq in rows]
    )
    if args.verbose_skips:
        for d, reason in skipped:
            print(f"# skipped D={d}: {reason}", file=sys.stderr)
    return 0


def _decimal_string(num, den, digits):
    """num/den truncated to digits decimals, in integers; "0" when den = 0."""
    if not den:
        return "0"
    sign = "-" if num * den < 0 else ""
    s = str(abs(num) * 10**digits // abs(den)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _cmd_verify(args):
    del args
    failures = 0
    for name, fn, expect in _verification_rows():
        try:
            got = fn()
            ok = got == expect
        except VeechFibError as exc:
            got, ok = f"{type(exc).__name__}: {exc}", False
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"[{status}] {name}: expected {expect}, got {got}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failures")
    return 1 if failures else 0


def _verification_rows():
    from fractions import Fraction

    from . import covers, families, prototypes
    from .exact.finitefield import FiniteFieldSpec
    from .exact.polynomials import parse_polynomial, rational_to_str

    def headline():
        r = families.weierstrass_family(5, 3)
        i = r.invariants
        return (
            r.cover.degree,
            r.cover.base_genus,
            r.cover.cusp_count,
            r.cover.total_twisting,
            i.euler,
            i.sigma,
            i.c1_squared,
            i.chi_holomorphic,
            i.geometric_genus,
            i.noether_line,
            rational_to_str(i.zero_section_self_intersections[0]),
        )

    def headline_polygon():
        r = families.polygon_family(5, 3)
        return (r.cover.degree, r.invariants.euler, r.invariants.sigma)

    def dickson():
        field = FiniteFieldSpec(3, parse_polynomial("x^2-x-1"))
        abar = field.element((1, 1))  # residue of the congruence parameter
        return covers.group_closure_order(covers.theorem_generator_pair(field, abar))

    def sporadic_ratios():
        out = []
        for which, want in (("E7", Fraction(-35, 9)), ("E8", Fraction(-64, 15))):
            found = []
            for p, _x in families.admissible_primes(which, 13)[:2]:
                r = families.sporadic_family(which, p)
                found.append(Fraction(r.invariants.sigma, r.cover.degree) == want)
            out.append(all(found) and len(found) >= 2)
        return out

    def elliptic_triple():
        invariants = [families.elliptic_family(m).invariants for m in (3, 4, 5)]
        return [(i.euler, i.sigma) for i in invariants]

    return [
        (
            "double-pentagon headline (e = 4(g-1)(b-1)+T, sigma = -2k chi - 2T/3)",
            headline,
            (60, 0, 20, 120, 116, -72, 16, 11, 10, True, "-3/1"),
        ),
        ("double-pentagon via staircase pipeline", headline_polygon, (60, 116, -72)),
        ("F9 exceptional closure order", dickson, 120),
        ("sporadic sigma/degree = -35/9, -64/15", sporadic_ratios, [True, True]),
        (
            "elliptic levels 3,4,5: (e, sigma)",
            elliptic_triple,
            [(12, -8), (24, -16), (60, -40)],
        ),
        (
            "prototype counts |P_5|, |P_8|",
            lambda: tuple(len(prototypes.enumerate_prototypes(d)) for d in (5, 8)),
            (1, 2),
        ),
    ]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="veechfib",
        description="Exact invariants of congruence covers and the fibered "
        "complex surfaces over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=fn)
        if name not in ("scatter", "verify"):  # these two print one fixed form
            cmd.add_argument("--format", choices=("json", "csv", "table"), default="json")
        return cmd

    cmd = add("prototypes", _cmd_prototypes, "enumerate cusp prototypes for a discriminant")
    cmd.add_argument("--D", type=int, required=True)

    cmd = add("weierstrass", _cmd_family, "genus-2 eigenform family at a level")
    cmd.add_argument("--D", type=int, required=True)
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--data", help="CSV with columns D,chi_num,chi_den,e2")
    cmd.add_argument(
        "--spin-plugin",
        default="",
        help="module:function selecting one spin class of prototypes (D = 1 mod 8)",
    )

    cmd = add("polygon", _cmd_family, "regular polygon family at a level")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--p", type=int, required=True)

    cmd = add("sporadic", _cmd_family, "E7 or E8 family at a level")
    cmd.add_argument("--which", choices=("E7", "E8"), required=True)
    cmd.add_argument("--p", type=int, required=True)

    cmd = add("elliptic", _cmd_family, "genus-one series at a level")
    cmd.add_argument("--m", type=int, required=True)

    cmd = add("cover", _cmd_cover, "Riemann-Hurwitz data of a congruence cover")
    cmd.add_argument("--base-genus", type=int, default=0)
    cmd.add_argument("--orbifold-orders", default="", help="comma-separated cone orders")
    cmd.add_argument("--cusp-image-orders", required=True, help="comma-separated")
    cmd.add_argument("--degree", type=int, required=True)
    cmd.add_argument("--base-twists", default="", help="comma-separated twist counts")
    cmd.add_argument("--roots", default="", help="comma-separated root indices")

    cmd = add(
        "group-order",
        _cmd_group_order,
        "exact order of the generated matrix group (orbit-stabiliser oracle)",
    )
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--modulus", required=True, help='e.g. "x^2-x-1"')
    cmd.add_argument(
        "--alpha", help="comma-separated residue coefficients of the shear"
    )
    cmd.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP)

    cmd = add("tv-build", _cmd_tv_build, "build a flat-surface model")
    cmd.add_argument("--family", required=True, help="polygon-<n>, E7 or E8")

    cmd = add("primes", _cmd_primes, "admissible levels for a family")
    cmd.add_argument("--family", required=True)
    cmd.add_argument("--bound", type=int, required=True)

    cmd = add("scatter", _cmd_scatter, "Chern number scatter for the eigenform series")
    cmd.add_argument("--min-D", type=int, default=5)
    cmd.add_argument("--max-D", type=int, default=60)
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--data", help="CSV with columns D,chi_num,chi_den,e2")
    cmd.add_argument("--verbose-skips", action="store_true")

    add("verify", _cmd_verify, "run the pinned-value regression table")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        _diagnostic(exc)
        return 2
    except VeechFibError as exc:
        _diagnostic(exc)
        return 1


def _diagnostic(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, indent=2), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
