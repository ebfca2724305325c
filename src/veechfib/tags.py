"""Family tags, decided apart from the model layer: read_tag is the one
tag reader, so a request that needs only the tag loads no thurston_veech,
numberfield or linalg."""

from .errors import CapExceededError, UnsupportedFamilyError, check_int
from .exact.finitefield import is_prime

# Largest n whose n-gon model is built: the construction works in a
# field of degree phi(2n)/2 and computes n - 1 heights there, so a
# larger request is refused before the field or its graph exists.  The
# build proves its heights positive only while two_cos_bracket(n) and
# two_cos_bracket(n - 1) separate: for every n from 5 to 3 896, first
# failing at n = 3 897 (a test pins the range up to this cap).
MAX_POLYGON_N = 256

_COXETER_NUMBERS = {"E7": 18, "E8": 30}


def read_tag(family_tag):
    """(kind, number) of a tag: ("weierstrass", D), ("polygon", n), ("E7",
    18) or ("E8", 30), stripped, in any case.  A number is ASCII digits,
    leading zeros allowed; a sign, a space, an underscore or another script's
    digit makes no tag, and raises UnsupportedFamilyError, as a non-str does."""
    if not isinstance(family_tag, str):
        raise UnsupportedFamilyError(f"family tag must be a str, not {family_tag!r}")
    tag = family_tag.strip()
    prefix, _, number = tag.partition("-")
    kind = prefix.lower()
    if number.isdigit() and number.isascii() and kind in ("polygon", "weierstrass"):
        return kind, int(number)
    kind = tag.upper()
    if kind in _COXETER_NUMBERS:
        return kind, _COXETER_NUMBERS[kind]
    raise UnsupportedFamilyError(f"unknown family tag: {family_tag!r}")


def surface_tag(family_tag):
    """Canonical tag and Coxeter number h of polygon-<n> (h = n), E7 (h =
    18) or E8 (h = 30).  The n-gon is supported when check_polygon_n
    admits n; other tags raise UnsupportedFamilyError."""
    kind, h = read_tag(family_tag)
    if kind == "polygon":
        check_polygon_n(h)
        return f"polygon-{h}", h
    if kind == "weierstrass":
        raise UnsupportedFamilyError(f"unknown family tag: {family_tag!r}")
    return kind, h


def sporadic_tag(family_tag):
    """surface_tag's E7 or E8, read only when not canonical; else refused."""
    if family_tag in ("E7", "E8"):
        return family_tag
    tag = surface_tag(family_tag)[0]
    if tag not in _COXETER_NUMBERS:
        raise UnsupportedFamilyError(f"sporadic family must be E7 or E8, not {family_tag!r}")
    return tag


def check_polygon_n(n):
    """Refuse by UnsupportedFamilyError an n-gon outside the supported
    series: q = n (odd n) or n/2 (even n) a prime > 3, or n >= 8 a power
    of two; an n that is not an int raises InvalidArgumentError."""
    check_int(n, "n")
    q = n if n % 2 else n // 2
    if not (q > 3 and is_prime(q) or n >= 8 and n & (n - 1) == 0):
        raise UnsupportedFamilyError(
            f"regular {n}-gon is not in the supported series: n must be an odd prime q > 3, "
            f"twice such a prime, or a power of two >= 8"
        )


def capped_surface_tag(family_tag):
    """surface_tag, refusing an n-gon past MAX_POLYGON_N by CapExceededError."""
    tag, h = surface_tag(family_tag)
    if h > MAX_POLYGON_N:
        raise CapExceededError(f"the {h}-gon model exceeds the size cap n <= {MAX_POLYGON_N}")
    return tag, h
