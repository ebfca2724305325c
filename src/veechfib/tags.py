"""Family tags of the surface models, decided apart from the model layer:
a request that needs only the tag loads no thurston_veech, numberfield
or linalg."""

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


def surface_tag(family_tag):
    """Canonical tag and Coxeter number h of polygon-<n> (h = n), E7 (h =
    18) or E8 (h = 30), E7/E8 in any case.  The n-gon is supported when
    check_polygon_n admits n; other tags raise UnsupportedFamilyError."""
    check_tag(family_tag)
    tag = family_tag.strip()
    if tag.upper() in _COXETER_NUMBERS:
        return tag.upper(), _COXETER_NUMBERS[tag.upper()]
    prefix, _, number = tag.partition("-")
    try:
        n = int(number)
    except ValueError:
        n = None
    if prefix.lower() != "polygon" or n is None:
        raise UnsupportedFamilyError(f"unknown family tag: {family_tag!r}")
    check_polygon_n(n)
    return f"polygon-{n}", n


def check_tag(family_tag):
    """Refuse by UnsupportedFamilyError a family tag that is not a str."""
    if not isinstance(family_tag, str):
        raise UnsupportedFamilyError(f"family tag must be a str, not {family_tag!r}")


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
