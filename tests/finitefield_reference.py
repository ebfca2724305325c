"""The F_p[x]/(f) route the library ran before its delayed-reduction
kernel: the reference for veechfib.exact.finitefield.

A product is a dense product reduced mod p after every multiply-add,
then long division by the modulus; a power is square-and-multiply on
those products; irreducibility is the distinct-degree test, which
recomputes x^(p^k) mod f by a full power for every k and takes
gcd(f, x^(p^k) - x) for every k <= n/2 by schoolbook Euclid.
Polynomials are tuples of ints in [0, p), ascending degree; this only
serves tests.
"""

from veechfib.errors import DivisionByZeroError, InvalidArgumentError
from veechfib.exact.finitefield import is_prime, preduce, pstrip
from veechfib.exact.polynomials import IntPolynomial


def element_from_index(field, idx):
    """The element of a FiniteFieldSpec whose coefficients are the
    base-p digits of idx, lowest first: FiniteFieldSpec.element_index
    inverted."""
    digits = []
    for _ in range(field.degree):
        idx, r = divmod(idx, field.p)
        digits.append(r)
    return field.element(digits)


def is_zero(elem):
    """True for the zero element of a FiniteFieldSpec."""
    return not any(elem.coeffs)


def pmod(f, g, p):
    if not g:
        raise DivisionByZeroError("polynomial division by zero mod p")
    f = list(f)
    inv = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        if c:
            for i, b in enumerate(g):
                f[shift + i] = (f[shift + i] - c * b) % p
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return tuple(f)


def pgcd(f, g, p):
    f, g = pstrip(f), pstrip(g)
    while g:
        f, g = g, pmod(f, g, p)
    if f:
        inv = pow(f[-1], p - 2, p)
        f = tuple(c * inv % p for c in f)
    return f


def psub(f, g, p):
    n = max(len(f), len(g))
    return pstrip(
        [((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)]
    )


def pmul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return pstrip(out)


def ppow_mod(base, e, modpoly, p):
    out = (1,)
    base = pmod(base, modpoly, p)
    while e:
        if e & 1:
            out = pmod(pmul(out, base, p), modpoly, p)
        base = pmod(pmul(base, base, p), modpoly, p)
        e >>= 1
    return out


def is_irreducible_mod_p(f, p):
    """Distinct-degree irreducibility test for f over F_p, with the
    library's validations and messages."""
    if not isinstance(f, IntPolynomial):
        f = IntPolynomial(f)
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if f.degree < 1:
        raise InvalidArgumentError("polynomial must be nonconstant")
    if f.leading_coefficient % p == 0:
        raise InvalidArgumentError(
            f"leading coefficient of {f} vanishes mod {p} (degree drop)"
        )
    fbar = preduce(f.coefficients, p)
    n = len(fbar) - 1
    if n == 1:
        return True
    x = (0, 1)
    frob = x
    for k in range(1, n + 1):
        frob = ppow_mod(frob, p, fbar, p)  # frob = x^(p^k) mod fbar
        if k <= n // 2:
            g = pgcd(fbar, psub(frob, x, p), p)
            if len(g) != 1:
                return False
    return psub(frob, x, p) == ()
