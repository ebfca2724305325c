"""Finite field arithmetic F_p[x]/(f) and residue tests mod p.

Polynomials over F_p are tuples of ints in [0, p), ascending degree.
Irreducibility uses the distinct-degree criterion (f of degree n is
irreducible iff x^(p^n) = x mod f and gcd(f, x^(p^k) - x) = 1 for all
k <= n/2), computed with iterated Frobenius maps; only the boolean is
ever needed, so no factorization is performed.
"""

from __future__ import annotations

from ..errors import DivisionByZeroError, InvalidArgumentError
from .polynomials import IntPolynomial

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for all n below 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- dense polynomial arithmetic over F_p -----------------------------------


def pstrip(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def preduce(f, p):
    return pstrip([c % p for c in f])


def pmul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return pstrip(out)


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
    """Distinct-degree irreducibility test for f over F_p.

    Requires p prime, f nonconstant, and the leading coefficient of f
    nonzero mod p (a degree drop would silently change the question).
    """
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


def psub(f, g, p):
    n = max(len(f), len(g))
    return pstrip(
        [((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)]
    )


def is_quadratic_nonresidue(d, p):
    """True when d is not a square mod p; Euler's criterion.

    Agrees with is_irreducible_mod_p on x^2 - d by construction; p must
    be an odd prime not dividing d.
    """
    if not is_prime(p) or p == 2:
        raise InvalidArgumentError(f"{p} is not an odd prime")
    if d % p == 0:
        raise InvalidArgumentError(f"{p} divides {d}")
    return pow(d % p, (p - 1) // 2, p) == p - 1


# -- field extensions --------------------------------------------------------


class FiniteFieldSpec:
    """F_p[x]/(modulus): characteristic p and a verified-irreducible modulus."""

    def __init__(self, p, modulus):
        if not isinstance(modulus, IntPolynomial):
            modulus = IntPolynomial(modulus)
        if not is_prime(p):
            raise InvalidArgumentError(f"{p} is not prime")
        if not is_irreducible_mod_p(modulus, p):
            raise InvalidArgumentError(f"{modulus} is reducible mod {p}")
        self.p = p
        self.modulus = modulus
        self.degree = modulus.degree
        self.order = p**modulus.degree
        self._modbar = preduce(modulus.coefficients, p)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFieldSpec)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"FiniteFieldSpec(GF({self.p})[x]/({self.modulus}))"

    def element(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        reduced = pmod(preduce(coeffs, self.p), self._modbar, self.p)
        return FFElement(self, reduced + (0,) * (self.degree - len(reduced)))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    @property
    def generator(self):
        """The residue of x (a root of the modulus, not always primitive)."""
        return self.element((0, 1))

    def elements(self):
        """All p^degree field elements, lexicographic by coefficient vector."""
        from itertools import product

        for tup in product(range(self.p), repeat=self.degree):
            yield FFElement(self, tup)

    def element_index(self, elem):
        """Encode an element as an integer in [0, order)."""
        return sum(c * self.p**i for i, c in enumerate(elem.coeffs))

    def element_from_index(self, idx):
        coeffs = []
        for _ in range(self.degree):
            idx, r = divmod(idx, self.p)
            coeffs.append(r)
        return FFElement(self, tuple(coeffs))


class FFElement:
    """Element of a FiniteFieldSpec; coefficient tuple reduced mod p."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if not isinstance(other, FFElement) or other.spec != self.spec:
            raise InvalidArgumentError("elements belong to different finite fields")

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FFElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FFElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FFElement(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        prod = pmod(pmul(pstrip(self.coeffs), pstrip(other.coeffs), spec.p), spec._modbar, spec.p)
        return FFElement(spec, prod + (0,) * (spec.degree - len(prod)))

    def __pow__(self, e):
        spec = self.spec
        if e < 0:
            return self.inverse() ** (-e)
        out = ppow_mod(pstrip(self.coeffs), e, spec._modbar, spec.p)
        return FFElement(spec, out + (0,) * (spec.degree - len(out)))

    def inverse(self):
        if self.is_zero:
            raise DivisionByZeroError("inverse of zero")
        return self ** (self.spec.order - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and other.spec == self.spec
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.modulus, self.coeffs))

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"FFElement({list(self.coeffs)} over GF({self.spec.p})^{self.spec.degree})"
