"""Finite field arithmetic F_p[x]/(f) and residue tests mod p.

Polynomials over F_p are tuples of ints in [0, p), ascending degree.
Products in F_p[x]/(f) run on one kernel (_QuotientRing): one integer
product of the packed coefficients, whose top slots are then folded
down by x^n mod f, each coefficient reduced mod p once.  The same fold
takes Euclid's remainders.

Irreducibility is Rabin's test (Rabin 1980): f of degree n is
irreducible iff x^(p^n) = x mod f and gcd(f, x^(p^(n/r)) - x) = 1 for
each prime r | n, the only gcds taken.  As g(x)^p = sum g_i x^(ip) over
F_p, each x^(p^k) is one product by the Frobenius (Berlekamp) matrix,
whose row i is x^(ip) mod f; a return to x before k = n proves f
reducible.  Only the boolean is needed; nothing is factored.
"""

from __future__ import annotations

from operator import mul

from ..errors import InvalidArgumentError
from .polynomials import IntPolynomial, prime_factors

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin on the prime bases 2 ... 41, exact for
    all n below 3.3 * 10^24 (psi_13, the least composite they pass)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite this small has a prime factor <= 41
        return True
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


class _QuotientRing:
    """F_p[x]/(f), f of degree n made monic; a residue is a length-n list
    in [0, p).  A product packs the coefficients s bits apart into one
    integer, s wide enough for a convolution plus a fold."""

    def __init__(self, fbar, p):
        n, inv = len(fbar) - 1, pow(fbar[-1], -1, p)
        self.n, self.p, self.s = n, p, (2 * n * (p - 1) ** 2).bit_length()
        self.low = self.pack([-c * inv % p for c in fbar[:-1]])  # x^n mod f

    def pack(self, coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out << self.s | c
        return out

    def fold(self, c, degree):
        """The residue of a packed polynomial of the given degree: each slot
        from the top down to x^n is reduced mod p once and folded down by
        x^n = low, then each of the n low slots is reduced."""
        n, p, s = self.n, self.p, self.s
        for k in range(degree, n - 1, -1):
            c = (c & ((1 << s * k) - 1)) + ((c >> s * k) % p * self.low << s * (k - n))
        mask = (1 << s) - 1
        return [(c >> s * i & mask) % p for i in range(n)]

    def mul(self, a, b):
        return self.fold(self.pack(a) * self.pack(b), 2 * self.n - 2)

    def pow(self, a, e):
        """a^e for e >= 0 by left-to-right square-and-multiply."""
        out = a if e else [1] + [0] * (self.n - 1)
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out


def _coprime(f, g, p):
    """True when gcd(f, g) over F_p is a nonzero constant: Euclid, each
    remainder the fold of f in F_p[x]/(g).  f and g must be stripped and
    reduced mod p; then a slot of the fold by g of degree n gains at most
    n products of at most (p - 1)^2 each, so it stays within 2n(p - 1)^2,
    the ring's slot width."""
    while len(g) > 1:
        ring = _QuotientRing(g, p)
        f, g = g, pstrip(ring.fold(ring.pack(f), len(f) - 1))
    return bool(g)


def is_irreducible_mod_p(f, p):
    """Rabin's irreducibility test for f over F_p.

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
    ring = _QuotientRing(fbar, p)
    x = [0, 1] + [0] * (n - 2)
    frob = ring.pow(x, p)  # x^(p^k) mod f, from k = 1
    rows = [[1] + [0] * (n - 1), frob]
    while len(rows) < n:
        rows.append(ring.mul(rows[-1], frob))
    matrix = [ring.pack(row) for row in rows]  # row i = x^(ip) mod f
    gcd_steps = {n // r for r in prime_factors(n)}
    for k in range(1, n):
        if frob == x:
            return False  # every factor has degree dividing k < n
        if k in gcd_steps and not _coprime(
            fbar, pstrip([frob[0], (frob[1] - 1) % p] + frob[2:]), p
        ):
            return False
        frob = ring.fold(sum(map(mul, frob, matrix)), n - 1)
    return frob == x


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
        self._ring = _QuotientRing(preduce(modulus.coefficients, p), p)
        self.zero, self.one = self.element(0), self.element(1)

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
        coeffs = [c % self.p for c in ([coeffs] if isinstance(coeffs, int) else coeffs)]
        return FFElement(self, self._ring.fold(self._ring.pack(coeffs), len(coeffs) - 1))

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
        return FFElement(spec, spec._ring.mul(self.coeffs, other.coeffs))

    def __pow__(self, e):
        if e < 0:
            raise InvalidArgumentError(f"exponent {e} is negative")
        return FFElement(self.spec, self.spec._ring.pow(self.coeffs, e))

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and other.spec == self.spec
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.modulus, self.coeffs))

    def __repr__(self):
        return f"FFElement({list(self.coeffs)} over GF({self.spec.p})^{self.spec.degree})"
