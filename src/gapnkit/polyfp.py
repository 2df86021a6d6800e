"""Dense univariate polynomial algebra over a prime field F_p.

Coefficients live in [0, p) and are stored lowest degree first with no
trailing zeros, so the zero polynomial has an empty coefficient tuple and
``degree`` is -1 for it.  On top of the ring operations the module provides
a full factorization pipeline (square-free split, distinct-degree split,
then an equal-degree split), an irreducibility test that is the
distinct-degree split itself, and the multiplicative order of the root of
an irreducible polynomial.  The equal-degree split finds linear factors
over F_p with p up to _ROOTS_BY_EVALUATION_MAX_P by evaluating their
product at every element of F_p; above that bound, and in every higher
degree, it is Cantor-Zassenhaus driven by a deterministically seeded
random stream.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

from .errors import BothZero, DivisionByZero, FactorizationTooLarge, RootIsZero
from .numtheory import factorint

if TYPE_CHECKING:
    import random

_ROOT_ORDER_DEG_CAP = 24

# A product of distinct linear factors over F_p with p at most this bound
# is split by evaluating it at every element of F_p.  Measured per
# degree-2 product, the case least favourable to evaluation, on one pinned
# core of a 2-vCPU Xeon (Python 3.11): evaluation takes 16-18 us at p = 61
# and 63-72 us at p = 251 and 257, while Cantor-Zassenhaus takes 70-120 us
# at every p from 61 to 401, seeded or not; evaluation grows with p and
# overtakes it between p = 307 and 401.  In degree 3 evaluation costs at
# most 60% of Cantor-Zassenhaus up to p = 257.
_ROOTS_BY_EVALUATION_MAX_P = 256


class PolyFp:
    """A polynomial over F_p; immutable once built."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        if p < 2:
            raise ValueError("characteristic must be at least 2")
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, p: int) -> "PolyFp":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "PolyFp":
        return cls(p, (1,))

    @classmethod
    def x(cls, p: int) -> "PolyFp":
        return cls(p, (0, 1))

    @classmethod
    def x_pow(cls, p: int, k: int) -> "PolyFp":
        return cls(p, (0,) * k + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def _check_same_field(self, other: "PolyFp") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed characteristics {self.p} and {other.p}")

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check_same_field(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return _reduced(p, out)

    def __neg__(self) -> "PolyFp":
        p = self.p
        return _reduced(p, [-c % p for c in self.coeffs])

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        return self + -other

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._check_same_field(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _reduced(p, [])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _reduced(p, [c % p for c in out])

    def scale(self, c: int) -> "PolyFp":
        """Multiply by the constant c."""
        p = self.p
        return _reduced(p, [c * v % p for v in self.coeffs])

    def shift(self, k: int) -> "PolyFp":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return _reduced(self.p, [0] * k + list(self.coeffs))

    def _remainder(self, other: "PolyFp", quotient: list | None = None) -> "PolyFp":
        """self mod other by schoolbook long division; each quotient
        coefficient is also stored in quotient when one is given (a list
        of zeros, one per quotient degree)."""
        self._check_same_field(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        p = self.p
        b = other.coeffs
        db = len(b) - 1
        if len(self.coeffs) <= db:
            return self
        inv_lc = pow(b[-1], -1, p)
        low = b[:db]
        rem = list(self.coeffs)
        # Step k clears rem[k]; it is never read again, so it is not written.
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c:
                q = c * inv_lc % p
                if quotient is not None:
                    quotient[k - db] = q
                for s, mc in enumerate(low, k - db):
                    rem[s] = (rem[s] - q * mc) % p
        del rem[db:]
        return _reduced(p, rem)

    def __divmod__(self, other: "PolyFp"):
        quotient = [0] * max(len(self.coeffs) - other.degree, 1)
        rem = self._remainder(other, quotient)
        return _reduced(self.p, quotient), rem

    def __floordiv__(self, other: "PolyFp") -> "PolyFp":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyFp") -> "PolyFp":
        return self._remainder(other)

    def monic(self) -> "PolyFp":
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        if self.is_zero or self.lc == 1:
            return self
        return self.scale(pow(self.lc, -1, self.p))

    def evaluate(self, x: int) -> int:
        """Value at x in F_p, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def derivative(self) -> "PolyFp":
        p = self.p
        return _reduced(p, [i * c % p for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyFp)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"PolyFp({self.p}, {list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
        return " + ".join(terms)


def _reduced(p: int, cs: list) -> PolyFp:
    """PolyFp(p, cs) for coefficients already in [0, p): only trailing
    zeros are stripped, so results of the ring operations skip
    __init__'s per-coefficient reduction."""
    while cs and not cs[-1]:
        cs.pop()
    poly = object.__new__(PolyFp)
    poly.p = p
    poly.coeffs = tuple(cs)
    return poly


def poly_gcd(a: PolyFp, b: PolyFp) -> PolyFp:
    """Monic greatest common divisor."""
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _resultant(a: PolyFp, b: PolyFp) -> int:
    """Res(a, b) in F_p for a of degree >= 1, by Euclid's algorithm in
    O(deg a * deg b) steps: with r = a mod b,
    Res(a, b) = (-1)**(deg a * deg b) * lc(b)**(deg a - deg r) * Res(b, r),
    and Res(a, c) = c**deg a for a constant c.  For a monic a it is the
    product of b over the roots of a."""
    p = a.p
    res = 1
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            return 0
        if a.degree & b.degree & 1:
            res = p - res
        res = res * pow(b.lc, a.degree - r.degree, p) % p
        a, b = b, r
    return res * pow(b.lc, a.degree, p) % p


def pow_mod(base: PolyFp, e: int, mod: PolyFp) -> PolyFp:
    """base**e reduced modulo mod, for e >= 0, by square-and-multiply
    from the low bit up; the base is not squared past e's top bit."""
    if e < 0:
        raise ValueError("negative exponent")
    result = PolyFp.one(base.p) % mod  # 0 when mod is a constant
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        e >>= 1
        if e:
            base = base * base % mod
    return result


def x_pow_mod(k: int, mod: PolyFp) -> PolyFp:
    """x**k reduced modulo mod, for k >= 0, in O(log k) steps by
    square-and-shift: x**(2j + 1) = x * (x**j)**2, and multiplying by x is
    a shift and one reduction step, not a full product.  Below
    3 * deg(mod), reducing x**k in one division costs less than squaring,
    so the walk starts from the top bits of k below that bound."""
    if k < 0:
        raise ValueError("negative exponent")
    bound = max(3 * mod.degree, 1)
    s = 0
    while k >> s >= bound:
        s += 1
    r = PolyFp.x_pow(mod.p, k >> s) % mod
    for i in range(s - 1, -1, -1):
        r = r * r % mod
        if k >> i & 1:
            r = r.shift(1) % mod
    return r


def _pth_root(f: PolyFp) -> PolyFp:
    """For f = g(x**p), return g (the Frobenius is the identity on F_p)."""
    p = f.p
    return PolyFp(p, f.coeffs[::p])


def _squarefree_parts(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Square-free decomposition of a monic f with deg >= 1.

    Returns pairwise-coprime monic square-free parts with multiplicities
    whose product (with multiplicities) reconstructs f.  When
    gcd(f, f') = 1, f is square-free and is returned as it is, with no
    division.  Otherwise the inner loop peels off the part of each
    multiplicity in turn, and what is left has a vanishing derivative: it
    is a p-th power, whose p-th root goes round again with the
    multiplicities times p.
    """
    p = f.p
    factors: list[tuple[PolyFp, int]] = []
    n = 1
    while True:
        d = f.derivative()
        if not d.is_zero:
            g = poly_gcd(f, d)
            if g.is_one:
                factors.append((f, n))
                return factors
            h = f // g
            i = 1
            while not h.is_one:
                gg = poly_gcd(g, h)
                hh = h // gg
                if hh.degree > 0:
                    factors.append((hh, i * n))
                g, h, i = g // gg, gg, i + 1
            if g.is_one:
                return factors
            f = g
        f = _pth_root(f)
        n *= p


def _distinct_degree_parts(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Distinct-degree split of a monic square-free f.

    Returns (product of all irreducible factors of degree d, d) pairs in
    increasing d.
    """
    p = f.p
    out: list[tuple[PolyFp, int]] = []
    x = PolyFp.x(p)
    h = x
    i = 1
    while f.degree >= 2 * i:
        h = pow_mod(h, p, f)
        g = poly_gcd(f, h - x)
        if not g.is_one:
            out.append((g, i))
            f = f // g
            h = h % f
        i += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def is_irreducible(f: PolyFp) -> bool:
    """Ben-Or's irreducibility test: f of degree n >= 1 is irreducible
    over F_p iff gcd(f, x**(p**i) - x) = 1 for every i <= n/2, that is,
    iff the distinct-degree split of f is f itself in degree n."""
    n = f.degree
    if n < 1:
        return False
    fm = f.monic()
    return _distinct_degree_parts(fm) == [(fm, n)]


def _random_poly(p: int, deg_below: int, rng: random.Random) -> PolyFp:
    return PolyFp(p, [rng.randrange(p) for _ in range(deg_below)])


def _equal_degree_split(f: PolyFp, d: int, rng: random.Random | None) -> list[PolyFp]:
    """Cantor-Zassenhaus: split a monic square-free f whose irreducible
    factors all have degree d into those factors.  rng may be None only
    when f has degree d, which needs no draw.  factorize hands it two or
    more linear factors only when p > _ROOTS_BY_EVALUATION_MAX_P."""
    if f.degree == d:
        return [f]
    p = f.p
    while True:
        g = _random_poly(p, f.degree, rng)
        if g.degree < 1:
            continue
        if p == 2:
            # trace map g + g^2 + g^4 + ... splits in characteristic 2
            t = g
            acc = g
            for _ in range(d - 1):
                t = pow_mod(t, 2, f)
                acc = acc + t
            w = poly_gcd(f, acc) if not acc.is_zero else f
        else:
            h = pow_mod(g, (p**d - 1) // 2, f) - PolyFp.one(p)
            w = poly_gcd(f, h) if not h.is_zero else f
        if 0 < w.degree < f.degree:
            return _equal_degree_split(w, d, rng) + _equal_degree_split(f // w, d, rng)


class Factorization(NamedTuple):
    """unit * product of factors**multiplicity, factors monic irreducible,
    sorted by (degree, coefficient tuple)."""

    p: int
    unit: int
    factors: tuple[tuple[PolyFp, int], ...]

    def product(self) -> PolyFp:
        out = PolyFp(self.p, (self.unit,))
        for poly, mult in self.factors:
            for _ in range(mult):
                out = out * poly
        return out


def factorize(f: PolyFp) -> Factorization:
    """Complete factorization into monic irreducibles.

    A product of two or more distinct linear factors over F_p with
    p <= _ROOTS_BY_EVALUATION_MAX_P splits by evaluation and draws nothing.
    Any other product of two or more equal-degree factors goes to
    Cantor-Zassenhaus, which draws from a random stream seeded by the input
    polynomial itself at the first such split, so repeated calls give
    identical results; a factorization with no such split seeds none.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    p = f.p
    unit = f.lc
    fm = f.monic()
    if fm.degree == 0:
        return Factorization(p, unit, ())
    rng = None
    parts: list[tuple[PolyFp, int]] = []
    for sq, mult in _squarefree_parts(fm):
        for prod, d in _distinct_degree_parts(sq):
            if d == 1 and prod.degree > 1 and p <= _ROOTS_BY_EVALUATION_MAX_P:
                irrs = [PolyFp(p, (-a, 1)) for a in range(p) if not prod.evaluate(a)]
            else:
                if rng is None and prod.degree > d:
                    # Seeding costs more than a small factorization, so the
                    # stream starts at the first split that draws from it.
                    import random

                    rng = random.Random(f"edf:{p}:" + ",".join(map(str, fm.coeffs)))
                irrs = _equal_degree_split(prod, d, rng)
            parts.extend((irr, mult) for irr in irrs)
    parts.sort(key=lambda it: (it[0].degree, it[0].coeffs))
    return Factorization(p, unit, tuple(parts))


def root_order(h: PolyFp) -> int:
    """Multiplicative order of the root of a monic irreducible h (h != x).

    This is the order of x in F_p[x]/(h), i.e. the least N >= 1 with the
    root beta of h satisfying beta**N = 1.  Degrees above 24 would force
    factoring p**m - 1 beyond the budget and raise FactorizationTooLarge.
    """
    if h == PolyFp.x(h.p):
        raise RootIsZero("the root of x is 0; it has no multiplicative order")
    if h.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    # Above the cap, _order_of_x raises FactorizationTooLarge before any test.
    if h.degree <= _ROOT_ORDER_DEG_CAP and (h.lc != 1 or not is_irreducible(h)):
        raise ValueError("root_order needs a monic irreducible polynomial")
    return _order_of_x(h)


@functools.lru_cache(maxsize=1024)
def _order_of_x(h: PolyFp) -> int:
    """The order walk of root_order, for an h already known to be monic
    irreducible and not x, such as a factor from factorize: the group
    order p**m - 1 divided by each prime q while x**(e/q) is still 1.

    Memoised per factor, since PolyFp hashes and compares p with the
    coefficients: digit polynomials of many exponents share small factors.
    A raised FactorizationTooLarge is not cached."""
    p = h.p
    m = h.degree
    if m > _ROOT_ORDER_DEG_CAP:
        raise FactorizationTooLarge(f"degree {m} exceeds the cap of {_ROOT_ORDER_DEG_CAP}")
    n_group = p**m - 1
    e = n_group
    for q in factorint(n_group):
        while e % q == 0 and x_pow_mod(e // q, h).is_one:
            e //= q
    return e


__all__ = [
    "Factorization",
    "PolyFp",
    "factorize",
    "is_irreducible",
    "poly_gcd",
    "pow_mod",
    "root_order",
    "x_pow_mod",
]
