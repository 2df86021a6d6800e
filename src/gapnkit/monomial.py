"""Exponent analytics for power maps x -> x**d.

Base-p digit bookkeeping (weight, cyclotomic cosets, normalization), the
digit-polynomial criterion and the circulant rank decider for exponents of
digit sum exactly p, exceptionality profiles built from the multiplicative
orders of criterion-polynomial roots, and the named exponent families.

The digit polynomial of d = sum a_s p**s is C(x) = sum a_s x**s.  For a
normalized weight-p exponent the derivative sum along direction 1 is an
F_p-linear map whose matrix, in a normal basis, is the circulant of the
digit vector, and x -> x**d avoids all derivative counts above p exactly
when that map has a kernel of dimension 1.  Equivalently:

    gcd(C(x), x**n - 1) = x - 1, exactly.

x - 1 always divides the gcd because C(1) = p = 0.  When p does not divide
n the polynomial x**n - 1 is square-free and this reduces to "no n-th root
of unity other than 1 is a root of C"; when p divides n, multiplicities
matter (x**n - 1 is a p-th power) and the gcd form is the correct one, so
that is what this module implements.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EvenCharacteristic, NotNormalized, NotPrime, WrongWeight
from .numtheory import is_prime
from .polyfp import PolyFp, _order_of_x, factorize, poly_gcd, x_pow_mod


def digits_of(d: int, p: int, n: int | None = None) -> tuple[int, ...]:
    """Base-p digits of d, lowest first.

    With n given the result has exactly n entries and d must fit; without
    it the intrinsic digits are returned (empty tuple for d = 0).
    """
    if p < 2:
        raise ValueError(f"base {p} is below 2")
    if d < 0:
        raise ValueError("negative exponent")
    out = []
    dd = d
    while dd:
        out.append(dd % p)
        dd //= p
    if n is not None:
        if len(out) > n:
            raise ValueError(f"{d} has base-{p} digits beyond position {n - 1}")
        out += [0] * (n - len(out))
    return tuple(out)


def p_weight(d: int, p: int) -> int:
    """Base-p digit sum of d (the algebraic degree of x -> x**d)."""
    return sum(digits_of(d, p))


def _check_base_and_degree(p: int, n: int) -> None:
    if p < 2:
        raise ValueError(f"base {p} is below 2")
    if n < 1:
        raise ValueError("extension degree must be at least 1")


def _coset_walk(d: int, p: int, n: int) -> list[int]:
    """d * p**k mod (p**n - 1) for k = 0..n-1, repeats included."""
    modulus = p**n - 1
    if not 1 <= d < modulus:
        raise ValueError(f"exponent {d} outside [1, {modulus})")
    walk = [d]
    for _ in range(n - 1):
        walk.append(walk[-1] * p % modulus)
    return walk


def coset_rep(d: int, p: int, n: int) -> int:
    """Smallest member of the cyclotomic coset {d * p**k mod (p**n - 1)}."""
    return min(_coset_walk(d, p, n))


def coset_reps(
    p: int, n: int, min_weight: int = 0, max_weight: int | None = None
) -> tuple[list[int], list[int]]:
    """Every cyclotomic-coset representative in [2, p**n - 2] whose digit
    sum lies in [min_weight, max_weight] (max_weight None: no upper bound),
    ascending, and the digit sum of each, as two lists.

    Multiplying by p modulo p**n - 1 rotates the n-digit base-p vector of
    an exponent, so, read from the top digit down, a representative's
    digits form a necklace (no rotation is smaller), and lexicographic
    order of digit words is numeric order.  The prenecklace walk of
    Ruskey, Savage and Wang ("Generating necklaces", J. Algorithms 1992)
    lists necklaces in that order; here it also keeps every digit below p
    and cuts each branch whose digit sum passes max_weight.  It visits
    only prenecklaces of digit sum at most max_weight, about p**n / n of
    them for the whole range and polynomially many in n for a fixed
    max_weight, never all p**n exponents.
    """
    _check_base_and_degree(p, n)
    if max_weight is None:
        max_weight = n * (p - 1)
    top = p**n - 1  # all digits p - 1; like 0 and 1, not in [2, p**n - 2]
    word = [0] * (n + 1)  # word[t] is digit n - t; word[0] = 0 starts the walk
    reps: list[int] = []
    weights: list[int] = []

    def extend(t: int, period: int, total: int, value: int) -> None:
        if t > n:
            if total >= min_weight and n % period == 0 and 1 < value < top:
                reps.append(value)
                weights.append(total)
            return
        first = word[t - period]
        for digit in range(first, min(p - 1, max_weight - total) + 1):
            word[t] = digit
            extend(t + 1, period if digit == first else t, total + digit, value * p + digit)

    extend(1, 1, 0, 0)
    return reps, weights


def coset_count(p: int, n: int) -> int:
    """len(coset_reps(p, n)[0]), without the walk: the cyclotomic cosets
    of [2, p**n - 2] other than the coset of 1.

    Cosets are the necklaces of n base-p digits.  Rotation by k fixes
    p**gcd(k, n) digit words, so by Burnside's lemma there are
    (1/n) sum_k p**gcd(k, n) = (1/n) sum_(e | n) phi(e) p**(n/e) of them.
    The necklaces of 0, p**n - 1 and 1 are not counted; on F_2,
    p**n - 1 = 1, so the last two are one necklace.
    """
    _check_base_and_degree(p, n)
    necklaces = sum(p ** math.gcd(k, n) for k in range(n)) // n
    return necklaces - (2 if p**n == 2 else 3)


def coset_members(d: int, p: int, n: int) -> tuple[int, ...]:
    """All members of the cyclotomic coset of d, sorted."""
    return tuple(sorted(set(_coset_walk(d, p, n))))


def normalize_weight_p(d: int, p: int) -> int:
    """Strip factors of p from a weight-p exponent.

    Dividing by p rotates the digit vector, which is composition with a
    field automorphism; the returned exponent has a nonzero constant digit
    and the same behaviour everywhere.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    w = p_weight(d, p)
    if w != p:
        raise WrongWeight(f"digit sum of {d} is {w}, need exactly {p}")
    while d % p == 0:
        d //= p
    return d


def _weight_p_digits(d: int, p: int, n: int | None = None) -> tuple[int, ...]:
    """digits_of(d, p, n) for a prime p and a normalized weight-p
    exponent: digit sum exactly p and a nonzero constant digit."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    digs = digits_of(d, p, n)
    w = sum(digs)
    if w != p:
        raise WrongWeight(f"digit sum of {d} is {w}, need exactly {p}")
    if d % p == 0:
        raise NotNormalized(f"{d} is divisible by {p}; normalize first")
    return digs


def digit_polynomial(d: int, p: int, n: int | None = None) -> PolyFp:
    """The polynomial whose coefficient at x**s is the s-th base-p digit of d.

    Requires a normalized weight-p exponent; with n given, d must satisfy
    d < p**n so the digits fit positions 0..n-1.
    """
    return PolyFp(p, _weight_p_digits(d, p, n))


class CriterionReport(NamedTuple):
    """Outcome of the digit-polynomial criterion for one exponent."""

    d: int
    p: int
    n: int
    digit_poly: PolyFp
    gcd: PolyFp
    is_gapn: bool
    offending_factors: tuple[tuple[PolyFp, int], ...]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "n": self.n,
            "digit_poly": list(self.digit_poly.coeffs),
            "gcd": list(self.gcd.coeffs),
            "is_gapn": self.is_gapn,
            "offending_factors": [
                {"coeffs": list(f.coeffs), "multiplicity": m}
                for f, m in self.offending_factors
            ],
        }


def criterion_gapn(d: int, p: int, n: int) -> CriterionReport:
    """Decide GAPN for a normalized weight-p exponent on F_(p^n).

    x - 1 always divides g = gcd(C, x**n - 1): C(1) is the digit sum p,
    which is 0 in F_p, and x**n - 1 vanishes at 1 too.  The map is GAPN
    exactly when g is x - 1, so the offending factors are those of
    g / (x - 1), a second copy of x - 1 included (which can only occur
    when p divides n).

    Digits are taken from d itself, so d may exceed p**n; the gcd against
    x**n - 1 folds digit positions modulo n exactly as x**(p**s) collapses
    to x**(p**(s mod n)) on the field.  That gcd is taken as
    gcd(C, (x**n mod C) - 1), so its cost grows with log n, not n.
    """
    if d < 1:
        raise ValueError(f"exponent {d} must be positive")
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    digit_poly = digit_polynomial(d, p)
    g = poly_gcd(digit_poly, x_pow_mod(n, digit_poly) - PolyFp.one(p))
    offending = factorize(g // PolyFp(p, (-1, 1))).factors
    return CriterionReport(d, p, n, digit_poly, g, not offending, offending)


def rank_mod_p(matrix, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination.

    matrix is any 2-D sequence of integers, numpy arrays included; a matrix
    with no rows has rank 0, and rows of unequal length raise ValueError.
    The sides here are at most a few dozen, where Python int lists beat
    numpy's per-call overhead.
    """
    rows = [[int(v) % p for v in row] for row in matrix]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows differ in length")
    rank = 0
    for c in range(width):
        # rows holds the rows not yet used as pivots; all are 0 before column c.
        i = next((i for i, row in enumerate(rows) if row[c]), None)
        if i is None:
            continue
        pivot = rows.pop(i)
        inv = pow(pivot[c], -1, p)
        for j, row in enumerate(rows):
            if row[c]:
                f = row[c] * inv % p
                rows[j] = [(a - f * b) % p for a, b in zip(row, pivot)]
        rank += 1
    return rank


def circulant_rank(d: int, p: int, n: int) -> int:
    """Rank over F_p of the n x n circulant whose first column is the digit
    vector of d.  The derivative-sum map has image of size p**rank, so GAPN
    is equivalent to rank = n - 1."""
    if not 1 <= d < p**n:
        raise ValueError(f"exponent {d} outside [1, {p**n})")
    digs = _weight_p_digits(d, p, n)
    m = [[digs[(i - j) % n] for j in range(n)] for i in range(n)]
    return rank_mod_p(m, p)


def _gapn_in_dimension(n: int, p: int, root_orders: tuple[int, ...], unit_root_multiplicity: int) -> bool:
    """The dimension rule of a profile: no root order divides n, and p does
    not divide n unless 1 is a simple root."""
    if any(n % m == 0 for m in root_orders):
        return False
    return unit_root_multiplicity == 1 or n % p != 0


class ExceptionalProfile(NamedTuple):
    """Dimension-independent GAPN data for a normalized weight-p exponent.

    root_orders holds the multiplicative orders (all > 1) of the roots of
    the digit polynomial other than 1; unit_root_multiplicity is the
    multiplicity of the root 1.  These determine the GAPN dimensions
    exactly: x**d is GAPN on F_(p^n), for any n with p**n > d, iff no
    root order divides n and (the multiplicity of 1 is one, or p does not
    divide n).  Since only finitely many n are excluded by divisibility,
    every such exponent is GAPN in infinitely many dimensions.
    """

    d: int
    p: int
    root_orders: tuple[int, ...]
    unit_root_multiplicity: int
    witness_n: int

    @property
    def min_n(self) -> int:
        """Smallest dimension the exponent fits in (p**n > d)."""
        return len(digits_of(self.d, self.p))

    def predicts_gapn(self, n: int) -> bool:
        if self.p**n <= self.d:
            raise ValueError(f"{self.d} does not fit in F_({self.p}^{n})")
        return _gapn_in_dimension(n, self.p, self.root_orders, self.unit_root_multiplicity)

    def gapn_dimensions(self, n_max: int) -> list[int]:
        # Every n >= min_n fits, so the bigint p**n check is skipped.
        p, orders, unit = self.p, self.root_orders, self.unit_root_multiplicity
        return [n for n in range(self.min_n, n_max + 1) if _gapn_in_dimension(n, p, orders, unit)]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "root_orders": list(self.root_orders),
            "unit_root_multiplicity": self.unit_root_multiplicity,
            "witness_n": self.witness_n,
        }


def exceptional_profile(d: int, p: int) -> ExceptionalProfile:
    """Profile of a normalized weight-p exponent from its intrinsic digits.

    May raise FactorizationTooLarge if the digit polynomial has an
    irreducible factor of degree above 24.
    """
    digs = _weight_p_digits(d, p)
    digit_poly = PolyFp(p, digs)
    x_minus_1 = PolyFp(p, (-1, 1))
    unit_mult = 0
    orders = set()
    for factor, mult in factorize(digit_poly).factors:
        if factor == x_minus_1:
            unit_mult = mult
        else:
            # factorize proves each factor irreducible and monic, and the
            # constant digit keeps x out, so root_order's checks are skipped.
            orders.add(_order_of_x(factor))
    if unit_mult < 1:
        raise AssertionError("the digit polynomial always vanishes at 1")
    root_orders = tuple(sorted(orders))
    n = len(digs)
    while not _gapn_in_dimension(n, p, root_orders, unit_mult):
        n += 1
    return ExceptionalProfile(d, p, root_orders, unit_mult, n)


def max_degree_family(p: int, n: int) -> list[int]:
    """The exponents p**n - p**j - 1 for j = 0..n-1, all of digit sum
    n*(p-1) - 1, the largest possible for a GAPN power map: every digit of
    p**n - 1 is p - 1, so subtracting p**j lowers digit j to p - 2 with no
    borrow.  j = 0 gives p**n - 2, the inverse exponent.  Odd
    characteristic only."""
    if p == 2:
        raise EvenCharacteristic("this family needs odd characteristic")
    if n < 1:
        raise ValueError("need n >= 1")
    return [p**n - p**j - 1 for j in range(n)]


def classical_families(p: int, n: int) -> list[tuple[str, int, int, bool]]:
    """Every classical family exponent for F_(p^n) as (family, param, d,
    predicted GAPN), unreduced, in this order:

    - gold: p**i + p - 1 for i = 1..n-1, predicted iff gcd(i, n) = 1;
    - welch (n >= 2): p**t + p + 1 with t = (n-1)/2 for odd n, n/2 for even
      n, predicted exactly for p = 2 with n odd, and for p = 3 (every n);
    - max-degree (odd p): p**n - p**j - 1 for j = 0..n-1, predicted always.
    """
    out = [("gold", i, p**i + p - 1, math.gcd(i, n) == 1) for i in range(1, n)]
    if n >= 2:
        t = n // 2
        out.append(("welch", t, p**t + p + 1, (p == 2 and n % 2 == 1) or p == 3))
    if p != 2:
        out += [("max-degree", j, d, True) for j, d in enumerate(max_degree_family(p, n))]
    return out


_FAMILY_LABELS = {"gold": "gold(i={})", "welch": "welch(t={})", "max-degree": "inverse-class(j={})"}


def identify_family(d: int, p: int, n: int) -> list[str]:
    """Names of the classical families d belongs to, empty if none."""
    return [
        "inverse" if (family, param) == ("max-degree", 0) else _FAMILY_LABELS[family].format(param)
        for family, param, fd, _ in classical_families(p, n)
        if fd == d
    ]


__all__ = [
    "CriterionReport",
    "ExceptionalProfile",
    "circulant_rank",
    "classical_families",
    "coset_count",
    "coset_members",
    "coset_rep",
    "coset_reps",
    "criterion_gapn",
    "digit_polynomial",
    "digits_of",
    "exceptional_profile",
    "identify_family",
    "max_degree_family",
    "normalize_weight_p",
    "p_weight",
    "rank_mod_p",
]
