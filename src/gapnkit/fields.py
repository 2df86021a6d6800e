"""Arithmetic for F_p and F_(p^n) in a polynomial basis.

A field element is its packed index: the element with polynomial-basis
coefficients (c_0, ..., c_(n-1)) is the plain integer sum c_s * p**s, so
element indices run over [0, p**n).  A FieldCtx carries the modulus and,
for orders up to TABLE_CAP = 2**24, three tables: log and antilog tables
over the smallest primitive element counting from x, and a lane table
(every element's digits packed into one int64) that backs the derivative
kernel and add_array.
Each is a slot filled on its first read by the one builder _BUILDERS
names for it, the default modulus included.  Scalar arithmetic never
reads a table: add, neg, mul and pow are polyfp arithmetic modulo the
modulus on every order.  A table's first read is the one table gate:
above TABLE_CAP it raises OrderTooLarge before anything is built or
imported.  Multiplying by g**k is F_p-linear, so for n >= 2 each step of
the antilog's doubling walk reads the lane table: one lane sum of two
lookups, by the low and the high half of an index's digits.  On F_p a
step is one product.
Contexts are immutable apart from that one-time fill, every table is
read-only once built, and a context pickles and copies as the arguments
it was built from, so neither builds a table.  numpy is imported where
tables are built or read, not with this module, so constructing a
context, scalar arithmetic and a refused table request never load it.

make_field shares one default-modulus context per (p, n) for the life of
the interpreter when p**n <= SOFT_ORDER_BUDGET, so repeated requests on a
small field build its tables once.  All of them held at once come to
about 9 MiB.  An explicit modulus, a larger field and FieldCtx(...) called
directly always give a new context.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING

from .errors import DivisionByZero, NotIrreducible, NotPrime, OrderTooLarge
from .monomial import digits_of
from .numtheory import factorint, is_prime
from .polyfp import PolyFp, _resultant, is_irreducible, pow_mod

if TYPE_CHECKING:
    import numpy as np

ORDER_CAP = 1 << 48
TABLE_CAP = 1 << 24
SOFT_ORDER_BUDGET = 3**7  # largest order shared by make_field and scanned by default

# Each derived slot of a FieldCtx and the method that fills it on first
# read.  Every slot but the modulus is a table.
_BUILDERS = {
    "modulus": "_build_modulus",
    **dict.fromkeys(("generator", "log_table", "antilog_table"), "_build_tables"),
    **dict.fromkeys(("lane_table", "_lane_lookup"), "_build_lanes"),
}
_BUILD_CHUNK = 1 << 15  # elements per step of the antilog walk; bounds the temporaries
_LANE_LOOKUP_BITS = 12  # index width of one lane-reduction lookup table


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writable: a shared context's tables cannot be changed
    in place by any one caller."""
    a.setflags(write=False)
    return a


def _lane_layout(p: int) -> tuple[int, int]:
    """(w, k): bits per lane, enough for a digit sum over p summands (at
    most p * (p - 1)), and lanes per lane-reduction lookup."""
    w = (p * (p - 1)).bit_length()
    return w, max(1, _LANE_LOOKUP_BITS // w)


@functools.lru_cache(maxsize=256)
def find_irreducible(p: int, n: int) -> PolyFp:
    """The canonical modulus for F_(p^n): the monic irreducible of degree n
    whose coefficient vector (c_(n-1), ..., c_0) is lexicographically
    smallest.  Counting k up and taking its base-p digits as the
    non-leading coefficients visits candidates in exactly that order.
    For n >= 2 a candidate with f(0), f(1) or f(-1) = 0 has a linear
    factor, so it is passed over before Ben-Or's test.
    Cached per (p, n): the walk is pure Python and PolyFp is immutable."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be at least 1")
    for k in range(p**n):
        coeffs = digits_of(k, p, n) + (1,)
        if n >= 2 and (
            coeffs[0] == 0 or sum(coeffs) % p == 0 or (sum(coeffs[::2]) - sum(coeffs[1::2])) % p == 0
        ):
            continue
        f = PolyFp(p, coeffs)
        if is_irreducible(f):
            return f
    raise AssertionError("no irreducible of the requested degree (impossible)")


class FieldCtx:
    """Field context: modulus, lazily built tables, and the arithmetic on indices."""

    __slots__ = ("p", "n", "order", "_modulus_arg", "__weakref__", *_BUILDERS)

    def __init__(self, p: int, n: int, modulus: PolyFp | None = None):
        # Any integer type, as a Python int: p**n of numpy ints can wrap.
        p, n = operator.index(p), operator.index(n)
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be at least 1")
        # p >= 2, so n > 48 is above the cap without forming p**n.
        if n > 48 or p**n > ORDER_CAP:
            raise OrderTooLarge(f"{p}**{n} exceeds the cap 2**48")
        if modulus is not None:
            if modulus.p != p:
                raise NotIrreducible("modulus is over the wrong prime field")
            if modulus.degree != n or modulus.lc != 1 or not is_irreducible(modulus):
                raise NotIrreducible(f"{modulus} is not monic irreducible of degree {n}")
            self.modulus = modulus
        self.p = p
        self.n = n
        self.order = p**n
        self._modulus_arg = modulus

    def __getattr__(self, name):
        # Reached only for a slot never assigned: a derived slot before its
        # first read, which its builder fills.  A table slot is refused
        # above TABLE_CAP first, so nothing is built or imported.
        builder = _BUILDERS.get(name)
        if builder is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name != "modulus":
            self._require_tables(name.strip("_").replace("_", " "))
        getattr(self, builder)()
        return object.__getattribute__(self, name)

    def __reduce__(self):
        # The arguments, not the slots: pickling or copying a context
        # builds no table and searches for no default modulus.
        return type(self), (self.p, self.n, self._modulus_arg)

    def _build_modulus(self) -> None:
        self.modulus = find_irreducible(self.p, self.n)

    # ---- encoding ----------------------------------------------------

    def _poly(self, a: int) -> PolyFp:
        """The element with index a as a polynomial of degree below n."""
        self._check_element(a)
        return PolyFp(self.p, digits_of(a, self.p, self.n))

    def _index(self, f: PolyFp) -> int:
        """The index of a polynomial of degree below n: its coefficients
        read as base-p digits."""
        p = self.p
        v = 0
        for c in reversed(f.coeffs):
            v = v * p + c
        return v

    def _check_element(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element index of this field")

    # ---- scalar arithmetic --------------------------------------------
    # An index is a polynomial of degree below n, reduced by the modulus
    # after a product; no scalar operation reads a table.

    def add(self, a: int, b: int) -> int:
        return self._index(self._poly(a) + self._poly(b))

    def neg(self, a: int) -> int:
        return self._index(-self._poly(a))

    def mul(self, a: int, b: int) -> int:
        return self._index(self._poly(a) * self._poly(b) % self.modulus)

    def inv(self, a: int) -> int:
        self._check_element(a)
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """a**e for e >= 0, with 0**0 = 1."""
        return self._index(pow_mod(self._poly(a), e, self.modulus))

    def frobenius(self, x: int, j: int) -> int:
        """x**(p**j) for 0 <= j < n; an F_p-linear field automorphism."""
        if not 0 <= j < self.n:
            raise ValueError(f"frobenius power {j} outside [0, {self.n})")
        return self.pow(x, self.p**j)

    # ---- tables --------------------------------------------------------

    def _require_tables(self, what: str) -> None:
        """Raise OrderTooLarge for a table read above TABLE_CAP, where only
        the scalar operations work.  Every first read of a table slot calls
        it; a caller calls it itself only to refuse before its first table
        read."""
        if self.order > TABLE_CAP:
            raise OrderTooLarge(f"{what} requested for an order above 2**24")

    def _build_tables(self) -> None:
        import numpy as np

        p, n, order = self.p, self.n, self.order
        group = order - 1
        primes = list(factorint(group)) if group > 1 else []
        # y is primitive when y**(group/q) != 1 for every prime q of the group
        # order.  For q | p - 1 that power is N(y)**((p - 1)/q), where the norm
        # N(y) = y**(group/(p - 1)) lies in F_p and is the resultant of the
        # monic modulus and y: O(n**2) steps instead of a power in the field.
        by_norm = [(p - 1) // q for q in primes if (p - 1) % q == 0]
        by_pow = [group // q for q in primes if (p - 1) % q]
        start = p if n > 1 else 1
        for gen in range(start, order):
            if by_norm:
                norm = _resultant(self.modulus, self._poly(gen))
                if any(pow(norm, e, p) == 1 for e in by_norm):
                    continue
            if all(self.pow(gen, cf) != 1 for cf in by_pow):
                break
        else:
            raise AssertionError("no primitive element found (impossible)")
        if n == 1:
            # F_p: c * a < p**2 < 2**48 is one int64 product, so c is its own table.
            def times(c: int, a: np.ndarray) -> np.ndarray:
                return c * a % p

            by_g = gen
        else:
            lanes, split = self.lane_table, p ** (n // 2)

            def times(by_c: np.ndarray, a: np.ndarray) -> np.ndarray:
                # c * a = c * (a % split) + c * (a // split) * split, a lane sum with no carry.
                return self.lanes_to_index(by_c[a % split] + by_c[split + a // split])

            # by_g: the lanes of g * j for j < split, then of g * j * split.  Each part
            # grows a digit at a time: t * g * p**s plus every entry so far, lanes <= p(p-1).
            parts = []
            for digits in (range(n // 2), range(n // 2, n)):
                by = np.zeros(1, dtype=np.int64)
                for s in digits:
                    by = (lanes[self.mul(p**s, gen)] * np.arange(p)[:, None] + by).reshape(-1)
                    by = lanes[self.lanes_to_index(by)]
                parts.append(by)
            by_g = np.concatenate(parts)
        antilog = np.empty(group, dtype=np.int64)
        antilog[0] = 1
        k, by_gk = 1, by_g
        while k < group:
            # antilog[k:2k] = antilog[:k] * g**k, in bounded chunks.
            size = min(k, group - k)
            for lo in range(0, size, _BUILD_CHUNK):
                hi = min(lo + _BUILD_CHUNK, size)
                antilog[k + lo : k + hi] = times(by_gk, antilog[lo:hi])
            k += size
            if k < group:
                # by_(g**2k) is by_(g**k) looked up through itself; on F_p, g**k squared.
                by_gk = times(by_gk, by_gk) if n == 1 else lanes[times(by_gk, self.lanes_to_index(by_gk))]
        if times(by_g, antilog[-1:])[0] != 1:
            raise AssertionError("generator is not primitive (table build bug)")
        log = np.full(order, -1, dtype=np.int64)
        log[antilog] = np.arange(group, dtype=np.int64)
        if (log[1:] < 0).any():
            raise AssertionError("antilog table misses an element (table build bug)")
        self.generator = gen
        self.antilog_table = _read_only(antilog)
        self.log_table = _read_only(log)

    # No package caller; perfbench/tracer.py wraps it by name, so it goes with that tracer (ROADMAP item 2).
    @property
    def digit_table(self) -> np.ndarray:
        """(order, n) array of base-p digits for every element index,
        unpacked from the lane table on each read."""
        lanes = self.lane_table
        import numpy as np

        w, _ = _lane_layout(self.p)
        return _read_only(lanes[:, None] >> (w * np.arange(self.n)) & ((1 << w) - 1))

    def _build_lanes(self) -> None:
        """lane_table: (order,) int64 array, digit s of every element index
        in bits [s*w, (s+1)*w), w = bit_length(p(p-1)).  A sum of p entries
        keeps every lane below 2**w, so the digit-vector sum of p elements
        is one integer sum; lanes_to_index reduces it.  Below TABLE_CAP,
        n*w is at most 50 bits, so such sums never reach the int64 sign
        bit.  _lane_lookup: the lookup table that reduces groups of k lane
        sums, or None when one lane is wider than _LANE_LOOKUP_BITS."""
        import numpy as np

        p = self.p
        w, k = _lane_layout(p)
        # One digit at a time: index t * p**s + j has digit t in lane s.
        lanes = np.zeros(1, dtype=np.int64)
        for s in range(self.n):
            lanes = (np.arange(p, dtype=np.int64)[:, None] << (s * w) | lanes).reshape(-1)
        table = None
        if k * w <= _LANE_LOOKUP_BITS:
            # table[v] = sum_l (lane l of v mod p) * p**l over k lanes
            v = np.arange(1 << (k * w), dtype=np.int64)
            table = np.zeros(v.size, dtype=np.int64)
            for l in range(k):
                table += ((v >> (l * w)) & ((1 << w) - 1)) % p * p**l
            _read_only(table)
        self._lane_lookup = table
        self.lane_table = _read_only(lanes)

    def lanes_to_index(self, sums: np.ndarray) -> np.ndarray:
        """Element indices of lane-packed digit sums: every lane mod p.

        Lanes s0 .. s0 + k - 1 are shifted down, masked, taken mod p by one
        lookup (by % p when a lane is too wide for the table, k = 1) and
        scaled by p**s0.  Each lane holds at most p(p-1) < 2**w, so a sum
        is non-negative and below 2**(n*w): the first group needs no shift
        and the last no mask, and for n <= k one lookup does it all.
        """
        p, n = self.p, self.n
        w, k = _lane_layout(p)
        table = self._lane_lookup
        out = None
        for s0 in range(0, n, k):
            part = sums >> (s0 * w) if s0 else sums
            if s0 + k < n:
                part = part & ((1 << (k * w)) - 1)
            part = table[part] if table is not None else part % p
            if out is None:
                out = part
            else:
                out += part * p**s0
        return out

    # ---- vectorized helpers ---------------------------------------------

    # No package caller; perfbench/tracer.py wraps it by name, so it goes with that tracer (ROADMAP item 2).
    def add_array(self, a, b):
        """Elementwise field addition of index arrays (or array + scalar):
        the sum of two lane-packed values cannot carry, so every lane mod
        p is the digit of the sum."""
        lanes = self.lane_table
        return self.lanes_to_index(lanes[a] + lanes[b])

    # Only gen_derivative calls it; perfbench/tracer.py wraps it by name too (ROADMAP item 2).
    def mul_array(self, a, b):
        """Elementwise field multiplication of index arrays via log tables."""
        log, antilog = self.log_table, self.antilog_table
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        out[nz] = antilog[(log[a[nz]] + log[b[nz]]) % (self.order - 1)]
        return out

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={self.modulus})"


_shared: dict[tuple[int, int], FieldCtx] = {}


def make_field(p: int, n: int, modulus: PolyFp | None = None) -> FieldCtx:
    """A field context; the modulus defaults to the canonical one.

    With the default modulus and p**n <= SOFT_ORDER_BUDGET, every call
    returns the same shared context, so its tables are built once per
    interpreter.  Otherwise each call builds a new context.  p and n are
    any integers, numpy's included; other types raise TypeError.  Invalid
    arguments raise on every call: a context is stored only once it is
    built.
    """
    if modulus is not None:
        return FieldCtx(p, n, modulus)
    p, n = operator.index(p), operator.index(n)
    ctx = _shared.get((p, n))
    if ctx is None:
        ctx = FieldCtx(p, n)
        if ctx.order <= SOFT_ORDER_BUDGET:
            # setdefault: when two threads race, both get the one stored.
            ctx = _shared.setdefault((p, n), ctx)
    return ctx


__all__ = ["FieldCtx", "SOFT_ORDER_BUDGET", "find_irreducible", "make_field"]
