"""Arithmetic for F_p and F_(p^n) in a polynomial basis.

A field element is its packed index: the element with polynomial-basis
coefficients (c_0, ..., c_(n-1)) is the plain integer sum c_s * p**s, so
element indices run over [0, p**n).  A FieldCtx carries the modulus and,
for orders up to 2**24, discrete log / antilog tables over a fixed
primitive element, a digit table that backs the vectorized helpers and a
lane table that backs the derivative kernel.  All are built on first use,
not at construction, the default modulus included, so callers that never
multiply (weight-p-only scans, the algebraic deciders) never pay for
them.  The antilog build runs in numpy: multiplying by the generator is an
F_p-linear map on digit vectors, so doubling the run of known powers is
one matrix product.  Contexts are immutable apart from that one-time fill,
and every table is read-only once built; every operation is a pure
function of (context, arguments).  numpy is imported where tables are
built or read, not with this module, so constructing a context (which
validates p and n) and the table-free operations never load it.

make_field shares one default-modulus context per (p, n) for the life of
the interpreter when p**n <= SOFT_ORDER_BUDGET, so repeated requests on a
small field build its tables once.  All of them held at once come to
about 9 MiB.  An explicit modulus, a larger field and FieldCtx(...) called
directly always give a new context.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .errors import DivisionByZero, NotIrreducible, NotPrime, OrderTooLarge
from .monomial import digits_of
from .numtheory import factorint, is_prime
from .polyfp import PolyFp, is_irreducible

if TYPE_CHECKING:
    import numpy as np

ORDER_CAP = 1 << 48
TABLE_CAP = 1 << 24
SOFT_ORDER_BUDGET = 3**7  # largest order shared by make_field and scanned by default

# Built together by _build_tables; _pow_vec (p**s for each digit position s)
# packs digit rows into indices.
_TABLE_SLOTS = ("generator", "log_table", "antilog_table", "_pow_vec")
_BUILD_CHUNK = 1 << 15  # rows per block product; bounds the temporaries
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
    Cached per (p, n): the walk is pure Python and PolyFp is immutable."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be at least 1")
    for k in range(p**n):
        f = PolyFp(p, digits_of(k, p, n) + (1,))
        if is_irreducible(f):
            return f
    raise AssertionError("no irreducible of the requested degree (impossible)")


class FieldCtx:
    """Field context: modulus, lazily built tables, and the arithmetic on indices."""

    __slots__ = (
        "p",
        "n",
        "modulus",
        "order",
        "generator",
        "log_table",
        "antilog_table",
        "_digits",
        "_lanes",
        "_pow_vec",
    )

    def __init__(self, p: int, n: int, modulus: PolyFp | None = None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be at least 1")
        # p >= 2, so n > 48 is above the cap without forming p**n.
        if n > 48 or p**n > ORDER_CAP:
            raise OrderTooLarge(f"{p}**{n} exceeds the cap 2**48")
        order = p**n
        if modulus is not None:
            if modulus.p != p:
                raise NotIrreducible("modulus is over the wrong prime field")
            if modulus.degree != n or modulus.lc != 1 or not is_irreducible(modulus):
                raise NotIrreducible(f"{modulus} is not monic irreducible of degree {n}")
            self.modulus = modulus
        self.p = p
        self.n = n
        self.order = order
        self._digits = None
        self._lanes = None
        if order > TABLE_CAP:
            self.generator = None
            self.log_table = None
            self.antilog_table = None
            self._pow_vec = None

    def __getattr__(self, name):
        # Reached only for a slot never assigned: the default modulus, and
        # the tables of a field within TABLE_CAP, before their first read.
        if name == "modulus":
            self.modulus = find_irreducible(self.p, self.n)
            return self.modulus
        if name not in _TABLE_SLOTS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_tables()
        return object.__getattribute__(self, name)

    # ---- encoding ----------------------------------------------------

    def _int_of_digits(self, digits) -> int:
        p = self.p
        v = 0
        for c in reversed(digits):
            v = v * p + c
        return v

    def element_from_coeffs(self, coeffs) -> int:
        """Pack polynomial-basis coefficients (c_0, ..., c_(n-1)) into an index."""
        cs = list(coeffs)
        if len(cs) > self.n:
            raise ValueError("too many coefficients")
        cs += [0] * (self.n - len(cs))
        return self._int_of_digits([c % self.p for c in cs])

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        """Unpack an index into its coefficient vector (c_0, ..., c_(n-1))."""
        self._check_element(a)
        return digits_of(a, self.p, self.n)

    def _check_element(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element index of this field")

    # ---- scalar arithmetic --------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check_element(a)
        self._check_element(b)
        p, n = self.p, self.n
        da, db = digits_of(a, p, n), digits_of(b, p, n)
        return self._int_of_digits([(x + y) % p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        self._check_element(a)
        p = self.p
        return self._int_of_digits([-x % p for x in digits_of(a, p, self.n)])

    def _mul_reduce(self, a: int, b: int) -> int:
        """Schoolbook product of coefficient vectors reduced by the modulus.
        Table-free; this is also what builds the tables."""
        p, n = self.p, self.n
        da = digits_of(a, p, n)
        db = digits_of(b, p, n)
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    if cb:
                        prod[i + j] = (prod[i + j] + ca * cb) % p
        tail = self.modulus.coeffs[:n]
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                base = k - n
                for s, ms in enumerate(tail):
                    if ms:
                        prod[base + s] = (prod[base + s] - c * ms) % p
        return self._int_of_digits(prod[:n])

    def mul(self, a: int, b: int) -> int:
        self._check_element(a)
        self._check_element(b)
        if a == 0 or b == 0:
            return 0
        if self.log_table is not None:
            group = self.order - 1
            e = (int(self.log_table[a]) + int(self.log_table[b])) % group
            return int(self.antilog_table[e])
        return self._mul_reduce(a, b)

    def inv(self, a: int) -> int:
        self._check_element(a)
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """a**e for e >= 0, with 0**0 = 1."""
        self._check_element(a)
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 1 if e == 0 else 0
        if self.log_table is not None:
            group = self.order - 1
            return int(self.antilog_table[int(self.log_table[a]) * (e % group) % group])
        return self._pow_reduce(a, e)

    def _pow_reduce(self, a: int, e: int) -> int:
        """Square-and-multiply on _mul_reduce; table-free, so the generator
        search can use it while the tables are being built."""
        result, base = 1, a
        while e:
            if e & 1:
                result = self._mul_reduce(result, base)
            base = self._mul_reduce(base, base)
            e >>= 1
        return result

    def frobenius(self, x: int, j: int) -> int:
        """x**(p**j) for 0 <= j < n; an F_p-linear field automorphism."""
        if not 0 <= j < self.n:
            raise ValueError(f"frobenius power {j} outside [0, {self.n})")
        return self.pow(x, self.p**j)

    def embed_prime(self, i: int) -> int:
        """The constant i of the prime subfield, 0 <= i < p."""
        if not 0 <= i < self.p:
            raise ValueError(f"{i} is not a prime-field element")
        return i

    # ---- tables --------------------------------------------------------

    def _require_tables(self, what: str) -> None:
        """Raise OrderTooLarge for a table read above TABLE_CAP, where only
        the table-free scalar operations work."""
        if self.order > TABLE_CAP:
            raise OrderTooLarge(f"{what} requested for an order above 2**24")

    def _apply_linear(self, a: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """The F_p-linear map with the given (n, n) matrix, applied to the
        digit rows of the index array a; returns packed indices.  Digit
        products sum to at most n * (p - 1)**2 < 2**49 below TABLE_CAP."""
        digits = a[:, None] // self._pow_vec % self.p
        return (digits @ matrix) % self.p @ self._pow_vec

    def _build_tables(self) -> None:
        import numpy as np

        p, n, order = self.p, self.n, self.order
        self._pow_vec = _read_only(np.array([p**s for s in range(n)], dtype=np.int64))
        group = order - 1
        cofactors = [group // q for q in factorint(group)] if group > 1 else []
        start = p if n > 1 else 1
        gen = None
        for cand in range(start, order):
            if all(self._pow_reduce(cand, cf) != 1 for cf in cofactors):
                gen = cand
                break
        if gen is None:
            raise AssertionError("no primitive element found (impossible)")
        # Row s is the digit vector of x**s * g: digits(a) @ mul_g = digits(a * g).
        mul_g = np.array(
            [digits_of(self._mul_reduce(p**s, gen), p, n) for s in range(n)],
            dtype=np.int64,
        )
        antilog = np.empty(group, dtype=np.int64)
        antilog[0] = 1
        k, mul_gk = 1, mul_g
        while k < group:
            # antilog[k:2k] = antilog[:k] * g**k, in bounded chunks.
            size = min(k, group - k)
            for lo in range(0, size, _BUILD_CHUNK):
                hi = min(lo + _BUILD_CHUNK, size)
                antilog[k + lo : k + hi] = self._apply_linear(antilog[lo:hi], mul_gk)
            k += size
            mul_gk = mul_gk @ mul_gk % p
        if self._apply_linear(antilog[-1:], mul_g)[0] != 1:
            raise AssertionError("generator is not primitive (table build bug)")
        log = np.full(order, -1, dtype=np.int64)
        log[antilog] = np.arange(group, dtype=np.int64)
        if (log[1:] < 0).any():
            raise AssertionError("antilog table misses an element (table build bug)")
        self.generator = gen
        self.antilog_table = _read_only(antilog)
        self.log_table = _read_only(log)

    @property
    def digit_table(self) -> np.ndarray:
        """(order, n) array of base-p digits for every element index."""
        if self._digits is None:
            self._require_tables("digit table")
            import numpy as np

            dtype = np.uint8 if self.p <= 256 else np.int64
            ds = np.empty((self.order, self.n), dtype=dtype)
            idx = np.arange(self.order, dtype=np.int64)
            for s in range(self.n):
                ds[:, s] = idx % self.p
                idx = idx // self.p
            self._digits = _read_only(ds)
        return self._digits

    def _lane_tables(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The lane table and the lookup table that reduces groups of its
        lane sums, or None when one lane is wider than _LANE_LOOKUP_BITS."""
        if self._lanes is None:
            self._require_tables("lane table")
            import numpy as np

            p = self.p
            w, k = _lane_layout(p)
            lanes = np.zeros(self.order, dtype=np.int64)
            idx = np.arange(self.order, dtype=np.int64)
            for s in range(self.n):
                lanes |= (idx % p) << (s * w)
                idx //= p
            table = None
            if k * w <= _LANE_LOOKUP_BITS:
                # table[v] = sum_l (lane l of v mod p) * p**l over k lanes
                v = np.arange(1 << (k * w), dtype=np.int64)
                table = np.zeros(v.size, dtype=np.int64)
                for l in range(k):
                    table += ((v >> (l * w)) & ((1 << w) - 1)) % p * p**l
                _read_only(table)
            self._lanes = (_read_only(lanes), table)
        return self._lanes

    @property
    def lane_table(self) -> np.ndarray:
        """(order,) int64 array: digit s of every element index in bits
        [s*w, (s+1)*w), w = bit_length(p(p-1)).  A sum of p entries keeps
        every lane below 2**w, so the digit-vector sum of p elements is one
        integer sum; lanes_to_index reduces it.  Below TABLE_CAP, n*w is at
        most 50 bits, so such sums never reach the int64 sign bit."""
        return self._lane_tables()[0]

    def lanes_to_index(self, sums: np.ndarray) -> np.ndarray:
        """Element indices of lane-packed digit sums: every lane mod p.

        Lanes s0 .. s0 + k - 1 are shifted down, masked, taken mod p by one
        lookup (by % p when a lane is too wide for the table, k = 1) and
        scaled by p**s0.
        """
        p = self.p
        w, k = _lane_layout(p)
        table = self._lane_tables()[1]
        mask = (1 << (k * w)) - 1
        out = None
        for s0 in range(0, self.n, k):
            part = (sums >> (s0 * w)) & mask
            part = table[part] if table is not None else part % p
            if out is None:
                out = part
            else:
                out += part * p**s0
        return out

    # ---- vectorized helpers ---------------------------------------------

    def add_array(self, a, b):
        """Elementwise field addition of index arrays (or array + scalar)."""
        import numpy as np

        d = self.digit_table
        s = d[a].astype(np.int64) + d[b]
        return (s % self.p) @ (self.p ** np.arange(self.n, dtype=np.int64))

    def mul_array(self, a, b):
        """Elementwise field multiplication of index arrays via log tables."""
        self._require_tables("log table")
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        group = self.order - 1
        e = (self.log_table[a[nz]] + self.log_table[b[nz]]) % group
        out[nz] = self.antilog_table[e]
        return out

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={self.modulus})"


_shared: dict[tuple[int, int], FieldCtx] = {}


def make_field(p: int, n: int, modulus: PolyFp | None = None) -> FieldCtx:
    """A field context; the modulus defaults to the canonical one.

    With the default modulus, int arguments and p**n <= SOFT_ORDER_BUDGET,
    every call returns the same shared context, so its tables are built
    once per interpreter.  Otherwise each call builds a new context.
    Invalid arguments raise on every call: a context is stored only once
    it is built.
    """
    if modulus is not None or type(p) is not int or type(n) is not int:
        return FieldCtx(p, n, modulus)
    ctx = _shared.get((p, n))
    if ctx is None:
        ctx = FieldCtx(p, n)
        if ctx.order <= SOFT_ORDER_BUDGET:
            # setdefault: when two threads race, both get the one stored.
            ctx = _shared.setdefault((p, n), ctx)
    return ctx
