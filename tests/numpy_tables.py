"""Reference field tables for the tests.

This is the digit-matrix build that fields.FieldCtx's lane-lookup walk
replaced.  Every element is split into its n base-p digits, and
multiplying by g**k is an (n, n) matrix product on those digit rows, so
the walk costs order * n**2.  The lane table is packed one digit at a
time over every element.  Of FieldCtx it uses only the scalar
operations pow and mul, which are polynomial arithmetic and read no
table.
"""

import numpy as np

from gapnkit.fields import _LANE_LOOKUP_BITS
from gapnkit.monomial import digits_of
from gapnkit.numtheory import factorint

_CHUNK = 1 << 15  # rows per block product; bounds the temporaries


def generator(ctx) -> int:
    """The first primitive element, counting from x (from 1 when n = 1)."""
    group = ctx.order - 1
    cofactors = [group // q for q in factorint(group)] if group > 1 else []
    for cand in range(ctx.p if ctx.n > 1 else 1, ctx.order):
        if all(ctx.pow(cand, cf) != 1 for cf in cofactors):
            return cand
    raise AssertionError("no primitive element found")


def log_tables(ctx) -> tuple[int, np.ndarray, np.ndarray]:
    """(generator, log, antilog): antilog[e] = g**e for e < order - 1,
    log its inverse with log[0] = -1, walked by doubling with digit
    matrices."""
    p, n, order = ctx.p, ctx.n, ctx.order
    pow_vec = np.array([p**s for s in range(n)], dtype=np.int64)

    def apply_linear(a, matrix):
        # Digit products sum to at most n * (p - 1)**2 < 2**49 below 2**24.
        digits = a[:, None] // pow_vec % p
        return (digits @ matrix) % p @ pow_vec

    gen = generator(ctx)
    # Row s is the digit vector of x**s * g: digits(a) @ mul_g = digits(a * g).
    mul_g = np.array([digits_of(ctx.mul(p**s, gen), p, n) for s in range(n)], dtype=np.int64)
    group = order - 1
    antilog = np.empty(group, dtype=np.int64)
    antilog[0] = 1
    k, mul_gk = 1, mul_g
    while k < group:
        size = min(k, group - k)
        for lo in range(0, size, _CHUNK):
            hi = min(lo + _CHUNK, size)
            antilog[k + lo : k + hi] = apply_linear(antilog[lo:hi], mul_gk)
        k += size
        mul_gk = mul_gk @ mul_gk % p
    assert apply_linear(antilog[-1:], mul_g)[0] == 1
    log = np.full(order, -1, dtype=np.int64)
    log[antilog] = np.arange(group, dtype=np.int64)
    assert (log[1:] >= 0).all()
    return gen, log, antilog


def lane_tables(ctx) -> tuple[np.ndarray, np.ndarray | None]:
    """(lanes, lookup): digit s of every element in bits [s*w, (s+1)*w),
    packed in n passes over all elements, and the table that takes k
    lanes mod p at once, or None when k * w exceeds the lookup width."""
    p, n = ctx.p, ctx.n
    w = (p * (p - 1)).bit_length()
    k = max(1, _LANE_LOOKUP_BITS // w)
    lanes = np.zeros(ctx.order, dtype=np.int64)
    idx = np.arange(ctx.order, dtype=np.int64)
    for s in range(n):
        lanes |= (idx % p) << (s * w)
        idx //= p
    if k * w > _LANE_LOOKUP_BITS:
        return lanes, None
    mask = (1 << w) - 1
    lookup = [sum((v >> (l * w) & mask) % p * p**l for l in range(k)) for v in range(1 << (k * w))]
    return lanes, np.array(lookup, dtype=np.int64)
