"""Integer helpers: primality testing, factorization, and a prime generator.

Everything here targets desk-scale inputs (below 2**64 or so).  Factorization
runs trial division for small factors and Brent's cycle-finding variant of
Pollard rho for whatever survives.
"""

from __future__ import annotations

import math
from itertools import count

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10_000

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = ((n - 1) & -(n - 1)).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Some nontrivial factor of an odd composite n (Brent's variant).

    The polynomial increments form a deterministic retry schedule, so repeated
    runs factor the same integer the same way.
    """
    for c in count(1):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("unreachable")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for q in (2, 3, 5):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f, i = 7, 0
    while f * f <= n and f <= _TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += _WHEEL[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def primes():
    """Yield the primes 2, 3, 5, ... indefinitely."""
    yield 2
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2
