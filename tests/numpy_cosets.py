"""Reference enumeration of coset representatives for the tests.

It tests every exponent by rotation in numpy, so it shares no code with
the necklace walk of monomial.coset_reps, which never visits all p**n
exponents.
"""

import numpy as np

_SCAN_CHUNK = 1 << 15  # exponents per numpy pass; bounds the temporaries


def coset_reps(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cyclotomic-coset representative in [1, p**n - 1), ascending,
    and the p-weight of each, as two int64 arrays.

    Multiplying by p modulo p**n - 1 rotates the n-digit base-p vector of
    an exponent, so d is a representative exactly when no rotation of its
    digits is smaller.  Exponents are tested in numpy chunks.
    """
    modulus = p**n - 1
    top = p ** (n - 1)
    reps = [np.zeros(0, dtype=np.int64)]
    weights = [np.zeros(0, dtype=np.int64)]
    for lo in range(1, modulus, _SCAN_CHUNK):
        d = np.arange(lo, min(lo + _SCAN_CHUNK, modulus), dtype=np.int64)
        is_rep = np.ones(d.size, dtype=bool)
        cur = d
        for _ in range(n - 1):
            cur = cur % top * p + cur // top
            is_rep &= d <= cur
        rep = d[is_rep]
        weight = np.zeros(rep.size, dtype=np.int64)
        rest = rep
        for _ in range(n):
            weight += rest % p
            rest = rest // p
        reps.append(rep)
        weights.append(weight)
    return np.concatenate(reps), np.concatenate(weights)
