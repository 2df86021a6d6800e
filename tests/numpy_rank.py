"""Reference rank over F_p for the tests.

This is gapnkit's earlier numpy elimination, kept as an oracle: it works
on whole int64 rows with numpy calls and shares no code with
monomial.rank_mod_p, which eliminates over Python int lists.
"""

import numpy as np


def rank_mod_p(matrix, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        i = r + int(pivots[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = np.nonzero(a[r + 1 :, c])[0] + r + 1
        if below.size:
            a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r
