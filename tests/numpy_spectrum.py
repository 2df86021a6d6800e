"""Reference spectra for the tests.

This is the count-matrix kernel that gapn's per-row multiplicity
replaced.  Every batch of directions is counted into a (B, p**n) matrix,
one bin per (direction, b), and the spectrum, each direction's largest
count and the witness b are read off that matrix.  It shares the
derivative pass (gapn._derivative_values and gapn._direction_lanes) with
gapn, so it checks how the row sums are counted, not how they are made.
"""

import numpy as np

from gapnkit import gapn

_BATCH_ELEMENTS = 1 << 14  # values gathered per batch, whatever gapn's batch is


def row_counts(ctx, sums: np.ndarray) -> np.ndarray:
    """(B, p**n) array: how many rows of each direction sum to each b."""
    order = ctx.order
    size = sums.size * ctx.p // order
    if size > 1:  # direction j counts into bins [j * order, (j + 1) * order)
        sums = (sums.reshape(size, -1) + np.arange(0, size * order, order)[:, None]).ravel()
    counts = np.bincount(sums, minlength=size * order).reshape(size, order)
    if (counts.sum(axis=1) * ctx.p != order).any():
        raise AssertionError("direction counts must sum to p**n")
    return counts


def spectrum(f) -> dict:
    """differential_spectrum(f).to_dict(), from count matrices."""
    ctx = f.ctx
    order, p = ctx.order, ctx.p
    m = (order - 1) // (p - 1)
    lanes, index = gapn._direction_lanes(ctx, f.values)
    batch = max(1, _BATCH_ELEMENTS // order)
    base = index + np.arange(batch, dtype=np.int64)[:, None]
    hist = np.zeros(order // p + 1, dtype=np.int64)
    max_rows = 0
    offending = []
    for t0 in range(0, m, batch):
        size = min(batch, m - t0)
        counts = row_counts(ctx, gapn._derivative_values(ctx, lanes[t0:], base[:size]))
        tops = counts.max(axis=1)
        bad = np.flatnonzero(tops > 1)
        hist_b = np.bincount(counts.ravel())
        hist[: hist_b.size] += hist_b
        max_rows = max(max_rows, int(tops.max()))
        offending.append(t0 + bad)
    witness = None
    ts = np.concatenate(offending)
    if ts.size:
        members = ts[:, None] + m * np.arange(p - 1, dtype=np.int64)
        smallest = ctx.antilog_table[members].min(axis=1)
        j = int(smallest.argmin())
        counts = row_counts(ctx, gapn._derivative_values(ctx, lanes[int(ts[j]) :], index[None, :]))
        witness = [int(smallest[j]), int(counts.argmax())]
    return {
        "is_gapn": max_rows <= 1,
        "max_count": max_rows * p,
        "spectrum": [[int(k) * p, int(hist[k]) * (p - 1)] for k in np.nonzero(hist)[0]],
        "witness": witness,
        "deciders_agreed": ["brute-force"],
        "partial": False,
    }


def monomial_spectrum(ctx, d: int) -> dict:
    """monomial_gapn_fast(ctx, d).to_dict(), from direction 1's count row."""
    order, p = ctx.order, ctx.p
    values = gapn.monomial_table(ctx, d).values
    counts = row_counts(ctx, gapn._derivative_values(ctx, ctx.lane_table, values[None, :]))[0]
    top = int(counts.max()) * p
    hist = np.bincount(counts)
    return {
        "is_gapn": top <= p,
        "max_count": top,
        "spectrum": [[int(k) * p, int(hist[k]) * (order - 1)] for k in np.nonzero(hist)[0]],
        "witness": [1, int(counts.argmax())] if top > p else None,
        "deciders_agreed": ["monomial-fast"],
        "partial": False,
    }
