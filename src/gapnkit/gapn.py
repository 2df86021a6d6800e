"""Ground-truth GAPN testing on explicit value tables.

For a function f on F_(p^n) and a direction a != 0, the derivative sum is

    S_a f(x) = f(x) + f(x + a) + f(x + 2a) + ... + f(x + (p-1)a),

and f is GAPN when no value of any S_a is hit more than p times.  The
count p itself is always reached: the summand set {x + i*a} is invariant
under x -> x + a, so solutions come in blocks of p.

One kernel computes every derivative sum: S_1 is a row sum over the
packed indices, and S_a f(a*z) = S_1 g(z) with g(z) = f(a*z) reduces any
direction to it.  For a power map f(x) = x**d this gives
S_a f(x) = a**d * S_1 f(x / a): b -> a**d * b is a bijection, so every
direction's count multiset equals direction 1's and monomial_gapn_fast is
exact from that one direction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import WrongWeight, ZeroDirection
from .fields import FieldCtx
from .monomial import digits_of, rank_mod_p


@dataclass
class FnTable:
    """A function on the field as a value table indexed by element index."""

    ctx: FieldCtx
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.shape != (self.ctx.order,):
            raise ValueError(f"value table must have length {self.ctx.order}")
        if vals.size and (vals.min() < 0 or vals.max() >= self.ctx.order):
            raise ValueError("value table contains non-element entries")
        self.values = vals


@dataclass
class GapnReport:
    """Differential behaviour of one function.

    spectrum maps a solution count c to the number of (direction, value)
    pairs attaining it, covering all (p**n - 1) * p**n pairs when complete;
    partial marks a verdict-mode run that stopped at the first offending
    direction.  witness is one (a, b) with more than p solutions, when any
    exists and was seen.
    """

    is_gapn: bool
    max_count: int
    spectrum: dict[int, int]
    witness: tuple[int, int] | None
    deciders_agreed: list[str] = field(default_factory=list)
    partial: bool = False

    def to_dict(self) -> dict:
        return {
            "is_gapn": self.is_gapn,
            "max_count": self.max_count,
            "spectrum": [[c, self.spectrum[c]] for c in sorted(self.spectrum)],
            "witness": list(self.witness) if self.witness else None,
            "deciders_agreed": list(self.deciders_agreed),
            "partial": self.partial,
        }


def _derivative_values(ctx: FieldCtx, values: np.ndarray, a: int) -> np.ndarray:
    """Row sums r with S_a f(a*z) = r[z // p] for every element z.

    Adding a constant i of F_p changes only digit 0 of a packed index, so
    {z + i : i in F_p} is row z // p of a (p**(n-1), p) reshape and S_1 g is
    that row's digit-vector sum mod p.  Any direction reduces to a = 1
    through g(z) = f(a*z), one gather: S_a f(a*z) = S_1 g(z).  Digit sums
    stay below p**2, so one reduction mod p is enough.
    """
    if a != 1:
        values = values[ctx.mul_array(a, np.arange(ctx.order, dtype=np.int64))]
    rows = ctx.digit_table[values].reshape(ctx.order // ctx.p, ctx.p, ctx.n)
    return rows.sum(axis=1, dtype=np.int64) % ctx.p @ ctx._pow_vec


def gen_derivative(f: FnTable, a: int) -> FnTable:
    """The derivative sum S_a f as a new table; a must be nonzero."""
    if a == 0:
        raise ZeroDirection("derivative direction must be nonzero")
    ctx = f.ctx
    ctx._check_element(a)
    out = np.empty(ctx.order, dtype=np.int64)
    out[ctx.mul_array(a, np.arange(ctx.order, dtype=np.int64))] = np.repeat(
        _derivative_values(ctx, f.values, a), ctx.p
    )
    return FnTable(ctx, out)


def _direction_counts(ctx: FieldCtx, values: np.ndarray, a: int) -> np.ndarray:
    """Solution counts of S_a f(x) = b for every b; each row value of the
    kernel is hit once per member of its row."""
    counts = ctx.p * np.bincount(_derivative_values(ctx, values, a), minlength=ctx.order)
    if int(counts.sum()) != ctx.order:
        raise AssertionError("direction counts must sum to p**n")
    return counts


def differential_spectrum(f: FnTable, mode: str = "full") -> GapnReport:
    """Solution-count statistics of S_a f(x) = b over all directions.

    mode "verdict" may stop at the first direction with a count above p
    (the report is then flagged partial); mode "full" always aggregates
    every direction.  Each direction's counts must sum to p**n, which is
    checked as the buckets are folded in.
    """
    if mode not in ("full", "verdict"):
        raise ValueError(f"unknown mode {mode!r}")
    ctx = f.ctx
    order, p = ctx.order, ctx.p
    hist = np.zeros(order + 1, dtype=np.int64)
    max_count = 0
    witness = None
    partial = False
    for a in range(1, order):
        counts = _direction_counts(ctx, f.values, a)
        m = int(counts.max())
        if m > max_count:
            max_count = m
            if m > p and witness is None:
                witness = (a, int(counts.argmax()))
        hist_a = np.bincount(counts)
        hist[: hist_a.size] += hist_a
        if mode == "verdict" and m > p:
            partial = a < order - 1
            break
    spectrum = {int(c): int(hist[c]) for c in np.nonzero(hist)[0]}
    return GapnReport(
        is_gapn=max_count <= p,
        max_count=max_count,
        spectrum=spectrum,
        witness=witness,
        deciders_agreed=["brute-force"],
        partial=partial,
    )


def monomial_table(ctx: FieldCtx, d: int) -> FnTable:
    """The table of x -> x**d, with 0**0 = 1."""
    if d < 0:
        raise ValueError("negative exponent")
    if d == 0:
        return FnTable(ctx, np.ones(ctx.order, dtype=np.int64))
    if ctx.log_table is not None:
        group = ctx.order - 1
        values = np.zeros(ctx.order, dtype=np.int64)
        e = ctx.log_table[1:] * (d % group) % group
        values[1:] = ctx.antilog_table[e]
        return FnTable(ctx, values)
    return FnTable(ctx, np.array([ctx.pow(x, d) for x in range(ctx.order)], dtype=np.int64))


def monomial_gapn_fast(ctx: FieldCtx, d: int) -> GapnReport:
    """GAPN verdict for x**d from the a = 1 direction alone.

    Exact because S_a(x**d)(x) = a**d * S_1(x**d)(x / a): every direction's
    count multiset equals direction 1's, so the spectrum is the
    single-direction histogram scaled by the number of directions.
    """
    if d < 1:
        raise ValueError("need an exponent d >= 1")
    order, p = ctx.order, ctx.p
    counts = _direction_counts(ctx, monomial_table(ctx, d).values, 1)
    m = int(counts.max())
    hist = np.bincount(counts)
    spectrum = {int(c): int(hist[c]) * (order - 1) for c in np.nonzero(hist)[0]}
    witness = (1, int(counts.argmax())) if m > p else None
    return GapnReport(
        is_gapn=m <= p,
        max_count=m,
        spectrum=spectrum,
        witness=witness,
        deciders_agreed=["monomial-fast"],
        partial=False,
    )


def linearized_kernel_dim(ctx: FieldCtx, d: int) -> int:
    """Kernel dimension over F_p of the derivative-sum map of x**d.

    Needs digit sum exactly p with a nonzero constant digit; the map is
    then (up to sign) x -> sum_s a_s * x**(p**s) with digit positions taken
    modulo n, an F_p-linear endomorphism.  GAPN is equivalent to kernel
    dimension 1.
    """
    p, n = ctx.p, ctx.n
    digs = digits_of(d, p)
    w = sum(digs)
    if w != p:
        raise WrongWeight(f"digit sum of {d} is {w}, need exactly {p}")
    if d % p == 0:
        raise WrongWeight(f"{d} is divisible by {p}; normalize first")
    columns = []
    for t in range(n):
        basis_el = p**t
        y = 0
        for s, a_s in enumerate(digs):
            if a_s:
                y = ctx.add(y, ctx.mul(ctx.embed_prime(a_s), ctx.frobenius(basis_el, s % n)))
        columns.append(ctx.coeffs_of(y))
    matrix = np.array(columns, dtype=np.int64).T
    return n - rank_mod_p(matrix, p)


# ---- import / export -------------------------------------------------------

RAW_DTYPE = "<u8"  # 64-bit little-endian unsigned


def save_table_raw(table: FnTable, path) -> None:
    """Write the value table as packed 64-bit little-endian integers."""
    table.values.astype(RAW_DTYPE).tofile(path)


def load_table_raw(ctx: FieldCtx, path) -> FnTable:
    vals = np.fromfile(path, dtype=RAW_DTYPE)
    if vals.shape != (ctx.order,):
        raise ValueError(f"raw table has {vals.size} entries, field needs {ctx.order}")
    return FnTable(ctx, vals.astype(np.int64))


def save_table_csv(table: FnTable, path) -> None:
    """Write rows x,f(x) in decimal with a header line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f(x)"])
        for x, v in enumerate(table.values):
            writer.writerow([x, int(v)])


def load_table_csv(ctx: FieldCtx, path) -> FnTable:
    """Read rows x,f(x) that give every element exactly once.

    A header row (first field "x") and blank lines are skipped; any other
    row that is not two integers in [0, p**n), or repeats an x, raises
    ValueError naming its line.
    """
    values = np.full(ctx.order, -1, dtype=np.int64)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip() == "x":
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != 2:
                raise ValueError(f"{where}: expected two fields x,f(x), got {len(row)}")
            try:
                x, v = int(row[0]), int(row[1])
            except ValueError:
                raise ValueError(f"{where}: non-integer field in {','.join(row)!r}") from None
            for name, val in (("x", x), ("f(x)", v)):
                if not 0 <= val < ctx.order:
                    raise ValueError(f"{where}: {name} = {val} outside [0, {ctx.order})")
            if values[x] >= 0:
                raise ValueError(f"{where}: duplicate x = {x}")
            values[x] = v
    if (values < 0).any():
        raise ValueError("CSV table does not cover every element")
    return FnTable(ctx, values)


__all__ = [
    "FnTable",
    "GapnReport",
    "differential_spectrum",
    "gen_derivative",
    "linearized_kernel_dim",
    "load_table_csv",
    "load_table_raw",
    "monomial_gapn_fast",
    "monomial_table",
    "save_table_csv",
    "save_table_raw",
]
