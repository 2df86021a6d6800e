"""Ground-truth GAPN testing on explicit value tables.

For a function f on F_(p^n) and a direction a != 0, the derivative sum is

    S_a f(x) = f(x) + f(x + a) + f(x + 2a) + ... + f(x + (p-1)a),

and f is GAPN when no value of any S_a is hit more than p times.  The
count p itself is always reached: the summand set {x + i*a} is invariant
under x -> x + a, so solutions come in blocks of p.

One kernel computes every derivative sum: S_1 is a row sum over the
packed indices, and S_a f(a*z) = S_1 g(z) with g(z) = f(a*z) reduces any
direction to it.  These exact facts make it cheap:

- Projective directions.  S_(c*a) f = S_a f for every c in F_p^*, because
  i -> c*i permutes F_p, so a full spectrum needs only the
  M = (p**n - 1)/(p - 1) directions g**t, 0 <= t < M, each standing for
  p - 1 directions.
- Frobenius orbits.  phi(x) = x**p fixes F_p, so when f commutes with phi,
  as every power map does, S_phi(a) f(phi(x)) = phi(S_a f(x)): directions
  a and a**p have one count multiset.  phi maps class t to class
  t * p mod M, so such a table needs only the smallest class of each
  orbit of t -> t * p mod M, about M / n classes.  Each class t has a
  weight, the number of classes it stands for: the orbit's size at an
  orbit's smallest class and 0 at the others, or 1 at every class of a
  table without the symmetry.
- Batching.  The classes of nonzero weight are computed in batches of at
  most 2**14 values; the tables z -> f(g**t * z) of a batch are one
  gather from f in log order, a shifted one when every class is computed.
- Lane packing.  Every value is gathered as its digits packed into one
  int64 (FieldCtx.lane_table), with lanes wide enough that a digit sum of
  p values cannot carry, so a row's digit-vector sum is p - 1 integer
  adds; a small lookup table then reduces the lanes mod p, a few at a
  time.
- Per-row counting.  A direction has p**(n-1) row sums but p**n values b,
  so the counts are kept per row: one bincount over the batch, with
  direction j's sums keyed as sum + j * p**n, gives each row's
  multiplicity, the number of rows of its direction with the same sum.
  A value hit by k rows has k * p solutions and is counted by k rows, so
  the spectrum, each direction's largest count and the witness b all
  come from the multiplicities.  The keys stay apart only while every row
  sum is an element index in [0, p**n); every batch checks that with an
  explicit raise, so the check holds under python -O too.

For a power map f(x) = x**d, S_a f(x) = a**d * S_1 f(x / a):
b -> a**d * b is a bijection, so every direction's count multiset equals
direction 1's and monomial_gapn_fast is exact from that one direction, a
batch holding a = 1 alone.

When only the verdict is wanted, monomial_gapn_verdict tries two exact
certificates of non-GAPN before the full pass.  First the subfields: for
m | n with 1 < m < n, F_(p^m) lies inside F_(p^n), and with x and a in it
every point x + i*a is too, so a count above p for y -> y**r on F_(p^m),
r = d mod (p**m - 1), is one for x**d as well.  Then the collision: it
sums a fixed sample of about 4 * sqrt(p**n) rows of S_1, and two rows
with one sum already give a count of at least 2p.  For a random-looking
map that collision is all but certain, so the full pass runs only for
the GAPN exponents and a few others.  Both certificates read one state
per field context, built once by prepare_verdicts and kept as long as the
context: the subfield verdicts and the logs of the sampled rows, so a
candidate's sampled values are one antilog gather.
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, NamedTuple

from .errors import WrongWeight, ZeroDirection
from .fields import FieldCtx, make_field
from .monomial import digits_of, rank_mod_p
from .polyfp import PolyFp, x_pow_mod

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np


class FnTable:
    """A function on the field as a value table indexed by element index,
    stored as a read-only int64 array of element indices; values of any
    other kind than integer raise ValueError.

    A table is sealed: assigning ctx or values raises AttributeError, and
    the array cannot be written.  A caller's int64 array that owns its
    data is kept without a copy, so it becomes read-only too; any other
    input, a view included, is copied first.  Two tables are equal when
    their fields have the same (p, n, modulus) and their values are equal;
    a table is unhashable.
    """

    __slots__ = ("ctx", "values")

    def __init__(self, ctx: FieldCtx, values: np.ndarray):
        import numpy as np

        vals = np.asarray(values)
        if vals.dtype.kind not in "iu":  # a cast would truncate floats and read bools as 0 and 1
            raise ValueError(f"value table must hold integers, not {vals.dtype}")
        vals = vals.astype(np.int64, copy=False)
        if not vals.flags.owndata:
            vals = vals.copy()  # a view could still be written through its base
        if vals.shape != (ctx.order,):
            raise ValueError(f"value table must have length {ctx.order}")
        if vals.size and (vals.min() < 0 or vals.max() >= ctx.order):
            raise ValueError("value table contains non-element entries")
        vals.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: an FnTable is read-only")

    def __reduce__(self):
        return FnTable, (self.ctx, self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        import numpy as np

        a, b = self.ctx, other.ctx
        return (a.p, a.n, a.modulus) == (b.p, b.n, b.modulus) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ctx={self.ctx!r}, values={self.values!r})"


class GapnReport(NamedTuple):
    """Differential behaviour of one function.

    spectrum maps a solution count c to the number of (direction, value)
    pairs attaining it, covering all (p**n - 1) * p**n pairs.  witness is
    one (a, b) with more than p solutions, when any exists.
    deciders_agreed names the deciders that agreed on is_gapn, () when
    not given.  partial is False for every report, since every spectrum
    is complete; it stays because every document carries it.
    """

    is_gapn: bool
    max_count: int
    spectrum: dict[int, int]
    witness: tuple[int, int] | None
    deciders_agreed: Sequence[str] = ()
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


_BATCH_ELEMENTS = 1 << 14  # values gathered per kernel call; bounds the temporaries


def _derivative_values(ctx: FieldCtx, lanes: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row sums of one batch of directions, as element indices.

    lanes holds lane-packed values (FieldCtx.lane_table), and row j of the
    (B, p**n) array index locates f(a_j * z) in lanes for every z.  Adding
    a constant i of F_p changes only digit 0 of a packed index, so
    {z + i : i in F_p} is row z // p of a (p**(n-1), p) reshape, and
    S_a f(a * z) is the digit-vector sum of that row of z -> f(a * z).
    Lanes never carry, so that sum is p - 1 integer adds; returns the
    (B * p**(n-1),) row sums, direction-major.  Any index whose size is a
    multiple of p works the same way: every p consecutive entries are
    one row.
    """
    p = ctx.p
    rows = lanes[index].reshape(-1, p)
    sums = rows[:, 0] + rows[:, 1]
    for i in range(2, p):
        sums += rows[:, i]
    return ctx.lanes_to_index(sums)


def _projective_count(ctx: FieldCtx) -> int:
    """M = (p**n - 1)/(p - 1), the number of directions up to F_p^* scaling.
    S_(c*a) f = S_a f for c in F_p^*, since i -> c*i permutes F_p, so g**t
    for 0 <= t < M covers every direction once."""
    return (ctx.order - 1) // (ctx.p - 1)


def _direction_lanes(ctx: FieldCtx, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lanes, index) with lanes[t:][index] = the lane-packed f(g**t * z) in
    element order z, for every 0 <= t < M.

    lanes is f in log order, g**e -> f(g**e), run on past p**n - 1 by M
    entries so that t + log z needs no reduction, then M copies of f(0);
    index is the log table with log 0 pointing at those copies.
    """
    import numpy as np

    group, m = ctx.order - 1, _projective_count(ctx)
    packed = ctx.lane_table[values]
    lanes = np.empty(group + 2 * m, dtype=np.int64)
    lanes[:group] = packed[ctx.antilog_table]
    lanes[group : group + m] = lanes[:m]
    lanes[group + m :] = packed[0]
    index = ctx.log_table.copy()
    index[0] = group + m
    return lanes, index


# Field context -> (the values of x -> x**p, the read-only orbit weights) on
# it, both functions of the field alone; an entry goes with its context.
_frobenius: weakref.WeakKeyDictionary[FieldCtx, tuple[np.ndarray, np.ndarray]] = weakref.WeakKeyDictionary()


def _frobenius_classes(ctx: FieldCtx, values: np.ndarray) -> np.ndarray:
    """weights[t], 0 <= t < M: how many projective classes class t stands
    for in a spectrum, 0 for a class that is not computed.

    The Frobenius map phi(x) = x**p fixes F_p, so when f(phi(x)) = phi(f(x))
    for every x, S_phi(a) f(phi(x)) = phi(S_a f(x)) and directions a and
    a**p have one count multiset.  phi maps class t to class t * p mod M,
    so such a table needs one class per orbit of t -> t * p mod M, its
    smallest member, weighted by the orbit's size; the other members, the
    classes t * p**j mod M, weigh 0.  Any other table, and every table on
    F_p, computes every class with weight 1.  phi fixes exactly F_p, the
    indices below p, so such a table maps F_p into F_p: a test of p entries
    turns most other tables away before phi's table is read.  phi's table
    and the orbit weights are built once per context; the check that a
    table commutes with phi runs on every call.
    """
    import numpy as np

    p, n, m = ctx.p, ctx.n, _projective_count(ctx)
    if n > 1 and values[:p].max() < p:
        state = _frobenius.get(ctx)
        if state is None:
            least = member = np.arange(m, dtype=np.int64)
            for _ in range(n - 1):
                member = member * p % m
                np.minimum(least, member, out=least)
            weights = np.bincount(least, minlength=m)
            weights.setflags(write=False)
            state = _frobenius.setdefault(ctx, (monomial_table(ctx, p).values, weights))
        frob, weights = state
        if (values[frob] == frob[values]).all():
            return weights
    return np.ones(m, dtype=np.int64)


def _row_multiplicity(ctx: FieldCtx, sums: np.ndarray) -> np.ndarray:
    """(B, p**(n-1)) array: how many rows of the same direction share each
    row's sum.  S_a f(x) = b has p times as many solutions as b has rows,
    one per member of a row.

    Each sum is keyed by its direction j as sum + j * p**n, so one bincount
    counts every direction's values apart.  That holds only when every row
    sum is an element index in [0, p**n), which is checked here: a sum
    outside it would be counted with a neighbouring direction's.
    """
    import numpy as np

    order = ctx.order
    if sums.view(np.uint64).max() >= order:  # a negative sum wraps above 2**63
        raise AssertionError("row sums must be element indices in [0, p**n)")
    size = sums.size * ctx.p // order
    keys = sums.reshape(size, -1)
    if size > 1:
        keys = keys + np.arange(0, size * order, order)[:, None]
    return np.bincount(keys.ravel(), minlength=size * order)[keys]


def _spectrum(ctx: FieldCtx, row_hist: np.ndarray, directions: int, scale: int) -> dict[int, int]:
    """The spectrum of `directions` directions, each standing for `scale`,
    from row_hist[k], the number of their rows with multiplicity k >= 2;
    row_hist[1] is not read, since every other row has multiplicity 1.

    A value hit by k rows is counted once by each of them, so row_hist[k] / k
    values have k * p solutions; the other values of the directions * p**n
    (direction, b) pairs have none.
    """
    import numpy as np

    hist = row_hist.copy()
    hist[1] = directions * (ctx.order // ctx.p) - hist[2:].sum()
    hist[2:] //= np.arange(2, hist.size)
    hist[0] = directions * ctx.order - hist[1:].sum()
    return {int(k) * ctx.p: int(hist[k]) * scale for k in np.nonzero(hist)[0]}


def _top_sum(sums: np.ndarray, multiplicity: np.ndarray) -> int:
    """The smallest row sum of one direction hit by the most rows."""
    return int(sums[multiplicity == multiplicity.max()].min())


def gen_derivative(f: FnTable, a: int) -> FnTable:
    """The derivative sum S_a f as a new table; a must be nonzero."""
    import numpy as np

    if a == 0:
        raise ZeroDirection("derivative direction must be nonzero")
    ctx = f.ctx
    ctx._check_element(a)
    at = ctx.mul_array(a, np.arange(ctx.order, dtype=np.int64))  # z -> a*z
    out = np.empty(ctx.order, dtype=np.int64)
    out[at] = np.repeat(_derivative_values(ctx, ctx.lane_table, f.values[at][None, :]), ctx.p)
    return FnTable(ctx, out)


def differential_spectrum(f: FnTable) -> GapnReport:
    """Solution-count statistics of S_a f(x) = b over all directions.

    S_(c*a) f = S_a f for every c in F_p^*, so only the M = (p**n - 1)/(p - 1)
    projective directions g**t are computed, and each one's counts stand
    for its p - 1 multiples.  Each class has a weight, the number of
    classes it stands for (_frobenius_classes): a table that commutes with
    the Frobenius map x -> x**p, as every power map does, computes only
    the smallest class of each orbit of t -> t * p mod M, weighted by the
    orbit's size, and any other table computes every class with weight 1.
    The classes of nonzero weight are computed in batches, counted per
    row: each row's multiplicity is how many rows of its direction share
    its sum, every row counts its class's weight times in the spectrum,
    and a direction's largest count is p times its largest multiplicity.

    The witness is the smallest direction index with a count above p,
    sought over every class that an offending class stands for, and that
    direction's smallest b of maximal count, from its own class's row
    sums, since b moves with x -> x**p along an orbit.  Every row sum must
    be an element index in [0, p**n), which is checked for every batch.
    """
    import numpy as np

    ctx = f.ctx
    order, p = ctx.order, ctx.p
    m = _projective_count(ctx)
    weights = _frobenius_classes(ctx, f.values)
    ts = np.flatnonzero(weights)
    # A computed class stands for the classes t * p**j mod M, j < orbit.
    orbit = int(weights.max())
    lanes, index = _direction_lanes(ctx, f.values)
    batch = min(ts.size, max(1, _BATCH_ELEMENTS // order))
    # Row j of base locates f(g**(t0 + j) * z) in lanes[t0:], for any t0.  Orbit
    # representatives are not consecutive: there base is rewritten for each batch.
    base = index + np.arange(batch, dtype=np.int64)[:, None]
    row_hist = np.zeros(order // p + 1, dtype=np.int64)  # weighted; [1] is left to _spectrum
    max_rows = 1
    offending = []  # t of every computed class with a count above p
    for s0 in range(0, ts.size, batch):
        t = ts[s0 : s0 + batch]
        at = base[: t.size]
        if ts.size == m:  # consecutive classes: base, shifted by t[0]
            source = lanes[int(t[0]) :]
        else:
            source = lanes
            np.add(index, t[:, None], out=at)
        mult = _row_multiplicity(ctx, _derivative_values(ctx, source, at))
        tops = mult.max(axis=1)
        bad = np.flatnonzero(tops > 1)
        if not bad.size:  # every row of multiplicity 1, as in every batch of a GAPN map
            continue
        w = weights[t]
        kinds = set(w.tolist())  # orbit sizes divide n, so a batch holds few
        for weight in kinds:
            group = mult if len(kinds) == 1 else mult[np.flatnonzero(w == weight)]
            counted = np.bincount(group.ravel())
            row_hist[: counted.size] += weight * counted
        max_rows = max(max_rows, int(tops.max()))
        offending.append(t[bad])
    witness = None
    if offending:
        # Class t is {g**(t + k*M) : 0 <= k < p - 1}; the witness direction
        # is the smallest member of any class an offending class stands
        # for, whose own row sums give b.
        classes = (np.concatenate(offending)[:, None] * p ** np.arange(orbit, dtype=np.int64) % m).ravel()
        members = classes[:, None] + m * np.arange(p - 1, dtype=np.int64)
        smallest = ctx.antilog_table[members].min(axis=1)
        j = int(smallest.argmin())
        sums = _derivative_values(ctx, lanes[int(classes[j]) :], index[None, :])
        witness = (int(smallest[j]), _top_sum(sums, _row_multiplicity(ctx, sums)[0]))
    return GapnReport(
        is_gapn=max_rows <= 1,
        max_count=max_rows * p,
        spectrum=_spectrum(ctx, row_hist, m, p - 1),
        witness=witness,
        deciders_agreed=["brute-force"],
    )


def monomial_table(ctx: FieldCtx, d: int) -> FnTable:
    """The table of x -> x**d, with 0**0 = 1, read off the log and antilog
    tables.

    Above fields.TABLE_CAP the first of those reads raises OrderTooLarge,
    before numpy is imported: the field has no tables there, and every
    consumer of a value table needs them too.
    """
    if d < 0:
        raise ValueError("negative exponent")
    log, antilog = ctx.log_table, ctx.antilog_table
    import numpy as np

    group = ctx.order - 1
    values = np.empty(ctx.order, dtype=np.int64)
    values[0] = d == 0  # 0**0 = 1
    values[1:] = antilog[log[1:] * (d % group) % group]
    return FnTable(ctx, values)


def monomial_gapn_fast(ctx: FieldCtx, d: int) -> GapnReport:
    """GAPN verdict for x**d from the a = 1 direction alone.

    Exact because S_a(x**d)(x) = a**d * S_1(x**d)(x / a): every direction's
    count multiset equals direction 1's, so the spectrum is the
    single-direction histogram scaled by the number of directions.  That
    histogram comes from the multiplicities of direction 1's p**(n-1) row
    sums, whose range is checked as in differential_spectrum.
    """
    if d < 1:
        raise ValueError("need an exponent d >= 1")
    return _single_direction(ctx, monomial_table(ctx, d).values)


def _single_direction(ctx: FieldCtx, values: np.ndarray) -> GapnReport:
    """monomial_gapn_fast's report from the values of x**d, d >= 1, for a
    caller that holds them already."""
    import numpy as np

    order, p = ctx.order, ctx.p
    sums = _derivative_values(ctx, ctx.lane_table, values[None, :])
    mult = _row_multiplicity(ctx, sums)[0]
    m = int(mult.max()) * p
    witness = (1, _top_sum(sums, mult)) if m > p else None
    return GapnReport(
        is_gapn=m <= p,
        max_count=m,
        spectrum=_spectrum(ctx, np.bincount(mult), 1, order - 1),
        witness=witness,
        deciders_agreed=["monomial-fast"],
    )


_SAMPLE_SEED = 20170101  # any fixed seed: which rows are drawn never changes a verdict


def _sample_size(p: int, n: int) -> int:
    """K = min(p**(n-1) - 1, ceil(4 * sqrt(p**n))) rows for the collision
    certificate.  A random-looking map of p**n elements shows no repeated
    row sum among K rows with chance about exp(-K**2 / (2 p**n)) = e**-8."""
    order = p**n
    return min(order // p - 1, math.isqrt(16 * order - 1) + 1)


def _subfield_verdicts(p: int, m: int) -> bytes:
    """verdicts[r % (p**m - 1)] = 1 when y -> y**r is GAPN on F_(p^m), for
    1 <= r <= p**m - 1, so entry 0 stands for r = p**m - 1.  The verdict is
    shared by the cyclotomic coset of r, so it is decided once per coset.
    Nothing is kept here: the bytes live in the state that prepare_verdicts
    keeps for the field that contains F_(p^m)."""
    sub = make_field(p, m)
    q = sub.order - 1
    verdicts = [None] * q
    for r in range(1, q + 1):
        e = r % q
        if verdicts[e] is None:
            verdict = monomial_gapn_verdict(sub, r)
            for _ in range(m):
                verdicts[e] = verdict
                e = e * p % q
    return bytes(verdicts)


# Field context -> prepare_verdicts(ctx).  The logs are read against that
# context's own tables, so an entry goes with its context.
_prepared: weakref.WeakKeyDictionary[FieldCtx, tuple] = weakref.WeakKeyDictionary()


def prepare_verdicts(ctx: FieldCtx) -> tuple[tuple[tuple[int, bytes], ...], np.ndarray]:
    """(subfields, logs), what monomial_gapn_verdict reads on this field
    besides its tables, built once per context and kept as long as it; a
    process forked afterwards inherits it with the context, while a pickled
    or copied context builds its own.

    subfields holds (p**m - 1, _subfield_verdicts(p, m)) for every m | n,
    1 < m < n.  F_p is left out: there S_a f is constant, so every map is
    GAPN.  logs holds the read-only logs of K distinct rows
    {z*p + i : i in F_p}, drawn with a fixed seed from 1 <= z < p**(n-1);
    row 0 holds x = 0, which has no log.  The log table is read first, as
    the table gate: above TABLE_CAP nothing is imported or decided.
    """
    log, _ = ctx.log_table, ctx.lane_table
    state = _prepared.get(ctx)
    if state is None:
        import random

        import numpy as np

        p, n = ctx.p, ctx.n
        k = _sample_size(p, n)
        rows = random.Random(_SAMPLE_SEED).sample(range(1, p ** (n - 1)), k)
        logs = log[np.array(rows, dtype=np.int64).reshape(k, 1) * p + np.arange(p, dtype=np.int64)]
        logs.setflags(write=False)
        subfields = tuple((p**m - 1, _subfield_verdicts(p, m)) for m in range(2, n) if n % m == 0)
        state = _prepared.setdefault(ctx, (subfields, logs))
    return state


def monomial_gapn_verdict(ctx: FieldCtx, d: int) -> bool:
    """monomial_gapn_fast(ctx, d).is_gapn, usually without the full pass.

    A non-GAPN verdict for y -> y**r on a proper subfield F_(p^m),
    r = d mod (p**m - 1) (r = 0 standing for p**m - 1), is exact proof
    that x**d is not GAPN: its solutions over F_(p^m) are solutions over
    F_(p^n).  S_1(x**d) is constant on each row {z + i : i in F_p}, so
    two distinct rows with the same row sum give that value at least 2p
    solutions, another exact proof.  Both read prepare_verdicts(ctx): the
    subfield verdicts are looked up first, then the sampled rows' values
    are one antilog gather from their prepared logs and their row sums are
    compared; only when neither proves anything does the full
    single-direction pass decide.
    """
    if d < 1:
        raise ValueError("need an exponent d >= 1")
    subfields, logs = prepare_verdicts(ctx)
    for q, verdicts in subfields:
        if not verdicts[d % q]:
            return False
    group = ctx.order - 1
    values = ctx.antilog_table[logs * (d % group) % group]
    sums = _derivative_values(ctx, ctx.lane_table, values)
    sums.sort()
    if (sums[1:] == sums[:-1]).any():
        return False
    return monomial_gapn_fast(ctx, d).is_gapn


def linearized_kernel_dim(ctx: FieldCtx, d: int) -> int:
    """Kernel dimension over F_p of the derivative-sum map of x**d.

    Needs digit sum exactly p with a nonzero constant digit; the map is
    then (up to sign) L(x) = sum_s a_s * x**(p**s) with digit positions
    taken modulo n, an F_p-linear endomorphism.  GAPN is equivalent to
    kernel dimension 1.  Column t of L's matrix is L(x**t) =
    sum_s a_s * (x**(p**s))**t: each position s mod n with a nonzero digit
    starts from x_pow_mod(p**s) and is raised one step per t, in
    polynomial arithmetic modulo ctx.modulus, so no table is read.
    """
    p, n = ctx.p, ctx.n
    digs = digits_of(d, p)
    w = sum(digs)
    if w != p:
        raise WrongWeight(f"digit sum of {d} is {w}, need exactly {p}")
    if d % p == 0:
        raise WrongWeight(f"{d} is divisible by {p}; normalize first")
    mod = ctx.modulus
    columns = [PolyFp.zero(p)] * n
    for s, a_s in enumerate(digs):
        if a_s:
            step = x_pow_mod(p ** (s % n), mod)
            term = PolyFp(p, (a_s,))
            for t in range(n):
                columns[t] = columns[t] + term
                term = term * step % mod
    images = [col.coeffs + (0,) * (n - len(col.coeffs)) for col in columns]
    # The images are the matrix's columns; a matrix and its transpose have one rank.
    return n - rank_mod_p(images, p)


# ---- import / export -------------------------------------------------------

RAW_DTYPE = "<u8"  # 64-bit little-endian unsigned


def _is_decimal(text: str) -> bool:
    """Whether text is an integer as str() writes it: ASCII digits, no
    leading zero, at most a leading minus.  Every number in a CSV table
    and in a search cache record must be; int() also reads "+8", " 8 ",
    "0_8" and "٣"."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit() and (digits[0] != "0" or text == "0")


def save_table_raw(table: FnTable, path) -> None:
    """Write the value table as packed 64-bit little-endian integers."""
    table.values.astype(RAW_DTYPE).tofile(path)


def load_table_raw(ctx: FieldCtx, path) -> FnTable:
    """Read a save_table_raw file: exactly p**n entries, no stray bytes.
    OrderTooLarge comes before the file is opened."""
    ctx._require_tables("value table")
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    entry = np.dtype(RAW_DTYPE).itemsize
    if len(data) % entry:
        raise ValueError(f"raw table is {len(data)} bytes, not whole {entry}-byte entries")
    vals = np.frombuffer(data, dtype=RAW_DTYPE)
    if vals.size != ctx.order:
        raise ValueError(f"raw table has {vals.size} entries, field needs {ctx.order}")
    return FnTable(ctx, vals.astype(np.int64))


def save_table_csv(table: FnTable, path) -> None:
    """Write rows x,f(x) in decimal with a header line."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f(x)"])
        for x, v in enumerate(table.values):
            writer.writerow([x, int(v)])


def load_table_csv(ctx: FieldCtx, path) -> FnTable:
    """Read rows x,f(x) that give every element exactly once.

    A header row (first field "x") and blank lines are skipped; any other
    row that is not two integers in [0, p**n), written as str() writes
    them, or repeats an x, raises ValueError naming its line.
    OrderTooLarge comes before the file is opened.
    """
    ctx._require_tables("value table")
    import csv

    import numpy as np

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
                if not (_is_decimal(row[0]) and _is_decimal(row[1])):
                    raise ValueError
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
    "monomial_gapn_verdict",
    "monomial_table",
    "save_table_csv",
    "save_table_raw",
]
