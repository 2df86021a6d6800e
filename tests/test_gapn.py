import copy
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapnkit import (
    FieldCtx,
    FnTable,
    OrderTooLarge,
    WrongWeight,
    ZeroDirection,
    differential_spectrum,
    gen_derivative,
    linearized_kernel_dim,
    PolyFp,
    make_field,
    monomial_gapn_fast,
    monomial_table,
)
from gapnkit import gapn
from gapnkit.gapn import (
    _is_decimal,
    load_table_csv,
    load_table_raw,
    monomial_gapn_verdict,
    save_table_csv,
    save_table_raw,
)
from gapnkit.monomial import coset_rep, digits_of, p_weight
from gapnkit.numtheory import is_prime
from gapnkit.polyfp import is_irreducible

import numpy_kernel
import numpy_spectrum


class TestFnTable:
    def test_length_checked(self, field):
        ctx = field(3, 2)
        with pytest.raises(ValueError):
            FnTable(ctx, np.zeros(8, dtype=np.int64))

    def test_range_checked(self, field):
        ctx = field(3, 2)
        values = np.zeros(9, dtype=np.int64)
        values[4] = 9
        with pytest.raises(ValueError):
            FnTable(ctx, values)


class TestGenDerivative:
    def test_zero_direction_rejected(self, field):
        ctx = field(3, 2)
        with pytest.raises(ZeroDirection):
            gen_derivative(monomial_table(ctx, 5), 0)

    def test_linear_function_derivative_vanishes(self, field):
        ctx = field(3, 2)
        ident = monomial_table(ctx, 1)
        for a in range(1, ctx.order):
            assert not gen_derivative(ident, a).values.any()

    def test_p2_classical_derivative(self, field):
        # every direction against the scalar definition sum_i f(x + i*a),
        # for x^3 and a seeded non-monomial table; p = 2 is the classical
        # derivative f(x) + f(x + a)
        rng = np.random.default_rng(3)
        for p, n in [(2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
            ctx = field(p, n)
            tables = [monomial_table(ctx, 3), FnTable(ctx, rng.integers(0, ctx.order, ctx.order))]
            for f in tables:
                for a in range(1, ctx.order):
                    d = gen_derivative(f, a)
                    steps = [ctx.mul(i, a) for i in range(p)]
                    for x in range(ctx.order):
                        expected = 0
                        for step in steps:
                            expected = ctx.add(expected, int(f.values[ctx.add(x, step)]))
                        assert d.values[x] == expected, (p, n, a, x)

    def test_x5_on_f9_direction_one(self, field):
        # the derivative sum of x^5 along a = 1 is the linear map
        # x + 2x^3 (not 2x + x^3: the sum over i of (x+i)^5 picks up an
        # overall minus sign in odd characteristic)
        ctx = field(3, 2)
        derived = gen_derivative(monomial_table(ctx, 5), 1)
        for x in range(ctx.order):
            expected = ctx.add(x, ctx.mul(2, ctx.frobenius(x, 1)))
            assert derived.values[x] == expected
        # and x -> 2x + x^3 is its negative, not the map itself
        x = 3
        wrong = ctx.add(ctx.mul(2, x), ctx.frobenius(x, 1))
        assert derived.values[x] == ctx.neg(wrong) != wrong

    @pytest.mark.parametrize("d", [5, 7, 13])
    def test_weight_p_derivative_is_linearized_digit_sum(self, field, d):
        # for weight-p exponents, the a=1 derivative sum equals
        # x -> -(sum_s d_s x^(p^s)) as a full table
        ctx = field(3, 3)
        derived = gen_derivative(monomial_table(ctx, d), 1)
        digs = digits_of(d, 3)
        for x in range(ctx.order):
            acc = 0
            for s, ds in enumerate(digs):
                term = ctx.mul(ds % 3, ctx.frobenius(x, s % 3)) if ds else 0
                acc = ctx.add(acc, term)
            assert derived.values[x] == ctx.neg(acc)

    def test_direction_scaling_invariance(self, field):
        # D_a f_d(x) = a^d * D_1 f_d(x / a) for monomials
        ctx = field(3, 2)
        d = 5
        f = monomial_table(ctx, d)
        base = gen_derivative(f, 1)
        for a in range(1, ctx.order):
            derived = gen_derivative(f, a)
            scale = ctx.pow(a, d)
            for x in range(ctx.order):
                expected = ctx.mul(scale, int(base.values[ctx.mul(x, ctx.inv(a))]))
                assert derived.values[x] == expected


class TestDifferentialSpectrum:
    def test_x5_on_f9(self, field):
        report = differential_spectrum(monomial_table(field(3, 2), 5))
        assert report.is_gapn
        assert report.max_count == 3
        assert report.spectrum == {0: 48, 3: 24}
        assert report.witness is None
        assert not report.partial

    def test_x5_on_f9_per_direction_distribution(self, field):
        ctx = field(3, 2)
        f = monomial_table(ctx, 5)
        for a in range(1, ctx.order):
            counts = np.bincount(gen_derivative(f, a).values, minlength=ctx.order)
            assert sorted(counts.tolist()) == [0] * 6 + [3] * 3

    @pytest.mark.parametrize("n", [2, 3])
    def test_square_is_not_gapn(self, field, n):
        report = differential_spectrum(monomial_table(field(3, n), 2))
        assert not report.is_gapn
        assert report.max_count >= 2 * 3
        assert report.witness is not None

    def test_constant_function(self, field):
        ctx = field(3, 2)
        report = differential_spectrum(FnTable(ctx, np.full(ctx.order, 4)))
        assert report.max_count == ctx.order
        assert not report.is_gapn

    def test_pair_totals(self, field):
        ctx = field(3, 3)
        for d in (1, 2, 5, 13, 25):
            spectrum = differential_spectrum(monomial_table(ctx, d)).spectrum
            pairs = sum(spectrum.values())
            slots = sum(c * m for c, m in spectrum.items())
            assert pairs == (ctx.order - 1) * ctx.order
            assert slots == (ctx.order - 1) * ctx.order

    def test_is_gapn_iff_max_count_le_p(self, field):
        ctx = field(3, 3)
        for d in range(1, ctx.order - 1):
            report = differential_spectrum(monomial_table(ctx, d))
            assert report.is_gapn == (report.max_count <= 3)

    def test_non_gapn_report_is_complete(self, field):
        # x -> x^2 offends at the first projective class already: its report
        # still covers every direction, the same as the per-direction loop.
        ctx = field(3, 3)
        f = monomial_table(ctx, 2)
        report = differential_spectrum(f)
        assert not report.is_gapn
        assert not report.partial
        assert sum(report.spectrum.values()) == (ctx.order - 1) * ctx.order
        assert (report.spectrum, report.max_count, report.witness) == _reference_spectrum(f)

    def test_d13_on_f27_regression(self, field):
        # weight-3 exponent whose digit polynomial is (x-1)^2; the map
        # x -> x^13 has derivative sum equal to the trace, so each value of
        # the trace is hit 9 times and the function is not GAPN even though
        # the only root of the digit polynomial is 1
        report = differential_spectrum(monomial_table(field(3, 3), 13))
        assert not report.is_gapn
        assert report.max_count == 9
        # 26 directions, each hitting the 3 trace values 9 times apiece
        assert report.spectrum == {0: 624, 9: 78}


def _reference_spectrum(f):
    """The former per-direction loop, kept as the reference for the batched
    kernel: for every direction a, gather z -> f(a*z), sum the digit
    vectors of each row of p consecutive indices (z and z + i share a row)
    and count each row sum p times."""
    ctx = f.ctx
    order, p = ctx.order, ctx.p
    pow_vec = p ** np.arange(ctx.n, dtype=np.int64)
    digits = np.arange(order, dtype=np.int64)[:, None] // pow_vec % p
    hist = np.zeros(order + 1, dtype=np.int64)
    max_count, witness = 0, None
    for a in range(1, order):
        values = f.values[ctx.mul_array(a, np.arange(order, dtype=np.int64))]
        rows = digits[values].reshape(order // p, p, ctx.n)
        sums = rows.sum(axis=1, dtype=np.int64) % p @ pow_vec
        counts = p * np.bincount(sums, minlength=order)
        assert counts.sum() == order
        m = int(counts.max())
        if m > max_count:
            max_count = m
            if m > p and witness is None:
                witness = (a, int(counts.argmax()))
        hist_a = np.bincount(counts)
        hist[: hist_a.size] += hist_a
    spectrum = {int(c): int(hist[c]) for c in np.nonzero(hist)[0]}
    return spectrum, max_count, witness


def _scalar_derivative(ctx, f, a, x):
    """sum over i in F_p of f(x + i*a), by scalar field arithmetic."""
    total = 0
    for i in range(ctx.p):
        total = ctx.add(total, int(f.values[ctx.add(x, ctx.mul(i, a))]))
    return total


def _assert_matches_reference(f):
    spectrum, max_count, witness = _reference_spectrum(f)
    full = differential_spectrum(f)
    assert (full.spectrum, full.max_count, full.witness) == (spectrum, max_count, witness)
    assert not full.partial
    assert full.is_gapn == (max_count <= f.ctx.p)
    if not full.is_gapn:
        ctx = f.ctx
        a, b = full.witness
        hits = sum(_scalar_derivative(ctx, f, a, x) == b for x in range(ctx.order))
        assert hits > ctx.p
    else:
        assert full.witness is None and full.spectrum == spectrum


class TestBatchedKernel:
    @pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (3, 4), (5, 2), (7, 2)])
    def test_every_exponent_matches_per_direction_loop(self, field, p, n):
        ctx = field(p, n)
        for d in range(1, ctx.order):
            _assert_matches_reference(monomial_table(ctx, d))

    @pytest.mark.parametrize(
        "p,n,tables", [(2, 1, 4), (3, 1, 4), (7, 1, 4), (251, 1, 4), (2, 5, 4),
                       (3, 4, 4), (5, 2, 4), (7, 2, 4), (67, 2, 1)]
    )
    def test_random_tables_match_per_direction_loop(self, field, p, n, tables):
        # (67, 2) and (251, 1) have lanes too wide for a lookup table;
        # n = 1 is a single row per direction
        ctx = field(p, n)
        rng = np.random.default_rng(p * 100 + n)
        # the last table hits few values, so that it has a witness
        highs = [ctx.order] * (tables - 1) + [min(ctx.order, 3)]
        for high in highs:
            _assert_matches_reference(FnTable(ctx, rng.integers(0, high, ctx.order)))

    @pytest.mark.parametrize("p,n", [(67, 2), (251, 1), (13, 2)])
    def test_wide_lane_monomials(self, field, p, n):
        # a monomial's full spectrum is direction 1's scaled, which
        # monomial_gapn_fast computes without the projective batches
        ctx = field(p, n)
        for d in (1, 2, 3, p + 2, ctx.order - 2):
            full = differential_spectrum(monomial_table(ctx, d))
            fast = monomial_gapn_fast(ctx, d)
            assert (full.spectrum, full.max_count) == (fast.spectrum, fast.max_count)
            if ctx.order < 1000:
                _assert_matches_reference(monomial_table(ctx, d))

    def test_batches_span_many_directions(self, field, monkeypatch):
        # small batches force several kernel calls per spectrum, including
        # a partial last batch, and must not change any report
        from gapnkit import gapn

        ctx = field(3, 4)
        f = FnTable(ctx, np.random.default_rng(9).integers(0, ctx.order, ctx.order))
        expected = differential_spectrum(f).to_dict()
        for elements in (ctx.order, 3 * ctx.order, 7 * ctx.order):
            monkeypatch.setattr(gapn, "_BATCH_ELEMENTS", elements)
            assert differential_spectrum(f).to_dict() == expected


# Every prime-power field of order up to 3^5, n = 1 included.
_ORACLE_FIELDS = [
    (p, n) for p in range(2, 3**5 + 1) if is_prime(p) for n in range(1, 8) if p**n <= 3**5
]


def _first_offending_class(f):
    """t of the first projective class g**t with a count above p, by the
    count matrix of one class at a time, or None."""
    ctx = f.ctx
    lanes, index = gapn._direction_lanes(ctx, f.values)
    for t in range((ctx.order - 1) // (ctx.p - 1)):
        sums = gapn._derivative_values(ctx, lanes[t:], index[None, :])
        if numpy_spectrum.row_counts(ctx, sums).max() > 1:
            return t
    return None


class TestCountOracle:
    """The per-row multiplicities give what the count-matrix kernel gave:
    every field of the report, at any batch size."""

    @staticmethod
    def _assert_oracle(f):
        assert differential_spectrum(f).to_dict() == numpy_spectrum.spectrum(f)

    @pytest.mark.parametrize("p,n", _ORACLE_FIELDS)
    def test_every_exponent(self, field, p, n):
        ctx = field(p, n)
        for d in range(1, ctx.order):
            self._assert_oracle(monomial_table(ctx, d))
            assert monomial_gapn_fast(ctx, d).to_dict() == numpy_spectrum.monomial_spectrum(ctx, d)

    def test_wide_lanes(self, field):
        # lanes of 13 bits are reduced by % p, not by a lookup table
        ctx = field(67, 2)
        rng = np.random.default_rng(67)
        for d in [1, 2, 3, 69, ctx.order - 2, *rng.integers(4, ctx.order - 1, 6)]:
            self._assert_oracle(monomial_table(ctx, int(d)))
            assert monomial_gapn_fast(ctx, int(d)).to_dict() == numpy_spectrum.monomial_spectrum(ctx, int(d))

    @pytest.mark.parametrize("p,n", [(2, 1), (5, 1), (2, 6), (3, 4), (5, 3), (7, 2), (13, 2), (67, 2)])
    def test_random_tables(self, field, p, n):
        ctx = field(p, n)
        rng = np.random.default_rng(1000 * p + n)
        # a narrow value range makes counts above 2p, and witnesses, common
        for high in (ctx.order, ctx.order, min(ctx.order, 4)):
            self._assert_oracle(FnTable(ctx, rng.integers(0, high, ctx.order)))

    def test_batch_sizes(self, field, monkeypatch):
        # One, two and four directions per batch and 2**14 values, with the
        # first offending class at the end of a batch and inside one.
        ctx = field(3, 4)
        base = monomial_table(ctx, 5).values
        assert _first_offending_class(FnTable(ctx, base)) is None
        tables = {}  # first offending class -> a table, from x**5 with f(0) changed
        for v in range(1, ctx.order):
            f = FnTable(ctx, np.concatenate([[v], base[1:]]))
            tables.setdefault(_first_offending_class(f), f)
        assert {2, 3} <= tables.keys()
        rng = np.random.default_rng(5)
        cases = [tables[2], tables[3], FnTable(ctx, rng.integers(0, ctx.order, ctx.order))]
        for elements in (ctx.order, 2 * ctx.order, 4 * ctx.order, 1 << 14):
            monkeypatch.setattr(gapn, "_BATCH_ELEMENTS", elements)
            for f in cases:
                self._assert_oracle(f)
            assert monomial_gapn_fast(ctx, 7).to_dict() == numpy_spectrum.monomial_spectrum(ctx, 7)

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_frobenius_equivariant_tables(self, field, p, n):
        # Tables that commute with x -> x**p without being monomials compute
        # one class per Frobenius orbit, and still give the oracle's report.
        ctx = field(p, n)
        mono = lambda d: monomial_table(ctx, d).values
        rng = np.random.default_rng(p * 10 + n)
        tables = [ctx.add_array(mono(p), mono(1))]
        tables += [ctx.add_array(mono(int(a)), mono(int(b))) for a, b in rng.integers(1, ctx.order - 1, (6, 2))]
        for d in (2, 3, p + 2):
            for c in range(p):  # x**d with f(0) = c, in F_p
                tables.append(np.concatenate([[c], mono(d)[1:]]))
        weights = _orbit_weights(p, n)
        for values in tables:
            f = FnTable(ctx, values)
            assert gapn._frobenius_classes(ctx, f.values).tolist() == weights
            self._assert_oracle(f)

    @pytest.mark.parametrize("p,n,a,b", [(2, 6, 5, 18), (3, 4, 5, 11), (5, 3, 9, 18)])
    def test_witness_outside_representatives(self, field, p, n, a, b):
        # The smallest offending direction of x**a + x**b lies in a class
        # that is not computed, so the witness comes from another member of
        # an orbit, with that class's own b.
        ctx = field(p, n)
        f = FnTable(ctx, ctx.add_array(monomial_table(ctx, a).values, monomial_table(ctx, b).values))
        ts = np.flatnonzero(gapn._frobenius_classes(ctx, f.values))
        direction = differential_spectrum(f).witness[0]
        assert int(ctx.log_table[direction]) % ((ctx.order - 1) // (p - 1)) not in ts
        self._assert_oracle(f)

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_broken_frobenius_symmetry(self, field, p, n):
        # x**5 with one value moved no longer commutes with x -> x**p: one
        # change at an x outside F_p, one at 0 to a value outside F_p.  Every
        # class is computed and stands for itself alone.
        ctx = field(p, n)
        base = monomial_table(ctx, 5).values
        outside = base.copy()
        outside[p] = (outside[p] + 1) % ctx.order
        at_zero = base.copy()
        at_zero[0] = p
        for values in (outside, at_zero):
            f = FnTable(ctx, values)
            assert gapn._frobenius_classes(ctx, f.values).tolist() == [1] * ((ctx.order - 1) // (p - 1))
            self._assert_oracle(f)

    def test_batch_sizes_of_representatives(self, field, monkeypatch):
        # One, two and four orbit representatives per batch, with the first
        # offending class at representative 2, 3 or 4: 2 lies inside a
        # batch of four, 3 ends a batch of two or four, and 4 starts one.
        ctx = field(3, 4)
        mono = lambda d: monomial_table(ctx, d).values
        cases = [FnTable(ctx, ctx.add_array(mono(a), mono(b))) for a, b in ((7, 11), (5, 19), (5, 8))]
        for position, f in enumerate(cases, start=2):
            weights = gapn._frobenius_classes(ctx, f.values)
            assert weights.tolist() == _orbit_weights(3, 4)
            assert np.flatnonzero(weights)[position] == _first_offending_class(f)
        cases.append(monomial_table(ctx, 5))
        for elements in (ctx.order, 2 * ctx.order, 4 * ctx.order):
            monkeypatch.setattr(gapn, "_BATCH_ELEMENTS", elements)
            for f in cases:
                self._assert_oracle(f)

    @pytest.mark.parametrize(
        "p,n,exponents", [(3, 6, (5, 7, 2, 4)), (2, 9, (3, 5, 7, 9)), (7, 3, (13, 19, 2, 3)), (3, 7, (5, 7, 2, 4))]
    )
    def test_larger_fields(self, field, p, n, exponents):
        # Two GAPN exponents, then two that are not.
        ctx = field(p, n)
        verdicts = []
        for d in exponents:
            f = monomial_table(ctx, d)
            report = differential_spectrum(f).to_dict()
            assert report == numpy_spectrum.spectrum(f)
            verdicts.append(report["is_gapn"])
        assert verdicts == [True, True, False, False]


def _orbit_weights(p, n):
    """The weights of a table that commutes with x -> x**p: each orbit of
    t -> t * p mod M weighs its size at its smallest class, found one
    class at a time."""
    m = (p**n - 1) // (p - 1)
    weights = [0] * m
    for t in range(m):
        weights[min(t * p**j % m for j in range(n))] += 1
    return weights


# Every field of order up to 3^7 with n >= 2, and three prime fields.
_ORBIT_FIELDS = [
    (p, n) for p in range(2, 47) if is_prime(p) for n in range(2, 12) if p**n <= 3**7  # 47**2 > 3**7
] + [(2, 1), (5, 1), (67, 1)]


@pytest.mark.parametrize("p,n", _ORBIT_FIELDS)
def test_frobenius_orbit_partition(field, p, n):
    # The classes a power map computes are the orbit minima of t -> t * p
    # mod M, each weighted by its orbit's size, and their orbits partition
    # the M classes: worked out here one orbit at a time.  F_p has one
    # class, of weight 1.
    ctx = field(p, n)
    m = (ctx.order - 1) // (p - 1)
    orbits = {frozenset(t * p**j % m for j in range(n)) for t in range(m)}
    weights = gapn._frobenius_classes(ctx, monomial_table(ctx, 1).values)
    ts = np.flatnonzero(weights)
    assert ts.tolist() == sorted(min(orbit) for orbit in orbits)
    assert weights[ts].tolist() == [len(orbit) for orbit in sorted(orbits, key=min)]
    assert int(weights.sum()) == m
    covered = [{int(t) * p**j % m for j in range(weights[t])} for t in ts]
    assert covered == sorted(orbits, key=min)


# Replaces one row sum of every derivative pass, then checks that both
# counting routines refuse it; argv[1] is where the report goes.
_BAD_SUM_RUNNER = """
import json, sys
from gapnkit import FieldCtx, make_field, monomial_table, differential_spectrum, monomial_gapn_fast
ctx = make_field(3, 4)
ctx.log_table, ctx.lane_table  # built before the patch
original = FieldCtx.lanes_to_index
raised = {}
for where, value in ((0, ctx.order), (-1, ctx.order), (0, -1), (-1, -1)):
    def patched(self, sums, where=where, value=value):
        out = original(self, sums)
        out[where] = value
        return out
    FieldCtx.lanes_to_index = patched
    for name, run in (("spectrum", lambda: differential_spectrum(monomial_table(ctx, 5))),
                      ("fast", lambda: monomial_gapn_fast(ctx, 5))):
        try:
            run()
            raised[f"{name} {where} {value}"] = None
        except Exception as exc:
            raised[f"{name} {where} {value}"] = type(exc).__name__
    FieldCtx.lanes_to_index = original
with open(sys.argv[1], "w") as fh:
    json.dump({"raised": raised, "optimize": sys.flags.optimize}, fh)
"""


class TestRowSumInvariant:
    """Every row sum must be an element index: one outside [0, p**n) would
    be counted with a neighbouring direction's values."""

    @pytest.mark.parametrize("flags", [pytest.param([], id="plain"), pytest.param(["-O"], id="optimized")])
    def test_sum_outside_the_field_raises(self, tmp_path, flags):
        report = tmp_path / "report.json"
        src = str(Path(gapn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, *flags, "-c", _BAD_SUM_RUNNER, str(report)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(report.read_text())
        assert got["optimize"] == len(flags)
        assert len(got["raised"]) == 8
        assert set(got["raised"].values()) == {"AssertionError"}, got["raised"]


_SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_scalar_definition(field, data):
    ctx = field(*data.draw(st.sampled_from(_SMALL_FIELDS)))
    q = ctx.order
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
    f = FnTable(ctx, np.array(values, dtype=np.int64))
    a = data.draw(st.integers(1, q - 1))
    derived = gen_derivative(f, a).values
    assert [int(v) for v in derived] == [_scalar_derivative(ctx, f, a, x) for x in range(q)]
    hist: dict[int, int] = {}
    for direction in range(1, q):
        counts = [0] * q
        for x in range(q):
            counts[_scalar_derivative(ctx, f, direction, x)] += 1
        for c in counts:
            hist[c] = hist.get(c, 0) + 1
    report = differential_spectrum(f)
    assert report.spectrum == hist
    assert report.max_count == max(hist)


class TestMonomialTable:
    def test_identity(self, field):
        ctx = field(3, 2)
        assert np.array_equal(monomial_table(ctx, 1).values, np.arange(9))

    def test_inverse_exponent(self, field):
        ctx = field(3, 2)
        t = monomial_table(ctx, ctx.order - 2)
        assert t.values[0] == 0
        for x in range(1, ctx.order):
            assert t.values[x] == ctx.inv(x)

    @pytest.mark.parametrize("p,n", [(p, n) for p, n in _ORACLE_FIELDS if n >= 2])
    def test_frobenius_exponent(self, field, p, n):
        # x**p is the table the Frobenius symmetry of a spectrum is checked with.
        ctx = field(p, n)
        t = monomial_table(ctx, p)
        for x in range(ctx.order):
            assert t.values[x] == ctx.frobenius(x, 1)

    def test_zero_exponent(self, field):
        ctx = field(3, 2)
        assert monomial_table(ctx, 0).values.tolist() == [1] * 9

    def test_negative_exponent_rejected(self, field):
        with pytest.raises(ValueError, match="negative exponent"):
            monomial_table(field(3, 2), -1)

    def test_matches_scalar_pow(self, field):
        ctx = field(5, 2)
        for d in (2, 7, 23):
            t = monomial_table(ctx, d)
            for x in range(ctx.order):
                assert t.values[x] == ctx.pow(x, d)


class TestTableGate:
    """Above TABLE_CAP only the scalar ops work; every table request raises
    OrderTooLarge before doing any work."""

    @pytest.fixture
    def big(self, no_scalar_pow):
        return make_field(3, 16)

    @pytest.mark.parametrize(
        "request_tables",
        [
            lambda ctx: monomial_table(ctx, 5),
            lambda ctx: monomial_table(ctx, 0),
            lambda ctx: monomial_gapn_fast(ctx, 5),
            lambda ctx: monomial_gapn_verdict(ctx, 5),
            lambda ctx: ctx.mul_array(1, 2),
            lambda ctx: ctx.digit_table,
            lambda ctx: ctx.lane_table,
        ],
        ids=["monomial_table", "monomial_table_d0", "monomial_gapn_fast", "monomial_gapn_verdict",
             "mul_array", "digit_table", "lane_table"],
    )
    def test_raises_order_too_large(self, big, request_tables):
        with pytest.raises(OrderTooLarge, match="above 2\\*\\*24"):
            request_tables(big)


class TestMonomialFastPath:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (2, 3), (7, 2), (5, 3)])
    def test_verdict_matches_full_for_all_exponents(self, field, p, n):
        ctx = field(p, n)
        for d in range(1, ctx.order):
            fast = monomial_gapn_fast(ctx, d)
            full = differential_spectrum(monomial_table(ctx, d))
            assert fast.is_gapn == full.is_gapn, f"d={d}"
            assert fast.max_count == full.max_count, f"d={d}"
            assert fast.spectrum == full.spectrum, f"d={d}"

    def test_decider_label(self, field):
        assert monomial_gapn_fast(field(3, 2), 5).deciders_agreed == ["monomial-fast"]

    def test_linear_degenerate(self, field):
        ctx = field(3, 2)
        report = monomial_gapn_fast(ctx, 1)
        assert not report.is_gapn
        assert report.max_count == ctx.order

    def test_d_zero_rejected(self, field):
        with pytest.raises(ValueError):
            monomial_gapn_fast(field(3, 2), 0)


def _no_subfields(monkeypatch):
    """Switch the subfield certificate off: every subfield verdict reads
    GAPN, in a prepared state built from scratch."""
    monkeypatch.setattr(gapn, "_subfield_verdicts", lambda p, m: b"\x01" * (p**m - 1))
    monkeypatch.setattr(gapn, "_prepared", {})


class TestCollisionCertificate:
    """monomial_gapn_verdict: a repeated row sum among the sampled rows of
    S_1(x**d) proves non-GAPN; otherwise the full pass decides."""

    FIELDS = [
        (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4),
        (7, 2), (7, 3), (11, 2), (13, 2), (2, 5), (2, 8),
    ]  # fmt: skip

    @staticmethod
    def _verdicts(monkeypatch, ctx, k):
        """{d: (verdict, fired)} over every d in [1, p**n - 2] with k sampled
        rows; fired means the full pass never ran.  The subfield
        certificate is switched off, so only the sample can fire."""
        _no_subfields(monkeypatch)
        monkeypatch.setattr(gapn, "_sample_size", lambda p, n: k)
        passes = []

        def full_pass(ctx, d):
            passes.append(d)
            return monomial_gapn_fast(ctx, d)

        monkeypatch.setattr(gapn, "monomial_gapn_fast", full_pass)
        out = {}
        for d in range(1, ctx.order - 1):
            passes.clear()
            out[d] = monomial_gapn_verdict(ctx, d), not passes
        return out

    @pytest.mark.parametrize("rows", ["one", "three", "every"])
    @pytest.mark.parametrize("p,n", FIELDS)
    def test_matches_full_pass_and_never_fires_on_gapn(self, field, monkeypatch, p, n, rows):
        ctx = field(p, n)
        k = {"one": 1, "three": min(3, p ** (n - 1) - 1), "every": p ** (n - 1) - 1}[rows]
        truth = {d: monomial_gapn_fast(ctx, d).is_gapn for d in range(1, ctx.order - 1)}
        verdicts = self._verdicts(monkeypatch, ctx, k)
        assert {d: v for d, (v, _) in verdicts.items()} == truth
        fired = {d for d, (_, f) in verdicts.items() if f}
        assert not {d for d in fired if truth[d]}
        if k == 1:
            assert not fired  # one row cannot collide
        if rows == "every" and p > 2:
            # x -> -x maps row z to row -z and S_1 to +-S_1, so a repeated
            # value with row 0 among its rows also repeats on nonzero rows.
            assert fired == {d for d, gapn_d in truth.items() if not gapn_d}

    def test_sample_size_formula(self):
        # min(p**(n-1) - 1, ceil(4 * sqrt(p**n)))
        assert gapn._sample_size(3, 9) == 562
        assert gapn._sample_size(5, 7) == 1119
        assert gapn._sample_size(3, 4) == 26
        assert gapn._sample_size(2, 1) == 0

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 9), (5, 4), (2, 8)])
    def test_sample_rows_are_distinct_nonzero_rows(self, p, n):
        k = gapn._sample_size(p, n)
        ctx = make_field(p, n)
        _, logs = gapn.prepare_verdicts(ctx)
        index = ctx.antilog_table[logs]
        assert index.shape == (k, p) and not logs.flags.writeable
        rows = index[:, 0] // p
        assert len(set(rows.tolist())) == k and rows.min() >= 1 and rows.max() < p ** (n - 1)
        assert (index == index[:, :1] + np.arange(p)).all()

    def test_own_modulus(self):
        default = make_field(3, 5)
        monics = (PolyFp(3, digits_of(k, 3, 5) + (1,)) for k in reversed(range(3**5)))
        modulus = next(f for f in monics if is_irreducible(f))
        assert modulus.coeffs != default.modulus.coeffs
        ctx = make_field(3, 5, modulus)
        for d in range(1, ctx.order - 1):
            assert monomial_gapn_verdict(ctx, d) == monomial_gapn_fast(ctx, d).is_gapn, f"d={d}"

    def test_d_zero_rejected(self, field):
        with pytest.raises(ValueError):
            monomial_gapn_verdict(field(3, 2), 0)


class TestSubfieldCertificate:
    """monomial_gapn_verdict: a non-GAPN verdict for y -> y**(d mod (p**m - 1))
    on a proper subfield F_(p^m) proves x**d non-GAPN on F_(p^n)."""

    @pytest.mark.parametrize("p,n", [(3, 4), (3, 6), (3, 8), (5, 4), (7, 4), (2, 8), (2, 10)])
    def test_every_exponent_matches_full_pass(self, field, p, n):
        ctx = field(p, n)
        subfields, _ = gapn.prepare_verdicts(ctx)
        truth: dict[int, bool] = {}  # per coset representative
        settled = set()
        for d in range(1, ctx.order - 1):
            rep = coset_rep(d, p, n)
            if rep not in truth:
                truth[rep] = monomial_gapn_fast(ctx, rep).is_gapn
            assert monomial_gapn_verdict(ctx, d) == truth[rep], f"d={d}"
            if any(not verdicts[d % q] for q, verdicts in subfields):
                settled.add(d)
        assert settled, "the subfield certificate never fired"
        assert not any(truth[coset_rep(d, p, n)] for d in settled)

    @pytest.mark.parametrize(
        "p,n,orders",
        [(3, 12, [8, 26, 80, 728]), (2, 6, [3, 7]), (5, 4, [24]), (2, 9, [7]),
         (3, 7, []), (3, 2, []), (5, 1, [])],
    )  # fmt: skip
    def test_subfields_are_the_proper_divisors(self, p, n, orders):
        # F_p (m = 1) never fires and F_(p^n) itself (m = n) is the field.
        subfields, _ = gapn.prepare_verdicts(make_field(p, n))
        assert [q for q, _ in subfields] == orders

    @pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (2, 4), (2, 5)])
    def test_subfield_verdicts_are_exact(self, p, m):
        sub = make_field(p, m)
        q = p**m - 1
        verdicts = gapn._subfield_verdicts(p, m)
        assert len(verdicts) == q
        for r in range(1, q + 1):  # entry 0 stands for r = q
            assert verdicts[r % q] == monomial_gapn_fast(sub, r).is_gapn, f"r={r}"

    def test_own_modulus(self):
        # Subfield verdicts are taken on the default modulus; any modulus
        # gives an isomorphic field, so the same verdicts.
        default = make_field(3, 4)
        monics = (PolyFp(3, digits_of(k, 3, 4) + (1,)) for k in reversed(range(3**4)))
        modulus = next(f for f in monics if is_irreducible(f))
        assert modulus.coeffs != default.modulus.coeffs
        ctx = make_field(3, 4, modulus)
        for d in range(1, ctx.order - 1):
            assert monomial_gapn_verdict(ctx, d) == monomial_gapn_fast(ctx, d).is_gapn, f"d={d}"


class TestPreparedState:
    """prepare_verdicts builds one (subfields, logs) state per field
    context, and spectra build x -> x**p once per context; each is kept in
    a map keyed weakly by its context, so it goes when the context does."""

    @staticmethod
    def _sampled_logs(ctx):
        """The logs of the fixed sample: K distinct rows z, 1 <= z < p**(n-1),
        drawn with the fixed seed, each row the indices z*p + i."""
        p, n = ctx.p, ctx.n
        rows = random.Random(gapn._SAMPLE_SEED).sample(range(1, p ** (n - 1)), gapn._sample_size(p, n))
        return ctx.log_table[np.array(rows, dtype=np.int64)[:, None] * p + np.arange(p)]

    def test_each_context_draws_its_own_sample(self, monkeypatch):
        drawn = []

        def sample_size(p, n, real=gapn._sample_size):
            drawn.append((p, n))
            return real(p, n)

        monkeypatch.setattr(gapn, "_sample_size", sample_size)
        first, second = FieldCtx(3, 8), FieldCtx(3, 8)
        state = gapn.prepare_verdicts(first)
        assert gapn.prepare_verdicts(first) is state
        assert drawn.count((3, 8)) == 1
        other = gapn.prepare_verdicts(second)
        assert other is not state and gapn.prepare_verdicts(second) is other
        assert drawn.count((3, 8)) == 2
        for d in range(1, 200):
            assert monomial_gapn_verdict(second, d) == monomial_gapn_verdict(first, d)

    def test_second_irreducible_has_its_own_entry(self):
        default = make_field(3, 6)
        monics = (PolyFp(3, digits_of(k, 3, 6) + (1,)) for k in range(3**6))
        canonical, second = [f for f in monics if is_irreducible(f)][:2]
        assert canonical == default.modulus
        ctx = make_field(3, 6, second)
        default_subfields, default_logs = gapn.prepare_verdicts(default)
        subfields, logs = gapn.prepare_verdicts(ctx)
        assert default in gapn._prepared and ctx in gapn._prepared
        assert subfields == default_subfields  # isomorphic fields
        assert logs.shape == (108, 3) and not logs.flags.writeable
        assert (logs == self._sampled_logs(ctx)).all()
        assert (default_logs == self._sampled_logs(default)).all()
        assert (logs != default_logs).any()
        # The first rows the fixed seed has always drawn on 3^6.
        assert (ctx.antilog_table[logs[:4, 0]] // 3).tolist() == [60, 197, 203, 200]

    def test_state_goes_with_its_context(self):
        monics = (PolyFp(7, digits_of(k, 7, 3) + (1,)) for k in range(7**3))
        moduli = [f for f in monics if is_irreducible(f)][:70]
        assert len(moduli) == 70

        def sizes():
            return len(gapn._prepared), len(gapn._frobenius)

        gc.collect()
        before = sizes()
        contexts = [make_field(7, 3, f) for f in moduli]
        for ctx in contexts:
            gapn.prepare_verdicts(ctx)
            gapn._frobenius_classes(ctx, monomial_table(ctx, 5).values)
        assert all(ctx in gapn._prepared and ctx in gapn._frobenius for ctx in contexts)
        assert sizes() == (before[0] + 70, before[1] + 70)
        # A value that held its context would keep the context, and its entry, alive.
        refs = [weakref.ref(ctx) for ctx in contexts]
        del contexts, ctx
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert sizes() == before

    def test_frobenius_table_built_once_per_context(self, monkeypatch):
        built = []

        def table(ctx, d, real=gapn.monomial_table):
            built.append((ctx, d))
            return real(ctx, d)

        monkeypatch.setattr(gapn, "monomial_table", table)
        ctx = FieldCtx(3, 5)
        for d in (5, 7):
            differential_spectrum(monomial_table(ctx, d))
        assert built == [(ctx, 3)]
        # A random table fails the F_p test, so x -> x**p is never read.
        other = FieldCtx(3, 5)
        values = np.random.default_rng(5).integers(0, other.order, other.order)
        assert values[:3].max() >= 3
        differential_spectrum(FnTable(other, values))
        assert built == [(ctx, 3)] and other not in gapn._frobenius

    def test_orbit_weights_built_once_per_context(self, monkeypatch):
        returned = []

        def classes(ctx, values, real=gapn._frobenius_classes):
            returned.append(real(ctx, values))
            return returned[-1]

        monkeypatch.setattr(gapn, "_frobenius_classes", classes)
        ctx = FieldCtx(3, 5)
        for d in (5, 7):
            differential_spectrum(monomial_table(ctx, d))
        weights = gapn._frobenius[ctx][1]
        assert returned[0] is weights and returned[1] is weights
        assert not weights.flags.writeable
        assert weights.tolist() == _orbit_weights(3, 5)
        # A seeded random table that maps F_3 into F_3 reaches the symmetry
        # check, fails it, and computes every class with weight 1.
        values = np.random.default_rng(35).integers(0, ctx.order, ctx.order)
        values[:3] = [2, 0, 1]
        report = differential_spectrum(FnTable(ctx, values))
        assert returned[2] is not weights and returned[2].tolist() == [1] * 121
        assert report.to_dict() == numpy_spectrum.spectrum(FnTable(ctx, values))

    @pytest.mark.parametrize(
        "clone", [lambda ctx: pickle.loads(pickle.dumps(ctx)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_clone_carries_no_state(self, clone):
        ctx = FieldCtx(3, 6)
        state = gapn.prepare_verdicts(ctx)
        gapn._frobenius_classes(ctx, monomial_table(ctx, 5).values)
        twin = clone(ctx)
        assert twin not in gapn._prepared and twin not in gapn._frobenius
        for d in range(1, 50):
            assert monomial_gapn_verdict(twin, d) == monomial_gapn_verdict(ctx, d)
        twin_state = gapn._prepared[twin]
        assert twin_state is not state
        assert twin_state[0] == state[0] and (twin_state[1] == state[1]).all()


# Every field of order up to 3^8 with a weight-p exponent (n >= 2), 2^10 among them.
_KERNEL_FIELDS = sorted({(p, n) for p in range(2, 82) if is_prime(p) for n in range(2, 13) if p**n <= 3**8})


class TestLinearizedKernel:
    @pytest.mark.parametrize("p,n", _KERNEL_FIELDS)
    def test_matches_table_construction(self, field, p, n):
        ctx = field(p, n)
        for d in range(1, ctx.order):
            if d % p and p_weight(d, p) == p:
                assert linearized_kernel_dim(ctx, d) == numpy_kernel.linearized_kernel_dim(ctx, d), d

    def test_matches_table_construction_other_modulus(self, field):
        irreducibles = filter(is_irreducible, (PolyFp(3, digits_of(k, 3, 6) + (1,)) for k in range(3**6)))
        next(irreducibles)
        modulus = next(irreducibles)
        assert modulus != field(3, 6).modulus
        ctx = field(3, 6, modulus)
        dims = []
        for d in range(1, ctx.order):
            if d % 3 and p_weight(d, 3) == 3:
                dims.append(linearized_kernel_dim(ctx, d))
                assert dims[-1] == numpy_kernel.linearized_kernel_dim(ctx, d), d
        assert set(dims) > {1}  # GAPN and non-GAPN exponents alike

    def test_gold_on_f9(self, field):
        assert linearized_kernel_dim(field(3, 2), 5) == 1

    def test_gold_i2_folds_to_zero_map_on_f9(self, field):
        # digits of 11 sit at positions 0 and 2; position 2 folds onto
        # position 0 when n = 2, giving 2x + x = 0 with full kernel
        assert linearized_kernel_dim(field(3, 2), 11) == 2

    def test_f27_dimensions(self, field):
        ctx = field(3, 3)
        assert linearized_kernel_dim(ctx, 5) == 1
        assert linearized_kernel_dim(ctx, 7) == 1
        assert linearized_kernel_dim(ctx, 13) == 2

    def test_kernel_size_matches_brute_count(self, field):
        ctx = field(3, 3)
        for d in (5, 7, 13):
            derived = gen_derivative(monomial_table(ctx, d), 1)
            zeros = int((derived.values == 0).sum())
            assert zeros == 3 ** linearized_kernel_dim(ctx, d)

    def test_wrong_weight_rejected(self, field):
        ctx = field(3, 2)
        with pytest.raises(WrongWeight):
            linearized_kernel_dim(ctx, 4)  # weight 2

    def test_unnormalized_rejected(self, field):
        ctx = field(3, 3)
        with pytest.raises(WrongWeight):
            linearized_kernel_dim(ctx, 15)  # 3 * 5
        with pytest.raises(WrongWeight):
            linearizing = 3  # d = p carries to weight 1
            linearized_kernel_dim(ctx, linearizing)


class TestBinarySanity:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_gold_apn_iff_coprime(self, field, n):
        from math import gcd

        ctx = field(2, n)
        for i in range(1, n):
            report = differential_spectrum(monomial_table(ctx, 2**i + 1))
            assert report.is_gapn == (gcd(i, n) == 1), f"i={i}, n={n}"

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_welch_apn_for_odd_n(self, field, n):
        t = (n - 1) // 2
        report = differential_spectrum(monomial_table(field(2, n), 2**t + 3))
        assert report.is_gapn


class TestTableIO:
    def test_raw_round_trip(self, field, tmp_path):
        ctx = field(3, 3)
        t = monomial_table(ctx, 13)
        path = tmp_path / "t.bin"
        save_table_raw(t, path)
        loaded = load_table_raw(ctx, path)
        assert np.array_equal(loaded.values, t.values)

    def test_raw_length_mismatch(self, field, tmp_path):
        ctx9 = field(3, 2)
        ctx27 = field(3, 3)
        path = tmp_path / "t.bin"
        save_table_raw(monomial_table(ctx9, 5), path)
        with pytest.raises(ValueError):
            load_table_raw(ctx27, path)

    def test_raw_whole_entries_count_named(self, field, tmp_path):
        path = tmp_path / "t.bin"
        save_table_raw(monomial_table(field(3, 2), 5), path)
        with pytest.raises(ValueError, match="raw table has 9 entries, field needs 27"):
            load_table_raw(field(3, 3), path)

    def test_raw_stray_bytes_rejected(self, field, tmp_path):
        # 9 whole entries and 3 stray bytes: the partial entry must not be
        # dropped without a word.
        ctx = field(3, 2)
        path = tmp_path / "t.bin"
        save_table_raw(monomial_table(ctx, 5), path)
        with open(path, "ab") as fh:
            fh.write(b"abc")
        with pytest.raises(ValueError, match="75 bytes"):
            load_table_raw(ctx, path)

    @pytest.mark.parametrize("load", [load_table_csv, load_table_raw])
    def test_loaders_refuse_above_table_cap(self, tmp_path, load):
        # Before the gate, load_table_csv allocated p**n entries (8 TiB here).
        ctx = make_field(2, 40)
        path = tmp_path / "t"
        path.write_text("x,f(x)\n0,0\n")
        with pytest.raises(OrderTooLarge):
            load(ctx, path)

    def test_csv_round_trip(self, field, tmp_path):
        ctx = field(3, 2)
        t = monomial_table(ctx, 5)
        path = tmp_path / "t.csv"
        save_table_csv(t, path)
        loaded = load_table_csv(ctx, path)
        assert np.array_equal(loaded.values, t.values)

    @pytest.mark.parametrize(
        "bad_row,line,fragment",
        [
            ("-1,3", 10, "outside"),  # must not wrap round onto f(8)
            ("9,3", 10, "outside"),  # must not escape as an IndexError
            ("4,3", 10, "duplicate"),
            ("5", 10, "two fields"),
            ("5,x", 10, "non-integer"),
            ("8,9", 10, "outside"),
            # int() reads each of these as a number; the rule is str()'s spelling.
            ("+8,3", 10, "non-integer"),
            ("8, 3 ", 10, "non-integer"),
            ("8,0_3", 10, "non-integer"),
            ("8,03", 10, "non-integer"),
            ("8,\u0663", 10, "non-integer"),
            ("-0,3", 10, "non-integer"),
        ],
    )
    def test_csv_bad_row_names_line(self, field, tmp_path, bad_row, line, fragment):
        ctx = field(3, 2)
        path = tmp_path / "t.csv"
        rows = ["x,f(x)"] + [f"{x},{x}" for x in range(8)] + [bad_row, "8,8"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf":{line}: .*{fragment}"):
            load_table_csv(ctx, path)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.integers().map(str), st.text(alphabet="+-_ 0123456789\u0663", max_size=5)))
    def test_decimal_is_what_str_writes(self, text):
        # The one number rule of CSV tables and cache records.
        try:
            written = str(int(text))
        except ValueError:
            written = None
        assert _is_decimal(text) is (written == text)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_csv_round_trip_random_tables(self, field, data):
        ctx = field(*data.draw(st.sampled_from(_SMALL_FIELDS)))
        values = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=ctx.order, max_size=ctx.order))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_table_csv(FnTable(ctx, np.array(values, dtype=np.int64)), path)
            assert load_table_csv(ctx, path).values.tolist() == values

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_csv_random_bad_row_names_line(self, field, data):
        ctx = field(*data.draw(st.sampled_from(_SMALL_FIELDS)))
        q = ctx.order
        lines = ["x,f(x)"] + [f"{x},{x}" for x in range(q)]
        at = data.draw(st.integers(1, q))  # the data line to replace, x = at - 1
        outside = st.one_of(st.integers(max_value=-1), st.integers(min_value=q))
        word = st.text(alphabet="abc.", min_size=1, max_size=3)
        bad = data.draw(
            st.one_of(
                st.builds("{},{}".format, outside, st.integers(0, q - 1)),
                st.builds("{},{}".format, st.integers(0, q - 1), outside),
                st.builds("{},{}".format, word, st.integers(0, q - 1)),
                st.builds("{},{}".format, st.integers(0, q - 1), word),
                st.builds(str, st.integers(0, q - 1)),
                st.builds("{},{},{}".format, *[st.integers(0, q - 1)] * 3),
                st.builds("{},0".format, st.integers(0, at - 2)) if at > 1 else st.nothing(),
            )
        )
        lines[at] = bad
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError) as err:
                load_table_csv(ctx, path)
        assert str(err.value).startswith(f"{path}:{at + 1}: ")

    def test_csv_coverage_checked(self, field, tmp_path):
        ctx = field(3, 2)
        path = tmp_path / "t.csv"
        rows = ["x,f(x)"] + [f"{x},{x}" for x in range(8)]  # element 8 missing
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError):
            load_table_csv(ctx, path)
