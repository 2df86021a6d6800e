import copy
import pickle
import random

import numpy as np
import pytest

from gapnkit import (
    SOFT_ORDER_BUDGET,
    DivisionByZero,
    FieldCtx,
    NotIrreducible,
    NotPrime,
    OrderTooLarge,
    PolyFp,
    SearchJob,
    fields,
    find_irreducible,
    make_field,
    run_search,
    search,
)
from gapnkit.cli import main as cli_main
from gapnkit.monomial import digits_of
from gapnkit.numtheory import is_prime
from gapnkit.polyfp import _resultant, is_irreducible
from numpy_tables import generator, lane_tables, log_tables


# Naive irreducibility oracle, independent of the library's irreducibility test:
# multiply coefficient vectors directly and look for a proper factor.


def _naive_mul(p, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _monic_polys(p, deg):
    for packed in range(p**deg):
        coeffs = []
        v = packed
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        yield coeffs + [1]


def _naive_irreducible(p, coeffs):
    deg = len(coeffs) - 1
    for fdeg in range(1, deg // 2 + 1):
        for f in _monic_polys(p, fdeg):
            for g in _monic_polys(p, deg - fdeg):
                if _naive_mul(p, f, g) == list(coeffs):
                    return False
    return True


def _naive_find_irreducible(p, n):
    # Same candidate order as the library: lexicographic on (c_{n-1},...,c_0).
    def rank(coeffs):
        return sum(c * p**s for s, c in enumerate(coeffs[:-1]))

    best = None
    for coeffs in _monic_polys(p, n):
        if _naive_irreducible(p, coeffs):
            if best is None or rank(coeffs) < rank(best):
                best = coeffs
    return tuple(best)


def _walk_find_irreducible(p, n):
    # The modulus search before candidates with a linear factor at 0, 1 or
    # -1 were passed over: Ben-Or's test on every candidate, in order.
    for k in range(p**n):
        f = PolyFp(p, digits_of(k, p, n) + (1,))
        if is_irreducible(f):
            return f


# Every prime power up to 3^8, then larger fields with each kind of modulus.
_UP_TO_3_8 = [(p, n) for p in range(2, 3**8 + 1) if is_prime(p) for n in range(1, 14) if p**n <= 3**8]
_LARGER = [(3, 9), (5, 5), (7, 7), (2, 16), (2, 24), (4099, 2), (65537, 2)]


class TestFindIrreducible:
    def test_f9_modulus_is_x2_plus_1(self):
        assert find_irreducible(3, 2).coeffs == (1, 0, 1)

    def test_f8_modulus_is_x3_plus_x_plus_1(self):
        assert find_irreducible(2, 3).coeffs == (1, 1, 0, 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_degree_one_is_x(self, p):
        assert find_irreducible(p, 1).coeffs == (0, 1)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_matches_naive_enumeration(self, p, n):
        assert find_irreducible(p, n).coeffs == _naive_find_irreducible(p, n)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            find_irreducible(4, 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            find_irreducible(3, 0)

    def test_same_modulus_as_the_full_walk(self):
        # __wrapped__: uncached, so the other tests' fields stay in the cache.
        for p, n in _UP_TO_3_8 + _LARGER:
            assert find_irreducible.__wrapped__(p, n) == _walk_find_irreducible(p, n), (p, n)

    @pytest.mark.parametrize("p,n", [(2, 8), (3, 9), (5, 5), (7, 4)])
    def test_ben_or_sees_no_linear_factor_at_0_or_1_or_minus_1(self, monkeypatch, p, n):
        tested = []
        monkeypatch.setattr(fields, "is_irreducible", lambda f: tested.append(f) or is_irreducible(f))
        modulus = find_irreducible.__wrapped__(p, n)
        assert tested[-1] == modulus
        for f in tested:
            assert all(f.evaluate(x) for x in (0, 1, p - 1)), f.coeffs

    def test_modulus_cached_per_field(self, monkeypatch):
        from gapnkit import fields

        real = fields.is_irreducible
        calls = []

        def counting(f):
            calls.append(f.coeffs)
            return real(f)

        monkeypatch.setattr(fields, "is_irreducible", counting)
        find_irreducible.cache_clear()
        # FieldCtx directly: make_field would hand back one shared context
        first = FieldCtx(5, 3)
        assert calls == []  # the modulus is found on its first read
        first.modulus
        assert calls
        calls.clear()
        second = FieldCtx(5, 3)
        second.modulus
        assert calls == []
        assert second.modulus.coeffs == first.modulus.coeffs
        # an explicit modulus is still validated, even the cached one
        make_field(5, 3, first.modulus)
        assert calls == [first.modulus.coeffs]
        with pytest.raises(NotIrreducible):
            make_field(5, 3, PolyFp(5, (0, 0, 0, 1)))  # x^3


class TestConstruction:
    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_field(4, 2)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            make_field(2, 49)

    @pytest.mark.parametrize("build", [make_field, FieldCtx])
    def test_numpy_integers_are_python_ints(self, build):
        # 3**40 in int64 wraps to a negative order below the cap.
        with pytest.raises(OrderTooLarge):
            build(np.int64(3), np.int64(40))
        ctx = build(np.int64(3), np.int32(2))
        assert (type(ctx.p), type(ctx.n), type(ctx.order)) == (int, int, int)
        assert ctx.mul(3, 3) == FieldCtx(3, 2).mul(3, 3)

    @pytest.mark.parametrize("build", [make_field, FieldCtx])
    @pytest.mark.parametrize("p,n", [(3.0, 2), (3, 2.0), ("3", 2)])
    def test_non_integers_raise_type_error(self, build, p, n):
        make_field(3, 2)  # a shared context of the equal integers does not answer for them
        with pytest.raises(TypeError):
            build(p, n)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(NotIrreducible):
            make_field(3, 2, PolyFp(3, (2, 0, 1)))  # x^2 - 1 = (x-1)(x+1)

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(NotIrreducible):
            make_field(3, 2, PolyFp(3, (1, 1)))

    def test_modulus_over_another_prime_rejected(self):
        # x^2 + 2 has degree 2, but its coefficients are in F_5, not F_3.
        with pytest.raises(NotIrreducible, match="wrong prime field"):
            FieldCtx(3, 2, PolyFp(5, (2, 0, 1)))

    def test_prime_field(self):
        ctx = make_field(3, 1)
        assert ctx.order == 3
        assert ctx.modulus.coeffs == (0, 1)
        assert ctx.mul(2, 2) == 1

    def test_tables_built_small_not_large(self):
        small = make_field(3, 2)
        assert small.log_table is not None
        big = make_field(4099, 2)  # 4099^2 just above the 2^24 table cap
        assert big.order > 1 << 24
        for name in ("generator", "log_table", "antilog_table", "lane_table", "digit_table"):
            with pytest.raises(OrderTooLarge, match="requested for an order above 2\\*\\*24"):
                getattr(big, name)


class TestScalarOps:
    def test_f9_x_squared_is_minus_one(self, field):
        ctx = field(3, 2)
        # element x has index 3; x^2 = -1 = 2 mod x^2 + 1
        assert ctx.mul(3, 3) == 2

    def test_inverse_of_one(self, field):
        assert field(3, 2).inv(1) == 1

    def test_inv_zero_raises(self, field):
        with pytest.raises(DivisionByZero):
            field(3, 2).inv(0)
        # also catchable as the builtin
        with pytest.raises(ZeroDivisionError):
            field(3, 2).inv(0)

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (5, 2)])
    def test_lagrange(self, field, p, n):
        ctx = field(p, n)
        for x in range(1, ctx.order):
            assert ctx.pow(x, ctx.order - 1) == 1

    def test_pow_conventions(self, field):
        ctx = field(3, 2)
        assert ctx.pow(0, 0) == 1
        assert ctx.pow(0, 5) == 0
        assert ctx.pow(0, ctx.order - 2) == 0
        with pytest.raises(ValueError):
            ctx.pow(2, -1)

    def test_inv_matches_pow(self, field):
        ctx = field(3, 3)
        for x in range(1, ctx.order):
            assert ctx.inv(x) == ctx.pow(x, ctx.order - 2)
            assert ctx.mul(x, ctx.inv(x)) == 1

    def test_element_validation(self, field):
        ctx = field(3, 2)
        with pytest.raises(ValueError):
            ctx.add(9, 0)
        with pytest.raises(ValueError):
            ctx.mul(-1, 2)


class TestFrobenius:
    def test_identity_power(self, field):
        ctx = field(3, 2)
        for x in range(ctx.order):
            assert ctx.frobenius(x, 0) == x

    def test_f9_frobenius_of_x_is_minus_x(self, field):
        ctx = field(3, 2)
        # x^3 = -x mod x^2 + 1: index 3 -> digits (0, 2) -> index 6
        assert ctx.frobenius(3, 1) == 6

    def test_round_trip(self, field):
        ctx = field(3, 3)
        for j in range(1, 3):
            for x in range(ctx.order):
                assert ctx.frobenius(ctx.frobenius(x, j), 3 - j) == x

    def test_matches_pow(self, field):
        ctx = field(5, 2)
        for x in range(ctx.order):
            assert ctx.frobenius(x, 1) == ctx.pow(x, 5)

    def test_additive_all_pairs(self, field):
        ctx = field(3, 5)
        for a in range(ctx.order):
            fa = ctx.frobenius(a, 1)
            for b in range(ctx.order):
                assert ctx.frobenius(ctx.add(a, b), 1) == ctx.add(fa, ctx.frobenius(b, 1))

    def test_range_check(self, field):
        ctx = field(3, 2)
        with pytest.raises(ValueError):
            ctx.frobenius(1, 2)
        with pytest.raises(ValueError):
            ctx.frobenius(1, -1)


class TestPrimeSubfield:
    def test_characteristic(self, field):
        # The constants of F_p are the indices 0 .. p-1; p ones add up to 0.
        ctx = field(5, 2)
        acc = 0
        for _ in range(5):
            acc = ctx.add(acc, 1)
        assert acc == 0


class TestAxioms:
    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (2, 4)])
    def test_exhaustive_small(self, field, p, n):
        ctx = field(p, n)
        order = ctx.order
        for a in range(order):
            for b in range(order):
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                for c in (0, 1, (a * 7 + b) % order):
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))

    def test_exhaustive_3_6_vectorized(self, field):
        ctx = field(3, 6)
        order = ctx.order
        idx = np.arange(order, dtype=np.int64)
        grid_a = np.repeat(idx, order)
        grid_b = np.tile(idx, order)
        add_t = ctx.add_array(grid_a, grid_b).reshape(order, order)
        mul_t = ctx.mul_array(grid_a, grid_b).reshape(order, order)
        assert np.array_equal(add_t, add_t.T)
        assert np.array_equal(mul_t, mul_t.T)
        for a in range(order):
            row = mul_t[a]
            # (a*b)*c == a*(b*c) for all b, c
            assert np.array_equal(mul_t[row[:, None], idx[None, :]], row[mul_t])
            # a*(b+c) == a*b + a*c for all b, c
            assert np.array_equal(row[add_t], add_t[np.ix_(row, row)])

    def test_random_triples_large_field(self):
        ctx = make_field(4099, 2)
        rng = random.Random(20240817)
        for _ in range(100_000):
            a = rng.randrange(ctx.order)
            b = rng.randrange(ctx.order)
            c = rng.randrange(ctx.order)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))

    def test_table_mul_matches_reduction_mul(self, field):
        # mul_array reads the log tables; mul reduces polynomials by the modulus.
        ctx = field(3, 5)
        a, b = np.triu_indices(ctx.order)
        for x, y, v in zip(a.tolist(), b.tolist(), ctx.mul_array(a, b).tolist()):
            assert v == ctx.mul(x, y)

    def test_table_mul_matches_reduction_mul_3_6_sampled(self, field):
        ctx = field(3, 6)
        rng = random.Random(7)
        pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(20_000)]
        a, b = np.array(pairs).T
        for (x, y), v in zip(pairs, ctx.mul_array(a, b).tolist()):
            assert v == ctx.mul(x, y)


class TestTables:
    @pytest.mark.parametrize(
        "p,n", [(2, 1), (2, 8), (3, 1), (3, 6), (5, 4), (7, 3), (13, 2)]
    )
    def test_tables_match_scalar_walk(self, p, n):
        ctx = make_field(p, n)
        g = ctx.generator
        walk = [1]
        while len(walk) < ctx.order - 1:
            walk.append(ctx.mul(walk[-1], g))
        assert ctx.mul(walk[-1], g) == 1
        assert ctx.antilog_table.tolist() == walk
        log = [-1] * ctx.order
        for e, x in enumerate(walk):
            log[x] = e
        assert ctx.log_table.tolist() == log
        # g is the first primitive candidate, counting from x (from 1 when n = 1)
        for cand in range(p if n > 1 else 1, g):
            x, k = cand, 1
            while x != 1:
                x, k = ctx.mul(x, cand), k + 1
            assert k < ctx.order - 1

    def test_tables_built_on_first_read(self, monkeypatch):
        built = []
        build = FieldCtx._build_tables
        monkeypatch.setattr(FieldCtx, "_build_tables", lambda ctx: built.append(build(ctx)))
        ctx = FieldCtx(3, 4)
        assert ctx.add(4, 5) == ctx.add(5, 4)
        assert ctx.mul(3, 3) == ctx.pow(3, 2) == 9
        assert ctx.frobenius(3, 1) == ctx.mul(9, 3)
        assert ctx.mul(ctx.inv(7), 7) == 1
        assert built == []
        assert ctx.generator is not None and ctx.antilog_table is not None
        assert len(built) == 1
        assert ctx.mul_array(3, 3) == ctx.mul(3, 3)
        assert len(built) == 1

    @pytest.mark.parametrize("p,n", [(3, 2), (7, 2), (2, 6)])
    def test_log_antilog_inverse(self, field, p, n):
        ctx = field(p, n)
        for x in range(1, ctx.order):
            assert ctx.antilog_table[ctx.log_table[x]] == x
        assert ctx.log_table[0] == -1

    def test_generator_is_primitive(self, field):
        ctx = field(3, 4)
        g = ctx.generator
        seen = set()
        x = 1
        for _ in range(ctx.order - 1):
            seen.add(x)
            x = ctx.mul(x, g)
        assert x == 1
        assert len(seen) == ctx.order - 1

    @pytest.mark.parametrize("p,n", [(3, 4), (2, 8), (67, 2), (251, 1)])
    def test_vectorized_ops_match_scalar(self, field, p, n):
        # add_array reduces lane sums by the lookup table ((3, 4), (2, 8))
        # and by % p where lanes are too wide for one ((67, 2), (251, 1))
        ctx = field(p, n)
        assert (ctx._lane_lookup is None) == (p > 3)
        rng = np.random.default_rng(99)
        a = rng.integers(0, ctx.order, 500)
        b = rng.integers(0, ctx.order, 500)
        adds = ctx.add_array(a, b)
        muls = ctx.mul_array(a, b)
        for i in range(500):
            assert adds[i] == ctx.add(int(a[i]), int(b[i]))
            assert muls[i] == ctx.mul(int(a[i]), int(b[i]))

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 8), (3, 7), (5, 4), (13, 2), (67, 2), (251, 1)])
    def test_lane_sums_of_p_elements(self, field, p, n):
        # a sum of p lane-packed elements reduces to their field sum, also
        # where lanes are too wide for a lookup table ((67, 2), (251, 1))
        ctx = field(p, n)
        assert ctx.lanes_to_index(ctx.lane_table).tolist() == list(range(ctx.order))
        rng = np.random.default_rng(p + n)
        picks = rng.integers(0, ctx.order, (200, p))
        picks[0] = ctx.order - 1  # every lane at its largest sum, p * (p - 1)
        got = ctx.lanes_to_index(ctx.lane_table[picks].sum(axis=1))
        for row, value in zip(picks.tolist(), got.tolist()):
            expected = 0
            for x in row:
                expected = ctx.add(expected, x)
            assert value == expected

    # n = 1, k, 2k and k + 1 for k lanes per lookup: one group, whole groups
    # and a partial last group, by the lookup table (k > 1) and by % p (k = 1).
    @pytest.mark.parametrize(
        "p,n",
        [(2, 1), (2, 6), (2, 12), (2, 7), (3, 1), (3, 4), (3, 8), (3, 5),
         (5, 1), (5, 2), (5, 4), (5, 3), (7, 1), (7, 2), (7, 4), (7, 3), (67, 1), (67, 2)],
    )
    def test_lanes_to_index_matches_digit_reduction(self, p, n):
        ctx = FieldCtx(p, n)
        w = (p * (p - 1)).bit_length()
        assert (ctx._lane_lookup is None) == (p == 67)
        rng = random.Random(p * 100 + n)
        lane_rows = [[rng.randint(0, p * (p - 1)) for _ in range(n)] for _ in range(300)]
        lane_rows[0] = [p * (p - 1)] * n
        sums = np.array([sum(v << (s * w) for s, v in enumerate(row)) for row in lane_rows], dtype=np.int64)
        expected = [sum(v % p * p**s for s, v in enumerate(row)) for row in lane_rows]
        assert ctx.lanes_to_index(sums).tolist() == expected


# Every field of order up to 3^8 with n >= 2; n = 1, where the walk's
# low half is one entry; and larger fields, p >= 67 among them, whose
# lanes are too wide for a lookup table and are reduced by % p.
_ORACLE_FIELDS = sorted(
    {(p, n) for p in range(2, 82) if is_prime(p) for n in range(2, 13) if p**n <= 3**8}
    | {(p, 1) for p in (2, 3, 67, 251, 65537)}
    | {(2, 16), (67, 2), (251, 2), (3, 13)}
)


def _second_modulus(p, n):
    """The monic irreducible of degree n that follows the canonical one in
    find_irreducible's order."""
    found = []
    for k in range(p**n):
        f = PolyFp(p, digits_of(k, p, n) + (1,))
        if is_irreducible(f):
            found.append(f)
            if len(found) == 2:
                return f
    raise AssertionError("fewer than two irreducibles")


class TestTablesMatchOracle:
    """The lane-lookup build gives the digit-matrix build's tables."""

    def _assert_match(self, ctx):
        gen, log, antilog = log_tables(ctx)
        lanes, lookup = lane_tables(ctx)
        assert ctx.generator == gen
        assert np.array_equal(ctx.antilog_table, antilog)
        assert np.array_equal(ctx.log_table, log)
        assert np.array_equal(ctx.lane_table, lanes)
        if lookup is None:
            assert ctx._lane_lookup is None
        else:
            assert np.array_equal(ctx._lane_lookup, lookup)

    @pytest.mark.parametrize("p,n", _ORACLE_FIELDS)
    def test_default_modulus(self, p, n):
        self._assert_match(FieldCtx(p, n))

    @pytest.mark.parametrize("p,n", [(3, 3), (2, 8), (67, 2), (3, 9), (7, 3)])
    def test_other_modulus(self, p, n):
        modulus = _second_modulus(p, n)
        assert modulus != find_irreducible(p, n)
        self._assert_match(FieldCtx(p, n, modulus))

    def test_coverage_check(self, monkeypatch):
        # With no prime factor of p**n - 1 to test, the first candidate, x,
        # is taken as the generator of F_9.  x has order 4, so its walk
        # passes the primitivity check, x**8 = 1, but misses half the field.
        monkeypatch.setattr(fields, "factorint", lambda m: {})
        with pytest.raises(AssertionError, match="antilog table misses an element"):
            FieldCtx(3, 2).log_table  # noqa: B018


# Every field with n >= 2 of order up to 3^7, and the longest generator
# searches measured: 3^8 tries 36 candidates, 3^10 32 and 13^6 170.
_GENERATOR_FIELDS = [
    (p, n) for p in range(2, 47) if is_prime(p) for n in range(2, 12) if p**n <= 3**7  # 47**2 > 3**7
] + [(3, 8), (3, 10), (3, 12), (5, 7), (7, 5), (13, 6)]


class TestGenerator:
    """The generator is the smallest primitive element counting from x.  The
    primes q of p - 1 are tested through the norm: y**((p**n - 1)/q) =
    N(y)**((p - 1)/q), N(y) the resultant of the modulus and y."""

    @pytest.mark.parametrize("p,n", _GENERATOR_FIELDS)
    def test_smallest_primitive_element(self, p, n):
        ctx = FieldCtx(p, n)
        assert ctx.generator == generator(ctx)

    @pytest.mark.parametrize("p,n", _GENERATOR_FIELDS)
    def test_norm_is_the_resultant(self, p, n):
        # Seeded y of every degree 0 through n - 1.
        ctx = FieldCtx(p, n)
        rng = random.Random(p * 100 + n)
        norm = (ctx.order - 1) // (p - 1)
        for degree in range(n):
            for y in {rng.randrange(max(1, p**degree), p ** (degree + 1)) for _ in range(3)}:
                assert _resultant(ctx.modulus, ctx._poly(y)) == ctx.pow(y, norm), (y, degree)


class TestPickling:
    """A context pickles and copies as the arguments it was built from, and
    the copy builds its own tables on first read."""

    _TABLES = ("log_table", "antilog_table", "digit_table", "lane_table", "_lane_lookup")

    @pytest.mark.parametrize("p,n", [(3, 4), (2, 8), (3, 9), (67, 2)])
    def test_copies_build_equal_tables(self, p, n):
        ctx = make_field(p, n)
        data = pickle.dumps(ctx)
        for name in self._TABLES:
            getattr(ctx, name)
        assert pickle.dumps(ctx) == data and len(data) < 100
        for back in (pickle.loads(data), copy.copy(ctx), copy.deepcopy(ctx)):
            assert back is not ctx and type(back) is FieldCtx
            assert (back.p, back.n, back.order, back.modulus) == (p, n, ctx.order, ctx.modulus)
            assert back.generator == ctx.generator
            for name in self._TABLES:
                mine, theirs = getattr(back, name), getattr(ctx, name)
                assert (mine is None and theirs is None) or np.array_equal(mine, theirs), name

    def test_explicit_modulus_round_trips(self):
        modulus = PolyFp(3, (2, 2, 0, 1))  # not the canonical x^3 + 2x + 1
        ctx = make_field(3, 3, modulus)
        assert modulus != find_irreducible(3, 3)
        for back in (pickle.loads(pickle.dumps(ctx)), copy.copy(ctx), copy.deepcopy(ctx)):
            assert back.modulus == modulus
            assert [back.mul(3, b) for b in range(27)] == [ctx.mul(3, b) for b in range(27)]
            assert pickle.dumps(back) == pickle.dumps(ctx)

    def test_default_modulus_is_not_sent(self):
        ctx = make_field(3, 4)
        assert ctx.modulus == find_irreducible(3, 4)
        assert pickle.dumps(ctx) == pickle.dumps(FieldCtx(3, 4))

    def test_above_the_table_cap(self):
        back = pickle.loads(pickle.dumps(make_field(4099, 2)))
        assert back.order > 1 << 24
        for name in ("generator", "log_table", "antilog_table", "lane_table", "digit_table"):
            with pytest.raises(OrderTooLarge, match="requested for an order above 2\\*\\*24"):
                getattr(back, name)


class TestEncoding:
    # An element index is its polynomial-basis coefficient vector
    # (c_0, ..., c_(n-1)) read as base-p digits, c_0 lowest.

    def test_coeff_round_trip(self, field):
        ctx = field(3, 3)
        table = ctx.digit_table
        for x in range(ctx.order):
            coeffs = digits_of(x, 3, 3)
            assert tuple(table[x].tolist()) == coeffs
            assert sum(c * 3**i for i, c in enumerate(coeffs)) == x
            if coeffs[-1] == 0:
                # times x shifts the coefficients up while no reduction occurs
                assert ctx.mul(x, 3) == 3 * x

    def test_coeffs_reduce_mod_p(self, field):
        ctx = field(3, 2)
        # (1 + 2x) + (1 + 2x) = 2 + 4x = 2 + x
        assert ctx.add(7, 7) == 5
        for a in range(ctx.order):
            for b in range(ctx.order):
                sums = tuple((u + v) % 3 for u, v in zip(digits_of(a, 3, 2), digits_of(b, 3, 2)))
                assert digits_of(ctx.add(a, b), 3, 2) == sums

    def test_more_coefficients_than_the_degree_rejected(self, field):
        # Index 9 = x^2 needs a third coefficient on F_9.
        ctx = field(3, 2)
        for op in (lambda: ctx.add(9, 0), lambda: ctx.neg(9), lambda: ctx.mul(1, 9)):
            with pytest.raises(ValueError, match="9 is not an element index"):
                op()

    def test_custom_modulus_changes_arithmetic(self):
        # x^3 + 2x + 1 and x^3 + 2x + 2 are both irreducible over F_3
        a = make_field(3, 3, PolyFp(3, (1, 2, 0, 1)))
        b = make_field(3, 3, PolyFp(3, (2, 2, 0, 1)))
        assert a.mul(3, 9) != b.mul(3, 9) or a.modulus != b.modulus
        # x * x^2 = x^3 = -(2x + c) in each representation: 1 + 2x is the
        # index 1 + 2*3 = 7, and 2 + 2x is 8.
        assert a.mul(3, 9) == a.neg(7)
        assert b.mul(3, 9) == b.neg(8)


class TestSharedFields:
    """make_field shares one default-modulus context per small field."""

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 4), (3, 7), (2, 11), (5, 4), (43, 2), (67, 1)])
    def test_repeated_calls_share_one_context(self, p, n):
        ctx = make_field(p, n)
        assert make_field(p, n) is ctx
        assert make_field(p, n).log_table is ctx.log_table
        assert FieldCtx(p, n) is not ctx  # the class itself never shares

    def test_explicit_modulus_gets_a_new_context(self):
        shared = make_field(3, 4)
        canonical = find_irreducible(3, 4)
        own = make_field(3, 4, canonical)
        assert own is not shared
        assert make_field(3, 4, canonical) is not own
        assert fields._shared == {(3, 4): shared}

    @pytest.mark.parametrize("p,n", [(3, 8), (47, 2)])
    def test_above_budget_gets_a_new_context(self, p, n):
        assert p**n > SOFT_ORDER_BUDGET
        assert make_field(p, n) is not make_field(p, n)
        assert fields._shared == {}

    def test_numpy_integer_arguments_share_one_context(self):
        ctx = make_field(np.int64(3), 4)
        assert make_field(np.int64(3), np.int32(4)) is ctx
        assert make_field(3, 4) is ctx
        assert fields._shared == {(3, 4): ctx}
        assert [type(k) for k in fields._shared.popitem()[0]] == [int, int]

    def test_scan_above_budget_builds_its_own_field(self, monkeypatch):
        real = search.make_field
        built = []

        def recording(p, n):
            built.append(real(p, n))
            return built[-1]

        monkeypatch.setattr(search, "make_field", recording)
        for _ in range(2):
            run_search(SearchJob(3, 9, "conjecture"))
        assert len(built) == 2 and built[0] is not built[1]
        assert (3, 9) not in fields._shared
        assert all(ctx.order <= SOFT_ORDER_BUDGET for ctx in fields._shared.values())

    @pytest.mark.parametrize(
        "p,n,error", [(4, 2, NotPrime), (1, 3, NotPrime), (3, 0, ValueError), (2, 49, OrderTooLarge)]
    )
    def test_errors_raise_on_every_call(self, p, n, error):
        for _ in range(3):
            with pytest.raises(error):
                make_field(p, n)
        assert fields._shared == {}

    def test_tables_are_read_only(self, capsys):
        argv = ["test", "-p", "3", "-n", "4", "-d", "5", "--format", "json"]
        assert cli_main(argv) == 0
        before = capsys.readouterr().out
        ctx = make_field(3, 4)
        lanes, lookup = ctx.lane_table, ctx._lane_lookup
        tables = {
            "log_table": ctx.log_table,
            "antilog_table": ctx.antilog_table,
            "lane_table": lanes,
            "lane lookup": lookup,
            "digit_table": ctx.digit_table,
        }
        for name, table in tables.items():
            with pytest.raises(ValueError, match="read-only"):
                table[1] = 0
            with pytest.raises(ValueError, match="read-only"):
                table += 1
        assert make_field(3, 4) is ctx
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == before
