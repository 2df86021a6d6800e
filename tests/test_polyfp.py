import itertools
import random

import pytest

from gapnkit import (
    BothZero,
    DivisionByZero,
    FactorizationTooLarge,
    PolyFp,
    RootIsZero,
    factorize,
    make_field,
    poly_gcd,
    root_order,
)
from gapnkit.polyfp import _order_of_x, is_irreducible, pow_mod, x_pow_mod


def P(p, *coeffs):
    return PolyFp(p, coeffs)


def _monic(p, deg):
    """Every monic polynomial of degree deg over F_p."""
    return [PolyFp(p, low + (1,)) for low in itertools.product(range(p), repeat=deg)]


def _reducible_monic(p, max_deg):
    """Every monic reducible polynomial of degree <= max_deg over F_p, by
    definition: a product g * h of monic g and h of degree >= 1."""
    out = set()
    for i in range(1, max_deg // 2 + 1):
        for j in range(i, max_deg - i + 1):
            out.update(g * h for g in _monic(p, i) for h in _monic(p, j))
    return out


class TestConstruction:
    def test_normalization(self):
        assert P(3, 1, 2, 0, 0).coeffs == (1, 2)
        assert P(3, 4, -1).coeffs == (1, 2)
        assert P(3).coeffs == ()

    def test_characteristic_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            PolyFp(1)

    def test_mixed_characteristics_rejected(self):
        with pytest.raises(ValueError, match="mixed characteristics 3 and 5"):
            P(3, 1) + P(5, 1)
        with pytest.raises(ValueError, match="mixed characteristics 3 and 5"):
            P(3, 1) - P(5, 1)

    def test_subtraction_is_coefficientwise(self):
        # Every pair of polynomials of degree below 3 over F_3, unequal lengths included.
        digit_triples = list(itertools.product(range(3), repeat=3))
        for u in digit_triples:
            for v in digit_triples:
                assert PolyFp(3, u) - PolyFp(3, v) == PolyFp(3, [x - y for x, y in zip(u, v)])

    def test_degree(self):
        assert P(3).degree == -1
        assert P(3, 2).degree == 0
        assert P(3, 0, 0, 1).degree == 2

    def test_str(self):
        assert str(P(3, 1, 2, 1)) == "x^2 + 2*x + 1"
        assert str(P(3, 2)) == "2"
        assert str(P(3)) == "0"

    def test_arithmetic_basics(self):
        a = P(3, 1, 1)  # x + 1
        b = P(3, 2, 1)  # x + 2
        assert (a * b).coeffs == (2, 0, 1)  # x^2 + 2
        assert (a + b).coeffs == (0, 2)
        assert (a - a).coeffs == ()
        assert a.evaluate(2) == 0  # 2 + 1 = 3

    def test_shift_and_scale(self):
        a = P(3, 1, 1)
        assert a.shift(2).coeffs == (0, 0, 1, 1)
        assert a.scale(2).coeffs == (2, 2)

    def test_derivative_pth_power_vanishes(self):
        f = P(3, 1, 0, 0, 2)  # 2x^3 + 1
        assert f.derivative().coeffs == ()


class TestDivrem:
    def test_difference_of_squares(self):
        q, r = divmod(P(3, 2, 0, 1), P(3, 2, 1))  # (x^2 - 1) / (x - 1)
        assert q.coeffs == (1, 1)
        assert r.is_zero

    def test_low_degree_numerator(self):
        q, r = divmod(P(3, 0, 1), P(3, 0, 0, 1))  # x / x^2
        assert q.is_zero
        assert r.coeffs == (0, 1)

    def test_cube_minus_x_by_x(self):
        q, r = divmod(P(3, 0, 2, 0, 1), P(3, 0, 1))  # (x^3 - x) / x
        assert q.coeffs == (2, 0, 1)
        assert r.is_zero

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            divmod(P(3, 1), P(3))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_round_trip_random(self, p):
        rng = random.Random(1000 + p)
        for _ in range(10_000):
            a = PolyFp(p, [rng.randrange(p) for _ in range(rng.randrange(9))])
            b = PolyFp(p, [rng.randrange(p) for _ in range(rng.randrange(1, 6))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _ref_divmod(a, b, p):
    """Schoolbook long division on coefficient lists, lowest degree first."""
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(_trim(rem)) >= len(b):
        shift = len(rem) - len(b)
        q = rem[-1] * inv % p
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - q * c) % p
    return _trim(quo), rem


def _ref_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _ref_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _ref_pow_mod(a, e, m, p):
    out = _ref_divmod([1], m, p)[1]
    for _ in range(e):
        out = _ref_divmod(_ref_mul(out, a, p), m, p)[1]
    return out


class TestCanonicalForm:
    """Every operation returns a canonical polynomial (coefficients in
    [0, p), no trailing zero) equal, with an equal hash, to the one
    PolyFp.__init__ builds from the same coefficients, and matches a
    schoolbook reference on plain lists."""

    @staticmethod
    def check(f, p, expected):
        assert f.p == p
        assert type(f.coeffs) is tuple
        assert all(type(c) is int and 0 <= c < p for c in f.coeffs)
        assert not f.coeffs or f.coeffs[-1] != 0
        rebuilt = PolyFp(p, f.coeffs)
        assert f == rebuilt and rebuilt == f and hash(f) == hash(rebuilt)
        assert list(f.coeffs) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_every_operation(self, p):
        rng = random.Random(f"canonical:{p}")
        check = self.check
        for _ in range(300):
            # Raw coefficients may be negative or >= p and may end in zeros.
            a = PolyFp(p, [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(12))])
            b = PolyFp(p, [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(8))])
            ra, rb = list(a.coeffs), list(b.coeffs)
            check(a + b, p, _trim([(x + y) % p for x, y in itertools.zip_longest(ra, rb, fillvalue=0)]))
            check(a - b, p, _trim([(x - y) % p for x, y in itertools.zip_longest(ra, rb, fillvalue=0)]))
            check(a - a, p, [])
            check(-a, p, [-x % p for x in ra])
            check(a * b, p, _ref_mul(ra, rb, p))
            c = rng.randrange(-2 * p, 2 * p)
            check(a.scale(c), p, _trim([c * x % p for x in ra]))
            k = rng.randrange(5)
            check(a.shift(k), p, [0] * k + ra if ra else [])
            check(a.derivative(), p, _trim([i * x % p for i, x in enumerate(ra)][1:]))
            check(a.monic(), p, [x * pow(ra[-1], -1, p) % p for x in ra] if ra else [])
            if not a.is_zero or not b.is_zero:
                check(poly_gcd(a, b), p, _ref_gcd(ra, rb, p))
            if b.is_zero:
                continue
            ref_q, ref_r = _ref_divmod(ra, rb, p)
            q, r = divmod(a, b)
            check(q, p, ref_q)
            check(r, p, ref_r)
            check(a // b, p, ref_q)
            check(a % b, p, ref_r)
            assert a == (a // b) * b + a % b
            assert (a % b).degree < b.degree
            e = rng.randrange(7)
            check(pow_mod(a, e, b), p, _ref_pow_mod(ra, e, rb, p))
            check(x_pow_mod(e, b), p, _ref_pow_mod([0, 1], e, rb, p))


class TestGcd:
    def test_common_factor(self):
        g = poly_gcd(P(3, 2, 0, 1), P(3, 2, 1))
        assert g.coeffs == (2, 1)  # x - 1

    def test_with_zero(self):
        f = P(3, 0, 2)  # 2x
        assert poly_gcd(f, P(3)).coeffs == (0, 1)  # monic
        assert poly_gcd(P(3), f).coeffs == (0, 1)

    def test_both_zero(self):
        with pytest.raises(BothZero):
            poly_gcd(P(3), P(3))

    def test_euclid_regression_fixture(self):
        # gcd(x^2 - 1, x^2 + x + 1) over F_3: one Euclid step gives
        # remainder -(x + 2)... x^2+x+1 - (x^2+2) = x - 1? worked by hand:
        # (x^2 + 2) mod (x^2 + x + 1) = 2x + 1 = 2(x + 2); gcd = x + 2.
        g = poly_gcd(P(3, 2, 0, 1), P(3, 1, 1, 1))
        assert g.coeffs == (2, 1)

    def test_gcd_divides_both(self):
        rng = random.Random(42)
        for _ in range(500):
            p = rng.choice([2, 3, 5])
            a = PolyFp(p, [rng.randrange(p) for _ in range(rng.randrange(8))])
            b = PolyFp(p, [rng.randrange(p) for _ in range(rng.randrange(8))])
            if a.is_zero and b.is_zero:
                continue
            g = poly_gcd(a, b)
            for f in (a, b):
                if not f.is_zero:
                    assert divmod(f, g)[1].is_zero


class TestIrreducibility:
    def test_x2_plus_1_over_f3(self):
        assert is_irreducible(P(3, 1, 0, 1))

    def test_x2_minus_1_over_f3(self):
        assert not is_irreducible(P(3, 2, 0, 1))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_x_irreducible(self, p):
        assert is_irreducible(P(p, 0, 1))

    def test_constants_are_not_irreducible(self):
        assert not is_irreducible(P(3, 1))
        assert not is_irreducible(P(3))

    def test_pow_mod(self):
        f = P(3, 1, 0, 1)
        x = P(3, 0, 1)
        # x^9 = x in F_3[x]/(x^2+1) since the field has 9 elements
        assert pow_mod(x, 9, f) == x
        assert pow_mod(x, 4, f) == P(3, 1)  # order of x mod x^2+1 is 4
        # Every exponent up to 40, 0 and 1 and each top bit included, by repeated product.
        g = P(3, 2, 1, 2, 1)
        mod = P(3, 1, 2, 0, 1, 1)
        power = PolyFp.one(3)
        for e in range(41):
            assert pow_mod(g, e, mod) == power % mod
            power = power * g

    def test_agrees_with_naive_over_f2(self):
        # all monic cubics over F_2
        naive = {
            (0, 0, 0, 1): False,  # x^3
            (1, 0, 0, 1): False,  # (x+1)(x^2+x+1)
            (0, 1, 0, 1): False,  # x(x+1)^2
            (1, 1, 0, 1): True,
            (0, 0, 1, 1): False,  # x^2(x+1)
            (1, 0, 1, 1): True,
            (0, 1, 1, 1): False,  # x(x^2+x+1)
            (1, 1, 1, 1): False,  # (x+1)^3
        }
        for coeffs, expect in naive.items():
            assert is_irreducible(PolyFp(2, coeffs)) is expect

    @pytest.mark.parametrize("p,max_deg", [(2, 6), (3, 6), (5, 4), (7, 4)])
    def test_matches_definition_on_every_small_polynomial(self, p, max_deg):
        # Monic and non-monic: f is irreducible iff deg f >= 1 and its
        # monic multiple is no product of two monic factors of degree >= 1.
        reducible = _reducible_monic(p, max_deg)
        for deg in range(max_deg + 1):
            for low in itertools.product(range(p), repeat=deg):
                for lc in range(1, p):
                    f = PolyFp(p, low + (lc,))
                    expect = deg >= 1 and f.monic() not in reducible
                    assert is_irreducible(f) is expect, f

    def test_square_needs_the_half_degree_step(self):
        # (x^2 + 1)^2 over F_3 has no factor of degree 1, so only the
        # step i = n/2 = 2 of the walk sees that it is reducible.
        assert not is_irreducible(P(3, 1, 0, 1) * P(3, 1, 0, 1))


class TestXPowMod:
    @pytest.mark.parametrize("mod", [P(2, 1, 1, 0, 1), P(3, 1, 0, 1), P(5, 2, 3, 0, 4, 1), P(7, 3, 1)])
    def test_matches_plain_reduction(self, mod):
        for k in range(200):
            assert x_pow_mod(k, mod) == PolyFp.x_pow(mod.p, k) % mod

    def test_large_exponents_match_pow_mod(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            mod = PolyFp(p, [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1])
            k = rng.randrange(10**12)
            assert x_pow_mod(k, mod) == pow_mod(P(p, 0, 1), k, mod)

    def test_constant_modulus(self):
        assert x_pow_mod(10**6, P(3, 2)).is_zero

    def test_pow_mod_constant_modulus(self):
        # Modulo a nonzero constant every residue is 0, the zeroth power too.
        assert pow_mod(P(3, 1, 1), 0, P(3, 2)).is_zero
        assert x_pow_mod(0, P(3, 2)).is_zero

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            x_pow_mod(-1, P(3, 1, 0, 1))


class TestFactorize:
    def test_difference_of_squares(self):
        fz = factorize(P(3, 2, 0, 1))
        assert fz.unit == 1
        assert [(f.coeffs, m) for f, m in fz.factors] == [((1, 1), 1), ((2, 1), 1)]

    def test_gold_i2_digit_polynomial(self):
        # digits of 11 base 3 are (2, 0, 1), giving x^2 + 2 = x^2 - 1
        fz = factorize(P(3, 2, 0, 1))
        assert len(fz.factors) == 2
        assert all(m == 1 for _, m in fz.factors)

    def test_pth_power_multiplicity(self):
        # x^3 - 1 = (x - 1)^3 in characteristic 3
        fz = factorize(P(3, 2, 0, 0, 1))
        assert [(f.coeffs, m) for f, m in fz.factors] == [((2, 1), 3)]

    def test_unit_preserved(self):
        fz = factorize(P(3, 1, 0, 2))  # 2x^2 + 1 = 2(x^2 + 2)
        assert fz.unit == 2
        assert fz.product() == P(3, 1, 0, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(P(3))

    def test_reconstruction_exhaustive_f3_deg6(self):
        p = 3
        for packed in range(1, p**7):
            coeffs = []
            v = packed
            for _ in range(7):
                coeffs.append(v % p)
                v //= p
            f = PolyFp(p, coeffs)
            fz = factorize(f)
            assert fz.product() == f
            for factor, _ in fz.factors:
                assert factor.monic() == factor
                assert is_irreducible(factor)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_reconstruction_random_deg12(self, p):
        rng = random.Random(7000 + p)
        for _ in range(1000):
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 14))]
            f = PolyFp(p, coeffs)
            if f.is_zero:
                continue
            fz = factorize(f)
            assert fz.product() == f

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_evaluation_split_matches_cantor_zassenhaus(self, p, monkeypatch):
        # Every monic polynomial of degree <= 4, with linear factors split by
        # evaluation and again with the bound at 0, which leaves them to
        # Cantor-Zassenhaus.
        polys = [f for deg in range(5) for f in _monic(p, deg)]
        by_evaluation = [factorize(f) for f in polys]
        monkeypatch.setattr("gapnkit.polyfp._ROOTS_BY_EVALUATION_MAX_P", 0)
        assert [factorize(f) for f in polys] == by_evaluation

    @pytest.mark.parametrize("p,roots", [(2, [0, 1]), (3, [0, 1, 2]), (7, [6, 2, 3]), (251, [250, 0, 17, 99, 1])])
    def test_linear_products_draw_nothing(self, p, roots, monkeypatch):
        # At or below the evaluation bound, distinct linear factors split
        # without seeding a random stream, squared or not.
        def refuse(*args, **kwargs):
            raise AssertionError("a random stream was seeded")

        monkeypatch.setattr(random, "Random", refuse)
        linear = sorted((P(p, -a, 1) for a in roots), key=lambda g: g.coeffs)
        f = P(p, 1)
        for g in linear:
            f = f * g
        assert factorize(f).factors == tuple((g, 1) for g in linear)
        assert factorize(f * f.scale(p - 1)).factors == tuple((g, 2) for g in linear)

    @pytest.mark.parametrize("p", [1_000_003, 2**31 - 1])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_linear_factors_above_the_bound_split_by_cantor_zassenhaus(self, p, k):
        rng = random.Random(p + k)
        roots = rng.sample(range(p), k)
        # x^2 - c with c a non-residue, by Euler's criterion, is irreducible.
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        quadratic = P(p, -c, 0, 1)
        f = quadratic
        for a in roots:
            f = f * P(p, -a, 1)
        fz = factorize(f)
        assert fz.product() == f
        assert all(m == 1 and is_irreducible(g) for g, m in fz.factors)
        assert [g.degree for g, _ in fz.factors] == [1] * k + [2]

    def test_characteristic_two_trace_split(self):
        # The product of the two irreducible cubics over F_2 has no root,
        # so only the trace map of Cantor-Zassenhaus splits it.
        cubics = [P(2, 1, 0, 1, 1), P(2, 1, 1, 0, 1)]
        fz = factorize(cubics[0] * cubics[1])
        assert fz.factors == ((cubics[0], 1), (cubics[1], 1))

    def test_sorted_and_deterministic(self):
        f = P(5, 0, 1) * P(5, 1, 1) * P(5, 2, 1) * P(5, 1, 1, 1) * P(5, 3, 0, 0, 2)
        first = factorize(f)
        second = factorize(f)
        assert first == second
        keys = [(g.degree, g.coeffs) for g, _ in first.factors]
        assert keys == sorted(keys)


class TestRootOrder:
    def test_root_one(self):
        assert root_order(P(3, 2, 1)) == 1  # x - 1
        assert root_order(P(5, 4, 1)) == 1

    def test_root_minus_one(self):
        assert root_order(P(3, 1, 1)) == 2  # x + 1

    def test_fourth_root(self):
        assert root_order(P(3, 1, 0, 1)) == 4  # x^2 + 1, root i

    def test_x_rejected(self):
        with pytest.raises(RootIsZero):
            root_order(P(3, 0, 1))

    def test_degree_cap(self):
        with pytest.raises(FactorizationTooLarge):
            root_order(PolyFp(3, (2,) + (0,) * 24 + (1,)))

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            root_order(P(3, 2, 0, 1))

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            root_order(P(3, 2))

    @pytest.mark.parametrize("p,N", [(3, 4), (3, 8), (3, 13), (5, 6), (2, 7), (2, 15)])
    def test_orders_divide_cyclotomic_exponent(self, p, N):
        xn1 = PolyFp.x_pow(p, N) - PolyFp.one(p)
        for h, mult in factorize(xn1).factors:
            assert mult == 1  # gcd(N, p) = 1 keeps x^N - 1 square-free
            order = root_order(h)
            assert N % order == 0

    def test_matches_field_element_order(self):
        # the root of x^2 + 1 is the element x (index 3) of F_9
        ctx = make_field(3, 2, PolyFp(3, (1, 0, 1)))
        x = 3
        order = 1
        acc = x
        while acc != 1:
            acc = ctx.mul(acc, x)
            order += 1
        assert order == root_order(P(3, 1, 0, 1)) == 4

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_smallest_power_of_x(self, p):
        # Every monic irreducible h != x of degree <= 4: the order is the
        # least N >= 1 with x**N = 1 mod h, found by stepping through powers.
        reducible = _reducible_monic(p, 4)
        for deg in range(1, 5):
            for h in _monic(p, deg):
                if h in reducible or h == P(p, 0, 1):
                    continue
                power, order = P(p, 0, 1) % h, 1
                while not power.is_one:
                    power, order = power.shift(1) % h, order + 1
                assert root_order(h) == order, h

    def test_large_degree_within_cap(self):
        # x^13 - 1 over F_3 splits into x - 1 and four irreducible cubics
        xn1 = PolyFp.x_pow(3, 13) - PolyFp.one(3)
        factors = factorize(xn1).factors
        degrees = sorted(h.degree for h, _ in factors)
        assert degrees == [1, 3, 3, 3, 3]
        for h, _ in factors:
            if h.degree == 3:
                assert root_order(h) == 13


class TestRootOrderMemo:
    """_order_of_x walks each monic irreducible factor once per interpreter."""

    @pytest.mark.parametrize("p,max_deg", [(3, 3), (5, 3), (7, 3), (2, 6)])
    def test_memo_matches_the_walk_and_the_stepped_order(self, p, max_deg):
        reducible = _reducible_monic(p, max_deg)
        for deg in range(1, max_deg + 1):
            for h in _monic(p, deg):
                if h in reducible or h == P(p, 0, 1):
                    continue
                order = 1
                while not x_pow_mod(order, h).is_one:
                    order += 1
                assert _order_of_x(h) == _order_of_x.__wrapped__(h) == order, h
                assert _order_of_x(h) == order, h  # the memo's answer the second time

    def test_equal_coefficients_over_different_primes_are_separate_entries(self):
        _order_of_x.cache_clear()
        assert (_order_of_x(P(3, 1, 1)), _order_of_x(P(5, 1, 1))) == (2, 2)
        assert (_order_of_x(P(3, 1, 1)), _order_of_x(P(5, 1, 1))) == (2, 2)
        info = _order_of_x.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 2)

    @pytest.mark.parametrize("reducible", [P(5, 2, 3, 1), P(5, 1, 2, 1), P(3, 2, 0, 1)])
    def test_reducible_rejected_after_its_factors_are_memoised(self, reducible):
        for factor, _ in factorize(reducible).factors:
            _order_of_x(factor)
        with pytest.raises(ValueError, match="monic irreducible"):
            root_order(reducible)

    def test_degree_cap_raises_every_time(self):
        h = PolyFp(3, (2,) + (0,) * 24 + (1,))
        for _ in range(2):
            with pytest.raises(FactorizationTooLarge):
                _order_of_x(h)

    def test_bounded(self):
        assert _order_of_x.cache_info().maxsize is not None
