import itertools
import random
import time
from math import gcd

import numpy as np
import pytest

from gapnkit import (
    EvenCharacteristic,
    ExceptionalProfile,
    NotNormalized,
    NotPrime,
    PolyFp,
    SOFT_ORDER_BUDGET,
    WrongWeight,
    circulant_rank,
    coset_count,
    coset_members,
    coset_rep,
    coset_reps,
    criterion_gapn,
    differential_spectrum,
    digit_polynomial,
    digits_of,
    exceptional_profile,
    identify_family,
    linearized_kernel_dim,
    max_degree_family,
    monomial_gapn_fast,
    monomial_table,
    normalize_weight_p,
    p_weight,
)
from gapnkit.monomial import CriterionReport, classical_families, rank_mod_p
from gapnkit.numtheory import is_prime
from gapnkit.polyfp import factorize, poly_gcd, root_order, x_pow_mod
from numpy_cosets import coset_reps as numpy_coset_reps
from numpy_rank import rank_mod_p as numpy_rank_mod_p


def _normalized_weight_p_exponents(p, n):
    return [
        d
        for d in range(1, p**n)
        if d % p != 0 and p_weight(d, p) == p
    ]


def _criterion_by_full_gcd(d, p, n):
    """The criterion as first derived: g = gcd(C, x**n - 1) with x**n - 1
    built in full, factored whole, and one copy of x - 1 taken out of its
    factors."""
    c = PolyFp(p, digits_of(d, p))
    g = poly_gcd(c, PolyFp.x_pow(p, n) - PolyFp.one(p))
    x_minus_1 = PolyFp(p, (-1, 1))
    offending = []
    for f, k in factorize(g).factors:
        k -= f == x_minus_1
        if k:
            offending.append((f, k))
    return CriterionReport(d, p, n, c, g, not offending, tuple(offending))


class TestDigits:
    def test_digits_of(self):
        assert digits_of(5, 3) == (2, 1)
        assert digits_of(5, 3, 4) == (2, 1, 0, 0)
        assert digits_of(0, 3) == ()
        assert p_weight(0, 3) == 0

    def test_digits_overflow_rejected(self):
        with pytest.raises(ValueError):
            digits_of(11, 3, 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            digits_of(-1, 3)

    @pytest.mark.parametrize("base", [0, -2])
    def test_base_below_two_rejected(self, base):
        # Base 1 is covered by the CLI tests, in a subprocess: before this
        # check it looped until memory ran out, since 1 // 1 == 1.
        with pytest.raises(ValueError, match="below 2"):
            digits_of(1, base)

    def test_weight_examples(self):
        assert p_weight(5, 3) == 3
        assert p_weight(8, 3) == 4  # 22_3
        for j in range(5):
            assert p_weight(3**j, 3) == 1
            assert p_weight(5**j, 5) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_weight_of_inverse_exponent(self, n):
        assert p_weight(3**n - 2, 3) == 2 * n - 1

    def test_weight_bound(self):
        for d in range(1, 3**4):
            assert p_weight(d, 3) <= 4 * 2


class TestCosets:
    def test_rep_examples(self):
        assert coset_rep(7, 3, 2) == 5
        assert coset_rep(15, 3, 3) == 5
        assert coset_rep(4, 3, 2) == 4  # 4*3 = 12 = 4 mod 8

    def test_rep_is_orbit_minimum(self):
        p, n = 3, 4
        for d in range(1, 3**4 - 1):
            orbit = {d * p**k % (p**n - 1) for k in range(n)}
            assert coset_rep(d, p, n) == min(orbit)
            assert coset_members(d, p, n) == tuple(sorted(orbit))

    @pytest.mark.parametrize(
        "p,n", [(2, 1), (3, 1), (2, 2), (2, 6), (3, 4), (3, 5), (5, 3), (7, 2), (3, 10)]
    )
    def test_coset_reps_match_scalar_loop(self, p, n):
        reps, weights = coset_reps(p, n)
        expected = [d for d in range(2, p**n - 1) if coset_rep(d, p, n) == d]
        assert reps == expected
        assert weights == [p_weight(d, p) for d in expected]

    def test_members_examples(self):
        assert coset_members(5, 3, 2) == (5, 7)
        assert coset_members(5, 3, 4) == (5, 15, 45, 55)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            coset_rep(0, 3, 2)
        with pytest.raises(ValueError):
            coset_rep(8, 3, 2)


# Every field of at most 2**20 elements for these p, the degenerate
# (2, 1), (2, 2) and (3, 1) included.
_SMALL_FIELDS = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 21) if p**n <= 1 << 20]


class TestWeightPReps:
    """The necklace walk and Burnside's count against the numpy scan that
    tests every exponent by rotation."""

    @pytest.mark.parametrize("p,n", _SMALL_FIELDS)
    def test_match_coset_reps(self, p, n):
        reps, weights = numpy_coset_reps(p, n)
        keep = reps > 1
        reps, weights = reps[keep], weights[keep]
        assert coset_count(p, n) == reps.size
        assert coset_reps(p, n) == (reps.tolist(), weights.tolist())
        assert coset_reps(p, n, p, p)[0] == reps[weights == p].tolist()
        band = (weights >= p + 1) & (weights <= n * (p - 1) - 2)
        assert coset_reps(p, n, p + 1, n * (p - 1) - 2) == (reps[band].tolist(), weights[band].tolist())

    def test_degenerate_fields_have_no_cosets(self):
        # F_2's one exponent class is the coset of 1 = p**n - 1; F_4's
        # weight-2 word 11 is p**n - 1 itself; F_3 has no digit sum 3.
        for p, n in [(2, 1), (2, 2), (3, 1)]:
            assert coset_count(p, n) == 0
            assert coset_reps(p, n) == ([], [])

    @pytest.mark.parametrize("p,n,match", [(1, 3, "below 2"), (0, 3, "below 2"), (-2, 3, "below 2"),
                                           (3, 0, "extension degree"), (2, -1, "extension degree")])
    def test_no_field_raises_value_error(self, p, n, match):
        with pytest.raises(ValueError, match=match):
            coset_count(p, n)
        with pytest.raises(ValueError, match=match):
            coset_reps(p, n)

    def test_burnside_divisor_form(self):
        # The count (1/n) sum_(e | n) phi(e) p**(n/e), from phi by its
        # definition rather than the gcd sum coset_count uses.
        def phi(e):
            return sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)

        for p, n in [(3, 30), (2, 40), (5, 12), (7, 9)]:
            necklaces = sum(phi(e) * p ** (n // e) for e in range(1, n + 1) if n % e == 0) // n
            assert coset_count(p, n) == necklaces - 3


class TestNormalize:
    def test_examples(self):
        assert normalize_weight_p(15, 3) == 5
        assert normalize_weight_p(5, 3) == 5
        assert normalize_weight_p(33, 3) == 11  # digits (0,2,0,1), weight 3

    def test_result_has_nonzero_constant_digit(self):
        rng = random.Random(5)
        for _ in range(200):
            positions = rng.sample(range(9), 2)
            d = 3 ** positions[0] * 2 + 3 ** positions[1]
            got = normalize_weight_p(d, 3)
            assert got % 3 != 0
            assert p_weight(got, 3) == 3

    def test_wrong_weight(self):
        with pytest.raises(WrongWeight):
            normalize_weight_p(4, 3)  # weight 2
        with pytest.raises(WrongWeight):
            normalize_weight_p(26, 3)  # weight 6


class TestDigitPolynomial:
    def test_gold_i1(self):
        assert digit_polynomial(5, 3).coeffs == (2, 1)  # x - 1

    def test_gold_i2(self):
        assert digit_polynomial(11, 3).coeffs == (2, 0, 1)  # x^2 - 1

    def test_welch_t1(self):
        assert digit_polynomial(7, 3).coeffs == (1, 2)  # 2x + 1

    def test_value_at_one_is_zero(self):
        for d in _normalized_weight_p_exponents(3, 5):
            assert digit_polynomial(d, 3).evaluate(1) == 0

    def test_errors(self):
        with pytest.raises(WrongWeight):
            digit_polynomial(4, 3)
        with pytest.raises(NotNormalized):
            digit_polynomial(15, 3)


class TestCriterion:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_gold_i1_gapn_everywhere(self, n):
        assert criterion_gapn(5, 3, n).is_gapn

    def test_gold_i2_depends_on_parity(self):
        bad = criterion_gapn(11, 3, 2)
        assert not bad.is_gapn
        assert [(f.coeffs, m) for f, m in bad.offending_factors] == [((1, 1), 1)]
        good = criterion_gapn(11, 3, 3)
        assert good.is_gapn
        assert good.gcd.coeffs == (2, 1)
        assert not criterion_gapn(11, 3, 4).is_gapn

    def test_unit_root_multiplicity_blocks_p_dividing_n(self):
        # digit polynomial of 13 is (x-1)^2; its only root is 1, yet x^13
        # is not GAPN on F_27: x^3 - 1 = (x-1)^3 shares the square
        report = criterion_gapn(13, 3, 3)
        assert not report.is_gapn
        assert report.gcd.coeffs == (1, 1, 1)  # (x - 1)^2
        assert [(f.coeffs, m) for f, m in report.offending_factors] == [((2, 1), 1)]

    def test_same_exponent_fine_when_p_coprime_n(self):
        assert criterion_gapn(13, 3, 4).is_gapn
        assert criterion_gapn(13, 3, 5).is_gapn

    def test_errors(self):
        with pytest.raises(WrongWeight):
            criterion_gapn(4, 3, 2)
        with pytest.raises(NotNormalized):
            criterion_gapn(15, 3, 3)
        with pytest.raises(ValueError):
            criterion_gapn(0, 3, 2)

    @pytest.mark.parametrize("n", [0, -4])
    def test_dimension_below_one_rejected(self, n):
        # There is no field F_(3^n) to give a verdict for.
        with pytest.raises(ValueError, match="extension degree"):
            criterion_gapn(5, 3, n)

    @pytest.mark.parametrize("d,p", [(7, 4), (17, 9)])
    def test_non_prime_p_rejected(self, d, p):
        # 7 = 13_4 and 17 = 18_9 have digit sum p, but p is not prime.
        with pytest.raises(NotPrime):
            criterion_gapn(d, p, 2)
        with pytest.raises(NotPrime):
            circulant_rank(d, p, 2)
        with pytest.raises(NotPrime):
            exceptional_profile(d, p)

    @pytest.mark.parametrize("d,p", [(9, 9), (5, 4), (1, 1), (6, 0)])
    def test_prime_checked_before_weight(self, d, p):
        # None of these d has digit sum p; the prime is still what fails.
        with pytest.raises(NotPrime, match=f"^{p} is not prime$"):
            normalize_weight_p(d, p)

    @pytest.mark.parametrize("p,n", [(2, 7), (2, 12), (3, 5), (3, 8), (5, 3), (5, 5), (7, 2), (7, 4)])
    def test_matches_gcd_with_full_x_n_minus_1(self, p, n):
        # Every normalized weight-p exponent of F_(p^n), in dimensions 1..2n
        # so that p divides some of them and some d have digits beyond the
        # dimension.
        for d in _normalized_weight_p_exponents(p, n):
            for m in range(1, 2 * n + 1):
                expected = _criterion_by_full_gcd(d, p, m)
                assert criterion_gapn(d, p, m) == expected, (d, m)
                assert expected.is_gapn == (expected.gcd.degree == 1), (d, m)

    def test_cost_grows_with_log_n(self):
        # x**n - 1 is never built: 10**18 would not fit in memory.
        for n in (10**18, 10**9):
            t0 = time.perf_counter()
            report = criterion_gapn(5, 3, n)
            assert time.perf_counter() - t0 < 1.0
            assert report.is_gapn
            assert report.gcd.coeffs == (2, 1)
        assert not criterion_gapn(11, 3, 10**9).is_gapn  # 2 | n: x + 1 divides both

    def test_report_serialization(self):
        doc = criterion_gapn(11, 3, 2).to_dict()
        assert doc["digit_poly"] == [2, 0, 1]
        assert doc["gcd"] == [2, 0, 1]
        assert doc["is_gapn"] is False
        assert doc["offending_factors"] == [{"coeffs": [1, 1], "multiplicity": 1}]


class TestCirculantRank:
    def test_gold_i1_f9(self):
        assert circulant_rank(5, 3, 2) == 1

    def test_exponent_must_fit(self):
        with pytest.raises(ValueError):
            circulant_rank(11, 3, 2)

    def test_gold_i2_n4(self):
        assert circulant_rank(11, 3, 4) == 2

    def test_trace_exponent_n3(self):
        assert circulant_rank(13, 3, 3) == 1

    def test_rank_mod_p_basics(self):
        assert rank_mod_p([[2, 1], [1, 2]], 3) == 1
        assert rank_mod_p([[1, 0], [0, 1]], 3) == 2
        assert rank_mod_p([[0, 0], [0, 0]], 3) == 0
        assert rank_mod_p([[1, 2, 3], [4, 5, 6]], 7) == 2

    def test_matches_criterion_everywhere(self):
        for p, n_max in ((3, 5), (5, 3)):
            for n in range(2, n_max + 1):
                for d in _normalized_weight_p_exponents(p, n):
                    expected = criterion_gapn(d, p, n).is_gapn
                    assert (circulant_rank(d, p, n) == n - 1) == expected, (p, n, d)


def _random_matrix(rng, p, rows, cols):
    """A seeded matrix with entries in [-2p, 2p), often of deficient rank:
    a product of random factors through a narrower inner side, with some
    rows and columns then set to zero."""
    inner = rng.randint(0, max(rows, cols))
    if inner < min(rows, cols):
        left = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
        m = [[sum(row[k] * right[k][j] for k in range(inner)) % p for j in range(cols)] for row in left]
    else:
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    # Shift entries out of [0, p) by multiples of p; the rank mod p stays.
    m = [[v + p * rng.randint(-2, 1) for v in row] for row in m]
    for i in rng.sample(range(rows), rng.randint(0, rows // 4)):
        m[i] = [0] * cols
    for j in rng.sample(range(cols), rng.randint(0, cols // 4)):
        for row in m:
            row[j] = 0
    return m


class TestRankModP:
    """rank_mod_p against the numpy elimination it replaced."""

    def test_no_rows(self):
        assert rank_mod_p([], 3) == 0
        assert rank_mod_p(np.zeros((0, 4), dtype=np.int64), 5) == 0

    def test_no_columns(self):
        assert rank_mod_p([[], [], []], 3) == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rank_mod_p([[1, 2], [1]], 3)
        with pytest.raises(ValueError):
            rank_mod_p([[1], [1, 2, 0]], 3)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_numpy_on_random_matrices(self, p):
        rng = random.Random(f"rank:{p}")
        shapes = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(60)]
        shapes += [(60, 60), (60, 17), (17, 60), (1, 60), (60, 1), (40, 40)]
        for rows, cols in shapes:
            m = _random_matrix(rng, p, rows, cols)
            expected = numpy_rank_mod_p(m, p)
            assert rank_mod_p(m, p) == expected, (p, rows, cols)
            assert rank_mod_p(np.array(m, dtype=np.int64), p) == expected, (p, rows, cols)

    def test_rank_deficient_by_construction(self):
        # Row 2 is 2 * row 0 + row 1, and row 3 is 8 * row 1 - row 0.
        m = [[1, 2, 3, 4], [0, 1, 4, 2], [2, 5, 10, 10], [-1, 6, 29, 12]]
        assert rank_mod_p(m, 7) == numpy_rank_mod_p(m, 7) == 2

    def test_every_weight_p_circulant_of_the_small_fields(self):
        checked = 0
        # Every prime p with p**2 <= SOFT_ORDER_BUDGET = 3**7.
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            n = 2
            while p**n <= SOFT_ORDER_BUDGET:
                for d in _normalized_weight_p_exponents(p, n):
                    digs = digits_of(d, p, n)
                    m = [[digs[(i - j) % n] for j in range(n)] for i in range(n)]
                    assert circulant_rank(d, p, n) == numpy_rank_mod_p(m, p), (p, n, d)
                    checked += 1
                n += 1
        assert checked > 500


class TestDeciderEquivalence:
    @pytest.mark.parametrize("p,n_max", [(3, 5), (5, 3)])
    def test_four_way_agreement(self, field, p, n_max):
        for n in range(2, n_max + 1):
            ctx = field(p, n)
            for d in _normalized_weight_p_exponents(p, n):
                by_criterion = criterion_gapn(d, p, n).is_gapn
                by_rank = circulant_rank(d, p, n) == n - 1
                by_kernel = linearized_kernel_dim(ctx, d) == 1
                by_brute = differential_spectrum(monomial_table(ctx, d)).is_gapn
                assert by_criterion == by_rank == by_kernel == by_brute, (p, n, d)


class TestExceptionalProfile:
    def test_gold_i1(self):
        profile = exceptional_profile(5, 3)
        assert profile.root_orders == ()
        assert profile.unit_root_multiplicity == 1
        assert profile.witness_n == 2
        assert profile.gapn_dimensions(8) == list(range(2, 9))

    def test_gold_i2(self):
        profile = exceptional_profile(11, 3)
        assert profile.root_orders == (2,)
        assert profile.unit_root_multiplicity == 1
        assert profile.witness_n == 3
        assert profile.gapn_dimensions(10) == [3, 5, 7, 9]

    def test_root_order_from_two_primes_above_trial_division(self):
        # 1 + 9x + x^12 = (x - 1) h over F_11 with h irreducible of degree 11.
        # The order of h's root divides 11**11 - 1 = 2 * 5 * 15797 * 1806113,
        # and its two large primes are past trial division: only Pollard
        # rho finds them.
        d = 3138428376821
        assert digits_of(d, 11) == (1, 9) + (0,) * 10 + (1,)
        profile = exceptional_profile(d, 11)
        order = 28531167061
        assert profile.root_orders == (order,)
        assert profile.unit_root_multiplicity == 1
        h = digit_polynomial(d, 11) // PolyFp(11, (-1, 1))
        assert h.degree == 11
        assert order == 15797 * 1806113 and is_prime(15797) and is_prime(1806113)
        assert x_pow_mod(order, h).is_one
        assert not any(x_pow_mod(order // q, h).is_one for q in (15797, 1806113))

    def test_gapn_dimensions_long_range_is_cheap(self):
        profile = exceptional_profile(11, 3)
        t0 = time.perf_counter()
        dims = profile.gapn_dimensions(20000)
        elapsed = time.perf_counter() - t0
        assert dims == list(range(3, 20001, 2))
        # a bigint p**n fit check per n makes this take seconds, not milliseconds
        assert elapsed < 0.5

    def test_factors_are_not_retested_for_irreducibility(self, monkeypatch):
        # factorize already proves its factors irreducible; the order walk
        # must take them as they are, with the same orders root_order gives.
        cases = [(d, p) for p, n in ((3, 6), (5, 4), (7, 3)) for d in _normalized_weight_p_exponents(p, n)]
        expected = {}
        for d, p in cases:
            digit_poly = digit_polynomial(d, p)
            orders = {root_order(f) for f, _ in factorize(digit_poly).factors if f != PolyFp(p, (-1, 1))}
            expected[d, p] = tuple(sorted(orders))

        def refuse(f):
            raise AssertionError("the profile path re-tested a factor for irreducibility")

        monkeypatch.setattr("gapnkit.polyfp.is_irreducible", refuse)
        for d, p in cases:
            assert exceptional_profile(d, p).root_orders == expected[d, p], (d, p)

    def test_trace_exponent_excludes_multiples_of_p(self):
        profile = exceptional_profile(13, 3)
        assert profile.root_orders == ()
        assert profile.unit_root_multiplicity == 2
        assert profile.witness_n == 4
        assert profile.gapn_dimensions(12) == [4, 5, 7, 8, 10, 11]

    @pytest.mark.parametrize("i", range(1, 7))
    def test_gold_general_root_orders(self, i):
        # x^i - 1 = (x^m - 1)^(3^k) with i = 3^k * m, so the distinct roots
        # other than 1 have the orders dividing m, and 1 repeats 3^k times
        profile = exceptional_profile(3**i + 2, 3)
        m, k = i, 0
        while m % 3 == 0:
            m //= 3
            k += 1
        assert profile.root_orders == tuple(t for t in range(2, m + 1) if m % t == 0)
        assert profile.unit_root_multiplicity == 3**k
        for n in range(profile.min_n, 13):
            assert profile.predicts_gapn(n) == (gcd(i, n) == 1)

    def test_infinitely_many_dimensions(self):
        # every profiled weight-p exponent admits arbitrarily large GAPN
        # dimensions: some n in any window of length lcm of the orders
        profile = exceptional_profile(3**4 + 2, 3)
        dims = profile.gapn_dimensions(40)
        assert dims and dims[-1] > 30

    def test_dimension_must_fit_exponent(self):
        profile = exceptional_profile(11, 3)
        with pytest.raises(ValueError):
            profile.predicts_gapn(2)

    def test_law_matches_criterion(self):
        # 50 draws with repeats allowed: the shape space only holds 44
        # distinct exponents, so demanding distinct draws would never finish.
        rng = random.Random(20260817)
        verified = set()
        for _ in range(50):
            shape = rng.choice(["111", "21", "12"])
            if shape == "111":
                a, b = rng.sample(range(1, 9), 2)
                d = 1 + 3**a + 3**b
            elif shape == "21":
                d = 2 + 3 ** rng.randrange(1, 9)
            else:
                d = 1 + 2 * 3 ** rng.randrange(1, 9)
            if d in verified:
                continue
            verified.add(d)
            profile = exceptional_profile(d, 3)
            for n in range(profile.min_n, 13):
                assert profile.predicts_gapn(n) == criterion_gapn(d, 3, n).is_gapn, (d, n)
        assert len(verified) >= 20

    def test_witness_confirmed_by_brute_force(self, field):
        # Same repeats-allowed policy: only C(8,2) = 28 exponents exist here.
        rng = random.Random(99)
        verified = set()
        for _ in range(50):
            positions = rng.sample(range(1, 9), 2)
            d = 1 + 3 ** positions[0] + 3 ** positions[1]
            if d in verified:
                continue
            verified.add(d)
            profile = exceptional_profile(d, 3)
            n = profile.witness_n
            assert profile.predicts_gapn(n)
            if 3**n <= 3**8:
                ctx = field(3, n)
                assert monomial_gapn_fast(ctx, d % (3**n - 1)).is_gapn
        assert len(verified) >= 15

    def test_serialization(self):
        doc = exceptional_profile(11, 3).to_dict()
        assert doc == {
            "d": 11,
            "p": 3,
            "root_orders": [2],
            "unit_root_multiplicity": 1,
            "witness_n": 3,
        }


def _extension_prime(profile, n):
    """Smallest prime q at which the profile predicts GAPN in dimension
    q * n: GAPN on F_(p^n) then extends to F_(p^(q*n))."""
    return next(q for q in itertools.count(2) if is_prime(q) and profile.predicts_gapn(q * n))


class TestExtensionPrime:
    def test_no_constraints(self):
        profile = exceptional_profile(5, 3)
        assert profile.predicts_gapn(2)
        assert _extension_prime(profile, 2) == 2

    def test_order_two_excluded(self):
        profile = exceptional_profile(11, 3)
        assert profile.predicts_gapn(3)
        assert _extension_prime(profile, 3) == 3

    def test_orders_two_and_three_excluded(self):
        profile = ExceptionalProfile(
            d=5, p=3, root_orders=(2, 3), unit_root_multiplicity=1, witness_n=5
        )
        assert _extension_prime(profile, 5) == 5

    def test_repeated_unit_root_excludes_p(self):
        profile = exceptional_profile(13, 3)
        # q = 3 would land 3 | qn; the rule must dodge the characteristic
        q = _extension_prime(profile, 4)
        assert q == 2
        assert profile.predicts_gapn(4 * q)

    def test_extension_stays_gapn(self):
        profile = exceptional_profile(11, 3)
        q = _extension_prime(profile, 3)
        assert criterion_gapn(11, 3, 3 * q).is_gapn

    def test_requires_gapn_base(self):
        # Dimension 4 is no base to extend from: neither the profile nor
        # the criterion finds GAPN there.
        profile = exceptional_profile(11, 3)
        assert not profile.predicts_gapn(4)
        assert 4 not in profile.gapn_dimensions(12)
        assert not criterion_gapn(11, 3, 4).is_gapn

    def test_prime_dividing_a_root_order_can_be_smallest(self):
        # The root order of 31 = 1011_3 is 8: 8 does not divide 2 * 5, so
        # q = 2 works although it divides 8.
        profile = exceptional_profile(31, 3)
        assert profile.root_orders == (8,)
        assert _extension_prime(profile, 5) == 2
        assert criterion_gapn(31, 3, 10).is_gapn

    @pytest.mark.parametrize("p,n0", [(3, 5), (5, 3), (7, 3)])
    def test_first_prime_where_the_criterion_holds(self, p, n0):
        # Every normalized weight-p exponent of F_(p^n0) and every GAPN
        # dimension n <= 12: the answer is the first prime q with GAPN at
        # q * n, by the profile and by the criterion, which also rejects
        # every smaller prime.
        for d in _normalized_weight_p_exponents(p, n0):
            profile = exceptional_profile(d, p)
            for n in profile.gapn_dimensions(12):
                q = _extension_prime(profile, n)
                smaller = [r for r in range(2, q) if is_prime(r)]
                assert profile.predicts_gapn(q * n)
                assert not any(profile.predicts_gapn(r * n) for r in smaller)
                assert criterion_gapn(d, p, q * n).is_gapn, (d, n, q)
                assert not any(criterion_gapn(d, p, r * n).is_gapn for r in smaller), (d, n, q)


def _welch(p, n):
    """The welch entry of classical_families as (d, predicted GAPN)."""
    return next((d, predicted) for family, _, d, predicted in classical_families(p, n) if family == "welch")


class TestFamilies:
    def test_welch_exponents(self):
        assert _welch(3, 3) == (7, True)
        assert _welch(5, 5) == (31, False)
        assert _welch(2, 5) == (7, True)
        assert _welch(3, 4) == (13, True)
        # n = 3 gives t = 1, so the exponent is 7 + 7 + 1 regardless of how
        # large p is.
        assert _welch(7, 3) == (15, False)

    def test_welch_needs_n_at_least_2(self):
        assert [f for f, *_ in classical_families(3, 1) if f == "welch"] == []
        assert [f for f, *_ in classical_families(3, 2) if f == "welch"] == ["welch"]

    def test_exponent_digits_weight_and_coset(self):
        # What `gapnkit test` reports for an exponent besides its verdict.
        assert digits_of(7, 3, 2) == (1, 2)
        assert p_weight(7, 3) == 3
        assert coset_rep(7, 3, 2) == 5

    def test_max_degree_family(self):
        assert max_degree_family(3, 2) == [7, 5]
        assert max_degree_family(3, 3) == [25, 23, 17]
        for p, n in ((3, 4), (5, 3), (7, 2)):
            for d in max_degree_family(p, n):
                assert p_weight(d, p) == n * (p - 1) - 1

    def test_max_degree_family_rejects_p2(self):
        with pytest.raises(EvenCharacteristic):
            max_degree_family(2, 4)

    def test_max_degree_family_needs_n_at_least_1(self):
        with pytest.raises(ValueError, match="n >= 1"):
            max_degree_family(3, 0)

    def test_identify_family(self):
        assert identify_family(5, 3, 2) == ["gold(i=1)", "inverse-class(j=1)"]
        assert identify_family(7, 3, 2) == ["welch(t=1)", "inverse"]
        assert identify_family(7, 3, 3) == ["welch(t=1)"]
        assert identify_family(79, 3, 4) == ["inverse"]
        assert identify_family(4, 3, 2) == []


class TestInvarianceProperties:
    def test_ea_invariance_f81(self, field):
        ctx = field(3, 4)
        verdicts = {}
        for d in range(1, ctx.order - 1):
            verdicts[d] = differential_spectrum(monomial_table(ctx, d)).is_gapn
        for d in range(1, ctx.order - 1):
            rep = coset_rep(d, 3, 4)
            assert verdicts[d] == verdicts[rep], d

    def test_representation_independence_f27(self):
        from gapnkit import make_field

        a = make_field(3, 3, PolyFp(3, (1, 2, 0, 1)))
        b = make_field(3, 3, PolyFp(3, (2, 2, 0, 1)))
        assert a.modulus != b.modulus
        for d in range(1, 26):
            va = differential_spectrum(monomial_table(a, d)).is_gapn
            vb = differential_spectrum(monomial_table(b, d)).is_gapn
            assert va == vb, d
