"""End-to-end acceptance gates, one printed pass/fail line per criterion.

Each criterion times itself against its stated runtime budget; the verdict
line is printed to the real terminal even under capture, so a full run
shows all nine.
"""

import math
import random
import time

import numpy as np
import pytest

from gapnkit import (
    FnTable,
    PolyFp,
    circulant_rank,
    coset_members,
    coset_rep,
    criterion_gapn,
    differential_spectrum,
    digits_of,
    exceptional_profile,
    factorize,
    gen_derivative,
    linearized_kernel_dim,
    make_field,
    max_degree_family,
    monomial_table,
    normalize_weight_p,
    p_weight,
    run_search,
)
from gapnkit.cli import main
from gapnkit.monomial import classical_families
from gapnkit.search import SearchFilters, SearchJob


@pytest.fixture
def announce(capsys):
    def emit(text):
        with capsys.disabled():
            print(text, flush=True)

    return emit


def _gate(announce, num, label, limit, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        announce(f"[FAIL] acceptance {num} ({label})")
        raise
    elapsed = time.perf_counter() - t0
    within = limit is None or elapsed < limit
    tag = "PASS" if within else "FAIL"
    budget = f", budget {limit:.0f}s" if limit is not None else ""
    announce(f"[{tag}] acceptance {num} ({label}): {elapsed:.1f}s{budget}")
    assert within, f"runtime {elapsed:.1f}s exceeds budget {limit}s"


def _brute_is_gapn(ctx, d):
    return differential_spectrum(monomial_table(ctx, d)).is_gapn


def _normalized_weight_p(p, n):
    out = []
    for d in range(1, p**n):
        digs = digits_of(d, p)
        if sum(digs) == p and digs[0] >= 1:
            out.append(d)
    return out


def test_acceptance_1_gold_family(announce, field):
    def body():
        for p, dims in ((3, range(2, 8)), (5, (2, 3))):
            for n in dims:
                for i in range(1, n):
                    d = p**i + p - 1
                    expected = math.gcd(i, n) == 1
                    if p**n <= 3**6:
                        verdict = _brute_is_gapn(field(p, n), d)
                    else:
                        dn = normalize_weight_p(d, p)
                        verdict = criterion_gapn(dn, p, n).is_gapn
                        assert (circulant_rank(dn, p, n) == n - 1) == verdict, (p, n, i)
                    assert verdict == expected, (p, n, i)

    _gate(announce, 1, "gold family", 60, body)


def test_acceptance_2_max_degree_family(announce, field):
    def body():
        for p, dims in ((3, (2, 3, 4)), (5, (2, 3))):
            for n in dims:
                ctx = field(p, n)
                exponents = max_degree_family(p, n)
                assert len(exponents) == n
                for j, d in enumerate(exponents):
                    assert d == p**n - p**j - 1
                    assert p_weight(d, p) == n * (p - 1) - 1
                    assert _brute_is_gapn(ctx, d), (p, n, j)

    _gate(announce, 2, "max-degree family", 60, body)


def _welch(p, n):
    """The welch exponent of classical_families and its predicted verdict."""
    return next((d, predicted) for family, _, d, predicted in classical_families(p, n) if family == "welch")


def test_acceptance_3_welch_family(announce, field):
    def body():
        for n in range(2, 8):
            d, predicted = _welch(3, n)
            t = (n - 1) // 2 if n % 2 else n // 2
            assert d == 3**t + 4
            assert predicted is True
            assert _brute_is_gapn(field(3, n), d), n
        for p in (5, 7):
            for n in (3, 4):
                d, predicted = _welch(p, n)
                assert predicted is False
                # Weight 3 < p already settles it; brute force confirms.
                assert p_weight(d, p) == 3
        assert not _brute_is_gapn(field(5, 3), _welch(5, 3)[0])

    _gate(announce, 3, "welch family", 60, body)


def test_acceptance_4_four_decider_agreement(announce, field):
    def body():
        disagreements = []
        for p, max_n in ((3, 5), (5, 3)):
            for n in range(2, max_n + 1):
                ctx = field(p, n)
                for d in _normalized_weight_p(p, n):
                    brute = _brute_is_gapn(ctx, d)
                    crit = criterion_gapn(d, p, n).is_gapn
                    rank = circulant_rank(d, p, n) == n - 1
                    kern = linearized_kernel_dim(ctx, d) == 1
                    if not brute == crit == rank == kern:
                        disagreements.append((p, n, d, brute, crit, rank, kern))
        assert disagreements == []

    _gate(announce, 4, "four-decider agreement", 120, body)


def test_acceptance_5_conjecture_band(announce, field, capsys):
    def body():
        t6 = time.perf_counter()
        assert main(["conjecture", "-p", "3", "-n", "6"]) == 0
        out6 = capsys.readouterr().out
        elapsed6 = time.perf_counter() - t6
        assert out6.splitlines()[0] == "conjecture holds for (3,6)"
        assert elapsed6 < 60, f"n=6 took {elapsed6:.1f}s"

        t7 = time.perf_counter()
        assert main(["conjecture", "-p", "3", "-n", "7"]) == 0
        out7 = capsys.readouterr().out
        elapsed7 = time.perf_counter() - t7
        assert out7.splitlines()[0] == "conjecture holds for (3,7)"
        assert elapsed7 < 900, f"n=7 took {elapsed7:.1f}s"

        # Spot-check the scan with direct brute force on the first few
        # in-band cosets of F_(3^6).
        ctx = field(3, 6)
        band = [
            d
            for d in range(2, 3**6 - 1)
            if coset_rep(d, 3, 6) == d and 3 < p_weight(d, 3) < 11
        ]
        for d in band[:3] + band[-3:]:
            assert not _brute_is_gapn(ctx, d), d

    _gate(announce, 5, "conjecture band n=6,7", None, body)


def test_acceptance_6_exceptionality_law(announce, field):
    def body():
        rng = random.Random(20260817)
        profiled = set()
        for _ in range(50):
            shape = rng.choice(["111", "21", "12"])
            if shape == "111":
                a, b = sorted(rng.sample(range(1, 11), 2))
                d = 1 + 3**a + 3**b
            elif shape == "21":
                d = 2 + 3 ** rng.randrange(1, 11)
            else:
                d = 1 + 2 * 3 ** rng.randrange(1, 11)
            if d in profiled:
                continue
            profiled.add(d)
            profile = exceptional_profile(d, 3)
            for n in range(profile.min_n, 13):
                predicted = profile.predicts_gapn(n)
                assert predicted == criterion_gapn(d, 3, n).is_gapn, (d, n)
                if 3**n <= 3**7:
                    ctx = field(3, n)
                    e = d % (ctx.order - 1)
                    assert e != 0
                    assert predicted == _brute_is_gapn(ctx, e), (d, n)
        assert len(profiled) >= 25

    _gate(announce, 6, "exceptionality law", 300, body)


def test_acceptance_7_exclusion_filters(announce):
    def body():
        result = run_search(
            SearchJob(3, 4, filters=SearchFilters(skip_even_weight=False, skip_low_weight=False))
        )
        assert result.scanned == 21
        assert result.filtered == {"low_weight": 0, "even_weight": 0, "out_of_band": 0}
        assert [e["d"] for e in result.gapn_cosets] == [5, 7, 13, 53]
        for entry in result.gapn_cosets:
            assert entry["weight"] >= 3
            assert entry["weight"] % 2 == 1

    _gate(announce, 7, "even/low-weight exclusions", 60, body)


def test_acceptance_8_binary_regression(announce, field):
    def body():
        for n in (3, 5, 7):
            ctx = field(2, n)
            for i in range(1, n):
                if math.gcd(i, n) != 1:
                    continue
                report = differential_spectrum(monomial_table(ctx, 2**i + 1))
                assert report.is_gapn and report.max_count == 2, (n, i)
            t = (n - 1) // 2
            report = differential_spectrum(monomial_table(ctx, 2**t + 3))
            assert report.is_gapn and report.max_count == 2, n

    _gate(announce, 8, "p=2 regression", 60, body)


def test_acceptance_9_property_suites(announce, field):
    def body():
        # Field axioms, exhaustively on F_27.
        ctx = field(3, 3)
        order = ctx.order
        for a in range(order):
            for b in range(order):
                ab = ctx.mul(a, b)
                assert ab == ctx.mul(b, a)
                for c in range(0, order, 5):
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ab, ctx.mul(a, c))

        # Factorization reconstructs its input.
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(2, 11))]
            if not any(coeffs):
                coeffs[-1] = 1
            poly = PolyFp(p, tuple(coeffs))
            fac = factorize(poly)
            product = PolyFp(p, (fac.unit,))
            for factor, mult in fac.factors:
                for _ in range(mult):
                    product = product * factor
            assert product == poly

        # Spectrum conservation on every monomial of F_27, then
        # per-direction totals for one of them.
        for d in range(1, 26):
            report = differential_spectrum(monomial_table(ctx, d))
            assert sum(c * m for c, m in report.spectrum.items()) == (order - 1) * order
        table = monomial_table(ctx, 5)
        for a in range(1, order):
            counts = np.bincount(gen_derivative(table, a).values, minlength=order)
            assert counts.sum() == order

        # Every member of a cyclotomic coset shares its verdict.
        ctx81 = field(3, 4)
        for rep in (5, 11, 53):
            verdicts = {
                _brute_is_gapn(ctx81, m) for m in coset_members(rep, 3, 4)
            }
            assert len(verdicts) == 1

        # Adding a linear term never changes the verdict.
        ctx9 = field(3, 2)
        base = monomial_table(ctx9, 5)
        for c in range(1, 9):
            shifted = FnTable(
                ctx9,
                np.array(
                    [ctx9.add(int(v), ctx9.mul(c, x)) for x, v in enumerate(base.values)],
                    dtype=np.int64,
                ),
            )
            assert differential_spectrum(shifted).is_gapn

        # Verdicts are independent of the modulus used to build the field.
        alt = make_field(3, 3, PolyFp(3, (2, 2, 0, 1)))
        assert alt.modulus != ctx.modulus
        for d in range(1, 26):
            assert _brute_is_gapn(ctx, d) == _brute_is_gapn(alt, d), d

    _gate(announce, 9, "property suites", None, body)
