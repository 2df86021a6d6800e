"""Search orchestration: enumeration, filters, deciders, caching, families."""

import itertools
import json
import multiprocessing
import os
import random
import tempfile
import time
import zlib
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapnkit import (
    CacheCorrupt,
    DeciderDisagreement,
    SearchFilters,
    SearchJob,
    __version__,
    analyze_exponent,
    coset_members,
    coset_rep,
    coset_reps,
    differential_spectrum,
    exact_verdict,
    exceptional_profile,
    identify_family,
    monomial_gapn_fast,
    monomial_table,
    normalize_weight_p,
    p_weight,
    run_search,
    verify_families,
)
from gapnkit import FieldCtx, gapn, make_field, search
from gapnkit.cli import main as cli_main
from gapnkit.monomial import classical_families
from gapnkit.numtheory import is_prime
from gapnkit.search import BRUTE_FORCE, SOFT_ORDER_BUDGET, FamilyEntry, FamilyReport
from numpy_cosets import coset_reps as numpy_coset_reps


def _frozen(result):
    d = result.to_dict()
    d.pop("elapsed")
    return d


class TestExhaustive:
    def test_f9_frozen(self):
        result = run_search(SearchJob(3, 2))
        assert _frozen(result) == {
            "p": 3,
            "n": 2,
            "mode": "exhaustive",
            "gapn_cosets": [
                {
                    "d": 5,
                    "members": [5, 7],
                    "weight": 3,
                    "deciders": ["criterion", "circulant-rank"],
                }
            ],
            "scanned": 3,
            "filtered": {"low_weight": 2, "even_weight": 0, "out_of_band": 0},
            "conjecture_holds": None,
            "filter_check": None,
            "version": __version__,
        }

    def test_f81_cosets(self):
        result = run_search(SearchJob(3, 4))
        reps = [(e["d"], e["weight"]) for e in result.gapn_cosets]
        assert reps == [(5, 3), (7, 3), (13, 3), (53, 7)]
        assert result.scanned == 21
        assert result.filtered == {"low_weight": 3, "even_weight": 9, "out_of_band": 0}
        # The maximal-degree coset contains the inverse exponent 3**4 - 2.
        top = result.gapn_cosets[-1]
        assert top["members"] == [53, 71, 77, 79]
        assert 3**4 - 2 in top["members"]
        for entry in result.gapn_cosets:
            assert entry["weight"] % 2 == 1
            if entry["weight"] == 3:
                assert entry["deciders"] == ["criterion", "circulant-rank"]

    def test_f81_without_filters_same_cosets(self):
        # Disabling the filters may only add work, never change the answer.
        result = run_search(
            SearchJob(3, 4, filters=SearchFilters(skip_even_weight=False, skip_low_weight=False))
        )
        assert [(e["d"], e["weight"]) for e in result.gapn_cosets] == [
            (5, 3),
            (7, 3),
            (13, 3),
            (53, 7),
        ]
        assert result.scanned == 21
        assert result.filtered == {"low_weight": 0, "even_weight": 0, "out_of_band": 0}

    def test_f243_cosets(self):
        result = run_search(SearchJob(3, 5))
        reps = [(e["d"], e["weight"]) for e in result.gapn_cosets]
        assert reps == [
            (5, 3),
            (7, 3),
            (11, 3),
            (13, 3),
            (19, 3),
            (23, 5),
            (31, 3),
            (35, 5),
            (49, 5),
            (79, 7),
            (161, 9),
        ]
        # The single maximal-degree coset holds every p**n - p**j - 1 exponent,
        # inverse exponent included.
        assert result.gapn_cosets[-1]["members"] == [161, 215, 233, 239, 241]
        assert result.scanned == 48

    def test_weight_p_only_mode(self):
        result = run_search(SearchJob(3, 2, mode="weight-p-only"))
        assert [e["d"] for e in result.gapn_cosets] == [5]
        assert result.scanned == 3
        assert result.filtered == {"low_weight": 0, "even_weight": 0, "out_of_band": 2}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_search(SearchJob(3, 2, mode="everything"))


class TestConjecture:
    def test_holds_on_f81(self):
        result = run_search(SearchJob(3, 4, mode="conjecture"))
        assert result.conjecture_holds is True
        assert result.gapn_cosets == []
        assert result.filtered == {"low_weight": 0, "even_weight": 9, "out_of_band": 8}

    def test_fails_on_f243(self):
        # Weight-5 and weight-7 GAPN cosets sit strictly inside the band
        # p < weight < n*(p-1) - 1 at n = 5; the band claim only kicks in
        # from n = 6.
        result = run_search(SearchJob(3, 5, mode="conjecture"))
        assert result.conjecture_holds is False
        assert [(e["d"], e["weight"]) for e in result.gapn_cosets] == [
            (23, 5),
            (35, 5),
            (49, 5),
            (79, 7),
        ]

    def test_f243_band_survivors_brute_forced(self, field):
        ctx = field(3, 5)
        for d in (23, 35, 49, 79):
            report = differential_spectrum(monomial_table(ctx, d))
            assert report.is_gapn
            assert report.max_count == 3
            assert 3 < p_weight(d, 3) < 5 * 2 - 1

    def test_f81_band_empty_by_brute_force(self, field):
        # Independent check of conjecture_holds: every coset representative
        # with 3 < weight < 7 is non-GAPN, even weights included.
        ctx = field(3, 4)
        band = [
            d
            for d in range(2, 80)
            if coset_rep(d, 3, 4) == d and 3 < p_weight(d, 3) < 7
        ]
        assert len(band) == 13
        for d in band:
            assert not differential_spectrum(monomial_table(ctx, d)).is_gapn

    def test_holds_on_f729(self):
        result = run_search(SearchJob(3, 6, mode="conjecture"))
        assert result.conjecture_holds is True
        assert result.gapn_cosets == []

    # The README census: in-band GAPN cosets of each field, tallied by
    # weight.
    CENSUS = {
        (3, 4): {}, (3, 5): {5: 3, 7: 1}, (3, 6): {}, (3, 7): {}, (3, 8): {},
        (3, 9): {}, (3, 10): {}, (3, 11): {}, (3, 12): {},
        (5, 3): {7: 6, 9: 3}, (5, 4): {7: 3}, (5, 5): {7: 8, 9: 2, 15: 1, 17: 1},
        (5, 6): {7: 1}, (5, 7): {7: 12, 25: 1},
        (7, 3): {11: 8, 13: 4}, (7, 4): {11: 4, 13: 2}, (7, 5): {11: 15, 13: 2, 25: 1},
    }  # fmt: skip

    @pytest.mark.parametrize("p,n", sorted(CENSUS))
    def test_census(self, p, n):
        result = run_search(SearchJob(p, n, mode="conjecture"))
        assert Counter(e["weight"] for e in result.gapn_cosets) == self.CENSUS[p, n]
        assert result.conjecture_holds is (not self.CENSUS[p, n])


def _force_pool(monkeypatch):
    """Start a pool after the first candidate, as long as two CPUs and two
    candidates are left: every decide time exceeds 0 s."""
    monkeypatch.setattr(search, "POOL_START_S", 0.0)


def _stand_in_pool(monkeypatch, handed=None) -> list[int]:
    """Replace multiprocessing with a stand-in that records each pool's
    worker count, and the candidates it is handed in handed, and decides
    in this process, so no worker is started."""
    started = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items, chunksize):
            if handed is not None:
                handed.extend(items)
            return map(fn, items)

    class SerialMultiprocessing:
        Pool = SerialPool

    monkeypatch.setattr(search, "_worker_state", {})
    monkeypatch.setattr(search, "multiprocessing", SerialMultiprocessing)
    return started


def _cpus(monkeypatch, count):
    """Let this process run on count CPUs, as far as search can tell."""
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _scan_seconds(monkeypatch, candidates, pool_starts):
    """Make search's clock, which a scan reads once per candidate while it
    may still start a pool, say that deciding all candidates serially
    takes pool_starts * POOL_START_S seconds."""
    step = pool_starts * search.POOL_START_S / candidates
    reads = itertools.count()
    monkeypatch.setattr(search.time, "perf_counter", lambda: next(reads) * step)


class TestDeterminism:
    def test_worker_count_does_not_change_result(self, monkeypatch):
        _force_pool(monkeypatch)
        serial = run_search(SearchJob(3, 5, jobs=1))
        parallel = run_search(SearchJob(3, 5, jobs=2))
        assert _frozen(serial) == _frozen(parallel)

    def test_repeat_run_identical(self):
        a = run_search(SearchJob(3, 4))
        b = run_search(SearchJob(3, 4))
        assert _frozen(a) == _frozen(b)

    # A forced pool starts after the first candidate, with one worker per candidate left.
    @pytest.mark.parametrize("p,n,jobs,workers", [(3, 4, 64, [8]), (3, 4, 2, [2]), (3, 2, 64, [])])
    def test_pool_never_exceeds_candidates(self, monkeypatch, p, n, jobs, workers):
        _force_pool(monkeypatch)
        _cpus(monkeypatch, 64)
        started = _stand_in_pool(monkeypatch)
        result = run_search(SearchJob(p, n, jobs=jobs))
        assert started == workers
        assert _frozen(result) == _frozen(run_search(SearchJob(p, n)))


class TestPoolRule:
    """A scan decides serially until its decide time passes POOL_START_S,
    then pools the candidates left, with min(jobs, CPUs, left) workers,
    only when their serial time at the rate so far, cut by the workers,
    saves more than POOL_START_S."""

    @staticmethod
    def _timed_scan(monkeypatch, mode, cpus, jobs, pool_starts):
        """Scan F_(3^6) on the patched clock; returns the candidates, the
        worker count of each pool and the candidates handed to it."""
        _cpus(monkeypatch, cpus)
        handed = []
        started = _stand_in_pool(monkeypatch, handed)
        reference = _frozen(run_search(SearchJob(3, 6, mode)))
        job = SearchJob(3, 6, mode, jobs=jobs)
        todo = search._enumerate(job)[3]
        _scan_seconds(monkeypatch, len(todo), pool_starts)
        assert _frozen(run_search(job)) == reference
        return todo, started, handed

    # 0.9 POOL_START_S of serial work never reaches the check; after 1.5,
    # the check comes two thirds of the way and the rest takes half of one.
    @pytest.mark.parametrize("pool_starts", [0.9, 1.5])
    @pytest.mark.parametrize("mode", ["exhaustive", "conjecture", "weight-p-only"])
    @pytest.mark.parametrize("cpus,jobs", [(2, 2), (4, 3), (64, 64)])
    def test_no_pool_unless_the_rest_repays_it(self, monkeypatch, mode, cpus, jobs, pool_starts):
        _, started, handed = self._timed_scan(monkeypatch, mode, cpus, jobs, pool_starts)
        assert (started, handed) == ([], [])

    @pytest.mark.parametrize("mode", ["exhaustive", "conjecture", "weight-p-only"])
    @pytest.mark.parametrize("cpus,jobs", [(2, 2), (2, 16), (4, 3), (64, 64)])
    def test_saving_above_pool_start_pools_the_rest(self, monkeypatch, mode, cpus, jobs):
        # After 4 POOL_START_S of serial work the check comes a quarter of
        # the way, and the rest saves well over one.
        todo, started, handed = self._timed_scan(monkeypatch, mode, cpus, jobs, 4)
        done = len(todo) - len(handed)
        assert 0 < done < len(todo) / 2
        assert handed == todo[done:]
        assert started == [min(jobs, cpus, len(handed))]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched deciders reach pool workers only through fork",
    )
    @pytest.mark.parametrize("mode", ["exhaustive", "conjecture", "weight-p-only"])
    def test_pool_takes_over_the_undecided_rest(self, tmp_path, monkeypatch, mode):
        # Each decision, in the parent or in a worker, appends its process
        # and exponent to one log.
        _cpus(monkeypatch, 2)
        serial = SearchJob(3, 6, mode, cache_dir=str(tmp_path / "serial"))
        reference = _frozen(run_search(serial))
        todo = search._enumerate(serial)[3]
        log = tmp_path / "decided"
        for name in ("_decide_brute", "_decide_weight_p"):

            def logged(*args, real=getattr(search, name)):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {args[-1]}\n")
                return real(*args)

            monkeypatch.setattr(search, name, logged)
        monkeypatch.setattr(search.multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
        _scan_seconds(monkeypatch, len(todo), 4)
        job = SearchJob(3, 6, mode, jobs=2, cache_dir=str(tmp_path / "pooled"))
        assert _frozen(run_search(job)) == reference
        decisions = [line.split() for line in log.read_text().splitlines()]
        parent = [int(d) for pid, d in decisions if int(pid) == os.getpid()]
        assert 0 < len(parent) < len(todo) / 2
        assert parent == [rep for rep, _ in todo[: len(parent)]]
        assert sorted(int(d) for _, d in decisions) == sorted(rep for rep, _ in todo)
        pooled = search._cache_path(job.cache_dir, 3, 6).read_bytes().splitlines()
        assert len(pooled) == len(todo)
        assert set(pooled) == set(search._cache_path(serial.cache_dir, 3, 6).read_bytes().splitlines())

    @pytest.mark.parametrize("cpus,jobs,workers", [(2, 16, [2]), (2, 2, [2]), (4, 3, [3]), (1, 16, [])])
    def test_workers_capped_at_usable_cpus(self, monkeypatch, cpus, jobs, workers):
        _force_pool(monkeypatch)
        _cpus(monkeypatch, cpus)
        started = _stand_in_pool(monkeypatch)
        result = run_search(SearchJob(3, 6, "conjecture", jobs=jobs))
        assert started == workers
        assert _frozen(result) == _frozen(run_search(SearchJob(3, 6, "conjecture")))

    @pytest.mark.parametrize("mode", ["exhaustive", "weight-p-only"])
    def test_workers_get_the_scans_own_field(self, monkeypatch, mode):
        _force_pool(monkeypatch)
        _cpus(monkeypatch, 2)
        real = search.make_field
        built = []
        monkeypatch.setattr(search, "make_field", lambda p, n: built.append(real(p, n)) or built[-1])
        started = _stand_in_pool(monkeypatch)
        result = run_search(SearchJob(3, 8, mode, jobs=2))
        assert started == [2] and len(built) == 1
        # The stand-in runs the initializer in this process.
        assert search._worker_state["ctx"] is built[0]
        assert _frozen(result) == _frozen(run_search(SearchJob(3, 8, mode)))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="a forked pool is what this scan starts",
    )
    def test_parent_keeps_no_worker_state(self, monkeypatch):
        _force_pool(monkeypatch)
        _cpus(monkeypatch, 2)
        fork_pool = multiprocessing.get_context("fork").Pool
        states = []

        def pool(*args, **kwargs):
            states.append(dict(search._worker_state))
            return fork_pool(*args, **kwargs)

        monkeypatch.setattr(search.multiprocessing, "Pool", pool)
        result = run_search(SearchJob(3, 5, jobs=2))
        assert states == [{}]
        assert search._worker_state == {}
        assert _frozen(result) == _frozen(run_search(SearchJob(3, 5)))

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
        assert search._cpu_limit() == 3
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._cpu_limit() == 1

    def test_small_scan_starts_no_pool(self, monkeypatch):
        # The benchmark's search, on the real clock: its decide time (about
        # 11 ms on a 2-vCPU Xeon) stays within POOL_START_S.
        _cpus(monkeypatch, 2)
        started = _stand_in_pool(monkeypatch)
        filters = SearchFilters(verify_filters=True)
        assert _frozen(run_search(SearchJob(3, 8, filters=filters, jobs=2))) == _frozen(
            run_search(SearchJob(3, 8, filters=filters))
        )
        assert started == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="only forked workers inherit the parent's tables",
    )
    def test_forked_workers_build_no_tables(self, monkeypatch):
        # Once the pool starts, building any table or subfield verdict
        # raises: forked workers must use what the parent built before it
        # forked, and the filter check what the scan built.
        _force_pool(monkeypatch)
        fork_pool = multiprocessing.get_context("fork").Pool

        def refuse(*args):
            raise AssertionError("a table was built after the pool started")

        def pool_after_build(*args, **kwargs):
            started.append(args[0])
            monkeypatch.setattr(FieldCtx, "_build_tables", refuse)
            monkeypatch.setattr(FieldCtx, "_build_lanes", refuse)
            monkeypatch.setattr(gapn, "_subfield_verdicts", refuse)
            return fork_pool(*args, **kwargs)

        started = []
        _cpus(monkeypatch, 2)
        serial = _frozen(run_search(SearchJob(3, 8, filters=SearchFilters(verify_filters=True))))
        monkeypatch.setattr(gapn, "_prepared", {})
        monkeypatch.setattr(search.multiprocessing, "Pool", pool_after_build)
        job = SearchJob(3, 8, filters=SearchFilters(verify_filters=True), jobs=2)
        assert 3**8 > SOFT_ORDER_BUDGET  # each make_field(3, 8) is a new context
        assert _frozen(run_search(job)) == serial
        assert started == [2]


class TestCollisionCertificate:
    """Scans decide through gapn.monomial_gapn_verdict, whose row-sum
    collision certificate skips most full single-direction passes."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched decider reaches pool workers only through fork",
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "mode,verify", [("conjecture", False), ("exhaustive", False), ("exhaustive", True)]
    )
    @pytest.mark.parametrize(
        "p,n", [(3, 5), (3, 6), (3, 7), (3, 8), (5, 3), (5, 4), (7, 3), (2, 8)]
    )
    def test_same_documents_and_cache_bytes(self, tmp_path, monkeypatch, p, n, mode, verify, jobs):
        _force_pool(monkeypatch)
        monkeypatch.setattr(search.multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)

        def run(cache):
            job = SearchJob(p, n, mode, SearchFilters(verify_filters=verify), jobs, str(tmp_path / cache))
            document = _frozen(run_search(job))
            data = search._cache_path(job.cache_dir, p, n).read_bytes()
            # Pool results arrive in any order.
            return document, data if jobs == 1 else sorted(data.splitlines())

        certified = run("certified")
        monkeypatch.setattr(
            gapn, "monomial_gapn_verdict", lambda ctx, d: monomial_gapn_fast(ctx, d).is_gapn
        )
        assert run("full-pass") == certified

    def test_scan_skips_full_passes(self, monkeypatch):
        passes = []

        def full_pass(ctx, d, real=gapn.monomial_gapn_fast):
            passes.append(d)
            return real(ctx, d)

        monkeypatch.setattr(gapn, "monomial_gapn_fast", full_pass)
        result = run_search(SearchJob(3, 9, mode="conjecture"))
        assert result.conjecture_holds is True
        # 1,077 candidates; a random-looking map escapes the certificate
        # with chance about e**-8.
        assert len(passes) <= 10

    def test_sample_drawn_once_per_field(self, monkeypatch):
        # From an empty state a 3^9 conjecture scan draws the sample twice:
        # once for 3^9 and once for 3^3, whose verdicts settle candidates.
        # A plain dict keeps both contexts as keys once the scan is done.
        monkeypatch.setattr(gapn, "_prepared", {})
        seeds = []

        def seeded(seed, real=random.Random):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(random, "Random", seeded)  # prepare_verdicts imports random when it builds
        assert run_search(SearchJob(3, 9, mode="conjecture")).conjecture_holds is True
        assert seeds == [gapn._SAMPLE_SEED] * 2
        assert sorted((ctx.p, ctx.n) for ctx in gapn._prepared) == [(3, 3), (3, 9)]


class TestSubfieldCertificate:
    """Scans settle most composite-n candidates by a non-GAPN verdict on a
    proper subfield; switching that off changes no output."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched certificate reaches pool workers only through fork",
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode,verify", [("conjecture", False), ("exhaustive", True)])
    @pytest.mark.parametrize("p,n", [(3, 4), (3, 6), (3, 8), (5, 4), (7, 4), (2, 8), (2, 10)])
    def test_same_documents_and_cache_bytes(self, tmp_path, monkeypatch, p, n, mode, verify, jobs):
        _force_pool(monkeypatch)
        monkeypatch.setattr(search.multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)

        def run(cache):
            job = SearchJob(p, n, mode, SearchFilters(verify_filters=verify), jobs, str(tmp_path / cache))
            document = _frozen(run_search(job))
            data = search._cache_path(job.cache_dir, p, n).read_bytes()
            return document, data if jobs == 1 else sorted(data.splitlines())

        with_subfields = run("subfields")
        # Every subfield verdict reads GAPN, in a prepared state built from scratch.
        monkeypatch.setattr(gapn, "_subfield_verdicts", lambda p, m: b"\x01" * (p**m - 1))
        monkeypatch.setattr(gapn, "_prepared", {})
        assert run("no-subfields") == with_subfields

    def test_settles_most_composite_candidates(self):
        *_, candidates = search._enumerate(SearchJob(3, 12, "conjecture"))
        subfields, _ = gapn.prepare_verdicts(make_field(3, 12))
        settled = sum(any(not verdicts[d % q] for q, verdicts in subfields) for d, _ in candidates)
        assert (settled, len(candidates)) == (20673, 22118)


class TestVerifyFilters:
    def test_f81_sample_all_clean(self):
        result = run_search(SearchJob(3, 4, filters=SearchFilters(verify_filters=True)))
        assert result.filter_check == {
            "sampled": 12,
            "per_stratum": {"low_weight": 3, "even_weight": 9},
            "violations": [],
        }

    def test_f243_sample_all_clean(self):
        result = run_search(SearchJob(3, 5, filters=SearchFilters(verify_filters=True)))
        assert result.filter_check["violations"] == []
        assert result.filter_check["per_stratum"] == {"low_weight": 3, "even_weight": 21}
        assert result.filter_check["sampled"] == 24

    def test_a_gapn_filtered_exponent_is_a_violation(self, monkeypatch, capsys):
        # A filter that dropped a GAPN coset would be unsound: with the
        # decider patched to call one filtered exponent GAPN, the check names
        # it, and the CLI reports it in both formats.
        job = SearchJob(3, 4, filters=SearchFilters(verify_filters=True))
        planted = search._enumerate(job)[2]["even_weight"][0]
        real = search._decide_brute

        def planted_gapn(ctx, d):
            verdict, deciders = real(ctx, d)
            return verdict or d == planted, deciders

        monkeypatch.setattr(search, "_decide_brute", planted_gapn)
        assert run_search(job).filter_check["violations"] == [planted]
        argv = ["search", "-p", "3", "-n", "4", "--verify-filters"]
        assert cli_main(argv) == 0
        assert "filter check: sampled 12, violations 1" in capsys.readouterr().out.splitlines()
        assert cli_main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["filter_check"]["violations"] == [planted]


class TestFamilies:
    def test_report_f81(self):
        report = verify_families(3, 4)
        rows = [(e.family, e.param, e.d, e.predicted, e.verdict) for e in report.entries]
        assert rows == [
            ("gold", 1, 5, True, True),
            ("gold", 2, 11, False, False),
            ("gold", 3, 29, True, True),
            ("welch", 2, 13, True, True),
            ("max-degree", 0, 79, True, True),
            ("max-degree", 1, 77, True, True),
            ("max-degree", 2, 71, True, True),
            ("max-degree", 3, 53, True, True),
        ]
        assert report.mismatches == 0
        assert all(e.agree for e in report.entries)

    def test_gold_all_gapn_when_n_prime(self):
        report = verify_families(3, 5)
        gold = [e for e in report.entries if e.family == "gold"]
        assert len(gold) == 4
        assert all(e.predicted and e.verdict for e in gold)
        assert report.mismatches == 0

    def test_max_degree_f125(self):
        report = verify_families(5, 3)
        top = [e for e in report.entries if e.family == "max-degree"]
        assert [e.d for e in top] == [123, 119, 99]
        assert all(e.predicted and e.verdict for e in top)

    def test_every_field_within_budget(self):
        # Every field on which families decides by brute force: the
        # families' predictions all hold, and brute force decided each one.
        fields = [
            (p, n) for p in range(2, SOFT_ORDER_BUDGET + 1) if is_prime(p)
            for n in range(1, 12) if p**n <= SOFT_ORDER_BUDGET
        ]
        assert len(fields) == 359
        for p, n in fields:
            report = verify_families(p, n)
            assert report.mismatches == 0, (p, n)
            assert all(BRUTE_FORCE in e.deciders for e in report.entries), (p, n)

    @pytest.mark.parametrize(
        "p,n", [(p, n) for p in range(2, 244) if is_prime(p) for n in range(1, 8) if p**n <= 3**5]
    )
    def test_one_analysis_per_coset_matches_every_entry_decided(self, p, n):
        # The reference decides every entry on its own.
        ctx = make_field(p, n)
        reference = []
        for family, param, d, predicted in classical_families(p, n):
            d %= p**n - 1
            if d:
                reference.append(FamilyEntry(family, param, d, predicted, *exact_verdict(ctx, d)))
        assert verify_families(p, n) == FamilyReport(p, n, reference)

    @pytest.mark.parametrize("p,n,calls,entries", [(2, 8, 5, 8), (3, 4, 5, 8), (3, 5, 6, 10), (5, 3, 4, 6), (7, 2, 3, 4)])
    def test_exact_verdict_once_per_coset(self, monkeypatch, p, n, calls, entries):
        decided = []

        def counted(ctx, d, real=search.exact_verdict):
            decided.append(d)
            return real(ctx, d)

        monkeypatch.setattr(search, "exact_verdict", counted)
        report = verify_families(p, n)
        assert (len(decided), len(report.entries)) == (calls, entries)
        assert {coset_rep(d, p, n) for d in decided} == {coset_rep(e.d, p, n) for e in report.entries}

    def test_welch_not_gapn_for_p5(self):
        report = verify_families(5, 2)
        welch = [e for e in report.entries if e.family == "welch"]
        assert len(welch) == 1
        assert welch[0].d == 11
        assert welch[0].predicted is False
        assert welch[0].verdict is False
        assert report.mismatches == 0

    @pytest.mark.parametrize(
        "p,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
    )
    def test_entries_agree_with_identify_family(self, p, n):
        # Each entry's exponent before reduction modulo p**n - 1, and its name.
        unreduced = {
            "gold": lambda i: p**i + p - 1,
            "welch": lambda t: p**t + p + 1,
            "max-degree": lambda j: p**n - p**j - 1,
        }
        names = {"gold": "gold(i={})", "welch": "welch(t={})", "max-degree": "inverse-class(j={})"}
        named_by_entries = {
            (e.d, "inverse" if (e.family, e.param) == ("max-degree", 0) else names[e.family].format(e.param))
            for e in verify_families(p, n).entries
            if unreduced[e.family](e.param) == e.d
        }
        named_by_identify = {
            (d, name) for d in range(1, p**n - 1) for name in identify_family(d, p, n)
        }
        assert named_by_entries == named_by_identify

    def test_to_dict_shape(self):
        doc = verify_families(3, 2).to_dict()
        assert doc["p"] == 3 and doc["n"] == 2
        assert doc["mismatches"] == 0
        assert {"family", "param", "d", "predicted", "verdict", "deciders", "agree"} <= set(
            doc["entries"][0]
        )

    def test_families_only_mode_f81(self):
        result = run_search(SearchJob(3, 4, mode="families-only"))
        assert [(e["d"], e["weight"]) for e in result.gapn_cosets] == [
            (5, 3),
            (7, 3),
            (13, 3),
            (53, 7),
        ]
        assert result.scanned == 8
        # Weight-p entries carry the algebraic deciders on top of brute force.
        assert "criterion" in result.gapn_cosets[0]["deciders"]
        assert "circulant-rank" in result.gapn_cosets[0]["deciders"]

    def test_families_only_mode_f25(self):
        result = run_search(SearchJob(5, 2, mode="families-only"))
        assert [(e["d"], e["weight"]) for e in result.gapn_cosets] == [(9, 5), (19, 7)]
        assert result.scanned == 4


class TestAnalyze:
    def test_full_decider_panel_below_budget(self, field):
        report = analyze_exponent(field(3, 4), 5)
        assert report.is_gapn
        assert report.max_count == 3
        assert report.deciders_agreed == [
            "brute-force",
            "circulant-rank",
            "criterion",
            "linearized-kernel",
            "monomial-fast",
        ]
        assert report.partial is False

    def test_low_weight_panel(self, field):
        verdict, deciders = exact_verdict(field(3, 4), 2)
        assert verdict is False
        assert deciders == ["brute-force", "monomial-fast"]

    def test_weight_p_non_gapn(self, field):
        verdict, deciders = exact_verdict(field(3, 4), 11)
        assert verdict is False
        assert len(deciders) == 5

    def test_exact_verdict_reads_the_full_report(self, field):
        # exact_verdict is analyze_exponent's verdict and decider list, for
        # GAPN and non-GAPN exponents alike.
        ctx = field(3, 3)
        for d in range(1, ctx.order - 1):
            report = analyze_exponent(ctx, d)
            assert not report.partial, d
            assert exact_verdict(ctx, d) == (report.is_gapn, report.deciders_agreed), d

    def test_budget_skips_full_brute_force(self, field):
        assert SOFT_ORDER_BUDGET == 3**7
        report = analyze_exponent(field(3, 8), 5)
        assert report.is_gapn
        assert report.deciders_agreed == [
            "circulant-rank",
            "criterion",
            "linearized-kernel",
            "monomial-fast",
        ]

    def test_long_running_restores_brute_force(self, field):
        report = analyze_exponent(field(3, 8), 5, long_running=True)
        assert "brute-force" in report.deciders_agreed


_PANEL_FIELDS = [(2, 5), (3, 4), (5, 2), (7, 2)]


class TestDeciderPanel:
    @pytest.mark.parametrize("p,n", _PANEL_FIELDS)
    def test_every_exponent(self, field, p, n):
        ctx = field(p, n)
        algebraic = ["circulant-rank", "criterion", "linearized-kernel"]
        for d in range(1, p**n - 1):
            expected = ["brute-force", "monomial-fast", *(algebraic if p_weight(d, p) == p else [])]
            assert exact_verdict(ctx, d)[1] == sorted(expected), d

    @pytest.mark.parametrize("p,n", _PANEL_FIELDS)
    def test_scan_route_agrees_with_panel(self, field, p, n):
        ctx = field(p, n)
        for rep, weight in zip(*coset_reps(p, n)):
            names = ["criterion", "circulant-rank"] if weight == p else ["monomial-fast"]
            decided = search._decide_candidate((rep, weight), ctx)
            assert decided == (rep, weight, exact_verdict(ctx, rep)[0], names)
            assert set(decided[3]) <= set(search.DECIDERS)

    def test_report_labels_are_decider_names(self, field):
        ctx = field(3, 2)
        labels = differential_spectrum(monomial_table(ctx, 5)).deciders_agreed
        labels += monomial_gapn_fast(ctx, 5).deciders_agreed
        assert labels == ["brute-force", "monomial-fast"]
        assert set(labels) <= set(search.DECIDERS)


class TestCrossCheck:
    """A decider that answers wrongly fails the request; no verdict wins."""

    def test_scan_pair_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(search, "circulant_rank", lambda d, p, n: n)
        with pytest.raises(DeciderDisagreement):
            run_search(SearchJob(3, 4, "weight-p-only"))

    def test_panel_disagreement_raises(self, monkeypatch, field):
        monkeypatch.setattr(gapn, "linearized_kernel_dim", lambda ctx, d: 2)
        with pytest.raises(DeciderDisagreement):
            analyze_exponent(field(3, 4), 5)

    def test_cli_reports_disagreement(self, monkeypatch, capsys):
        monkeypatch.setattr(gapn, "linearized_kernel_dim", lambda ctx, d: 2)
        assert cli_main(["test", "-p", "3", "-n", "4", "-d", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DeciderDisagreement"


class TestCosetPartition:
    @pytest.mark.parametrize("p,n", [(3, 4), (5, 2), (3, 5)])
    def test_scan_covers_every_exponent_once(self, p, n):
        order = p**n
        result = run_search(SearchJob(p, n))
        reps = [d for d in range(2, order - 1) if coset_rep(d, p, n) == d]
        assert result.scanned == len(reps)
        covered = [0, order - 1] + list(coset_members(1, p, n))
        for rep in reps:
            covered.extend(coset_members(rep, p, n))
        assert sorted(covered) == list(range(order))


def _reference_enumerate(job):
    """The scalar coset_rep loop that the numpy enumeration replaces."""
    p, n = job.p, job.n
    max_weight = n * (p - 1) - 1
    skip_even = job.filters.skip_even_weight and p % 2 == 1
    scanned = 0
    filtered = {"low_weight": 0, "even_weight": 0, "out_of_band": 0}
    filtered_reps = {"low_weight": [], "even_weight": []}
    candidates = []
    for d in range(2, p**n - 1):
        if coset_rep(d, p, n) != d:
            continue
        scanned += 1
        w = p_weight(d, p)
        if job.mode == "conjecture" and not (p < w < max_weight):
            filtered["out_of_band"] += 1
            continue
        if job.mode == "weight-p-only" and w != p:
            filtered["out_of_band"] += 1
            continue
        if job.filters.skip_low_weight and w < p:
            filtered["low_weight"] += 1
            filtered_reps["low_weight"].append(d)
            continue
        if skip_even and w % 2 == 0:
            filtered["even_weight"] += 1
            filtered_reps["even_weight"].append(d)
            continue
        candidates.append((d, w))
    return scanned, filtered, filtered_reps, candidates


_ENUM_FIELDS = [(3, 4), (3, 5), (5, 3), (2, 6), (2, 1), (2, 2), (3, 1), (7, 2), (2, 8)]
_FILTER_FLAGS = [(True, True), (False, True), (True, False), (False, False)]


class TestEnumeration:
    @pytest.mark.parametrize("p,n", _ENUM_FIELDS)
    @pytest.mark.parametrize("mode", ["exhaustive", "weight-p-only", "conjecture"])
    @pytest.mark.parametrize("skip_even,skip_low", _FILTER_FLAGS)
    def test_matches_coset_rep_loop(self, p, n, mode, skip_even, skip_low):
        job = SearchJob(p, n, mode, SearchFilters(skip_even, skip_low))
        assert search._enumerate(job) == _reference_enumerate(job)

    @pytest.mark.parametrize("p,n", _ENUM_FIELDS)
    @pytest.mark.parametrize(
        "mode", ["exhaustive", "weight-p-only", "families-only", "conjecture"]
    )
    @pytest.mark.parametrize("skip_even,skip_low", _FILTER_FLAGS)
    def test_documents_match_coset_rep_loop(
        self, monkeypatch, p, n, mode, skip_even, skip_low
    ):
        job = SearchJob(p, n, mode, SearchFilters(skip_even, skip_low))
        fast = _frozen(run_search(job))
        monkeypatch.setattr(search, "_enumerate", _reference_enumerate)
        assert fast == _frozen(run_search(job))

    def test_weight_p_only_leaves_tables_unbuilt(self, monkeypatch):
        def refuse(ctx):
            raise AssertionError("field tables built")

        monkeypatch.setattr(FieldCtx, "_build_tables", refuse)
        result = run_search(SearchJob(3, 6, "weight-p-only"))
        assert result.scanned == 127
        assert [e["d"] for e in result.gapn_cosets] == [5, 7, 31, 37]


def _coset_reps_weight_p(job):
    """The weight-p-only enumeration that necklace generation replaced:
    every representative of the numpy scan, masked to digit sum p."""
    p, n = job.p, job.n
    skip_even = job.filters.skip_even_weight and p % 2 == 1
    reps, weights = numpy_coset_reps(p, n)
    keep = reps > 1
    reps, weights = reps[keep], weights[keep]
    in_band = weights == p
    low = in_band & (weights < p) & job.filters.skip_low_weight
    even = in_band & ~low & (weights % 2 == 0) & skip_even
    chosen = in_band & ~low & ~even
    filtered = {
        "low_weight": int(low.sum()),
        "even_weight": int(even.sum()),
        "out_of_band": int(reps.size - in_band.sum()),
    }
    filtered_reps = {"low_weight": reps[low].tolist(), "even_weight": reps[even].tolist()}
    candidates = list(zip(reps[chosen].tolist(), weights[chosen].tolist()))
    return int(reps.size), filtered, filtered_reps, candidates


def _cli_outputs(capsys, argv):
    """(exit code, stdout, stderr) of the human, json and csv runs of argv,
    with the elapsed time taken out."""
    out = []
    for fmt in ("human", "json", "csv"):
        code = cli_main([*argv, "--format", fmt])
        captured = capsys.readouterr()
        text = captured.out
        if fmt == "human":
            text = "\n".join(line for line in text.split("\n") if not line.startswith("elapsed: "))
        elif fmt == "json" and code == 0:
            doc = json.loads(text)
            doc.pop("elapsed")
            text = json.dumps(doc, indent=2)
        out.append((code, text, captured.err))
    return out


_WEIGHT_P_FIELDS = [(2, 1), (2, 2), (3, 1), (2, 7), (3, 5), (5, 3), (7, 3), (3, 8)]
_WEIGHT_P_FLAGS = [
    [],
    ["--no-skip-even"],
    ["--no-skip-low"],
    ["--no-skip-even", "--no-skip-low"],
    ["--verify-filters"],
]


class TestWeightPOnlyDocuments:
    """weight-p-only documents from necklace generation against those of
    the numpy enumeration."""

    @pytest.mark.parametrize("p,n", _WEIGHT_P_FIELDS)
    @pytest.mark.parametrize("flags", _WEIGHT_P_FLAGS)
    def test_formats_and_filters(self, capsys, monkeypatch, p, n, flags):
        argv = ["search", "-p", str(p), "-n", str(n), "--mode", "weight-p-only", *flags]
        new = _cli_outputs(capsys, argv)
        monkeypatch.setattr(search, "_enumerate", _coset_reps_weight_p)
        assert new == _cli_outputs(capsys, argv)

    @pytest.mark.parametrize("p,n", [(3, 5), (2, 9)])
    def test_cold_and_warm_cache(self, capsys, monkeypatch, tmp_path, p, n):
        def runs(cache):
            argv = ["search", "-p", str(p), "-n", str(n), "--mode", "weight-p-only", "--cache", str(cache)]
            cold = _cli_outputs(capsys, argv)
            return cold, _cli_outputs(capsys, argv), (cache / f"gapn_{p}_{n}.csv").read_bytes()

        new = runs(tmp_path / "new")
        monkeypatch.setattr(search, "_enumerate", _coset_reps_weight_p)
        assert new == runs(tmp_path / "reference")

    def test_two_workers(self, capsys, monkeypatch):
        argv = ["search", "-p", "3", "-n", "6", "--mode", "weight-p-only", "--jobs", "2", "--verify-filters"]
        new = _cli_outputs(capsys, argv)
        monkeypatch.setattr(search, "_enumerate", _coset_reps_weight_p)
        assert new == _cli_outputs(capsys, argv)

    def test_never_calls_coset_reps(self, monkeypatch):
        # The walk is asked for the weight-p band only.
        bands = []

        def recording(p, n, *band):
            bands.append(band)
            return coset_reps(p, n, *band)

        monkeypatch.setattr(search, "coset_reps", recording)
        result = run_search(SearchJob(3, 8, "weight-p-only"))
        assert bands == [(3, 3)]
        assert result.scanned == 831
        assert result.filtered == {"low_weight": 0, "even_weight": 0, "out_of_band": 817}
        assert [e["d"] for e in result.gapn_cosets] == [5, 7, 13, 29, 55, 85, 109, 253]

    def test_never_finds_a_modulus(self, monkeypatch, capsys):
        from gapnkit import fields

        def refuse(p, n):
            raise AssertionError("modulus searched")

        monkeypatch.setattr(fields, "find_irreducible", refuse)
        result = run_search(SearchJob(3, 8, "weight-p-only"))
        assert [e["d"] for e in result.gapn_cosets] == [5, 7, 13, 29, 55, 85, 109, 253]
        # The field's own checks still run before any scan.
        for argv, error in [
            (["-p", "4", "-n", "3"], "NotPrime"),
            (["-p", "3", "-n", "31", "--long-running"], "OrderTooLarge"),
        ]:
            assert cli_main(["search", *argv, "--mode", "weight-p-only"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == error


class TestWeightPOnlyLargeFields:
    @pytest.mark.parametrize("p,n", [(3, 30), (2, 40)])
    def test_polynomial_in_n(self, capsys, p, n):
        argv = ["search", "-p", str(p), "-n", str(n), "--mode", "weight-p-only", "--long-running", "--format", "json"]
        t0 = time.perf_counter()
        code = cli_main(argv)
        seconds = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert seconds < 5
        doc = json.loads(captured.out)
        # Burnside's necklace count, less the necklaces of 0, p**n - 1 and 1.
        necklaces = sum(p ** gcd(k, n) for k in range(n)) // n
        assert doc["scanned"] == necklaces - 3
        reps = coset_reps(p, n, p, p)[0]
        assert doc["filtered"]["out_of_band"] == doc["scanned"] - len(reps)
        predicted = [d for d in reps if exceptional_profile(normalize_weight_p(d, p), p).predicts_gapn(n)]
        assert [e["d"] for e in doc["gapn_cosets"]] == predicted


class TestCache:
    @staticmethod
    def _store(cache_dir, p, n, rep, weight, verdict, deciders):
        """Append one record as a scan does, through the scan's own writer."""
        with search._open_cache(cache_dir, p, n) as fh:
            fh.write(search._record(p, n, rep, weight, verdict, deciders, __version__) + "\n")

    def test_store_lookup_roundtrip(self, tmp_path):
        self._store(tmp_path, 3, 4, 5, 3, True, ["criterion", "circulant-rank"])
        assert search._load_cache(tmp_path, 3, 4).get(5) == (
            3,
            True,
            ["criterion", "circulant-rank"],
        )

    def test_empty_cache_misses(self, tmp_path):
        assert search._load_cache(tmp_path, 3, 4).get(5) is None

    def test_record_format(self, tmp_path):
        self._store(tmp_path, 3, 4, 5, 3, True, ["criterion", "circulant-rank"])
        line = (tmp_path / "gapn_3_4.csv").read_text().splitlines()[0]
        parts = line.split(",")
        assert parts[:6] == ["3", "4", "5", "3", "1", "criterion+circulant-rank"]
        assert parts[6] == __version__
        prefix = ",".join(parts[:7])
        assert parts[7] == str(zlib.crc32(prefix.encode("utf-8")))

    def test_search_populates_and_reuses(self, tmp_path):
        job = SearchJob(3, 4, cache_dir=str(tmp_path))
        first = run_search(job)
        path = tmp_path / "gapn_3_4.csv"
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        second = run_search(job)
        assert _frozen(first) == _frozen(second)
        assert path.read_text().splitlines() == lines

    def test_cached_equals_uncached(self, tmp_path):
        plain = run_search(SearchJob(3, 4))
        warm = run_search(SearchJob(3, 4, cache_dir=str(tmp_path)))
        rerun = run_search(SearchJob(3, 4, cache_dir=str(tmp_path)))
        assert _frozen(plain) == _frozen(warm) == _frozen(rerun)

    def test_shared_cache_across_modes(self, tmp_path):
        # Each run takes from a shared cache only the verdicts of its own
        # candidates: the exhaustive runs store cosets outside the
        # conjecture band and outside weight p, and cosets the default
        # filters drop.
        runs = [
            SearchJob(3, 6, filters=SearchFilters(False, False)),
            SearchJob(3, 6),
            SearchJob(3, 6, mode="conjecture"),
            SearchJob(3, 6, mode="weight-p-only"),
            SearchJob(3, 6, mode="conjecture", filters=SearchFilters(False, False)),
        ]
        plain = [_frozen(run_search(job)) for job in runs]
        cached = [job._replace(cache_dir=str(tmp_path)) for job in runs]
        assert [_frozen(run_search(job)) for job in cached] == plain

    def test_filtered_reps_never_stored(self, tmp_path):
        run_search(SearchJob(3, 4, cache_dir=str(tmp_path)))
        assert search._load_cache(tmp_path, 3, 4).get(2) is None
        assert search._load_cache(tmp_path, 3, 4).get(11) == (
            3,
            False,
            ["criterion", "circulant-rank"],
        )

    def test_checksum_mismatch_raises(self, tmp_path):
        run_search(SearchJob(3, 4, cache_dir=str(tmp_path)))
        path = tmp_path / "gapn_3_4.csv"
        with open(path, "a") as fh:
            fh.write("3,4,99,3,1,criterion,0.1.0,12345\n")
        with pytest.raises(CacheCorrupt):
            run_search(SearchJob(3, 4, cache_dir=str(tmp_path)))

    def test_malformed_record_raises(self, tmp_path):
        path = tmp_path / "gapn_3_4.csv"
        path.write_text("3,4,5,3,1,criterion\n")
        with pytest.raises(CacheCorrupt):
            search._load_cache(tmp_path, 3, 4)

    @pytest.mark.parametrize(
        "record,reason",
        [
            ("3,4,15,3,1", "not a coset representative"),  # 15 = 5 * 3
            ("3,4,0,0,1", "not a coset representative"),
            ("3,4,80,8,1", "not a coset representative"),
            ("3,4,5,5,1", "weight 5 is not the weight"),
            ("3,4,five,3,1", "non-integer"),
            ("3,4,5,3,7", "verdict 7 is not 0 or 1"),
            ("3,4,5,3,-1", "verdict -1 is not 0 or 1"),
            ("3,4,5,3,1,", "empty decider name"),
            ("3,4,5,3,1,criterion+", "empty decider name"),
            ("3,4,5,3,1,+criterion", "empty decider name"),
            ("3,4,5,3,1,criterion++circulant-rank", "empty decider name"),
            ("3,4,+5,3,1", "non-canonical"),
            ("3,4, 5,3,1", "non-canonical"),
            ("3,4,0_5,3,1", "non-canonical"),
            ("3,4,05,3,1", "non-canonical"),
            ("3,4,\u0665,3,1", "non-canonical"),  # ARABIC-INDIC DIGIT FIVE
            ("3,4,5,3,01", "non-canonical"),
            ("3,4,5,3,\u0661", "non-canonical"),  # ARABIC-INDIC DIGIT ONE
            ("3,4,5,3,1,bogus", "unknown"),
            ("3,4,5,3,1,criterion+bogus", "unknown"),
        ],
    )
    def test_untrusted_checksum_valid_record_raises(self, tmp_path, record, reason):
        # A record names its own deciders or was decided by "criterion".
        fields = [*record.split(","), "criterion"][:6]
        prefix = ",".join([*fields, __version__])
        crc = zlib.crc32(prefix.encode("utf-8"))
        path = tmp_path / "gapn_3_4.csv"
        path.write_text(f"{prefix},{crc}\n", encoding="utf-8")
        with pytest.raises(CacheCorrupt, match=f":1: .*{reason}"):
            search._load_cache(tmp_path, 3, 4)

    @staticmethod
    def _write_records(path, records):
        """Write checksum-valid (rep, verdict, deciders) records of F_81."""
        lines = []
        for rep, verdict, deciders in records:
            prefix = f"3,4,{rep},{p_weight(rep, 3)},{verdict},{deciders},{__version__}"
            lines.append(f"{prefix},{zlib.crc32(prefix.encode('utf-8'))}\n")
        path.write_text("".join(lines))

    def test_conflicting_repeat_raises(self, tmp_path, capsys):
        # Coset 5 is GAPN; a later record saying otherwise must not win.
        self._write_records(tmp_path / "gapn_3_4.csv", [(5, 1, "criterion"), (5, 0, "criterion")])
        with pytest.raises(CacheCorrupt, match=":2: .*conflicts"):
            search._load_cache(tmp_path, 3, 4)
        argv = ["search", "-p", "3", "-n", "4", "--mode", "weight-p-only", "--cache", str(tmp_path)]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "CacheCorrupt"

    def test_agreeing_repeat_loads_last(self, tmp_path):
        # Two runs sharing one cache directory can both store a coset.
        self._write_records(
            tmp_path / "gapn_3_4.csv",
            [(5, 1, "brute-force"), (11, 0, "monomial-fast"), (5, 1, "criterion+circulant-rank")],
        )
        assert search._load_cache(tmp_path, 3, 4) == {
            5: (3, True, ["criterion", "circulant-rank"]),
            11: (3, False, ["monomial-fast"]),
        }

    def test_foreign_record_raises(self, tmp_path):
        # A (3,5) record smuggled into the (3,4) file fails loudly even with
        # a valid checksum.
        prefix = f"3,5,5,3,1,criterion,{__version__}"
        crc = zlib.crc32(prefix.encode("utf-8"))
        path = tmp_path / "gapn_3_4.csv"
        path.write_text(f"{prefix},{crc}\n")
        with pytest.raises(CacheCorrupt):
            search._load_cache(tmp_path, 3, 4)

    @staticmethod
    def _cached_conjecture(cache_dir, capsys):
        argv = ["conjecture", "-p", "3", "-n", "5", "--cache", str(cache_dir), "--format", "json"]
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("pad", [(" ", ""), ("", " "), ("\t", ""), ("", "\t"), ("  ", "\t ")])
    def test_padded_record_raises(self, tmp_path, capsys, pad):
        # _record never writes blanks, so a padded line is not one of its lines.
        code, _, _ = self._cached_conjecture(tmp_path, capsys)
        assert code == 0
        path = search._cache_path(tmp_path, 3, 5)
        lines = path.read_text().splitlines()
        lines[0] = pad[0] + lines[0] + pad[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheCorrupt, match=r":1: checksum mismatch or non-canonical number"):
            search._load_cache(tmp_path, 3, 5)
        code, out, err = self._cached_conjecture(tmp_path, capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "CacheCorrupt",
            "message": f"{path}:1: checksum mismatch or non-canonical number",
        }

    def test_blank_only_line_raises(self, tmp_path):
        self._store(tmp_path, 3, 4, 5, 3, True, ["criterion"])
        path = search._cache_path(tmp_path, 3, 4)
        with open(path, "a") as fh:
            fh.write(" \t\n")
        with pytest.raises(CacheCorrupt, match=":2: malformed record"):
            search._load_cache(tmp_path, 3, 4)

    def test_empty_lines_and_one_carriage_return_load(self, tmp_path):
        self._store(tmp_path, 3, 4, 5, 3, True, ["criterion"])
        self._store(tmp_path, 3, 4, 11, 3, False, ["monomial-fast"])
        path = search._cache_path(tmp_path, 3, 4)
        expected = search._load_cache(tmp_path, 3, 4)
        first, second = path.read_bytes().splitlines()
        path.write_bytes(b"\n" + first + b"\r\n\r\n\n" + second + b"\r\n")
        assert search._load_cache(tmp_path, 3, 4) == expected
        path.write_bytes(first + b"\r\r\n")
        with pytest.raises(CacheCorrupt, match=":1: checksum mismatch"):
            search._load_cache(tmp_path, 3, 4)

    def test_non_utf8_line_raises(self, tmp_path, capsys):
        code, _, _ = self._cached_conjecture(tmp_path, capsys)
        assert code == 0
        path = search._cache_path(tmp_path, 3, 5)
        count = len(path.read_bytes().splitlines())
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        with pytest.raises(CacheCorrupt, match=f":{count + 1}: not UTF-8"):
            search._load_cache(tmp_path, 3, 5)
        code, out, err = self._cached_conjecture(tmp_path, capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "CacheCorrupt", "message": f"{path}:{count + 1}: not UTF-8"}

    _FIELDS =[(2, 3), (2, 5), (3, 2), (3, 4), (5, 2), (7, 2)]
    _DECIDERS = ["brute-force", "monomial-fast", "criterion", "circulant-rank", "linearized-kernel"]

    @classmethod
    def _records(cls, data):
        """A random (p, n) and cache records {rep: (weight, verdict, deciders)}."""
        p, n = data.draw(st.sampled_from(cls._FIELDS))
        reps = data.draw(st.lists(st.sampled_from([1, *coset_reps(p, n)[0]]), min_size=1, unique=True))
        deciders = st.lists(st.sampled_from(cls._DECIDERS), min_size=1, max_size=3)
        return p, n, {rep: (p_weight(rep, p), data.draw(st.booleans()), data.draw(deciders)) for rep in reps}

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_records_round_trip(self, data):
        p, n, records = self._records(data)
        with tempfile.TemporaryDirectory() as tmp:
            for rep, (weight, verdict, deciders) in records.items():
                self._store(tmp, p, n, rep, weight, verdict, deciders)
            assert search._load_cache(tmp, p, n) == records

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_single_character_change_raises(self, data):
        p, n, records = self._records(data)
        with tempfile.TemporaryDirectory() as tmp:
            for rep, (weight, verdict, deciders) in records.items():
                self._store(tmp, p, n, rep, weight, verdict, deciders)
            path = search._cache_path(tmp, p, n)
            lines = path.read_text().splitlines()
            row = data.draw(st.integers(0, len(lines) - 1))
            at = data.draw(st.integers(0, len(lines[row]) - 1))
            char = data.draw(st.characters(min_codepoint=32, max_codepoint=126).filter(lambda c: c != lines[row][at]))
            lines[row] = lines[row][:at] + char + lines[row][at + 1 :]
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(CacheCorrupt, match=f":{row + 1}: "):
                search._load_cache(tmp, p, n)

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from([(2, 5), (3, 4), (3, 5), (5, 2)]), data=st.data())
    def test_torn_last_record_resumes(self, field, data):
        # A scan killed mid-append leaves a proper prefix of its last record.
        p, n = field
        with tempfile.TemporaryDirectory() as tmp:
            job = SearchJob(p, n, cache_dir=tmp)
            reference = _frozen(run_search(job))
            path = search._cache_path(tmp, p, n)
            whole = path.read_bytes()
            last = whole.rstrip(b"\n").rfind(b"\n") + 1
            cut = data.draw(st.integers(last, len(whole) - 1))
            path.write_bytes(whole[:cut])
            assert _frozen(run_search(job)) == reference
            assert path.read_bytes() == whole

    @staticmethod
    def _brute_calls(monkeypatch, real, die_at=None):
        """Patch _decide_brute with real that logs its exponents and,
        optionally, raises instead of deciding the exponent die_at."""
        decided = []

        def logged(ctx, d):
            if d == die_at:
                raise RuntimeError("killed")
            decided.append(d)
            return real(ctx, d)

        monkeypatch.setattr(search, "_decide_brute", logged)
        return decided

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_killed_scan_resumes_from_cache(self, tmp_path, monkeypatch, k):
        real = search._decide_brute
        everything = self._brute_calls(monkeypatch, real)
        reference = _frozen(run_search(SearchJob(3, 5)))
        assert len(everything) > 7
        job = SearchJob(3, 5, cache_dir=str(tmp_path))
        killed = self._brute_calls(monkeypatch, real, die_at=everything[k])
        with pytest.raises(RuntimeError, match="killed"):
            run_search(job)
        assert killed == everything[:k]
        rest = self._brute_calls(monkeypatch, real)
        assert _frozen(run_search(job)) == reference
        assert rest == everything[k:]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched decider reaches pool workers only through fork",
    )
    def test_killed_pool_scan_resumes_from_cache(self, tmp_path, monkeypatch):
        # Which results reach the parent before the failure depends on
        # scheduling; whatever was stored must not be decided again.  Forked
        # workers inherit the patched decider whatever the default start
        # method is.
        _force_pool(monkeypatch)
        fork_pool = multiprocessing.get_context("fork").Pool
        monkeypatch.setattr(search.multiprocessing, "Pool", fork_pool)
        real = search._decide_brute
        everything = self._brute_calls(monkeypatch, real)
        reference = _frozen(run_search(SearchJob(3, 5)))
        job = SearchJob(3, 5, jobs=2, cache_dir=str(tmp_path))
        self._brute_calls(monkeypatch, real, die_at=everything[len(everything) // 2])
        with pytest.raises(RuntimeError, match="killed"):
            run_search(job)
        stored = set(search._load_cache(tmp_path, 3, 5))
        rest = self._brute_calls(monkeypatch, real)
        assert _frozen(run_search(job._replace(jobs=1))) == reference
        assert sorted(rest) == sorted(set(everything) - stored)
