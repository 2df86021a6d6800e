"""Search orchestration over monomial exponent space, with caching.

Candidates are enumerated once per cyclotomic coset (the orbit of an
exponent under multiplication by p modulo p**n - 1); every member of a
coset gives the same verdict, so the smallest member is the search key.
Each mode scans one band of digit sums: every weight (exhaustive),
p < w < n(p-1) - 1 (conjecture) or w = p (weight-p-only).
monomial.coset_reps generates the representatives of the band as
necklaces, and monomial.coset_count counts every coset by Burnside's
lemma, so no scan visits all p**n exponents, and a weight-p-only scan
costs polynomially many steps in n.

Weight-p cosets are decided by the two algebraic deciders cross-checked
against each other; they read no field table, so a weight-p-only scan
never builds one, calls no gapn function and imports no numpy.  All
other cosets go to the single-direction monomial decider, which is exact
for every power map: S_a(x**d)(x) = a**d * S_1(x**d)(x / a), so
direction 1 has every direction's count multiset.  A scan needs only
its verdict, so it asks gapn.monomial_gapn_verdict, which first looks up
the verdicts of the proper subfields and then looks for two sampled rows
of S_1 with the same sum (each an exact proof of non-GAPN), and runs the
full pass only when neither proves anything.

A scan with jobs > 1 decides serially until its decide time passes
POOL_START_S, then checks once: it hands the candidates left to a pool
of at most jobs workers, one per CPU this process may run on and per
candidate, when their extrapolated serial time, cut by the workers,
saves more than POOL_START_S.  The pool hands each worker the scan's
context: the parent builds its tables before it forks, so forked
workers share them, and a spawned worker unpickles only (p, n, modulus).

Default filters drop cosets that cannot be GAPN: digit sum below p
(any characteristic), and even digit sum (odd characteristic only, where
x -> -x pairs up solutions).  verify_filters re-checks a stratified
sample of everything filtered with the single-direction decider.

Cache files hold one CSV record per decided coset, appended through one
line-buffered handle per scan as soon as its verdict reaches the parent
process, so a killed scan resumes from every coset it finished:

    p,n,coset_rep,weight,verdict,decider,version,checksum

with verdict 0/1, deciders joined by '+', and checksum the decimal CRC-32
of the preceding text.  A line loads only if every number in it is in
canonical decimal, the rule CSV value tables follow too, and its checksum
holds; version is recorded but not checked.  Empty lines are
skipped, and one trailing carriage return is ignored.  CacheCorrupt,
rather than a silent recompute, is raised by any other line (one padded
with blanks or not UTF-8 included) and by any record from another field,
whose coset_rep is not its coset's representative, whose weight is not
its digit sum, whose verdict is not 0 or 1, whose decider list names
anything outside DECIDERS (an empty name included), or whose verdict
contradicts an earlier record of the same coset.  Repeats that agree
load, the last one winning.  The one exception is an unterminated last
line, which a scan killed mid-append leaves: it is dropped and cut from
the file, and its coset is decided again.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
import zlib
from pathlib import Path
from typing import NamedTuple

from . import __version__, gapn
from .errors import CacheCorrupt, DeciderDisagreement
from .fields import SOFT_ORDER_BUDGET, FieldCtx, make_field
from .monomial import (
    circulant_rank,
    classical_families,
    coset_count,
    coset_members,
    coset_rep,
    coset_reps,
    criterion_gapn,
    normalize_weight_p,
    p_weight,
)


class _ImportOnUse:
    """Stands in for a module that is imported on its first attribute read."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# Only a worker pool needs multiprocessing, so a serial scan never imports
# it.  The name stays a module attribute: tests and perfbench's tracer
# replace it to observe pools.
multiprocessing = _ImportOnUse("multiprocessing")

# The names a cache record may give its deciders.
DECIDERS = ("brute-force", "monomial-fast", "criterion", "circulant-rank", "linearized-kernel")
BRUTE_FORCE, MONOMIAL_FAST, CRITERION, CIRCULANT_RANK, LINEARIZED_KERNEL = DECIDERS


def _agree(verdicts: dict[str, bool], d: int, p: int, n: int) -> bool:
    """The one verdict of a decider panel {name: verdict}."""
    if len(set(verdicts.values())) != 1:
        raise DeciderDisagreement(f"deciders disagree on d={d}, p={p}, n={n}: {verdicts}")
    return next(iter(verdicts.values()))


def _decide_weight_p(p: int, n: int, d: int) -> tuple[bool, list[str]]:
    """The criterion and circulant-rank panel on a normalized weight-p
    exponent: one not divisible by p, such as a coset's smallest member
    (dividing by p rotates the digits, so stays in the coset)."""
    verdicts = {
        CRITERION: criterion_gapn(d, p, n).is_gapn,
        CIRCULANT_RANK: circulant_rank(d, p, n) == n - 1,
    }
    return _agree(verdicts, d, p, n), list(verdicts)


def _decide_brute(ctx: FieldCtx, d: int) -> tuple[bool, list[str]]:
    return gapn.monomial_gapn_verdict(ctx, d), [MONOMIAL_FAST]


# Seconds a two-worker pool adds to a fresh CLI scan (importing
# multiprocessing, forking, joining), measured on a 2-vCPU Intel Xeon.
POOL_START_S = 0.03


def _cpu_limit() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker_state: dict = {}  # written only inside pool workers


def _init_worker(ctx: FieldCtx) -> None:
    # A forked worker inherits the scan's context, tables and all; a
    # spawned one unpickles only its arguments and builds what it reads.
    _worker_state["ctx"] = ctx


def _decide_candidate(candidate: tuple[int, int], ctx: FieldCtx | None = None):
    """(rep, weight, verdict, deciders) for one (rep, weight) candidate;
    pool workers pass no ctx and use their initializer's field."""
    rep, weight = candidate
    if ctx is None:
        ctx = _worker_state["ctx"]
    if weight == ctx.p:
        verdict, deciders = _decide_weight_p(ctx.p, ctx.n, rep)
    else:
        verdict, deciders = _decide_brute(ctx, rep)
    return rep, weight, verdict, deciders


class SearchFilters(NamedTuple):
    skip_even_weight: bool = True
    skip_low_weight: bool = True
    verify_filters: bool = False


class SearchJob(NamedTuple):
    p: int
    n: int
    mode: str = "exhaustive"
    filters: SearchFilters = SearchFilters()
    jobs: int = 1
    cache_dir: str | None = None


_MODES = ("exhaustive", "weight-p-only", "families-only", "conjecture")


class SearchResult(NamedTuple):
    p: int
    n: int
    mode: str
    gapn_cosets: list[dict]
    scanned: int
    filtered: dict[str, int]
    elapsed: float
    conjecture_holds: bool | None = None
    filter_check: dict | None = None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "mode": self.mode,
            "gapn_cosets": self.gapn_cosets,
            "scanned": self.scanned,
            "filtered": dict(self.filtered),
            "conjecture_holds": self.conjecture_holds,
            "filter_check": self.filter_check,
            "elapsed": self.elapsed,
            "version": __version__,
        }


def _enumerate(job: SearchJob):
    """Sort the coset representatives d >= 2 in the digit-sum band of the
    job's mode (every weight for exhaustive scans) into the default filters.

    Returns (scanned, filtered counts, filtered reps per filter, candidates),
    reps ascending and each candidate (rep, weight).  Every
    coset outside the band counts as out_of_band.  Neither filter applies
    to digit sum p, which is odd whenever the even-weight filter is on.
    """
    p, n = job.p, job.n
    skip_even = job.filters.skip_even_weight and p % 2 == 1
    band = {"conjecture": (p + 1, n * (p - 1) - 2), "weight-p-only": (p, p)}.get(job.mode, (0, None))
    reps, weights = coset_reps(p, n, *band)
    scanned = coset_count(p, n)
    filtered = {"low_weight": 0, "even_weight": 0, "out_of_band": scanned - len(reps)}
    filtered_reps: dict[str, list[int]] = {"low_weight": [], "even_weight": []}
    candidates = []
    for d, w in zip(reps, weights):
        if job.filters.skip_low_weight and w < p:
            stratum = "low_weight"
        elif skip_even and w % 2 == 0:
            stratum = "even_weight"
        else:
            candidates.append((d, w))
            continue
        filtered[stratum] += 1
        filtered_reps[stratum].append(d)
    return scanned, filtered, filtered_reps, candidates


def run_search(job: SearchJob) -> SearchResult:
    """Scan the coset space of F_(p^n) per the job and report GAPN cosets.

    Output is deterministic for a given job and cache state regardless of
    worker count: entries are keyed and sorted by coset representative.
    """
    if job.mode not in _MODES:
        raise ValueError(f"unknown search mode {job.mode!r}")
    t0 = time.perf_counter()
    if job.mode == "families-only":
        return _run_families_only(job, t0)
    p, n = job.p, job.n
    ctx = make_field(p, n)
    if job.mode != "weight-p-only":
        # These scans send their cosets of weight other than p to the
        # monomial decider, which needs the log table: fail before
        # enumerating rather than at the first such coset.
        ctx._require_tables("log table")
    scanned, filtered, filtered_reps, candidates = _enumerate(job)

    cached: dict[int, tuple[int, bool, list[str]]] = {}
    if job.cache_dir is not None:
        cached = _load_cache(job.cache_dir, p, n)
    # Only this run's candidates: the cache may hold cosets that another
    # mode or filter setting decided and this run leaves out.
    results = {rep: cached[rep] for rep, _ in candidates if rep in cached}
    todo = [c for c in candidates if c[0] not in results]

    store = job.cache_dir is not None and bool(todo)
    with _open_cache(job.cache_dir, p, n) if store else contextlib.nullcontext() as sink:

        def record(rep: int, w: int, verdict: bool, deciders: list[str]) -> None:
            # Stored as it arrives, so a killed scan resumes from what it finished.
            results[rep] = (w, verdict, deciders)
            if sink is not None:
                sink.write(_record(p, n, rep, w, verdict, deciders, __version__) + "\n")

        workers = min(job.jobs, _cpu_limit(), len(todo))
        if workers > 1 and any(w != p for _, w in todo):
            # Built once here, numpy import included: forked workers
            # inherit them, and the clock below does not count them.
            gapn.prepare_verdicts(ctx)
        start = time.perf_counter()
        for done, candidate in enumerate(todo, 1):
            record(*_decide_candidate(candidate, ctx))
            if workers > 1 and (seconds := time.perf_counter() - start) > POOL_START_S:
                # The one check: pool what is left if its serial time at
                # the rate so far, cut by the workers, repays their start-up.
                left = len(todo) - done
                workers = min(workers, left)
                if workers > 1 and seconds * left / done * (1 - 1 / workers) > POOL_START_S:
                    chunk = max(1, left // (workers * 4))
                    with multiprocessing.Pool(workers, initializer=_init_worker, initargs=(ctx,)) as pool:
                        for result in pool.imap_unordered(_decide_candidate, todo[done:], chunksize=chunk):
                            record(*result)
                    break
                workers = 1  # no second check: finish serially

    gapn_cosets = [
        _coset_entry(rep, p, n, w, deciders)
        for rep, (w, verdict, deciders) in sorted(results.items())
        if verdict
    ]

    filter_check = None
    if job.filters.verify_filters:
        filter_check = _verify_filtered(ctx, filtered_reps)

    conjecture_holds = None
    if job.mode == "conjecture":
        conjecture_holds = not gapn_cosets

    return SearchResult(
        p=p,
        n=n,
        mode=job.mode,
        gapn_cosets=gapn_cosets,
        scanned=scanned,
        filtered=filtered,
        elapsed=round(time.perf_counter() - t0, 6),
        conjecture_holds=conjecture_holds,
        filter_check=filter_check,
    )


def _coset_entry(rep: int, p: int, n: int, weight: int, deciders: list[str]) -> dict:
    return {
        "d": rep,
        "members": list(coset_members(rep, p, n)),
        "weight": weight,
        "deciders": list(deciders),
    }


def _verify_filtered(ctx: FieldCtx, filtered_reps: dict[str, list[int]]) -> dict:
    """Decide a stratified sample of filtered cosets with the
    single-direction decider; all must be non-GAPN for the filters to be
    sound."""
    sampled = 0
    violations = []
    per_stratum = {}
    for stratum, reps in filtered_reps.items():
        if not reps:
            per_stratum[stratum] = 0
            continue
        if len(reps) <= 100:
            sample = reps
        else:
            step = len(reps) / 100.0
            sample = sorted({reps[int(i * step)] for i in range(100)})
        per_stratum[stratum] = len(sample)
        sampled += len(sample)
        for d in sample:
            verdict, _ = _decide_brute(ctx, d)
            if verdict:
                violations.append(d)
    return {"sampled": sampled, "per_stratum": per_stratum, "violations": violations}


def analyze_exponent(ctx: FieldCtx, d: int, long_running: bool = False) -> gapn.GapnReport:
    """Full report for one exponent with every applicable decider agreeing.

    The report is the full spectrum when brute force runs.  Above the soft
    order budget brute force is skipped unless opted in, and the report is
    then the extrapolated single-direction one.  deciders_agreed names
    every decider that ran.
    """
    if d < 1:
        raise ValueError("need an exponent d >= 1")
    p, n = ctx.p, ctx.n
    verdicts: dict[str, bool] = {}
    full_ok = ctx.order <= SOFT_ORDER_BUDGET or long_running
    table = gapn.monomial_table(ctx, d)
    if full_ok:
        report = gapn.differential_spectrum(table)
        verdicts[BRUTE_FORCE] = report.is_gapn
    # monomial_gapn_fast(ctx, d), from the table built above.
    fast = gapn._single_direction(ctx, table.values)
    verdicts[MONOMIAL_FAST] = fast.is_gapn
    if not full_ok:
        report = fast
    if p_weight(d, p) == p:
        dn = normalize_weight_p(d, p)
        by_pair, names = _decide_weight_p(p, n, dn)
        verdicts.update(dict.fromkeys(names, by_pair))
        verdicts[LINEARIZED_KERNEL] = gapn.linearized_kernel_dim(ctx, dn) == 1
    _agree(verdicts, d, p, n)
    return report._replace(deciders_agreed=sorted(verdicts))


def exact_verdict(ctx: FieldCtx, d: int) -> tuple[bool, list[str]]:
    """Verdict for one exponent by all applicable deciders (must agree)."""
    report = analyze_exponent(ctx, d)
    return report.is_gapn, report.deciders_agreed


class FamilyEntry(NamedTuple):
    family: str
    param: int
    d: int
    predicted: bool
    verdict: bool
    deciders: list[str]

    @property
    def agree(self) -> bool:
        return self.predicted == self.verdict

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "param": self.param,
            "d": self.d,
            "predicted": self.predicted,
            "verdict": self.verdict,
            "deciders": list(self.deciders),
            "agree": self.agree,
        }


class FamilyReport(NamedTuple):
    p: int
    n: int
    entries: list[FamilyEntry]

    @property
    def mismatches(self) -> int:
        return sum(not e.agree for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "entries": [e.to_dict() for e in self.entries],
            "mismatches": self.mismatches,
        }


def verify_families(p: int, n: int) -> FamilyReport:
    """Check every exponent of monomial.classical_families against the
    exact deciders.

    Exponents are reduced modulo p**n - 1, since x**(p**n - 1 + d) = x**d on
    the field; one that reduces to 0 lies outside [1, p**n - 2] and is
    dropped (gold i = 1 on F_4, where p**n - 1 = 3).  One member of each
    cyclotomic coset is decided, and its verdict and deciders go to its
    coset mates: x**(d*p) is x**d followed by the additive automorphism
    x -> x**p, so it has the same spectrum, and the digit sum, on which the
    applicable deciders depend, is the same across a coset.
    """
    ctx = make_field(p, n)
    entries: list[FamilyEntry] = []
    decided: dict[int, tuple[bool, list[str]]] = {}  # coset rep -> exact_verdict of its first member
    for family, param, d, predicted in classical_families(p, n):
        d %= p**n - 1
        if d:
            rep = coset_rep(d, p, n)
            if rep not in decided:
                decided[rep] = exact_verdict(ctx, d)
            verdict, deciders = decided[rep]
            entries.append(FamilyEntry(family, param, d, predicted, verdict, list(deciders)))
    return FamilyReport(p, n, entries)


def _run_families_only(job: SearchJob, t0: float) -> SearchResult:
    p, n = job.p, job.n
    report = verify_families(p, n)
    first: dict[int, list[str]] = {}  # coset rep -> deciders of its first GAPN entry
    for entry in report.entries:
        if entry.verdict:
            first.setdefault(coset_rep(entry.d, p, n), entry.deciders)
    gapn_cosets = [
        _coset_entry(rep, p, n, p_weight(rep, p), deciders) for rep, deciders in sorted(first.items())
    ]
    return SearchResult(
        p=job.p,
        n=job.n,
        mode=job.mode,
        gapn_cosets=gapn_cosets,
        scanned=len(report.entries),
        filtered={"low_weight": 0, "even_weight": 0, "out_of_band": 0},
        elapsed=round(time.perf_counter() - t0, 6),
    )


# ---- cache -----------------------------------------------------------------


def _cache_path(cache_dir, p: int, n: int) -> Path:
    return Path(cache_dir) / f"gapn_{p}_{n}.csv"


def _record(p: int, n: int, rep: int, weight: int, verdict: bool, deciders: list[str], version: str) -> str:
    """The cache line of one decided coset, without its newline."""
    prefix = f"{p},{n},{rep},{weight},{int(verdict)},{'+'.join(deciders)},{version}"
    return f"{prefix},{zlib.crc32(prefix.encode('utf-8'))}"


def _open_cache(cache_dir, p: int, n: int):
    """The (p, n) cache file for appending, line-buffered so that each
    record reaches the OS as soon as it is written."""
    path = _cache_path(cache_dir, p, n)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "a", buffering=1)


def _load_cache(cache_dir, p: int, n: int) -> dict[int, tuple[int, bool, list[str]]]:
    path = _cache_path(cache_dir, p, n)
    out: dict[int, tuple[int, bool, list[str]]] = {}
    if not path.exists():
        return out
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        # A torn append: drop the unterminated last line from the file, so
        # the next append starts a fresh line.
        with open(path, "r+b") as fh:
            fh.truncate(end)
    for lineno, raw in enumerate(data[:end].split(b"\n"), 1):
        # One trailing \r is what a text-mode append on Windows adds.
        raw = raw.removesuffix(b"\r")
        if not raw:
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CacheCorrupt(f"{path}:{lineno}: not UTF-8") from None
        parts = line.split(",")
        if len(parts) != 8:
            raise CacheCorrupt(f"{path}:{lineno}: malformed record")
        try:
            rec_p, rec_n, rep, weight, verdict = (int(x) for x in parts[:5])
        except ValueError:
            raise CacheCorrupt(f"{path}:{lineno}: non-integer field") from None
        deciders = parts[5].split("+")
        # Every number is canonical decimal, and the checksum holds.
        prefix = line.rpartition(",")[0]
        if not all(map(gapn._is_decimal, parts[:5])) or parts[7] != str(zlib.crc32(prefix.encode("utf-8"))):
            raise CacheCorrupt(f"{path}:{lineno}: checksum mismatch or non-canonical number")
        if (rec_p, rec_n) != (p, n):
            raise CacheCorrupt(f"{path}:{lineno}: record for ({rec_p},{rec_n}) in ({p},{n}) cache")
        if not 1 <= rep < p**n - 1 or coset_rep(rep, p, n) != rep:
            raise CacheCorrupt(f"{path}:{lineno}: {rep} is not a coset representative")
        if weight != p_weight(rep, p):
            raise CacheCorrupt(f"{path}:{lineno}: weight {weight} is not the weight of {rep}")
        if verdict not in (0, 1):
            raise CacheCorrupt(f"{path}:{lineno}: verdict {verdict} is not 0 or 1")
        if not set(deciders) <= set(DECIDERS):
            raise CacheCorrupt(f"{path}:{lineno}: unknown or empty decider name in {parts[5]!r}")
        if rep in out and out[rep][1] != verdict:
            raise CacheCorrupt(f"{path}:{lineno}: verdict {verdict} for {rep} conflicts with an earlier record")
        out[rep] = (weight, bool(verdict), deciders)
    return out


__all__ = [
    "FamilyEntry",
    "FamilyReport",
    "SearchFilters",
    "SearchJob",
    "SearchResult",
    "SOFT_ORDER_BUDGET",
    "analyze_exponent",
    "exact_verdict",
    "run_search",
    "verify_families",
]
