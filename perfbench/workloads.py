"""The benchmark's three workloads: their requests and how to check them.

Every workload is a closed loop with one client: a request is sent only
after the previous one has returned.  A round is one pass over a workload's
request list, started from a fresh interpreter (``decide``, ``weight-p``) or
with fresh ``--cache`` directories (``scan``).  The seed fixes the inputs;
the mix of request kinds and field sizes is the same for every seed, so that
runs with different seeds measure the same amount of work.

Each request carries a check that returns None when the output is right,
else a reason.  Checks compare only fields that carry a verdict and never
``elapsed``; the expected values come from oracle.py.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import FIELD_CAP, Oracle, expected_search, weight_p_exponents

# test requests per field (p, n, count); about one in four exponents has
# digit sum p, so the algebraic deciders run alongside brute force.
DECIDE_TESTS = (
    (3, 4, 16), (3, 5, 12), (3, 6, 8), (3, 7, 2),
    (5, 3, 12), (5, 4, 6), (7, 3, 8),
    (2, 8, 8), (2, 9, 5), (2, 10, 3),
)
DECIDE_FAMILIES = ((3, 4), (3, 5), (5, 3), (7, 2), (2, 8))
DECIDE_CRITERION = ((3, 6), (3, 8), (5, 4), (5, 5), (7, 3))  # criterion + profile, 2 each
DECIDE_TABLES = ((3, 4), (3, 4), (3, 5), (5, 3), (5, 3), (7, 2))

CONJECTURES = ((3, 7), (5, 5), (3, 9))
# Known outcomes of the conjecture-band scans.
CONJECTURE_HOLDS = {(3, 7): True, (5, 5): False, (3, 9): True}
WEIGHT_P_FIELDS = ((3, 12), (5, 7), (7, 5))
WEIGHT_P_SEEDED = 10  # seeded weight-p exponents per field, profile + criterion each

# Profile answers are checked against the reference field up to this order.
PROFILE_CHECK_CAP = 3**8


@dataclass
class Request:
    id: str
    argv: list[str]
    order: int | None  # field order p**n; None for the field-free `profile`
    role: str  # "test", "families", "cold", "warm" or "other"
    check: object = field(repr=False, default=None)  # doc -> reason | None

    def record(self) -> dict:
        return {"id": self.id, "argv": self.argv, "field_order": self.order, "role": self.role}


class Checks:
    """Output checks for each request kind, sharing one oracle.

    Expected search documents take seconds to derive for the larger
    fields, so they are kept in the JSON file saved_path across runs of
    one checkout.
    """

    def __init__(self, oracle: Oracle, profile_of, saved_path: Path):
        self.oracle = oracle
        self.profile_of = profile_of
        self._saved_path = saved_path
        self._expected: dict = json.loads(saved_path.read_text()) if saved_path.is_file() else {}

    def _weight_p_prediction(self, d: int, p: int, n: int) -> bool | None:
        if sum(base_p_digits(d, p)) != p:
            return None
        while d % p == 0:
            d //= p
        return self.profile_of(d, p).predicts_gapn(n)

    def test(self, p: int, n: int, d: int):
        def check(doc):
            spectrum = {c: m for c, m in doc["spectrum"]}
            ref = self.oracle.power_spectrum(p, n, d)
            if spectrum != ref:
                return f"spectrum {spectrum} != reference {ref}"
            if sum(spectrum.values()) != (p**n - 1) * p**n:
                return "spectrum does not cover (p^n - 1) * p^n pairs"
            if doc["max_count"] != max(ref) or doc["is_gapn"] != (max(ref) <= p):
                return "verdict or max_count differs from the reference"
            predicted = self._weight_p_prediction(d, p, n)
            if predicted is not None and doc["is_gapn"] != predicted:
                return f"verdict {doc['is_gapn']} != exceptional profile {predicted}"
            return None

        return check

    def families(self, p: int, n: int):
        expected = [p**i + p - 1 for i in range(1, n)]
        t = (n - 1) // 2 if n % 2 else n // 2
        expected.append(p**t + p + 1)
        if p % 2:
            expected += [p**n - p**j - 1 for j in range(n)]

        def check(doc):
            if [e["d"] for e in doc["entries"]] != expected:
                return "family exponents differ from the definitions"
            for e in doc["entries"]:
                if e["verdict"] != self.oracle.is_gapn(p, n, e["d"]):
                    return f"family verdict for d={e['d']} differs from the reference"
                if not e["agree"]:
                    return f"family prediction for d={e['d']} not met"
            return None if doc["mismatches"] == 0 else "mismatches reported"

        return check

    def criterion(self, p: int, n: int):
        def check(doc):
            d = doc["d"]
            if doc["is_gapn"] != self.profile_of(d, p).predicts_gapn(n):
                return "criterion verdict differs from the exceptional profile"
            if p**n <= FIELD_CAP and d < p**n - 1 and doc["is_gapn"] != self.oracle.is_gapn(p, n, d):
                return "criterion verdict differs from the reference"
            return None

        return check

    def profile(self, p: int, max_n: int):
        def check(doc):
            d = doc["d"]
            dims = set(doc["gapn_dimensions"])
            n = len(base_p_digits(d, p))
            while n <= max_n and p**n <= PROFILE_CHECK_CAP:
                if d < p**n - 1 and (n in dims) != self.oracle.is_gapn(p, n, d):
                    return f"GAPN dimension {n} differs from the reference"
                n += 1
            return None

        return check

    def table(self, p: int, n: int, values: list[int]):
        def check(doc):
            ref = self.oracle.field(p, n).table_spectrum(values)
            rows = {c: m for c, m in doc["spectrum"]}
            if rows != ref:
                return "table spectrum differs from the reference"
            if doc["pairs_total"] != (p**n - 1) * p**n:
                return "pairs_total != (p^n - 1) * p^n"
            if doc["max_count"] != max(ref) or doc["is_gapn"] != (max(ref) <= p):
                return "verdict or max_count differs from the reference"
            return None

        return check

    def search(self, p: int, n: int, mode: str, verify_filters: bool = False):
        key = f"{p},{n},{mode}"
        if key not in self._expected:
            self._expected[key] = expected_search(self.oracle, p, n, mode, self.profile_of)
            tmp = self._saved_path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self._expected))
            os.replace(tmp, self._saved_path)
        want = self._expected[key]

        def check(doc):
            got = search_verdicts(doc)
            for k in ("scanned", "filtered", "gapn_cosets", "conjecture_holds"):
                if got[k] != want[k]:
                    return f"{k}: {got[k]} != expected {want[k]}"
            if mode == "conjecture" and doc["conjecture_holds"] != CONJECTURE_HOLDS[(p, n)]:
                return "conjecture outcome differs from the known one"
            fc = doc["filter_check"]
            if verify_filters:
                if fc is None or fc["sampled"] != want["filter_check_sampled"] or fc["violations"]:
                    return f"filter check {fc} unexpected"
            elif fc is not None:
                return "unexpected filter check"
            return None

        return check

    def expected_gapn_cosets(self, p: int, n: int, mode: str) -> list[int]:
        self.search(p, n, mode)
        return [d for d, _ in self._expected[f"{p},{n},{mode}"]["gapn_cosets"]]


def base_p_digits(d: int, p: int) -> list[int]:
    out = []
    while d:
        out.append(d % p)
        d //= p
    return out


def search_verdicts(doc: dict) -> dict:
    """The verdict-carrying part of a search or conjecture document."""
    fc = doc.get("filter_check")
    return {
        "scanned": doc["scanned"],
        "filtered": doc["filtered"],
        "gapn_cosets": [[c["d"], c["weight"]] for c in doc["gapn_cosets"]],
        "conjecture_holds": doc["conjecture_holds"],
        "filter_check": None if fc is None else [fc["sampled"], fc["violations"]],
    }


def verdict_fields(doc: dict) -> dict:
    """Every verdict-carrying field of any document, for comparing two runs."""
    if "scanned" in doc:
        return search_verdicts(doc)
    keep = ("is_gapn", "max_count", "spectrum", "pairs_total", "mismatches", "gapn_dimensions", "root_orders")
    out = {k: doc[k] for k in keep if k in doc}
    if "entries" in doc:
        out["entries"] = [[e["d"], e["verdict"], e["agree"]] for e in doc["entries"]]
    return out


def _test_exponents(rng: random.Random, p: int, n: int, count: int) -> list[int]:
    weight_p = weight_p_exponents(p, n)
    out = []
    for i in range(count):
        if i % 4 == 3:
            out.append(rng.choice(weight_p))
        else:
            out.append(rng.randrange(2, p**n - 1))
    return out


def decide(seed: int, work: Path, checks: Checks) -> list[Request]:
    """Single-exponent requests from one interpreter, in seeded order."""
    rng = random.Random(seed)
    reqs: list[Request] = []
    for p, n, count in DECIDE_TESTS:
        for d in _test_exponents(rng, p, n, count):
            argv = ["test", "-p", str(p), "-n", str(n), "-d", str(d), "--format", "json"]
            reqs.append(Request("", argv, p**n, "test", checks.test(p, n, d)))
    for p, n in DECIDE_FAMILIES:
        argv = ["families", "-p", str(p), "-n", str(n), "--format", "json"]
        reqs.append(Request("", argv, p**n, "families", checks.families(p, n)))
    for p, n in DECIDE_CRITERION:
        for d in rng.sample(weight_p_exponents(p, n), 2):
            argv = ["criterion", "-p", str(p), "-n", str(n), "-d", str(d), "--format", "json"]
            reqs.append(Request("", argv, p**n, "other", checks.criterion(p, n)))
            argv = ["profile", "-p", str(p), "-d", str(d), "--format", "json"]
            reqs.append(Request("", argv, None, "other", checks.profile(p, 12)))
    for k, (p, n) in enumerate(DECIDE_TABLES):
        values = [rng.randrange(p**n) for _ in range(p**n)]
        path = work / f"table{k}_{p}_{n}.csv"
        path.write_text("x,f(x)\n" + "".join(f"{x},{v}\n" for x, v in enumerate(values)))
        argv = ["spectrum", "-p", str(p), "-n", str(n), "--table", str(path), "--format", "json"]
        reqs.append(Request("", argv, p**n, "other", checks.table(p, n, values)))
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r.id = f"r{i:03d}"
    return reqs


def scan(seed: int, work: Path, checks: Checks) -> list[Request]:
    """CLI scans, one fresh process each: the README one-shot, three cold
    conjecture scans writing a fresh cache, their warm reruns reading it,
    and one two-worker exhaustive search with the filter check."""
    rng = random.Random(seed)
    order = list(CONJECTURES)
    rng.shuffle(order)
    reqs = [Request("", ["test", "-p", "3", "-n", "2", "-d", "5", "--format", "json"], 9, "test", checks.test(3, 2, 5))]
    for role in ("cold", "warm"):
        for p, n in order:
            cache = work / f"cache_{p}_{n}"
            argv = ["conjecture", "-p", str(p), "-n", str(n), "--long-running",
                    "--cache", str(cache), "--format", "json"]
            reqs.append(Request("", argv, p**n, role, checks.search(p, n, "conjecture")))
    argv = ["search", "-p", "3", "-n", "8", "--verify-filters", "--jobs", "2",
            "--long-running", "--format", "json"]
    reqs.append(Request("", argv, 3**8, "cold", checks.search(3, 8, "exhaustive", verify_filters=True)))
    for i, r in enumerate(reqs):
        r.id = f"r{i:03d}"
    return reqs


def weight_p(seed: int, work: Path, checks: Checks) -> list[Request]:
    """Weight-p-only searches from one interpreter, then profile and
    criterion follow-ups for every GAPN coset and for seeded exponents.
    The follow-ups are fixed before the round from the cosets the reference
    expects; a search that finds others fails its own check."""
    rng = random.Random(seed)
    reqs = []
    follow = []
    for p, n in WEIGHT_P_FIELDS:
        argv = ["search", "-p", str(p), "-n", str(n), "--mode", "weight-p-only", "--format", "json"]
        reqs.append(Request("", argv, p**n, "cold", checks.search(p, n, "weight-p-only")))
        found = checks.expected_gapn_cosets(p, n, "weight-p-only")
        seeded = rng.sample(weight_p_exponents(p, n), WEIGHT_P_SEEDED)
        for d in found + seeded:
            argv = ["profile", "-p", str(p), "-d", str(d), "--max-n", str(n), "--format", "json"]
            follow.append(Request("", argv, None, "other", checks.profile(p, n)))
            argv = ["criterion", "-p", str(p), "-n", str(n), "-d", str(d), "--format", "json"]
            follow.append(Request("", argv, p**n, "other", checks.criterion(p, n)))
    rng.shuffle(follow)
    reqs += follow
    for i, r in enumerate(reqs):
        r.id = f"r{i:03d}"
    return reqs


WORKLOADS = {"decide": decide, "scan": scan, "weight-p": weight_p}
IN_PROCESS = {"decide": True, "scan": False, "weight-p": True}

