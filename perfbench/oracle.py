"""Reference answers for the benchmark, computed without gapnkit's deciders.

The field is rebuilt here from a primitive polynomial found by brute force,
so it shares no code (and usually no modulus) with gapnkit.fields.  Verdicts
and spectra do not depend on the modulus: every construction of F_(p^n) is
isomorphic and power maps commute with field isomorphisms.

For a power map x -> x**d the count multiset of direction a is a
permutation of direction 1's, so one derivative pass gives the whole
spectrum.  Arbitrary value tables (``spectrum --table``) get every
direction.  Coset and weight bookkeeping is vectorised with numpy.  The
only gapnkit call is ``exceptional_profile``, which the benchmark uses as
the independent prediction for weight-p exponents.
"""

from __future__ import annotations

import numpy as np

# Largest order this module builds a field for; bigger fields are checked
# through coset bookkeeping and exceptional profiles only.
FIELD_CAP = 3**9


def _digits(values: np.ndarray, p: int, n: int) -> np.ndarray:
    out = np.empty((values.size, n), dtype=np.int64)
    v = values.astype(np.int64)
    for s in range(n):
        out[:, s] = v % p
        v = v // p
    return out


class RefField:
    """F_(p^n) on packed base-p indices, with an antilog table over the
    root of the first primitive polynomial in counting order."""

    def __init__(self, p: int, n: int):
        if p**n > FIELD_CAP:
            raise ValueError(f"reference field {p}^{n} above the cap {FIELD_CAP}")
        self.p, self.n, self.order = p, n, p**n
        q = self.order
        self.digits = _digits(np.arange(q), p, n)
        self.digits8 = self.digits.astype(np.uint8)
        self._shifts: dict[int, np.ndarray] = {}
        self.pow_vec = p ** np.arange(n, dtype=np.int64)
        top_unit = p ** (n - 1)
        idx = np.arange(q, dtype=np.int64)
        top, low = idx // top_unit, idx % top_unit
        for k in range(1, q):
            tail = _digits(np.array([k]), p, n)[0]
            if tail[0] == 0:
                continue
            # x * v = shift(v) - top(v) * (x^n - f(x)) with f monic of tail `tail`
            mulx = (((low * p)[:, None] // self.pow_vec % p) - top[:, None] * tail) % p
            mulx = mulx @ self.pow_vec
            antilog = self._cycle(mulx)
            if antilog is not None:
                break
        else:
            raise AssertionError(f"no primitive polynomial of degree {n} over F_{p}")
        self.antilog = antilog

    def _cycle(self, mulx: np.ndarray) -> np.ndarray | None:
        """The powers of x, 1, x, x^2, ..., when multiplying by x (the
        permutation mulx) returns to 1 only after all q - 1 units, which
        is when the modulus is primitive; otherwise None."""
        step = mulx.tolist()
        seq = [1]
        v = step[1]
        while v != 1:
            seq.append(v)
            v = step[v]
        return np.array(seq, dtype=np.int64) if len(seq) == self.order - 1 else None

    def power_table(self, d: int) -> np.ndarray:
        q = self.order
        values = np.zeros(q, dtype=np.int64)
        values[self.antilog] = self.antilog[np.arange(q - 1) * (d % (q - 1)) % (q - 1)]
        return values

    def _derivative(self, values: np.ndarray, a: int) -> np.ndarray:
        """S_a f(x) = f(x) + f(x + a) + ... + f(x + (p-1)a) for every x."""
        if a not in self._shifts:
            steps = self.digits[None, :, :] + np.arange(self.p)[:, None, None] * self.digits[a]
            self._shifts[a] = (steps % self.p) @ self.pow_vec
        shifts = self._shifts[a]
        acc = self.digits8[values[shifts[0]]].astype(np.int16)
        for shifted in shifts[1:]:
            acc += self.digits8[values[shifted]]
        return (acc % self.p).astype(np.int64) @ self.pow_vec

    def power_spectrum(self, d: int) -> dict[int, int]:
        """Differential spectrum of x**d, from direction 1 scaled by q - 1."""
        counts = np.bincount(self._derivative(self.power_table(d), 1), minlength=self.order)
        hist = np.bincount(counts)
        return {int(c): int(hist[c]) * (self.order - 1) for c in np.nonzero(hist)[0]}

    def table_spectrum(self, values: np.ndarray) -> dict[int, int]:
        """Differential spectrum of an arbitrary table over every direction."""
        values = np.asarray(values, dtype=np.int64)
        hist = np.zeros(self.order + 1, dtype=np.int64)
        for a in range(1, self.order):
            counts = np.bincount(self._derivative(values, a), minlength=self.order)
            h = np.bincount(counts)
            hist[: h.size] += h
        return {int(c): int(hist[c]) for c in np.nonzero(hist)[0]}


class Oracle:
    """Caches reference fields and answers across the requests of a run."""

    def __init__(self):
        self._fields: dict[tuple[int, int], RefField] = {}
        self._spectra: dict[tuple[int, int, int], dict[int, int]] = {}

    def field(self, p: int, n: int) -> RefField:
        key = (p, n)
        if key not in self._fields:
            self._fields[key] = RefField(p, n)
        return self._fields[key]

    def power_spectrum(self, p: int, n: int, d: int) -> dict[int, int]:
        key = (p, n, d)
        if key not in self._spectra:
            self._spectra[key] = self.field(p, n).power_spectrum(d)
        return self._spectra[key]

    def is_gapn(self, p: int, n: int, d: int) -> bool:
        return max(self.power_spectrum(p, n, d)) <= p


def cosets(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coset representatives in [2, p^n - 2] and their base-p digit sums."""
    m = p**n - 1
    d = np.arange(2, m, dtype=np.int64)
    best = d.copy()
    cur = d.copy()
    for _ in range(n - 1):
        cur = cur * p % m
        np.minimum(best, cur, out=best)
    reps = d[best == d]
    return reps, _digits(reps, p, n).sum(axis=1)


def weight_p_exponents(p: int, n: int) -> list[int]:
    """Every exponent in [1, p^n - 2] whose base-p digit sum is p."""
    reps = np.arange(1, p**n - 1, dtype=np.int64)
    return [int(d) for d in reps[_digits(reps, p, n).sum(axis=1) == p]]


def expected_search(oracle: Oracle, p: int, n: int, mode: str, profile_of) -> dict:
    """The verdict-carrying fields of a default-filter ``search``/``conjecture``
    document, derived from coset bookkeeping and reference verdicts.

    profile_of(d, p) must return an object with ``predicts_gapn(n)``; it
    decides weight-p cosets.  Every other candidate is decided by the
    reference field.
    """
    reps, weights = cosets(p, n)
    max_weight = n * (p - 1) - 1
    if mode == "conjecture":
        out_band = ~((weights > p) & (weights < max_weight))
    elif mode == "weight-p-only":
        out_band = weights != p
    else:
        out_band = np.zeros(reps.size, dtype=bool)
    low = ~out_band & (weights < p)
    even = ~out_band & ~low & (weights % 2 == 0) if p % 2 else np.zeros(reps.size, dtype=bool)
    candidates = ~(out_band | low | even)
    gapn = []
    for d, w in zip(reps[candidates].tolist(), weights[candidates].tolist()):
        if w == p:
            dn = d
            while dn % p == 0:
                dn //= p
            verdict = profile_of(dn, p).predicts_gapn(n)
        else:
            verdict = oracle.is_gapn(p, n, d)
        if verdict:
            gapn.append([d, w])
    doc = {
        "scanned": int(reps.size),
        "filtered": {
            "low_weight": int(low.sum()),
            "even_weight": int(even.sum()),
            "out_of_band": int(out_band.sum()),
        },
        "gapn_cosets": gapn,
        "conjecture_holds": (not gapn) if mode == "conjecture" else None,
    }
    doc["filter_check_sampled"] = int(min(low.sum(), 100) + min(even.sum(), 100))
    return doc
