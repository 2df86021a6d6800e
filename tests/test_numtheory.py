"""Integer factorization: trial division and, past its bound, Pollard rho."""

import pytest

from gapnkit import numtheory
from gapnkit.numtheory import factorint


@pytest.mark.parametrize(
    "factors",
    [
        {10007: 1, 10009: 1},
        {10007: 2},
        {2**31 - 1: 1, 2**61 - 1: 1},
        {2: 1, 5: 1, 15797: 1, 1806113: 1},  # 11**11 - 1, the group order of F_(11^11)
    ],
)
def test_composites_past_trial_division_go_to_pollard_rho(monkeypatch, factors):
    # Each cofactor left after trial division is composite, so rho must split it.
    split = []
    rho = numtheory._pollard_rho
    monkeypatch.setattr(numtheory, "_pollard_rho", lambda m: split.append(m) or rho(m))
    n = 1
    for q, e in factors.items():
        n *= q**e
    assert factorint(n) == factors
    assert split


def test_one_has_no_prime_factors():
    assert factorint(1) == {}


@pytest.mark.parametrize("n", [0, -6])
def test_non_positive_rejected(n):
    with pytest.raises(ValueError, match="positive integer"):
        factorint(n)
