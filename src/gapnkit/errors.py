"""Exception types shared across the package."""


class GapnkitError(Exception):
    """Base class for every domain error raised by this package."""


class NotPrime(GapnkitError):
    """The requested characteristic is not a prime number."""


class NotIrreducible(GapnkitError):
    """A supplied modulus is not monic irreducible of the right degree."""


class OrderTooLarge(GapnkitError):
    """The field order exceeds what this package is willing to handle."""


class DivisionByZero(GapnkitError, ZeroDivisionError):
    """Division or inversion of zero."""


class BothZero(GapnkitError):
    """gcd(0, 0) requested."""


class RootIsZero(GapnkitError):
    """Multiplicative order of the root of x requested (the root is 0)."""


class FactorizationTooLarge(GapnkitError):
    """p**m - 1 is beyond the integer factorization budget (m > 24)."""


class WrongWeight(GapnkitError):
    """An exponent does not have the base-p digit sum the operation needs."""


class NotNormalized(GapnkitError):
    """An exponent is divisible by p where a unit constant digit is required."""


class ZeroDirection(GapnkitError):
    """Directional derivative along a = 0 requested."""


class EvenCharacteristic(GapnkitError):
    """An odd-characteristic-only construction was asked for p = 2."""


class CacheCorrupt(GapnkitError):
    """A search cache record failed its checksum or basic validation."""


class BudgetExceeded(GapnkitError):
    """A run would exceed the soft compute budget and was not opted in."""


class DeciderDisagreement(GapnkitError):
    """Two exact deciders returned different verdicts for one exponent."""


__all__ = [
    "BothZero", "BudgetExceeded", "CacheCorrupt", "DeciderDisagreement", "DivisionByZero", "EvenCharacteristic",
    "FactorizationTooLarge", "GapnkitError", "NotIrreducible", "NotNormalized", "NotPrime", "OrderTooLarge",
    "RootIsZero", "WrongWeight", "ZeroDirection",
]
