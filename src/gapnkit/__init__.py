"""Tools for GAPN monomial functions over finite fields of odd characteristic.

The package decides whether x -> x**d is generalized almost perfect
nonlinear on F_(p^n), by brute-force differential spectra and by the
digit-polynomial criterion for exponents of p-weight p, and it searches
exponent space one cyclotomic coset at a time.
"""

__version__ = "0.1.0"

import importlib.util
import sys
import threading
import types

_run_lock = threading.RLock()
_running: set[str] = set()  # deferred modules whose code is running now


class _Deferred(types.ModuleType):
    """A submodule whose code runs when one of its attributes is first read.

    The thread that runs it holds _run_lock until it has run, so a thread
    reading it meanwhile waits rather than seeing it half-run, while the
    module's own reads of itself pass through.  Once run, it is a plain
    module, and reads cost nothing extra.
    """

    def __getattribute__(self, attr):
        name = object.__getattribute__(self, "__name__")
        with _run_lock:
            if type(self) is _Deferred and name not in _running:
                _running.add(name)
                try:
                    object.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _running.discard(name)
        return types.ModuleType.__getattribute__(self, attr)


def _defer(name: str) -> types.ModuleType:
    """The submodule gapnkit.<name>, deferred.  It is registered in
    sys.modules like any import, so ``from . import gapn``, ``import
    gapnkit.gapn`` and tools that look modules up there all get this one
    module."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules[spec.name] = module
    return module


# gapn builds and reads field tables with numpy.  Deferred, it leaves
# numpy unloaded for every command that reads no table (profile,
# criterion, a weight-p-only scan).  Registered before the submodules
# that import it.
gapn = _defer("gapn")

from .errors import (
    BothZero,
    BudgetExceeded,
    CacheCorrupt,
    DeciderDisagreement,
    DivisionByZero,
    EvenCharacteristic,
    FactorizationTooLarge,
    GapnkitError,
    NotIrreducible,
    NotNormalized,
    NotPrime,
    OrderTooLarge,
    RootIsZero,
    WrongWeight,
    ZeroDirection,
)
from .fields import FieldCtx, find_irreducible, make_field
from .polyfp import Factorization, PolyFp, factorize, poly_gcd, root_order
from .monomial import (
    CriterionReport,
    ExceptionalProfile,
    circulant_rank,
    coset_count,
    coset_members,
    coset_rep,
    coset_reps,
    criterion_gapn,
    describe_exponent,
    digit_polynomial,
    digits_of,
    exceptional_profile,
    extension_prime,
    identify_family,
    max_degree_family,
    normalize_weight_p,
    p_weight,
    welch_exponent,
)
from .search import (
    SOFT_ORDER_BUDGET,
    FamilyEntry,
    FamilyReport,
    SearchFilters,
    SearchJob,
    SearchResult,
    analyze_exponent,
    cache_store,
    exact_verdict,
    run_search,
    verify_families,
)

__all__ = [
    "__version__",
    "BothZero",
    "BudgetExceeded",
    "CacheCorrupt",
    "CriterionReport",
    "DeciderDisagreement",
    "DivisionByZero",
    "EvenCharacteristic",
    "ExceptionalProfile",
    "Factorization",
    "FactorizationTooLarge",
    "FamilyEntry",
    "FamilyReport",
    "FieldCtx",
    "FnTable",
    "GapnReport",
    "GapnkitError",
    "NotIrreducible",
    "NotNormalized",
    "NotPrime",
    "OrderTooLarge",
    "PolyFp",
    "RootIsZero",
    "SOFT_ORDER_BUDGET",
    "SearchFilters",
    "SearchJob",
    "SearchResult",
    "WrongWeight",
    "ZeroDirection",
    "analyze_exponent",
    "cache_store",
    "circulant_rank",
    "coset_count",
    "coset_members",
    "coset_rep",
    "coset_reps",
    "criterion_gapn",
    "describe_exponent",
    "differential_spectrum",
    "digit_polynomial",
    "digits_of",
    "exact_verdict",
    "exceptional_profile",
    "extension_prime",
    "factorize",
    "find_irreducible",
    "gen_derivative",
    "identify_family",
    "linearized_kernel_dim",
    "make_field",
    "max_degree_family",
    "monomial_gapn_fast",
    "monomial_table",
    "normalize_weight_p",
    "p_weight",
    "poly_gcd",
    "root_order",
    "run_search",
    "verify_families",
    "welch_exponent",
]

# gapn's exports, read from it on access so that importing the package
# does not run it.
_FROM_GAPN = (
    "FnTable",
    "GapnReport",
    "differential_spectrum",
    "gen_derivative",
    "linearized_kernel_dim",
    "monomial_gapn_fast",
    "monomial_table",
)


def __getattr__(name: str):
    if name in _FROM_GAPN:
        return getattr(gapn, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_FROM_GAPN})
