import pytest

from gapnkit import FieldCtx, fields, make_field

_cache = {}


@pytest.fixture(scope="session")
def field():
    """Memoized field constructor; contexts are immutable and shareable."""

    def get(p, n, modulus=None):
        key = (p, n, None if modulus is None else modulus.coeffs)
        if key not in _cache:
            _cache[key] = make_field(p, n, modulus)
        return _cache[key]

    return get


@pytest.fixture(autouse=True)
def fresh_shared_fields():
    """Start every test with no shared field contexts, so a test that checks
    how a context is built does not depend on which tests ran before it."""
    fields._shared.clear()


@pytest.fixture
def no_scalar_pow(monkeypatch):
    """Make FieldCtx.pow raise, so a table request that falls back to
    element-by-element scalar arithmetic fails instead of running for hours."""

    def refuse(self, a, e):
        raise RuntimeError("a table request fell back to scalar pow")

    monkeypatch.setattr(FieldCtx, "pow", refuse)
