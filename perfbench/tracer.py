"""Per-layer tracing of gapnkit from outside the package.

``Tracer.install()`` wraps the public functions of gapnkit's modules at
every binding site: ``search``, ``cli`` and ``gapn`` import names with
``from .x import y``, so each module that holds a reference to a wrapped
function gets the wrapper.  A few private names are wrapped too, because
they are the layer boundaries the benchmark reports: the derivative pass,
the cache reader, the two coset deciders and the process pool.

Every wrapped call updates per-name counts, inclusive time and self time
(inclusive time minus the time of wrapped calls made inside it).  Most
names also keep one span per call (name, start, end, parent span, request
id) in memory; names called ~10^4 times or more per request keep only the
counts, so tracing them stays cheap.  Spans are written out by the caller
at the end of the run.

Only the traced process is covered.  Pool workers forked by
``search.run_search`` inherit the wrappers but their records are lost, so
``search.pool`` is the parent's time inside the pool, and per-layer numbers
for work done in workers are absent.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("fields", "polyfp", "numtheory", "monomial", "gapn", "search", "cli")

# Names called so often per request that only counts and totals are kept.
# LEAF names call no other wrapped name, so their wrapper skips the frame
# bookkeeping; coset_rep alone runs ~5 * 10^5 times in a 3^12 scan.
LEAF = {
    "monomial.coset_rep",
    "monomial.digits_of",
    "numtheory.is_prime",
    "polyfp.divrem",
    "polyfp.pow_mod",
    "polyfp.poly_gcd",
    "fields.mul_array",
    "fields.digit_table",
}
AGGREGATE_ONLY = LEAF | {
    "monomial.p_weight",
    "fields.add_array",
    "gapn.derivative_pass",
    "search.decide",
}

# Private names that mark layer boundaries: (module, attribute, traced name).
PRIVATE = (
    ("gapn", "_derivative_values", "gapn.derivative_pass"),
    ("search", "_load_cache", "search.cache_load"),
    ("search", "_decide_weight_p", "search.decide"),
    ("search", "_decide_brute", "search.decide"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.counters: dict[str, float] = {}
        self.request_id = None
        self._stack = [[0, -1]]  # frames: [child_ns, span index]

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self, name: str):
        """Open a span by hand, for a boundary that is not one call."""
        self.stats.setdefault(name, [0, 0, 0])
        parent = self._stack[-1]
        frame = [0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        return name, parent, frame, time.perf_counter_ns()

    def end(self, token) -> None:
        name, parent, frame, t0 = token
        t1 = time.perf_counter_ns()
        self._stack.pop()
        dur = t1 - t0
        parent[0] += dur
        stats = self.stats[name]
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - frame[0]
        self.spans[frame[1]] = (name, t0, t1, parent[1], self.request_id)

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording calls of fn under name; after(args, kwargs,
        result) runs once the call returns, outside the timed interval."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        keep_span = name not in AGGREGATE_ONLY
        tracer = self

        if name in LEAF and after is None:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack[-1][0] += dur
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur

            return leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                frame = [0, len(spans)]
                spans.append(None)
            else:
                frame = [0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep_span:
                    spans[frame[1]] = (name, t0, t1, parent[1], tracer.request_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import gapnkit.cli  # noqa: F401  (loads every submodule)

        mods = {name: sys.modules[f"gapnkit.{name}"] for name in MODULES}
        replace: dict[int, object] = {}

        def add(obj, name, after=None):
            replace[id(obj)] = (obj, self.wrap(name, obj, after))

        for short, mod in mods.items():
            public = getattr(mod, "__all__", None) or [
                k for k in vars(mod) if not k.startswith("_")
            ]
            for attr in public:
                obj = getattr(mod, attr, None)
                if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == mod.__name__:
                    add(obj, f"{short}.{attr}", self._after_hook(f"{short}.{attr}"))
        for short, attr, name in PRIVATE:
            add(getattr(mods[short], attr), name, self._after_hook(name))

        # Rebind in every gapnkit module that holds a reference.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gapnkit" or mod_name.startswith("gapnkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        ctx_cls = mods["fields"].FieldCtx
        for attr in ("add_array", "mul_array"):
            setattr(ctx_cls, attr, self.wrap(f"fields.{attr}", getattr(ctx_cls, attr)))
        digit_table = ctx_cls.digit_table
        ctx_cls.digit_table = property(self.wrap("fields.digit_table", digit_table.fget))

        mods["search"].multiprocessing = _PoolTimer(self, mods["search"].multiprocessing)

    def _after_hook(self, name):
        if name == "fields.make_field":
            return lambda args, kwargs, ctx: self.count("fields.make_field.elements", ctx.order)
        if name == "gapn.derivative_pass":
            def on_pass(args, kwargs, _):
                ctx = args[0]
                self.count("gapn.pass_elements", ctx.order)
                # Computed bytes: p int64 gathers of the value table, p
                # n-byte digit-row gathers, one int64 result per element.
                self.count("gapn.pass_bytes_computed", ctx.order * (ctx.p * (8 + ctx.n) + 8))
            return on_pass
        if name == "gapn.differential_spectrum":
            def on_spectrum(args, kwargs, report):
                # Verdict mode stops at the first direction with a count
                # above p, which is the witness direction.
                mode = args[1] if len(args) > 1 else kwargs.get("mode", "full")
                stopped = mode == "verdict" and not report.is_gapn
                directions = report.witness[0] if stopped else args[0].ctx.order - 1
                self.count("gapn.differential_spectrum.directions", directions)
            return on_spectrum
        if name == "search.run_search":
            return lambda args, kwargs, result: self.count("search.visited", result.scanned)
        return None

    def kind_of(self, name: str) -> str:
        if name in LEAF:
            return "leaf"
        return "aggregate" if name in AGGREGATE_ONLY else "span"

    def calls_by_kind(self) -> dict[str, int]:
        out = {"leaf": 0, "aggregate": 0, "span": 0}
        for name, st in self.stats.items():
            out[self.kind_of(name)] += st[0]
        return out

    def calibrate(self, calls: int = 5000) -> dict[str, float]:
        """Seconds each kind of wrapper adds to one call, measured on a
        function that does nothing.  Call it before install()."""

        def noop():
            return None

        def per_call(fn):
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, (time.perf_counter() - t0) / calls)
            return best

        base = per_call(noop)
        names = {"leaf": "monomial.coset_rep", "aggregate": "search.decide", "span": "calibration"}
        out = {kind: max(per_call(self.wrap(name, noop)) - base, 0.0) for kind, name in names.items()}
        self.stats.clear()
        self.spans.clear()
        self._stack[0][0] = 0
        return out

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus counters."""
        out = {
            name: {"calls": c, "incl_s": incl / 1e9, "self_s": own / 1e9}
            for name, (c, incl, own) in self.stats.items()
        }
        return {"functions": out, "counters": dict(self.counters)}


class _PoolTimer:
    """Stands in for the ``multiprocessing`` module inside gapnkit.search;
    times each pool from its creation to the end of its ``with`` block."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def Pool(self, *args, **kwargs):  # noqa: N802 (mirrors multiprocessing.Pool)
        token = self._tracer.begin("search.pool")
        try:
            pool = self._real.Pool(*args, **kwargs)
        except BaseException:
            self._tracer.end(token)
            raise
        return _TimedPool(pool, self._tracer, token)


class _TimedPool:
    def __init__(self, pool, tracer: Tracer, token):
        self._pool, self._tracer, self._token = pool, tracer, token

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.end(self._token)
