"""Run gapnkit CLI requests in this interpreter, one after another.

    python perfbench/client.py REQUESTS.json RESULTS.json [--trace SPANS.jsonl]

REQUESTS.json is a list of {"id": ..., "argv": [...], "sample": bool}.  Each
request is one call of ``gapnkit.cli.main(argv)`` with stdout and stderr
captured; nothing else of gapnkit is called.  RESULTS.json receives each
request's exit code, output, start and end time, its seconds, and the times
of the machine-speed probe (probe.py) just before it, every INTERVAL_S
while it ran (unless "sample" is false) and just after it.  With --trace
the layers are wrapped first (see tracer.py); the spans are appended to
SPANS.jsonl (parent is the index of the parent span among this process's
spans, -1 for none) and the per-layer totals go into RESULTS.json.

Run it from the root of a gapnkit checkout: the package is imported from
./src only.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
import traceback
from pathlib import Path

from probe import Probe


def import_gapnkit_cli(root: Path):
    """gapnkit.cli from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "gapnkit" / "cli.py").is_file():
        raise RuntimeError(f"no gapnkit sources under {src}; run from the root of a gapnkit checkout")
    sys.path.insert(0, str(src))
    import gapnkit.cli

    if Path(gapnkit.cli.__file__).resolve().parent != (src / "gapnkit").resolve():
        raise RuntimeError(f"gapnkit imported from {gapnkit.cli.__file__}, not from {src}")
    return gapnkit.cli


def run_one(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request, not a failed benchmark
        rc = None
        error = traceback.format_exc()
    t1 = time.perf_counter()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error, "t0": t0, "t1": t1}


def outermost_times(spans: list) -> dict:
    """Per request id, per span name: summed duration (s) of the spans with
    no ancestor of the same name."""
    ancestors: list[frozenset] = []
    out: dict = {}
    for name, t0, t1, parent, rid in spans:
        above = ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
        ancestors.append(above)
        if name not in above:
            per = out.setdefault(str(rid), {})
            per[name] = per.get(name, 0.0) + (t1 - t0) / 1e9
    return out


class SpeedSampler:
    """Times the probe every INTERVAL_S of a request, from a timer signal,
    so that long requests are normalised by the speed seen while they ran.
    The handler's own time is kept apart and left out of the request."""

    INTERVAL_S = 0.2

    def __init__(self, probe: Probe):
        self.probe = probe
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> int:
    requests_path, results_path = Path(argv[0]), Path(argv[1])
    spans_path = Path(argv[3]) if len(argv) > 3 and argv[2] == "--trace" else None
    cli = import_gapnkit_cli(Path.cwd())
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        per_call = tracer.calibrate()
        tracer.install()
    probe = Probe()
    sampler = SpeedSampler(probe)
    results = []
    t0 = time.perf_counter()
    before = probe()
    probe_total = time.perf_counter() - t0
    for req in json.loads(requests_path.read_text()):
        if tracer is not None:
            # No sampling: the handler's time would land in traced spans.
            tracer.request_id = req["id"]
            calls = tracer.calls_by_kind()
            result = run_one(cli, req["argv"])
            after = tracer.calls_by_kind()
            # The tracer's estimated cost inside this request, from its calls.
            result["trace_overhead_s"] = sum((after[k] - calls[k]) * per_call[k] for k in per_call)
            samples, spent = [], 0.0
        elif req.get("sample", True):
            with sampler:
                result = run_one(cli, req["argv"])
            samples, spent = sampler.samples, sampler.spent
        else:
            result = run_one(cli, req["argv"])
            samples, spent = [], 0.0
        t0 = time.perf_counter()
        result["probe_s"] = [before, *samples, probe()]
        probe_total += time.perf_counter() - t0 + spent
        # The probe after one request is the probe before the next.
        before = result["probe_s"][-1]
        result["seconds"] = result["t1"] - result["t0"] - spent
        results.append({"id": req["id"], **result})
    doc = {"requests": results, "probe_total_s": probe_total}
    if tracer is not None:
        with open(spans_path, "a") as fh:
            for name, t0, t1, parent, rid in tracer.spans:
                record = {"name": name, "start_ns": t0, "end_ns": t1, "parent": parent, "request": rid}
                fh.write(json.dumps(record) + "\n")
        doc["trace"] = {
            **tracer.summary(),
            "per_call_overhead_s": per_call,
            "requests": outermost_times(tracer.spans),
        }
    results_path.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
