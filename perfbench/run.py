"""gapnkit benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload {decide,scan,weight-p} --seed N \
        --seconds S --trace {0,1}

Run from the root of a gapnkit checkout; gapnkit is imported from ./src and
driven only through ``gapnkit.cli.main`` (client.py), in one interpreter or
in a fresh one per command.  Scratch files go to ./.perfbench/work-*,
removed at the end; the record of each run (environment, inputs, times,
metrics) goes to ./.perfbench/results/.

With --trace 0 the workload's request list is run in rounds, at least
MIN_ROUNDS of them and more while the next round would end within
--seconds.  Request times are normalised by the machine-speed probe
(probe.py) and each request counts at its median over the rounds.  With
--trace 1 one untraced and one traced round are run, their outputs must
agree, and the per-layer metrics come from the traced round.  Every output
is checked (workloads.py); the last line of stdout is one JSON object with
correct, attempted, failed and metrics.  See perfbench/README.md for what
each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from client import import_gapnkit_cli
from oracle import Oracle
from probe import REFERENCE_S, Probe
from workloads import IN_PROCESS, WORKLOADS, Checks, verdict_fields

HERE = Path(__file__).resolve().parent
ALL_CPUS = sorted(os.sched_getaffinity(0))
SETUP_SAMPLES = 4  # per round
RUN_LIMIT_S = 170  # a run must end within 180 s

MIN_ROUNDS = 2
# The gated metrics.  The report also prints rescan_s, which exists only
# for scan, and error_rate, which is 0 when the program is right; the
# result line carries the latter as failed / attempted.
END_TO_END = ("setup_s", "wall_s", "latency_p50_s", "latency_p90_s", "cosets_per_s", "peak_rss_mb")

# Per-layer functions: calls, self seconds and inclusive seconds of each.
LAYER_FUNCTIONS = (
    "fields.make_field", "fields.find_irreducible", "fields.digit_table",
    "fields.add_array", "fields.mul_array",
    "polyfp.factorize", "polyfp.poly_gcd", "polyfp.is_irreducible", "polyfp.root_order",
    "numtheory.factorint",
    "monomial.coset_rep", "monomial.p_weight", "monomial.coset_members",
    "monomial.criterion_gapn", "monomial.circulant_rank", "monomial.exceptional_profile",
    "gapn.monomial_gapn_fast", "gapn.differential_spectrum", "gapn.monomial_table",
    "gapn.load_table_csv", "gapn.linearized_kernel_dim",
    "search.fast_path_validated", "search.run_search", "search.analyze_exponent",
    "search.verify_families", "search.cache_store", "search.cache_load", "search.pool",
    "cli.main",
)
# (metric, traced function, request argv prefix): the function's share of
# that request's in-process time, net of the tracer's estimated cost.
SHARES = (
    ("share.fast_path_validated.conjecture_3_7", "search.fast_path_validated",
     ["conjecture", "-p", "3", "-n", "7"]),
    ("share.make_field.weight_p_3_12", "fields.make_field",
     ["search", "-p", "3", "-n", "12", "--mode", "weight-p-only"]),
    ("share.monomial_gapn_fast.conjecture_3_9", "gapn.monomial_gapn_fast",
     ["conjecture", "-p", "3", "-n", "9"]),
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def environment(root: Path, seed: int) -> dict:
    import numpy

    import gapnkit

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gapnkit": gapnkit.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def measure_setup(root: Path, probe, warm_up: bool) -> list[dict]:
    """Seconds from spawning an interpreter until it has imported
    gapnkit.cli and says it is ready, with the probe timed around each."""
    code = "import gapnkit.cli; print('ready', flush=True)"
    samples = []
    for i in range(SETUP_SAMPLES + warm_up):
        before = probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=child_env(root), cwd=root)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("gapnkit.cli failed to import")
        if i or not warm_up:
            samples.append({"seconds": t1 - t0, "probe_s": [before, probe()]})
    return samples


class Launcher:
    """Runs commands through launch.py, which reports each one's time and
    its own peak memory (see launch.py for why it is a separate process)."""

    def __init__(self, root: Path, deadline: float):
        self.root, self.deadline = root, deadline
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], cwd=root,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out: Path, err: Path, cpus=None) -> dict:
        job = {"argv": argv, "cwd": str(self.root), "env": child_env(self.root), "cpus": cpus,
               "stdout": str(out), "stderr": str(err), "timeout": max(self.deadline - time.perf_counter(), 1)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["rc"] is None:
            raise RuntimeError(f"{' '.join(argv)} ran past the run's time limit")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_round(launcher: Launcher, name: str, reqs, work: Path, spans: Path | None) -> tuple[list[dict], int]:
    """Run one pass over reqs through client.py: all in one interpreter,
    or one fresh interpreter per request for ``scan``.  Returns one result
    per request (rc, stdout, error, seconds, the probe times around it and,
    when traced, the trace summary of its process) and the largest peak
    memory (KiB) of the round's processes.  With spans given the round is
    traced, and every process appends its spans to that file."""
    batches = [reqs] if IN_PROCESS[name] else [[r] for r in reqs]
    results, peak = [], 0
    for k, batch in enumerate(batches):
        req_path, res_path = work / f"req{k}.json", work / f"res{k}.json"
        # Probing during a pool's run would time the probe against the
        # workers; such requests are probed only before and after.
        jobs = [{"id": r.id, "argv": r.argv, "sample": "--jobs" not in r.argv} for r in batch]
        req_path.write_text(json.dumps(jobs))
        cmd = [sys.executable, str(HERE / "client.py"), str(req_path), str(res_path)]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        # A worker pool runs on every CPU; everything else stays on the one
        # CPU the probes measure.
        cpus = ALL_CPUS if any(not j["sample"] for j in jobs) else None
        reply = launcher.run(cmd, work / f"out{k}.txt", work / f"err{k}.txt", cpus)
        if reply["rc"] != 0:
            raise RuntimeError(f"client exited {reply['rc']}: {(work / f'err{k}.txt').read_text()[-2000:]}")
        peak = max(peak, reply["maxrss_kb"])
        doc = json.loads(res_path.read_text())
        for res in doc["requests"]:
            res["trace"] = doc.get("trace")
            if not IN_PROCESS[name]:
                # A scan request is its whole process, start-up included.
                res["inner_s"] = res["seconds"]
                res["seconds"] = reply["seconds"] - doc["probe_total_s"]
        results += doc["requests"]
    return results, peak


def judge(reqs, results) -> tuple[list, dict[str, str]]:
    """Parse and check every result: the parsed documents (None when
    unusable) and the reason for each failed request, by request id."""
    docs, failed = [], {}
    cold = {}
    for r, res in zip(reqs, results):
        doc, reason = None, None
        if res["error"]:
            reason = "raised: " + res["error"].strip().splitlines()[-1]
        elif res["rc"] != 0:
            reason = f"exit code {res['rc']}"
        else:
            try:
                doc = json.loads(res["stdout"])
                reason = r.check(doc)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        # A warm rerun must give the verdicts of its cold scan.
        if doc is not None and r.role == "cold":
            cold[tuple(r.argv)] = verdict_fields(doc)
        elif doc is not None and r.role == "warm" and cold.get(tuple(r.argv)) != verdict_fields(doc):
            reason = reason or "warm rerun differs from its cold scan"
        if reason is not None:
            failed[r.id] = f"{' '.join(r.argv)}: {reason}"
        docs.append(doc)
    return docs, failed


def normalised(sample: dict) -> float:
    """A sample's seconds at the probe's reference speed: its measured
    seconds times REFERENCE_S over the mean probe time around it."""
    return sample["seconds"] * REFERENCE_S / statistics.fmean(sample["probe_s"])


def end_to_end(reqs, rounds, setup: list[dict]) -> dict:
    """Metric -> (value, unit, samples).  Times are normalised to the
    probe's reference speed.  Rounds repeat one request list; each request
    counts at its median over the rounds."""
    per_request = [statistics.median(normalised(rd["results"][i]) for rd in rounds) for i in range(len(reqs))]
    docs = rounds[0]["docs"]
    # Cosets per request: `scanned` of a cold scan.  A workload without
    # scans counts what its deciding requests decide instead: one coset per
    # test, one per families entry.  Families and tests are where fast-path
    # validation lands, whichever of them comes first.
    cold = [(t, doc["scanned"]) for r, t, doc in zip(reqs, per_request, docs) if r.role == "cold" and doc]
    decided = cold or [(t, 1 if r.role == "test" else len(doc["entries"]))
                       for r, t, doc in zip(reqs, per_request, docs) if r.role in ("test", "families") and doc]
    warm = [t for r, t in zip(reqs, per_request) if r.role == "warm"]
    attempted = sum(len(rd["results"]) for rd in rounds)
    failed = sum(len(rd["failed"]) for rd in rounds)
    n = f"{len(reqs)}x{len(rounds)}"
    return {
        "setup_s": (statistics.median(normalised(x) for x in setup), "s", len(setup)),
        "wall_s": (sum(per_request), "s", n),
        "latency_p50_s": (percentile(per_request, 50), "s", n),
        "latency_p90_s": (percentile(per_request, 90), "s", n),
        "cosets_per_s": (sum(c for _, c in decided) / sum(t for t, _ in decided), "1/s",
                         f"{len(decided)}x{len(rounds)}"),
        "peak_rss_mb": (max(rd["maxrss_kb"] for rd in rounds) / 1024, "MB", len(rounds)),
        "rescan_s": (sum(warm) if warm else None, "s", f"{len(warm)}x{len(rounds)}"),
        "error_rate": (failed / attempted, "ratio", attempted),
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: the smallest value with at
    least q% of the values at or below it."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q / 100 * len(ranked)) - 1, 0)]


def layer_metrics(reqs, results, overhead_s: float) -> dict:
    """Metric -> (value, unit) from the traced round.  Times are scaled to
    the probe's reference speed by one factor, from the median probe time
    of the round; shares are of each request's own measured time."""
    scale = REFERENCE_S / statistics.median(x for res in results for x in res["probe_s"])
    funcs: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    seen = set()
    for res in results:
        tr = res.get("trace")
        if tr is None or id(tr) in seen:
            continue
        seen.add(id(tr))
        for name, st in tr["functions"].items():
            acc = funcs.setdefault(name, [0, 0.0, 0.0])
            acc[0] += st["calls"]
            acc[1] += st["self_s"]
            acc[2] += st["incl_s"]
        for name, v in tr["counters"].items():
            counters[name] = counters.get(name, 0) + v
    out = {}
    for name in LAYER_FUNCTIONS:
        calls, own, incl = funcs.get(name, [0, 0.0, 0.0])
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (own * scale, "s")
        out[f"{name}.incl_s"] = (incl * scale, "s")
    passes, _, pass_incl = funcs.get("gapn.derivative_pass", [0, 0.0, 0.0])
    elements = counters.get("gapn.pass_elements", 0)
    visited = counters.get("search.visited", 0)
    out["fields.make_field.elements"] = (counters.get("fields.make_field.elements", 0), "count")
    out["gapn.differential_spectrum.directions"] = (counters.get("gapn.differential_spectrum.directions", 0), "count")
    out["gapn.derivative_passes"] = (passes, "count")
    out["gapn.derivative_pass.incl_s"] = (pass_incl * scale, "s")
    out["gapn.pass_ns_per_element"] = (pass_incl * scale / elements * 1e9 if elements else 0.0, "ns")
    out["gapn.pass_bytes_computed"] = (counters.get("gapn.pass_bytes_computed", 0), "bytes")
    out["search.decided_per_visited"] = (funcs.get("search.decide", [0])[0] / visited if visited else 0.0, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    for metric, func, prefix in SHARES:
        share = 0.0
        for r, res in zip(reqs, results):
            if r.argv[: len(prefix)] == prefix and r.role != "warm":
                inner = res.get("inner_s", res["seconds"]) - res.get("trace_overhead_s", 0.0)
                share = res["trace"]["requests"][r.id].get(func, 0.0) / inner
        out[metric] = (share, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["decide", "scan", "weight-p"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    try:
        import_gapnkit_cli(root)
    except RuntimeError as exc:
        return fail(str(exc))
    import gapnkit.monomial

    state = root / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True, cwd=root,
                   stdout=subprocess.DEVNULL)
    env = environment(root, args.seed)
    # Every measured process but a worker pool runs on one CPU, so probes
    # time the CPU their requests ran on.
    os.sched_setaffinity(0, {min(ALL_CPUS)})
    probe = Probe()
    launcher = Launcher(root, deadline)
    try:
        setup = []
        checks = Checks(Oracle(), gapnkit.monomial.exceptional_profile, state / "expected.json")
        rounds = []
        measuring = time.perf_counter()
        while True:
            k = len(rounds)
            rdir = work / f"round{k}"
            rdir.mkdir(parents=True)
            reqs = WORKLOADS[args.workload](args.seed, rdir, checks)
            setup += measure_setup(root, probe, warm_up=k == 0)
            t0 = time.perf_counter()
            spans = stem.with_name(stem.name + "-spans.jsonl") if args.trace == 1 and k == 1 else None
            results, maxrss_kb = run_round(launcher, args.workload, reqs, rdir, spans)
            took = time.perf_counter() - t0
            docs, failed = judge(reqs, results)
            rounds.append({"results": results, "docs": docs, "failed": failed, "maxrss_kb": maxrss_kb})
            shutil.rmtree(rdir)
            if args.trace == 1:
                if k == 1:
                    break
            elif k + 1 >= MIN_ROUNDS and time.perf_counter() - measuring + took > args.seconds:
                break
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(f"run aborted: {exc}")
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    layers = None
    if args.trace == 1:
        untraced, traced = rounds
        for r, a, b in zip(reqs, untraced["docs"], traced["docs"]):
            if a is not None and b is not None and verdict_fields(a) != verdict_fields(b):
                traced["failed"].setdefault(r.id, "traced output differs from the untraced one")
        wall = [sum(normalised(res) for res in rd["results"]) for rd in rounds]
        layers = layer_metrics(reqs, traced["results"], wall[1] - wall[0])
    e2e = end_to_end(reqs, rounds[:1] if layers else rounds, setup)
    failures = [f"round {k} {rid} {why}" for k, rd in enumerate(rounds) for rid, why in rd["failed"].items()]
    attempted = sum(len(rd["results"]) for rd in rounds)
    failed = len(failures)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"requests={attempted} failed={failed}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, samples) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:16s} {shown:>12s} {unit:6s} samples={samples}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for name, (value, unit) in (layers or {}).items():
        print(f"  {name:52s} {value:>14.6g} {unit}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "requests": [r.record() for r in reqs],
        "request_seconds": [[res["seconds"] for res in rd["results"]] for rd in rounds],
        "setup_samples": setup,
        "request_probe_s": [[res["probe_s"] for res in rd["results"]] for rd in rounds],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in (layers or {}).items()},
        "failures": failures,
    }
    stem.with_name(stem.name + ".json").write_text(json.dumps(record, indent=1))

    if layers:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
