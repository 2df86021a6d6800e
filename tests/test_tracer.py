"""perfbench's tracer still installs on the package.

perfbench/tracer.py wraps gapnkit's functions by name: each module's
``__all__`` and a few private layer boundaries.  A name it reads that is
renamed or deleted fails ``install()``, and a name dropped from an
``__all__`` silently drops out of the per-layer report.  This runs the
tracer in a fresh interpreter, as ``perfbench/run.py --trace 1`` does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gapnkit

_ROOT = Path(__file__).resolve().parents[1]
_SRC = Path(gapnkit.__file__).resolve().parents[1]

_RUNNER = """
import contextlib, io, json, sys
from tracer import Tracer
tracer = Tracer()
tracer.install()
from gapnkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["test", "-p", "3", "-n", "3", "-d", "5"])
print(json.dumps({"code": code, "calls": {name: st[0] for name, st in tracer.stats.items()}}))
"""

# The public functions of fields, polyfp and numtheory that install() wraps.
_WRAPPED = {
    "fields.make_field", "fields.find_irreducible",
    "polyfp.factorize", "polyfp.poly_gcd", "polyfp.is_irreducible", "polyfp.root_order",
    "polyfp.pow_mod", "polyfp.x_pow_mod",
    "numtheory.is_prime", "numtheory.factorint",
}


def test_tracer_installs_and_counts_a_request():
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(_ROOT / "perfbench"), str(_SRC)])},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    calls = report["calls"]
    assert _WRAPPED <= set(calls)
    for name in ("cli.main", "fields.make_field", "gapn.differential_spectrum"):
        assert calls[name] > 0, name
