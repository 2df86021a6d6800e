"""Start-up cost: what importing gapnkit and running a command load.

numpy is imported only by a command that reads a field table, and
multiprocessing only when a worker pool starts.  Commands that read no
table (profile, criterion, weight-p-only scans, --help, usage errors and
domain errors raised before a table is read) load neither, and their
output is what the same request gives in this process.  argparse is
imported only for help, --version and usage errors: a well-formed
request is read from the CLI's option table.
"""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gapnkit
from gapnkit import SearchJob, run_search, search
from gapnkit.cli import main

_SRC = str(Path(gapnkit.__file__).resolve().parents[1])

# Runs one request in a fresh interpreter: argv[1] is where the report
# goes, the rest is the command line; no command line only imports.
_RUNNER = """
import json, sys
report, argv = sys.argv[1], sys.argv[2:]
code = None
if argv == ["--import-only"]:
    import gapnkit
elif argv == ["--import-cli-only"]:
    import gapnkit.cli
else:
    from gapnkit.cli import main
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
with open(report, "w") as fh:
    json.dump({"code": code, "optimize": sys.flags.optimize,
               "loaded": sorted({"numpy", "multiprocessing"} & set(sys.modules))}, fh)
"""


def _fresh(tmp_path, argv, flags, runner=_RUNNER):
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", runner, str(report), *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text()), proc.stdout, proc.stderr


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _mask_elapsed(text: str) -> str:
    return re.sub(r'(elapsed"?: )[0-9.e+-]+s?', r"\1", text)


FLAGS = [pytest.param([], id="plain"), pytest.param(["-O"], id="optimized")]

# Requests for a field table above the 2**24 table cap: each is refused
# with OrderTooLarge before anything is built or imported.  The gate comes
# before the --table file is opened, so that file need not exist.
ABOVE_TABLE_CAP = [
    ["test", "-p", "4099", "-n", "2", "-d", "5"],
    ["test", "-p", "3", "-n", "16", "-d", "5"],
    ["families", "-p", "3", "-n", "16"],
    ["spectrum", "-p", "2", "-n", "25", "-d", "3", "--long-running"],
    ["spectrum", "-p", "3", "-n", "16", "--table", "missing.raw", "--long-running"],
]

# (argv, exit code); each reads no field table.
FIELD_FREE = [
    (["--import-only"], None),
    (["--import-cli-only"], None),
    (["--help"], 0),
    (["--version"], 0),
    (["test", "-p", "3", "-n", "2"], 2),
    (["search", "-p", "3", "-n", "4", "--mode", "bogus"], 2),
    (["profile", "-p", "3", "-d", "2215"], 0),
    (["profile", "-p", "5", "-d", "21", "--format", "json"], 0),
    (["criterion", "-p", "3", "-n", "5", "-d", "5"], 0),
    (["criterion", "-p", "3", "-n", "12", "-d", "2215", "--format", "csv"], 0),
    (["search", "-p", "3", "-n", "12", "--mode", "weight-p-only"], 0),
    (["search", "-p", "5", "-n", "6", "--mode", "weight-p-only", "--format", "json"], 0),
    (["profile", "-p", "4", "-d", "7"], 1),
    (["profile", "-p", "1", "-d", "1"], 1),
    (["profile", "-p", "3", "-d", "13", "--max-n", "1000001"], 1),
    (["criterion", "-p", "9", "-n", "3", "-d", "9"], 1),
    (["search", "-p", "4", "-n", "3", "--mode", "weight-p-only"], 1),
    (["search", "-p", "3", "-n", "60", "--mode", "weight-p-only", "--long-running"], 1),
    (["search", "-p", "3", "-n", "15", "--mode", "weight-p-only"], 1),
    (["test", "-p", "4", "-n", "2", "-d", "3"], 1),
    (["test", "-p", "3", "-n", "100000000", "-d", "5"], 1),
    (["spectrum", "-p", "3", "-n", "100000000", "-d", "5"], 1),
    (["families", "-p", "9", "-n", "2"], 1),
    *[(argv, 1) for argv in ABOVE_TABLE_CAP],
]


class TestFieldFreeStartUp:
    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize("argv,code", FIELD_FREE, ids=[" ".join(a) for a, _ in FIELD_FREE])
    def test_loads_neither_numpy_nor_multiprocessing(self, tmp_path, capsys, flags, argv, code):
        report, out, err = _fresh(tmp_path, argv, flags)
        assert report == {"code": code, "optimize": len(flags), "loaded": []}
        if code is None:
            assert (out, err) == ("", "")
        else:
            expected = _in_process(capsys, argv)
            assert (code, _mask_elapsed(out), err) == (expected[0], _mask_elapsed(expected[1]), expected[2])
        if code == 1:
            assert out == ""
            assert set(json.loads(err)) == {"error", "message"}
            if argv in ABOVE_TABLE_CAP:
                assert json.loads(err)["error"] == "OrderTooLarge"


# Modules no field-free start runs: the records are NamedTuples or slotted
# classes, csv and random are imported by the functions that use them, and
# argparse (with its gettext) only for help and usage errors.
UNUSED_AT_START = ["argparse", "csv", "dataclasses", "gettext", "inspect", "random"]

# _RUNNER's requests, reporting which of UNUSED_AT_START the import or the
# command added to the modules already loaded before it; an interpreter
# may load some of them at start (a site hook, say), and those do not count.
_ADDED_RUNNER = """
import contextlib, io, json, sys
report, argv = sys.argv[1], sys.argv[2:]
before = set(sys.modules)
code = None
if argv == ["--import-only"]:
    import gapnkit
elif argv == ["--import-cli-only"]:
    import gapnkit.cli
else:
    from gapnkit.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
added = set(sys.modules) - before
with open(report, "w") as fh:
    json.dump({"code": code, "optimize": sys.flags.optimize,
               "added": sorted(added & set(%r))}, fh)
""" % UNUSED_AT_START

ADDED_REQUESTS = [
    (["--import-only"], None),
    (["--import-cli-only"], None),
    (["profile", "-p", "3", "-d", "2215"], 0),
    (["criterion", "-p", "3", "-n", "12", "-d", "2215", "--format", "json"], 0),
    (["search", "-p", "3", "-n", "12", "--mode", "weight-p-only"], 0),
]


class TestStartUpModules:
    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize("argv,code", ADDED_REQUESTS, ids=[" ".join(a) for a, _ in ADDED_REQUESTS])
    def test_adds_no_unused_module(self, tmp_path, flags, argv, code):
        report, out, err = _fresh(tmp_path, argv, flags, _ADDED_RUNNER)
        assert report == {"code": code, "optimize": len(flags), "added": []}
        assert (out, err) == ("", "")


# _RUNNER's requests, reporting the exit code and whether the request
# added argparse to the modules loaded before it.
_ARGPARSE_RUNNER = """
import json, sys
report, argv = sys.argv[1], sys.argv[2:]
before = set(sys.modules)
from gapnkit.cli import main
try:
    code = main(argv)
except SystemExit as exc:
    code = exc.code
with open(report, "w") as fh:
    json.dump({"code": code, "optimize": sys.flags.optimize,
               "argparse": "argparse" in set(sys.modules) - before}, fh)
"""


class TestArgparseOnlyWhenNeeded:
    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize(
        "argv,code,loaded",
        [
            (["-h"], 0, True),
            (["profile", "-h"], 0, True),
            (["profile", "-p", "3"], 2, True),
            (["profile", "-p", "3", "-d", "13", "--max-n", "0"], 2, True),
            (["profile", "-p", "3", "-d", "13"], 0, False),
            (["profile", "-p", "3", "-d", "13", "--max-n", "1000001"], 1, False),
        ],
    )
    def test_help_and_usage_errors_load_argparse(self, tmp_path, capsys, monkeypatch, flags, argv, code, loaded):
        # One terminal width for argparse here and in the fresh interpreter.
        monkeypatch.setenv("COLUMNS", "80")
        report, out, err = _fresh(tmp_path, argv, flags, _ARGPARSE_RUNNER)
        assert report == {"code": code, "optimize": len(flags), "argparse": loaded}
        assert (code, out, err) == _in_process(capsys, argv)
        assert ("usage: gapnkit" in out + err) is loaded

    @pytest.mark.parametrize("flags", FLAGS)
    def test_no_argparse_in_import_time(self, flags):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, *flags, "-X", "importtime", "-m", "gapnkit", "profile", "-p", "3", "-d", "13"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "GAPN dimensions n <= 12: 4 5 7 8 10 11")
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "gapnkit.cli" in imported
        assert not [name for name in imported if "argparse" in name or "gettext" in name]


# _RUNNER with a pool started after the first candidate, on two CPUs
# whatever the machine has.
_POOL_RUNNER = (
    "import gapnkit.search\n"
    "gapnkit.search.POOL_START_S = 0.0\n"
    "gapnkit.search._cpu_limit = lambda: 2\n"
) + _RUNNER


class TestPoolLoadsMultiprocessing:
    @pytest.mark.parametrize("flags", FLAGS)
    def test_weight_p_pool_loads_no_numpy(self, tmp_path, capsys, flags):
        argv = ["search", "-p", "3", "-n", "6", "--mode", "weight-p-only", "--jobs", "2", "--format", "json"]
        report, out, err = _fresh(tmp_path, argv, flags, _POOL_RUNNER)
        assert report == {"code": 0, "optimize": len(flags), "loaded": ["multiprocessing"]}
        _, expected, _ = _in_process(capsys, argv)
        assert (_mask_elapsed(out), err) == (_mask_elapsed(expected), "")


class TestTableCommandsLoadNumpy:
    @pytest.mark.parametrize("flags", FLAGS)
    def test_test_command(self, tmp_path, flags):
        report, out, err = _fresh(tmp_path, ["test", "-p", "3", "-n", "2", "-d", "5"], flags)
        assert report["code"] == 0
        assert "numpy" in report["loaded"]
        assert (out, err) == (
            "GAPN: yes (max count 3)\n"
            "d = 5 on F_(3^2); weight 3; coset rep 5\n"
            "family: gold(i=1), inverse-class(j=1)\n"
            "deciders: brute-force, circulant-rank, criterion, linearized-kernel, monomial-fast\n"
            "spectrum: 0:48 3:24\n",
            "",
        )

    @pytest.mark.parametrize("flags", FLAGS)
    def test_spectrum_of_a_table(self, tmp_path, flags):
        table = tmp_path / "f.csv"
        table.write_text("x,f(x)\n" + "".join(f"{x},{(x * x + 3 * x) % 9}\n" for x in range(9)))
        report, out, err = _fresh(tmp_path, ["spectrum", "-p", "3", "-n", "2", "--table", str(table)], flags)
        assert report["code"] == 0
        assert "numpy" in report["loaded"]
        assert (out, err) == (f"# spectrum of {table} on F_(3^2); GAPN: no; pairs total 72\n0,64\n9,8\n", "")


_CONCURRENT_FIRST_READS = """
import threading
import gapnkit
from gapnkit import cli, search
start = threading.Barrier(8)
found, errors = [], []

def first_read(k):
    start.wait()
    try:
        module = (gapnkit, search.gapn, cli.gapn, gapnkit.gapn)[k % 4]
        found.append(module.monomial_table(gapnkit.make_field(3, 2), 5).values.tolist())
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_read, args=(k,)) for k in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not any(t.is_alive() for t in threads), "a reader hung"
assert errors == [], errors
assert len(found) == 8 and all(v == found[0] for v in found), found
"""


# Imports gapn as a plain module and reads a table, reporting after each
# step whether numpy is loaded.
_PLAIN_GAPN_RUNNER = """
import json, sys, types
report = sys.argv[1]
steps = {}
import gapnkit
steps["import gapnkit"] = "numpy" in sys.modules
plain = type(sys.modules["gapnkit.gapn"]) is types.ModuleType
from gapnkit.gapn import differential_spectrum, monomial_gapn_verdict
gapnkit.FnTable
steps["gapn names"] = "numpy" in sys.modules
ctx = gapnkit.make_field(3, 2)
steps["make_field"] = "numpy" in sys.modules
verdict = monomial_gapn_verdict(ctx, 5)
steps["table read"] = "numpy" in sys.modules
with open(report, "w") as fh:
    json.dump({"plain": plain, "steps": steps, "verdict": verdict,
               "optimize": sys.flags.optimize}, fh)
"""


class TestPlainGapn:
    @pytest.mark.parametrize("flags", FLAGS)
    def test_numpy_loads_at_the_first_table_read(self, tmp_path, flags):
        report, out, err = _fresh(tmp_path, [], flags, _PLAIN_GAPN_RUNNER)
        assert report == {
            "plain": True,
            "steps": {"import gapnkit": False, "gapn names": False, "make_field": False, "table read": True},
            "verdict": True,
            "optimize": len(flags),
        }
        assert (out, err) == ("", "")

    def test_concurrent_first_table_reads(self):
        # Eight threads make the process's first table reads together, through
        # every name the package binds gapn to.
        env ={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-c", _CONCURRENT_FIRST_READS],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert (proc.returncode, proc.stderr) == (0, "")

    def test_is_one_plain_module(self):
        assert gapnkit.gapn.FnTable is gapnkit.FnTable
        assert type(gapnkit.gapn) is types.ModuleType
        assert sys.modules["gapnkit.gapn"] is gapnkit.gapn is search.gapn


# Asks for a verdict on F_(2^26), above the table cap, reporting the error
# and whether that decided a subfield or loaded numpy.
_REFUSED_VERDICT_RUNNER = """
import json, sys
from gapnkit import OrderTooLarge, gapn, make_field
decided = []
subfield_verdicts = gapn._subfield_verdicts
gapn._subfield_verdicts = lambda p, m: decided.append((p, m)) or subfield_verdicts(p, m)
try:
    gapn.monomial_gapn_verdict(make_field(2, 26), 5)
    error = None
except OrderTooLarge as exc:
    error = str(exc)
with open(sys.argv[1], "w") as fh:
    json.dump({"error": error, "subfield verdicts": len(decided),
               "numpy": "numpy" in sys.modules, "optimize": sys.flags.optimize}, fh)
"""


class TestRefusedVerdict:
    @pytest.mark.parametrize("flags", FLAGS)
    def test_refused_before_any_subfield_or_numpy(self, tmp_path, flags):
        # The log table read is the gate, so it comes before the prepared
        # state: F_(2^26)'s subfields F_(2^2) and F_(2^13) are within the cap.
        report, out, err = _fresh(tmp_path, [], flags, _REFUSED_VERDICT_RUNNER)
        assert report == {
            "error": "log table requested for an order above 2**24",
            "subfield verdicts": 0,
            "numpy": False,
            "optimize": len(flags),
        }
        assert (out, err) == ("", "")


# Runs every scalar operation on F_(3^4) and F_(2^24), recording each
# table build; argv[1] is where the report goes.
_SCALAR_RUNNER = """
import json, sys
from gapnkit import fields
built = []
for name in ("_build_tables", "_build_lanes"):
    build = getattr(fields.FieldCtx, name)
    setattr(fields.FieldCtx, name, lambda ctx, build=build, name=name: built.append(name) or build(ctx))
answers = {}
for p, n in ((3, 4), (2, 24)):
    ctx = fields.make_field(p, n)
    a, b = ctx.order - 2, p + 1
    answers[f"{p}^{n}"] = [ctx.mul(a, b), ctx.pow(a, 5), ctx.mul(ctx.inv(a), a), ctx.frobenius(a, n - 1),
                           ctx.add(a, b), ctx.add(ctx.neg(a), a)]
with open(sys.argv[1], "w") as fh:
    json.dump({"answers": answers, "built": built, "numpy": "numpy" in sys.modules,
               "optimize": sys.flags.optimize}, fh)
"""


class TestScalarArithmetic:
    @pytest.mark.parametrize("flags", FLAGS)
    def test_builds_no_table(self, tmp_path, flags):
        report, out, err = _fresh(tmp_path, [], flags, _SCALAR_RUNNER)
        assert (report["built"], report["numpy"], report["optimize"]) == ([], False, len(flags))
        assert (out, err) == ("", "")
        # The same operations on F_(3^4) read from its tables in this process.
        ctx = gapnkit.make_field(3, 4)
        log, antilog = ctx.log_table, ctx.antilog_table
        a, b = ctx.order - 2, 4
        tabled = [antilog[(log[a] + log[b]) % 80], antilog[log[a] * 5 % 80], 1,
                  antilog[log[a] * 27 % 80], ctx.add_array(a, b), 0]
        assert report["answers"]["3^4"] == [int(v) for v in tabled]
        assert report["answers"]["2^24"][2::3] == [1, 0]  # a**-1 * a and -a + a


# Pickles and copies a 3^9 context, reporting whether that loaded numpy or
# searched for the default modulus.
_PICKLE_RUNNER = """
import copy, json, pickle, sys
from gapnkit import fields
searched = []
find = fields.find_irreducible
fields.find_irreducible = lambda p, n: searched.append([p, n]) or find(p, n)
ctx = fields.make_field(3, 9)
data = pickle.dumps(ctx)
copies = [pickle.loads(data), copy.copy(ctx), copy.deepcopy(ctx)]
report = {"bytes": len(data), "searched": list(searched), "numpy": "numpy" in sys.modules,
          "copies": [[c.p, c.n, type(c) is fields.FieldCtx] for c in copies]}
copies[0].modulus
report["searched on read"] = searched
with open(sys.argv[1], "w") as fh:
    json.dump(report, fh)
"""


class TestPickledFields:
    @pytest.mark.parametrize("flags", FLAGS)
    def test_pickle_and_copy_build_nothing(self, tmp_path, flags):
        report, out, err = _fresh(tmp_path, [], flags, _PICKLE_RUNNER)
        assert report["bytes"] < 100
        assert report == {
            "bytes": report["bytes"],
            "searched": [],
            "numpy": False,
            "copies": [[3, 9, True]] * 3,
            "searched on read": [[3, 9]],
        }
        assert (out, err) == ("", "")


class TestPackageExports:
    def test_every_export_resolves(self):
        star: dict = {}
        exec("from gapnkit import *", star)
        for name in gapnkit.__all__:
            assert star[name] is getattr(gapnkit, name)
        assert set(gapnkit.__all__) <= set(dir(gapnkit))
        assert dir(gapnkit) == sorted(dir(gapnkit))

    def test_gapn_exports_are_gapn_objects(self):
        for name in ("FnTable", "GapnReport", "differential_spectrum", "gen_derivative",
                     "linearized_kernel_dim", "monomial_gapn_fast", "monomial_table"):
            assert getattr(gapnkit, name) is getattr(gapnkit.gapn, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            gapnkit.no_such_name

    def test_spawned_workers_decide(self, monkeypatch):
        # Spawned workers start from a fresh interpreter, so they import
        # search, and through it gapn, themselves.
        monkeypatch.setattr(search, "POOL_START_S", 0.0)
        monkeypatch.setattr(search.multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
        for mode in ("exhaustive", "weight-p-only"):
            serial = run_search(SearchJob(3, 5, mode))
            spawned = run_search(SearchJob(3, 5, mode, jobs=2))
            assert {**spawned.to_dict(), "elapsed": 0} == {**serial.to_dict(), "elapsed": 0}
            assert serial.gapn_cosets
