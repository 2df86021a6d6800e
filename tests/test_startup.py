"""Start-up cost: what importing gapnkit and running a command load.

numpy is imported only by a command that reads a field table, and
multiprocessing only when a worker pool starts.  Commands that read no
table (profile, criterion, weight-p-only scans, --help, usage errors and
domain errors raised before a table is read) load neither, and their
output is what the same request gives in this process.
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


def _fresh(tmp_path, argv, flags):
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _RUNNER, str(report), *argv],
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
    (["criterion", "-p", "9", "-n", "3", "-d", "9"], 1),
    (["search", "-p", "4", "-n", "3", "--mode", "weight-p-only"], 1),
    (["search", "-p", "3", "-n", "60", "--mode", "weight-p-only", "--long-running"], 1),
    (["search", "-p", "3", "-n", "15", "--mode", "weight-p-only"], 1),
    (["test", "-p", "4", "-n", "2", "-d", "3"], 1),
    (["test", "-p", "3", "-n", "100000000", "-d", "5"], 1),
    (["spectrum", "-p", "3", "-n", "100000000", "-d", "5"], 1),
    (["families", "-p", "9", "-n", "2"], 1),
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


class TestPoolLoadsMultiprocessing:
    @pytest.mark.parametrize("flags", FLAGS)
    def test_weight_p_pool_loads_no_numpy(self, tmp_path, capsys, flags):
        argv = ["search", "-p", "3", "-n", "6", "--mode", "weight-p-only", "--jobs", "2", "--format", "json"]
        report, out, err = _fresh(tmp_path, argv, flags)
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


class TestDeferredGapn:
    def test_concurrent_first_reads_wait_for_it_to_run(self):
        # Threads that read gapn while another runs it must wait, not see
        # a half-run module, as importlib's LazyLoader lets them on 3.11.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-c", _CONCURRENT_FIRST_READS],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert (proc.returncode, proc.stderr) == (0, "")

    def test_becomes_a_plain_module_once_read(self):
        assert gapnkit.gapn.FnTable is gapnkit.FnTable
        assert type(gapnkit.gapn) is types.ModuleType
        assert sys.modules["gapnkit.gapn"] is gapnkit.gapn is search.gapn


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
        monkeypatch.setattr(search.multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
        for mode in ("exhaustive", "weight-p-only"):
            serial = run_search(SearchJob(3, 5, mode))
            spawned = run_search(SearchJob(3, 5, mode, jobs=2))
            assert {**spawned.to_dict(), "elapsed": 0} == {**serial.to_dict(), "elapsed": 0}
            assert serial.gapn_cosets
