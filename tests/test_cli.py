"""CLI surface: argument handling, output formats, exit codes."""

import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapnkit import FieldCtx, __version__, cli, fields, make_field, monomial_table, search
from gapnkit.cli import main
from gapnkit.gapn import FnTable, save_table_csv, save_table_raw


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_subprocess(argv, stdout=subprocess.PIPE, timeout=60, module="gapnkit.cli"):
    """Run the CLI in a fresh interpreter with a timeout and a 400 MB
    address-space cap, so a hang or a runaway allocation fails the test
    instead of stalling the suite."""
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    path = [str(Path(search.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout, env=env,
        preexec_fn=cap_memory,
    )


def json_doc(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestTestCommand:
    def test_json_document(self, capsys):
        doc = json_doc(capsys, ["test", "-p", "3", "-n", "2", "-d", "5", "--format", "json"])
        assert doc == {
            "p": 3,
            "n": 2,
            "d": 5,
            "weight": 3,
            "coset_rep": 5,
            "family": ["gold(i=1)", "inverse-class(j=1)"],
            "is_gapn": True,
            "max_count": 3,
            "spectrum": [[0, 48], [3, 24]],
            "witness": None,
            "deciders_agreed": [
                "brute-force",
                "circulant-rank",
                "criterion",
                "linearized-kernel",
                "monomial-fast",
            ],
            "partial": False,
        }

    def test_human_gapn(self, capsys):
        code, out, _ = run_cli(capsys, ["test", "-p", "3", "-n", "2", "-d", "5"])
        assert code == 0
        assert out.splitlines() == [
            "GAPN: yes (max count 3)",
            "d = 5 on F_(3^2); weight 3; coset rep 5",
            "family: gold(i=1), inverse-class(j=1)",
            "deciders: brute-force, circulant-rank, criterion, linearized-kernel, monomial-fast",
            "spectrum: 0:48 3:24",
        ]

    def test_human_not_gapn(self, capsys):
        code, out, _ = run_cli(capsys, ["test", "-p", "3", "-n", "2", "-d", "2"])
        assert code == 0
        assert out.splitlines() == [
            "GAPN: no (max count 9)",
            "d = 2 on F_(3^2); weight 2; coset rep 2",
            "deciders: brute-force, monomial-fast",
            "spectrum: 0:64 9:8",
        ]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["test", "-p", "3", "-n", "2", "-d", "5", "--format", "csv"]
        )
        assert code == 0
        assert out == "p,n,d,weight,is_gapn,max_count,partial\n3,2,5,3,1,3,0\n"


class TestCriterionCommand:
    def test_json_gapn(self, capsys):
        doc = json_doc(capsys, ["criterion", "-p", "3", "-n", "3", "-d", "11", "--format", "json"])
        assert doc == {
            "input_d": 11,
            "d": 11,
            "p": 3,
            "n": 3,
            "digit_poly": [2, 0, 1],
            "gcd": [2, 1],
            "is_gapn": True,
            "offending_factors": [],
        }

    def test_json_not_gapn(self, capsys):
        doc = json_doc(capsys, ["criterion", "-p", "3", "-n", "4", "-d", "11", "--format", "json"])
        assert doc["is_gapn"] is False
        assert doc["gcd"] == [2, 0, 1]
        assert doc["offending_factors"] == [{"coeffs": [1, 1], "multiplicity": 1}]

    def test_normalizes_input(self, capsys):
        doc = json_doc(capsys, ["criterion", "-p", "3", "-n", "2", "-d", "15", "--format", "json"])
        assert doc["input_d"] == 15
        assert doc["d"] == 5
        assert doc["is_gapn"] is True

    def test_exponent_above_field_order(self, capsys):
        # The criterion reads d's own digits, so d = 11 > 3^2 - 2 is legal
        # here even though the table-based commands reject it.
        doc = json_doc(capsys, ["criterion", "-p", "3", "-n", "2", "-d", "11", "--format", "json"])
        assert doc["is_gapn"] is False
        assert doc["offending_factors"] == [{"coeffs": [1, 1], "multiplicity": 1}]

    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, ["criterion", "-p", "3", "-n", "4", "-d", "11"])
        assert code == 0
        assert out.splitlines() == [
            "d = 11 (weight 3) on F_(3^4)",
            "digit polynomial: x^2 + 2",
            "gcd with x^4 - 1: x^2 + 2",
            "GAPN: no",
            "offending factors: (x + 1)^1",
        ]


class TestProfileCommand:
    def test_json_document(self, capsys):
        doc = json_doc(capsys, ["profile", "-p", "3", "-d", "13", "--max-n", "8", "--format", "json"])
        assert doc == {
            "d": 13,
            "p": 3,
            "root_orders": [],
            "unit_root_multiplicity": 2,
            "witness_n": 4,
            "max_n": 8,
            "gapn_dimensions": [4, 5, 7, 8],
        }

    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, ["profile", "-p", "3", "-d", "5", "--max-n", "6"])
        assert code == 0
        assert out.splitlines() == [
            "d = 5, p = 3",
            "root orders: (none)",
            "unit root multiplicity: 1",
            "verified on F_(3^2)",
            "GAPN dimensions n <= 6: 2 3 4 5 6",
        ]

    def test_default_max_n(self, capsys):
        doc = json_doc(capsys, ["profile", "-p", "3", "-d", "5", "--format", "json"])
        assert doc["max_n"] == 12
        assert doc["gapn_dimensions"] == list(range(2, 13))


class TestFamiliesCommand:
    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, ["families", "-p", "3", "-n", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "families on F_(3^4): 8 exponents, 0 mismatches"
        assert (
            lines[1]
            == "  gold(1) d=5: predicted yes, verdict yes "
            "[brute-force+circulant-rank+criterion+linearized-kernel+monomial-fast] ok"
        )
        assert (
            lines[2]
            == "  gold(2) d=11: predicted no, verdict no "
            "[brute-force+circulant-rank+criterion+linearized-kernel+monomial-fast] ok"
        )
        assert len(lines) == 9
        assert all(line.endswith(" ok") for line in lines[1:])

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["families", "-p", "3", "-n", "2", "--format", "csv"])
        assert code == 0
        deciders = "brute-force+circulant-rank+criterion+linearized-kernel+monomial-fast"
        assert out.splitlines() == [
            "family,param,d,predicted,verdict,deciders,agree",
            f"gold,1,5,1,1,{deciders},1",
            f"welch,1,7,1,1,{deciders},1",
            f"max-degree,0,7,1,1,{deciders},1",
            f"max-degree,1,5,1,1,{deciders},1",
        ]

    def test_json(self, capsys):
        doc = json_doc(capsys, ["families", "-p", "3", "-n", "4", "--format", "json"])
        assert doc["mismatches"] == 0
        assert len(doc["entries"]) == 8
        assert all(e["agree"] for e in doc["entries"])

    def test_f4_reduces_family_exponents(self, capsys):
        # on F_4 the welch exponent 5 acts as x^2 and gold(1) = 3 = p^n - 1
        # is outside the exponent range, so only welch remains
        doc = json_doc(capsys, ["families", "-p", "2", "-n", "2", "--format", "json"])
        assert [(e["family"], e["d"], e["agree"]) for e in doc["entries"]] == [("welch", 2, True)]
        doc = json_doc(
            capsys, ["search", "--mode", "families-only", "-p", "2", "-n", "2", "--format", "json"]
        )
        assert doc["gapn_cosets"] == []
        assert doc["scanned"] == 1


class TestSearchCommand:
    def test_json_matches_library(self, capsys):
        doc = json_doc(capsys, ["search", "-p", "3", "-n", "2", "--format", "json"])
        doc.pop("elapsed")
        assert doc == {
            "p": 3,
            "n": 2,
            "mode": "exhaustive",
            "gapn_cosets": [
                {
                    "d": 5,
                    "members": [5, 7],
                    "weight": 3,
                    "deciders": ["criterion", "circulant-rank"],
                }
            ],
            "scanned": 3,
            "filtered": {"low_weight": 2, "even_weight": 0, "out_of_band": 0},
            "conjecture_holds": None,
            "filter_check": None,
            "version": __version__,
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["search", "-p", "3", "-n", "4", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == [
            "d,weight,members,deciders",
            "5,3,5 15 45 55,criterion+circulant-rank",
            "7,3,7 21 29 63,criterion+circulant-rank",
            "13,3,13 31 37 39,criterion+circulant-rank",
            "53,7,53 71 77 79,monomial-fast",
        ]

    def test_human_heading(self, capsys):
        code, out, _ = run_cli(capsys, ["search", "-p", "3", "-n", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "search p=3 n=4 mode=exhaustive"
        assert lines[1] == "scanned 21 cosets; filtered: low_weight=3, even_weight=9, out_of_band=0"
        assert lines[2] == "GAPN cosets: 4"

    def test_verify_filters_reported(self, capsys):
        code, out, _ = run_cli(capsys, ["search", "-p", "3", "-n", "4", "--verify-filters"])
        assert code == 0
        assert any(line == "filter check: sampled 12, violations 0" for line in out.splitlines())

    def test_weight_p_only_above_exhaustive_budget(self, capsys):
        # Order 3^8 is over the general budget but the weight-p scan is
        # algebraic, so it stays unlocked.
        doc = json_doc(
            capsys,
            ["search", "-p", "3", "-n", "8", "--mode", "weight-p-only", "--format", "json"],
        )
        assert doc["scanned"] == 831
        reps = [e["d"] for e in doc["gapn_cosets"]]
        assert len(reps) == 8
        assert all(e["weight"] == 3 for e in doc["gapn_cosets"])
        # Gold exponents 3^i + 2 with gcd(i, 8) = 1, plus the order-folding
        # survivors seen in the dimension profile of d = 13.
        assert {5, 13, 29}.issubset(set(reps))
        assert 11 not in reps

    def test_weight_p_only_above_table_cap(self, capsys, no_scalar_pow):
        # F_(2^25) has no field tables; the algebraic deciders need none.
        argv = ["search", "-p", "2", "-n", "25", "--mode", "weight-p-only", "--long-running"]
        doc = json_doc(capsys, argv + ["--format", "json"])
        reps = [e["d"] for e in doc["gapn_cosets"]]
        assert reps == [2**i + 1 for i in range(1, 13) if math.gcd(i, 25) == 1]

    def test_cache_flag(self, capsys, tmp_path):
        doc1 = json_doc(
            capsys, ["search", "-p", "3", "-n", "4", "--cache", str(tmp_path), "--format", "json"]
        )
        assert (tmp_path / "gapn_3_4.csv").exists()
        doc2 = json_doc(
            capsys, ["search", "-p", "3", "-n", "4", "--cache", str(tmp_path), "--format", "json"]
        )
        doc1.pop("elapsed")
        doc2.pop("elapsed")
        assert doc1 == doc2


class TestConjectureCommand:
    def test_holds_human(self, capsys):
        code, out, _ = run_cli(capsys, ["conjecture", "-p", "3", "-n", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "conjecture holds for (3,4)"
        assert lines[1] == "scanned 21 cosets; filtered: low_weight=0, even_weight=9, out_of_band=8"
        assert lines[2] == "GAPN cosets: 0"

    def test_fails_human(self, capsys):
        code, out, _ = run_cli(capsys, ["conjecture", "-p", "3", "-n", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "conjecture fails for (3,5)"
        assert lines[2] == "GAPN cosets: 4"
        assert lines[3] == "  d=23 weight=5 members=[23 69 137 169 207] [monomial-fast]"

    def test_json_verdicts(self, capsys):
        holds = json_doc(capsys, ["conjecture", "-p", "3", "-n", "4", "--format", "json"])
        fails = json_doc(capsys, ["conjecture", "-p", "3", "-n", "5", "--format", "json"])
        assert holds["conjecture_holds"] is True
        assert fails["conjecture_holds"] is False
        assert [e["d"] for e in fails["gapn_cosets"]] == [23, 35, 49, 79]


class TestSpectrumCommand:
    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "-p", "3", "-n", "2", "-d", "5"])
        assert code == 0
        assert out.splitlines() == [
            "# spectrum of x^5 on F_(3^2); GAPN: yes; pairs total 72",
            "0,48",
            "3,24",
        ]

    def test_csv_headerless(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spectrum", "-p", "3", "-n", "2", "-d", "5", "--format", "csv"]
        )
        assert code == 0
        assert out == "0,48\n3,24\n"

    def test_json_conservation(self, capsys):
        doc = json_doc(capsys, ["spectrum", "-p", "3", "-n", "3", "-d", "5", "--format", "json"])
        assert doc["pairs_total"] == (3**3 - 1) * 3**3
        assert sum(m for _, m in doc["spectrum"]) == doc["pairs_total"]
        assert doc["source"] == "x^5"
        assert doc["is_gapn"] is True

    def test_table_file_csv_and_raw(self, capsys, tmp_path):
        ctx = make_field(3, 2)
        table = monomial_table(ctx, 5)
        csv_path = tmp_path / "t.csv"
        raw_path = tmp_path / "t.bin"
        save_table_csv(table, csv_path)
        save_table_raw(table, raw_path)
        expected = {"is_gapn": True, "spectrum": [[0, 48], [3, 24]], "pairs_total": 72}
        for path in (csv_path, raw_path):
            doc = json_doc(
                capsys,
                ["spectrum", "-p", "3", "-n", "2", "--table", str(path), "--format", "json"],
            )
            assert doc["source"] == str(path)
            assert {k: doc[k] for k in expected} == expected

    def test_table_csv_negative_x_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["x,f(x)"] + [f"{x},{x}" for x in range(9)] + ["-1,3"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, ["spectrum", "-p", "3", "-n", "2", "--table", str(path), "--format", "json"]
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert ":11:" in payload["message"]

    def test_missing_table_file(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, ["spectrum", "-p", "3", "-n", "2", "--table", str(tmp_path / "nope.csv")]
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"


class TestErrorHandling:
    def test_not_prime(self, capsys):
        code, out, err = run_cli(capsys, ["test", "-p", "4", "-n", "2", "-d", "3"])
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "NotPrime"
        assert "4" in payload["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["criterion", "-p", "1", "-n", "2", "-d", "1"],
            ["criterion", "-p", "4", "-n", "3", "-d", "7"],
            ["criterion", "-p", "9", "-n", "2", "-d", "17"],
            ["profile", "-p", "1", "-d", "1"],
            ["profile", "-p", "4", "-d", "7"],
            ["profile", "-p", "9", "-d", "17"],
        ],
    )
    def test_weight_p_commands_need_prime_p(self, argv):
        # In a subprocess: p = 1 once looped in digits_of until memory ran out.
        proc = run_cli_subprocess(argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert set(json.loads(proc.stderr)) == {"error", "message"}

    @pytest.mark.parametrize(
        "argv,p",
        [
            # 9 = 100_3 has digit sum 1, not 9; 1 is below every base.
            (["criterion", "-p", "9", "-n", "3", "-d", "9"], 9),
            (["profile", "-p", "1", "-d", "1"], 1),
        ],
    )
    def test_non_prime_p_reported_before_the_weight(self, argv, p):
        # These once failed with WrongWeight and ValueError: the digit sum
        # was checked before the prime.
        proc = run_cli_subprocess(argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {"error": "NotPrime", "message": f"{p} is not prime"}

    @pytest.mark.parametrize(
        "argv,error,order",
        [
            (["test", "-p", "3", "-n", "100000000", "-d", "5"], "OrderTooLarge", "3**100000000"),
            (["search", "-p", "3", "-n", "100000000"], "BudgetExceeded", "3**100000000"),
            (["conjecture", "-p", "3", "-n", "100000000"], "BudgetExceeded", "3**100000000"),
            (["spectrum", "-p", "3", "-n", "100000000", "-d", "5"], "OrderTooLarge", "3**100000000"),
            (["families", "-p", "3", "-n", "100000000"], "OrderTooLarge", "3**100000000"),
            (["test", "-p", "3", "-n", "10000000", "-d", "5"], "OrderTooLarge", "3**10000000"),
        ],
    )
    def test_huge_dimension_fails_fast(self, argv, error, order):
        # In a subprocess: forming p**n for such n once hung these commands,
        # or failed converting the number to text for the message.
        proc = run_cli_subprocess(argv, timeout=30)
        assert proc.returncode == 1
        assert proc.stdout == ""
        payload = json.loads(proc.stderr)
        assert payload["error"] == error
        assert payload["message"].startswith(order if error == "OrderTooLarge" else f"order {order} ")

    def test_order_named_as_power_in_messages(self, capsys):
        _, _, err = run_cli(capsys, ["search", "-p", "3", "-n", "8"])
        assert json.loads(err)["message"] == (
            "order 3**8 exceeds the soft budget 2187; pass --long-running to proceed"
        )
        _, _, err = run_cli(capsys, ["test", "-p", "2", "-n", "49", "-d", "3"])
        assert json.loads(err) == {"error": "OrderTooLarge", "message": "2**49 exceeds the cap 2**48"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["conjecture", "-p", "3", "-n", "6"],
            ["profile", "-p", "3", "-d", "13", "--max-n", "100000", "--format", "json"],
        ],
    )
    def test_closed_stdout(self, argv):
        # The read end of stdout's pipe is closed before the CLI writes.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli_subprocess(argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "BrokenPipeError"

    def test_exponent_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, ["test", "-p", "3", "-n", "2", "-d", "9"])
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "exponent 9" in payload["message"]

    def test_criterion_wrong_weight(self, capsys):
        code, _, err = run_cli(capsys, ["criterion", "-p", "3", "-n", "2", "-d", "4"])
        assert code == 1
        assert json.loads(err)["error"] == "WrongWeight"

    def test_budget_blocks_conjecture_n8(self, capsys):
        code, _, err = run_cli(capsys, ["conjecture", "-p", "3", "-n", "8"])
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded"
        assert "--long-running" in payload["message"]

    def test_budget_blocks_exhaustive_n8(self, capsys):
        code, _, err = run_cli(capsys, ["search", "-p", "3", "-n", "8"])
        assert code == 1
        assert json.loads(err)["error"] == "BudgetExceeded"

    def test_budget_blocks_spectrum_n8(self, capsys):
        code, _, err = run_cli(capsys, ["spectrum", "-p", "3", "-n", "8", "-d", "5"])
        assert code == 1
        assert json.loads(err)["error"] == "BudgetExceeded"

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "-p", "3", "-n", "16", "-d", "5"],
            ["spectrum", "-p", "2", "-n", "25", "-d", "3", "--long-running"],
            ["families", "-p", "3", "-n", "16"],
        ],
    )
    def test_table_requests_above_cap_fail_fast(self, capsys, no_scalar_pow, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "OrderTooLarge"

    @pytest.mark.parametrize(
        "argv",
        [
            ["conjecture", "-p", "3", "-n", "16", "--long-running"],
            ["search", "-p", "2", "-n", "25", "--long-running"],
        ],
    )
    def test_scans_above_cap_fail_before_enumerating(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise RuntimeError("cosets enumerated before the table gate")

        monkeypatch.setattr(search, "coset_reps", refuse)
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "OrderTooLarge",
            "message": "log table requested for an order above 2**24",
        }

    def test_long_running_unlocks_n8(self, capsys):
        code, out, _ = run_cli(capsys, ["conjecture", "-p", "3", "-n", "8", "--long-running"])
        assert code == 0
        assert out.splitlines()[0] == "conjecture holds for (3,8)"

    def test_conjecture_n7_within_budget(self, capsys):
        code, out, _ = run_cli(capsys, ["conjecture", "-p", "3", "-n", "7"])
        assert code == 0
        assert out.splitlines()[0] == "conjecture holds for (3,7)"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nosuchcmd"],
            ["test", "-p", "3", "-n", "2"],
            ["test", "-p", "0", "-n", "2", "-d", "5"],
            ["spectrum", "-p", "3", "-n", "2", "-d", "5", "--table", "x.csv"],
            ["spectrum", "-p", "3", "-n", "2"],
            ["test", "-p", "3", "-n", "2", "-d", "5", "--format", "yaml"],
        ],
    )
    def test_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "usage:" in err


# One request of every kind, with each option that has a default set.
_EVERY_REQUEST_KIND = [
    ["test", "-p", "3", "-n", "2", "-d", "5"],
    ["test", "-p", "3", "-n", "8", "-d", "5", "--long-running", "--format", "json"],
    ["criterion", "-p", "3", "-n", "4", "-d", "11", "--format", "csv"],
    ["profile", "-p", "3", "-d", "13"],
    ["profile", "-p", "3", "-d", "13", "--max-n", "20", "--format", "json"],
    ["families", "-p", "3", "-n", "3"],
    ["search", "-p", "3", "-n", "4"],
    [
        "search", "-p", "3", "-n", "4", "--mode", "weight-p-only", "--jobs", "2", "--cache", "D",
        "--no-skip-even", "--no-skip-low", "--verify-filters", "--long-running", "--format", "csv",
    ],
    ["conjecture", "-p", "3", "-n", "5", "--cache", "D", "--jobs", "3"],
    ["conjecture", "-p", "3", "-n", "5"],
    ["spectrum", "-p", "3", "-n", "2", "-d", "5"],
    ["spectrum", "-p", "3", "-n", "2", "--table", "t.csv", "--long-running"],
]


class TestParserReuse:
    def test_built_at_first_main_call_not_at_import(self):
        code = "import gapnkit.cli as c; print(c._parser.cache_info().currsize)"
        path = [str(Path(search.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.stdout == "0\n", proc.stderr

    def test_one_parser_per_interpreter(self, capsys):
        run_cli(capsys, ["profile", "-p", "3", "-d", "13"])
        assert cli._parser() is cli._parser()

    def test_reused_parser_matches_fresh_one(self):
        shared = cli._parser()
        for argv in _EVERY_REQUEST_KIND:
            shared.parse_args(argv)
        for argv in _EVERY_REQUEST_KIND:
            assert shared.parse_args(argv) == cli.build_parser().parse_args(argv)

    def test_no_state_carried_between_requests(self):
        shared = cli._parser()
        assert shared.parse_args(["search", "-p", "3", "-n", "4", "--cache", "D"]).cache == "D"
        args = shared.parse_args(["search", "-p", "3", "-n", "4"])
        assert args.cache is None
        assert (args.mode, args.jobs, args.format) == ("exhaustive", 1, "human")

    def test_usage_errors_after_requests_exit_2(self, capsys):
        for argv in (["test", "-p", "3", "-n", "2"], ["profile", "-p", "3", "-d", "13"]) * 2:
            code, _, err = run_cli(capsys, argv)
            if argv[0] == "test":
                assert code == 2
                assert "usage:" in err
            else:
                assert code == 0


class TestVersion:
    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["--version"])
        assert code == 0
        assert out == f"gapnkit {__version__}\n"


class TestModuleEntryPoint:
    """python -m gapnkit runs the same command line as cli.main."""

    def test_prints_what_main_prints(self, capsys):
        argv = ["test", "-p", "3", "-n", "2", "-d", "5", "--format", "json"]
        proc = run_cli_subprocess(argv, module="gapnkit")
        code, out, err = run_cli(capsys, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")

    def test_domain_error_exits_1(self):
        proc = run_cli_subprocess(["test", "-p", "4", "-n", "2", "-d", "5"], module="gapnkit")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {"error": "NotPrime", "message": "4 is not prime"}

    def test_usage_error_exits_2(self):
        proc = run_cli_subprocess(["test", "-p", "3", "-n", "2"], module="gapnkit")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr


_SHARED_FIELDS = [(3, 4), (3, 5), (3, 6), (3, 7), (5, 3), (5, 4), (7, 2), (7, 3), (2, 8), (2, 9), (2, 10)]


def _mixed_requests(tmp_path, seed):
    """A seeded, shuffled list of argvs: every request kind on every field
    of _SHARED_FIELDS, scans on the smaller ones."""
    rng = random.Random(seed)
    requests = []
    for p, n in _SHARED_FIELDS:
        order = p**n
        weight_p = 1 + (p - 1) * p ** rng.randrange(1, n)  # digit sum p
        field = ["-p", str(p), "-n", str(n)]
        table = tmp_path / f"t_{p}_{n}.csv"
        save_table_csv(FnTable(FieldCtx(p, n), np.array([rng.randrange(order) for _ in range(order)])), table)
        requests += [
            ["test", *field, "-d", str(rng.randrange(1, order - 1))],
            ["test", *field, "-d", str(weight_p)],
            ["test", *field, "-d", str(order)],  # out of range: a domain error
            ["families", *field],
            ["spectrum", *field, "-d", str(rng.randrange(1, order - 1))],
            ["spectrum", *field, "--table", str(table)],
            ["criterion", *field, "-d", str(weight_p)],
            ["profile", "-p", str(p), "-d", str(weight_p)],
        ]
        if order <= 3**5:
            requests += [["search", *field], ["conjecture", *field]]
    rng.shuffle(requests)
    return [argv + ["--format", rng.choice(["json", "human"])] for argv in requests]


class TestSharedFieldsKeepOutputs:
    def test_warm_memo_matches_fresh_fields(self, capsys, tmp_path):
        requests = _mixed_requests(tmp_path, seed=13)

        def outputs(clear_before_each):
            got = []
            for argv in requests:
                if clear_before_each:
                    fields._shared.clear()
                code, out, err = run_cli(capsys, argv)
                got.append((code, re.sub(r'(elapsed"?: )[0-9.e+-]+', r"\1", out), err))
            return got

        fresh = outputs(clear_before_each=True)
        fields._shared.clear()
        warm = outputs(clear_before_each=False)
        assert sorted(fields._shared) == sorted(_SHARED_FIELDS)
        assert warm == fresh
        assert {code for code, _, _ in fresh} == {0, 1}
