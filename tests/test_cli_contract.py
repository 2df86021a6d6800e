"""The command line's input contract, as a property of cli.main.

Drawn argvs cover all seven subcommands: small valid values, the
boundaries 0, 1, p^n - 1, p^n and 2^48, text int() reads too, every
option spelling argparse takes (exact, abbreviated, --opt=v, -p3),
repeats, stray tokens, -h and --version.  Every request either answers
(exit 0), reports one JSON error object on stderr (exit 1) or is a usage
error (exit 2), and says exactly what the full argparse parser would
have it say.  Fields stay at order 3^5 or below unless the request is
refused before any work.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapnkit import cli, make_field, monomial_table
from gapnkit.gapn import save_table_csv, save_table_raw
from test_readme import ERROR_NAMES

FIELDS = [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 6)] + [(5, 1), (5, 2), (5, 3), (7, 2), (13, 2)]
BIG = str(2**48)
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
STRAY = ["stray", "-x", "--", "--=x", "-h", "--help", "--version", "-p"]
COMMANDS = ["test", "criterion", "profile", "families", "search", "conjecture", "spectrum"]


def _values(valid, order=None):
    """Text for a positive option: a valid value, spelled exactly or in a
    way int() also reads, a boundary, or no number at all.  p and n take
    no p^n boundary, so that a field stays small unless it is refused."""
    loose = lambda v: st.sampled_from([f"+{v}", f" {v}", f"{v} ", f"0_{v}", str(v).translate(ARABIC_INDIC), f"-{v}"])
    boundaries = ["0", "1", BIG] + ([str(order - 1), str(order)] if order else [])
    kinds = {"exact": valid.map(str), "loose": valid.flatmap(loose), "boundary": st.sampled_from(boundaries),
             "junk": st.sampled_from(["", "5x"])}
    return st.sampled_from(["exact"] * 12 + ["loose", "boundary", "junk"]).flatmap(kinds.get)


@st.composite
def _argvs(draw, tables, cache):
    command = draw(st.sampled_from(COMMANDS))
    p, n = draw(st.sampled_from(FIELDS))
    order = p**n
    weight_p = st.integers(1, n).map(lambda k: 1 + (p - 1) * p**k)
    d = _values(st.one_of(st.integers(1, max(1, order - 2)), weight_p), order)
    items = [("-p", draw(_values(st.just(p))))]
    if command != "profile":
        items.append(("-n", draw(_values(st.just(n)))))
    if command in ("test", "criterion", "profile"):
        items.append(("-d", draw(d)))
    if command == "profile" and draw(st.booleans()):
        items.append(("--max-n", draw(_values(st.integers(1, 20), order))))
    if command == "spectrum":
        choice = draw(st.sampled_from(["-d", "--table", "both", "neither"]))
        if choice in ("-d", "both"):
            items.append(("-d", draw(d)))
        if choice in ("--table", "both"):
            items.append(("--table", draw(st.sampled_from(tables))))
    if command in ("search", "conjecture"):
        if command == "search" and draw(st.booleans()):
            items.append(("--mode", draw(st.sampled_from(["exhaustive", "weight-p-only", "families-only", "conjecture", "bogus"]))))
        if draw(st.booleans()):
            # Never more than two workers, whatever the value says.
            items.append(("--jobs", draw(st.sampled_from(["1", "2", "0", "+2", "x"]))))
        if draw(st.booleans()):
            items.append(("--cache", cache))
        flags = ["--no-skip-even", "--no-skip-low", "--verify-filters", "--long-running"]
        items += [(flag, None) for flag in draw(st.lists(st.sampled_from(flags), unique=True))]
    if command in ("test", "spectrum") and draw(st.booleans()):
        items.append(("--long-running", None))
    if draw(st.booleans()):
        items.append(("--format", draw(st.sampled_from(["human", "json", "csv", "yaml"]))))

    # Most argvs are well formed but for one defect, if any.
    rare = st.integers(0, 7).map(lambda k: k == 5)
    if draw(rare):
        items.pop(draw(st.integers(0, len(items) - 1)))  # maybe a required option
    if draw(rare):
        items.append(draw(st.sampled_from(items)))  # a repeat
    items = draw(st.permutations(items))
    tokens = []
    for flag, value in items:
        spelling = draw(st.sampled_from(["exact"] * 12 + ["abbreviated", "equals", "joined"]))
        if spelling == "abbreviated" and flag.startswith("--"):
            flag = flag[: draw(st.integers(3, len(flag) - 1))]
        if value is None:
            tokens.append(f"{flag}=x" if spelling == "equals" else flag)
        elif spelling == "equals":
            tokens.append(f"{flag}={value}")
        elif spelling == "joined" and not flag.startswith("--"):
            tokens.append(flag + value)
        else:
            tokens += [flag, value]
    if draw(rare):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(STRAY)))
    return draw(st.sampled_from([[command]] * 8 + [["--version", command], []])) + tokens


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r'(elapsed"?: )[0-9.e+-]+', r"\1", out.getvalue()), err.getvalue()


class TestInputContract:
    @classmethod
    def setup_class(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        table = monomial_table(make_field(3, 2), 5)
        save_table_csv(table, cls.tmp / "t.csv")
        save_table_raw(table, cls.tmp / "t.raw")
        (cls.tmp / "loose.csv").write_text((cls.tmp / "t.csv").read_text().replace("\n8,", "\n+8,"))
        # "-t.csv" looks like an option to argparse, so it is no value.
        cls.tables = [str(cls.tmp / name) for name in ("t.csv", "t.raw", "loose.csv", "missing.csv")] + ["-t.csv"]
        cls.cache = cls.tmp / "cache"

    @classmethod
    def teardown_class(cls):
        shutil.rmtree(cls.tmp)

    def test_every_argv_keeps_the_contract(self):
        @settings(derandomize=True, max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(argv=_argvs(self.tables, str(self.cache)))
        def check(argv):
            def run(parse_args):
                shutil.rmtree(self.cache, ignore_errors=True)
                saved = cli._parse_args
                cli._parse_args = parse_args
                try:
                    return _run(argv)
                finally:
                    cli._parse_args = saved

            got = run(cli._parse_args)
            assert got == run(lambda argv: cli._parser().parse_args(argv))
            code, out, err = got
            assert code in (0, 1, 2)
            if code == 1:
                assert out == ""
                assert err.endswith("\n") and "\n" not in err[:-1]
                payload = json.loads(err)
                assert set(payload) == {"error", "message"}
                assert payload["error"] in ERROR_NAMES

        check()
