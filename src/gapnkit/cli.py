"""Command-line front end.

Subcommands map one-to-one onto library calls; all computation stays in
the library modules.  stdout carries data in the selected format (human,
one JSON document, or CSV rows); stderr carries errors as a single JSON
object.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import __version__, gapn
from .errors import BudgetExceeded, GapnkitError
from .fields import make_field
from .monomial import (
    describe_exponent,
    criterion_gapn,
    exceptional_profile,
    identify_family,
    normalize_weight_p,
)
from .search import (
    SOFT_ORDER_BUDGET,
    SearchFilters,
    SearchJob,
    analyze_exponent,
    run_search,
    verify_families,
)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _check_exponent_range(d: int, p: int, n: int) -> None:
    if not 1 <= d < p**n - 1:
        raise ValueError(f"exponent {d} outside [1, {p**n - 2}] for F_({p}^{n})")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---- subcommand bodies ------------------------------------------------------
# Each returns (json_doc, human_lines, (csv_header_or_None, csv_rows)).


def _cmd_test(args):
    ctx = make_field(args.p, args.n)
    _check_exponent_range(args.d, args.p, args.n)
    report = analyze_exponent(ctx, args.d, long_running=args.long_running)
    info = describe_exponent(args.d, args.p, args.n)
    families = identify_family(args.d, args.p, args.n)
    doc = {
        "p": args.p,
        "n": args.n,
        "d": args.d,
        "weight": info.weight,
        "coset_rep": info.coset_rep,
        "family": families,
        **report.to_dict(),
    }
    lines = [f"GAPN: {_yn(report.is_gapn)} (max count {report.max_count})"]
    lines.append(
        f"d = {args.d} on F_({args.p}^{args.n}); weight {info.weight}; "
        f"coset rep {info.coset_rep}"
    )
    if families:
        lines.append("family: " + ", ".join(families))
    lines.append("deciders: " + ", ".join(report.deciders_agreed))
    spectrum = " ".join(f"{c}:{m}" for c, m in sorted(report.spectrum.items()))
    lines.append(f"spectrum: {spectrum}")
    header = ["p", "n", "d", "weight", "is_gapn", "max_count", "partial"]
    row = [args.p, args.n, args.d, info.weight, int(report.is_gapn), report.max_count, int(report.partial)]
    return doc, lines, (header, [row])


def _cmd_criterion(args):
    # No range gate: the criterion reads d's own digits, so d may exceed
    # p**n - 2 (positions fold modulo n).
    d = normalize_weight_p(args.d, args.p)
    report = criterion_gapn(d, args.p, args.n)
    doc = {"input_d": args.d, **report.to_dict()}
    lines = [
        f"d = {d} (weight {args.p}) on F_({args.p}^{args.n})",
        f"digit polynomial: {report.digit_poly}",
        f"gcd with x^{args.n} - 1: {report.gcd}",
        f"GAPN: {_yn(report.is_gapn)}",
    ]
    if report.offending_factors:
        parts = [f"({f})^{m}" for f, m in report.offending_factors]
        lines.append("offending factors: " + ", ".join(parts))
    header = ["p", "n", "d", "digit_poly", "gcd", "is_gapn"]
    row = [args.p, args.n, d, str(report.digit_poly), str(report.gcd), int(report.is_gapn)]
    return doc, lines, (header, [row])


def _cmd_profile(args):
    d = normalize_weight_p(args.d, args.p)
    profile = exceptional_profile(d, args.p)
    dims = profile.gapn_dimensions(args.max_n)
    doc = {**profile.to_dict(), "max_n": args.max_n, "gapn_dimensions": dims}
    lines = [
        f"d = {d}, p = {args.p}",
        "root orders: " + (" ".join(str(m) for m in profile.root_orders) or "(none)"),
        f"unit root multiplicity: {profile.unit_root_multiplicity}",
        f"verified on F_({args.p}^{profile.witness_n})",
        f"GAPN dimensions n <= {args.max_n}: "
        + (" ".join(str(n) for n in dims) or "(none)"),
    ]
    header = ["p", "d", "root_orders", "unit_root_multiplicity", "gapn_dimensions"]
    row = [
        args.p,
        d,
        " ".join(str(m) for m in profile.root_orders),
        profile.unit_root_multiplicity,
        " ".join(str(n) for n in dims),
    ]
    return doc, lines, (header, [row])


def _cmd_families(args):
    report = verify_families(args.p, args.n)
    doc = report.to_dict()
    lines = [
        f"families on F_({args.p}^{args.n}): {len(report.entries)} exponents, "
        f"{report.mismatches} mismatches"
    ]
    rows = []
    for e in report.entries:
        mark = "ok" if e.agree else "MISMATCH"
        lines.append(
            f"  {e.family}({e.param}) d={e.d}: predicted {_yn(e.predicted)}, "
            f"verdict {_yn(e.verdict)} [{'+'.join(e.deciders)}] {mark}"
        )
        rows.append(
            [e.family, e.param, e.d, int(e.predicted), int(e.verdict), "+".join(e.deciders), int(e.agree)]
        )
    header = ["family", "param", "d", "predicted", "verdict", "deciders", "agree"]
    return doc, lines, (header, rows)


def _budget_gate(args, limit: int = SOFT_ORDER_BUDGET) -> None:
    if args.long_running:
        return
    # For p >= 2, an n of limit's bit length or more is above the limit
    # without forming p**n.
    if (args.p > 1 and args.n >= limit.bit_length()) or args.p**args.n > limit:
        raise BudgetExceeded(
            f"order {args.p}**{args.n} exceeds the soft budget {limit}; pass --long-running to proceed"
        )


def _search_result(args, mode: str):
    # families-only decides a handful of exponents, so no budget applies.
    if mode != "families-only":
        _budget_gate(args, SOFT_ORDER_BUDGET**2 if mode == "weight-p-only" else SOFT_ORDER_BUDGET)
    filters = SearchFilters(
        skip_even_weight=not args.no_skip_even,
        skip_low_weight=not args.no_skip_low,
        verify_filters=args.verify_filters,
    )
    job = SearchJob(
        p=args.p,
        n=args.n,
        mode=mode,
        filters=filters,
        jobs=args.jobs,
        cache_dir=args.cache,
    )
    return run_search(job)


def _search_tail(result):
    lines = [
        f"scanned {result.scanned} cosets; filtered: "
        + ", ".join(f"{k}={v}" for k, v in result.filtered.items()),
        f"GAPN cosets: {len(result.gapn_cosets)}",
    ]
    rows = []
    for entry in result.gapn_cosets:
        members = " ".join(str(m) for m in entry["members"])
        lines.append(
            f"  d={entry['d']} weight={entry['weight']} members=[{members}] "
            f"[{'+'.join(entry['deciders'])}]"
        )
        rows.append([entry["d"], entry["weight"], members, "+".join(entry["deciders"])])
    if result.filter_check is not None:
        check = result.filter_check
        lines.append(
            f"filter check: sampled {check['sampled']}, violations "
            f"{len(check['violations'])}"
        )
    lines.append(f"elapsed: {result.elapsed:.3f}s")
    return lines, (["d", "weight", "members", "deciders"], rows)


def _cmd_search(args):
    result = _search_result(args, args.mode)
    lines = [f"search p={args.p} n={args.n} mode={args.mode}"]
    tail, csv_part = _search_tail(result)
    if result.conjecture_holds is not None:
        lines.append(f"conjecture holds: {_yn(result.conjecture_holds)}")
    return result.to_dict(), lines + tail, csv_part


def _cmd_conjecture(args):
    result = _search_result(args, "conjecture")
    verdict = "holds" if result.conjecture_holds else "fails"
    lines = [f"conjecture {verdict} for ({args.p},{args.n})"]
    tail, csv_part = _search_tail(result)
    return result.to_dict(), lines + tail, csv_part


def _cmd_spectrum(args):
    ctx = make_field(args.p, args.n)
    _budget_gate(args)
    if args.table is not None:
        if str(args.table).endswith(".csv"):
            table = gapn.load_table_csv(ctx, args.table)
        else:
            table = gapn.load_table_raw(ctx, args.table)
        source = str(args.table)
    else:
        _check_exponent_range(args.d, args.p, args.n)
        table = gapn.monomial_table(ctx, args.d)
        source = f"x^{args.d}"
    report = gapn.differential_spectrum(table, mode="full")
    rows = [[c, report.spectrum[c]] for c in sorted(report.spectrum)]
    pairs_total = sum(r[1] for r in rows)
    doc = {
        "p": args.p,
        "n": args.n,
        "source": source,
        "is_gapn": report.is_gapn,
        "max_count": report.max_count,
        "spectrum": rows,
        "pairs_total": pairs_total,
    }
    lines = [
        f"# spectrum of {source} on F_({args.p}^{args.n}); "
        f"GAPN: {_yn(report.is_gapn)}; pairs total {pairs_total}"
    ]
    lines += [f"{c},{m}" for c, m in rows]
    return doc, lines, (None, rows)


# ---- wiring -----------------------------------------------------------------


def _add_format(sub) -> None:
    sub.add_argument(
        "--format", choices=["human", "json", "csv"], default="human",
        help="output format (default human)",
    )


def _add_search_flags(sub) -> None:
    sub.add_argument("--jobs", type=_positive, default=1, help="worker processes")
    sub.add_argument("--cache", default=None, metavar="DIR", help="verdict cache directory")
    sub.add_argument("--no-skip-even", action="store_true", help="disable the even-weight filter")
    sub.add_argument("--no-skip-low", action="store_true", help="disable the low-weight filter")
    sub.add_argument("--verify-filters", action="store_true", help="brute-force a sample of filtered cosets")
    sub.add_argument("--long-running", action="store_true", help="allow scans above the soft order budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapnkit",
        description="Decide, search, and profile GAPN monomials over F_(p^n).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("test", help="full GAPN report for one exponent")
    sub.add_argument("-p", type=_positive, required=True, help="characteristic")
    sub.add_argument("-n", type=_positive, required=True, help="extension degree")
    sub.add_argument("-d", type=_positive, required=True, help="exponent")
    sub.add_argument("--long-running", action="store_true", help="full spectrum above the soft budget")
    _add_format(sub)
    sub.set_defaults(func=_cmd_test)

    sub = commands.add_parser("criterion", help="digit-polynomial criterion for a weight-p exponent")
    sub.add_argument("-p", type=_positive, required=True)
    sub.add_argument("-n", type=_positive, required=True)
    sub.add_argument("-d", type=_positive, required=True)
    _add_format(sub)
    sub.set_defaults(func=_cmd_criterion)

    sub = commands.add_parser("profile", help="dimension-independent profile of a weight-p exponent")
    sub.add_argument("-p", type=_positive, required=True)
    sub.add_argument("-d", type=_positive, required=True)
    sub.add_argument("--max-n", type=_positive, default=12, help="largest dimension tabulated (default 12)")
    _add_format(sub)
    sub.set_defaults(func=_cmd_profile)

    sub = commands.add_parser("families", help="check classical families against exact deciders")
    sub.add_argument("-p", type=_positive, required=True)
    sub.add_argument("-n", type=_positive, required=True)
    _add_format(sub)
    sub.set_defaults(func=_cmd_families)

    sub = commands.add_parser("search", help="scan coset space for GAPN exponents")
    sub.add_argument("-p", type=_positive, required=True)
    sub.add_argument("-n", type=_positive, required=True)
    sub.add_argument(
        "--mode",
        choices=["exhaustive", "weight-p-only", "families-only", "conjecture"],
        default="exhaustive",
    )
    _add_search_flags(sub)
    _add_format(sub)
    sub.set_defaults(func=_cmd_search)

    sub = commands.add_parser("conjecture", help="band scan: no GAPN with p < weight < n(p-1)-1")
    sub.add_argument("-p", type=_positive, required=True)
    sub.add_argument("-n", type=_positive, required=True)
    _add_search_flags(sub)
    _add_format(sub)
    sub.set_defaults(func=_cmd_conjecture)

    sub = commands.add_parser("spectrum", help="full differential spectrum as CSV rows")
    sub.add_argument("-p", type=_positive, required=True)
    sub.add_argument("-n", type=_positive, required=True)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-d", type=_positive, help="monomial exponent")
    group.add_argument("--table", metavar="FILE", help="value table (.csv, else raw u8-le)")
    sub.add_argument("--long-running", action="store_true", help="allow orders above the soft budget")
    _add_format(sub)
    sub.set_defaults(func=_cmd_spectrum)

    return parser


def _emit(args, doc, lines, csv_part) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        header, rows = csv_part
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    else:
        print("\n".join(lines))
    sys.stdout.flush()  # a closed reader fails here, inside main's handler


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per interpreter: building it costs most of a
    small request, and parse_args leaves the parser as it found it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(args, *args.func(args))
    except (GapnkitError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader is gone: send what is left of stdout nowhere, so
            # the interpreter's final flush does not fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
