"""Command-line front end.

Subcommands map one-to-one onto library calls; all computation stays in
the library modules.  stdout carries data in the selected format (human,
one JSON document, or CSV rows); stderr carries errors as a single JSON
object.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, gapn
from .errors import BudgetExceeded, GapnkitError, NotPrime
from .fields import SOFT_ORDER_BUDGET, make_field
from .monomial import (
    coset_rep,
    criterion_gapn,
    exceptional_profile,
    identify_family,
    normalize_weight_p,
    p_weight,
)
from .numtheory import is_prime
from .search import (
    _MODES,
    SearchFilters,
    SearchJob,
    _check_exponent_range,
    analyze_exponent,
    run_search,
    verify_families,
)

if TYPE_CHECKING:
    import argparse

# profile's largest --max-n: tabulating 10**6 dimensions takes about a
# second, and the time grows linearly with --max-n.
_MAX_PROFILE_N = 10**6


def _positive(text: str) -> int:
    # Canonical decimal, as in --table rows and cache records: int() also
    # reads "+3", " 3", "0_3" and "٣".
    if not gapn._is_decimal(text):
        raise ValueError(f"{text!r} is not a decimal integer")
    value = int(text)
    if value < 1:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError("must be a positive integer")
    return value


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---- subcommand bodies ------------------------------------------------------
# Each returns (json_doc, human_lines, (csv_header_or_None, csv_rows)).


def _cmd_test(args):
    ctx = make_field(args.p, args.n)
    report = analyze_exponent(ctx, args.d, long_running=args.long_running)
    weight, rep = p_weight(args.d, args.p), coset_rep(args.d, args.p, args.n)
    families = identify_family(args.d, args.p, args.n)
    doc = {
        "p": args.p,
        "n": args.n,
        "d": args.d,
        "weight": weight,
        "coset_rep": rep,
        "family": families,
        **report.to_dict(),
    }
    lines = [f"GAPN: {_yn(report.is_gapn)} (max count {report.max_count})"]
    lines.append(f"d = {args.d} on F_({args.p}^{args.n}); weight {weight}; coset rep {rep}")
    if families:
        lines.append("family: " + ", ".join(families))
    lines.append("deciders: " + ", ".join(report.deciders_agreed))
    spectrum = " ".join(f"{c}:{m}" for c, m in sorted(report.spectrum.items()))
    lines.append(f"spectrum: {spectrum}")
    header = ["p", "n", "d", "weight", "is_gapn", "max_count", "partial"]
    row = [args.p, args.n, args.d, weight, int(report.is_gapn), report.max_count, int(report.partial)]
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
    if args.max_n > _MAX_PROFILE_N:
        raise BudgetExceeded(f"--max-n {args.max_n} exceeds the bound {_MAX_PROFILE_N}")
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
    # Both callers have checked that p is prime, so p >= 2 and an n of
    # limit's bit length or more is above the limit without forming p**n.
    if args.n >= limit.bit_length() or args.p**args.n > limit:
        raise BudgetExceeded(
            f"order {args.p}**{args.n} exceeds the soft budget {limit}; pass --long-running to proceed"
        )


def _cmd_search(args):
    # The prime first, as make_field reports it for the other commands:
    # the budget gate's advice to pass --long-running would only lead there.
    if not is_prime(args.p):
        raise NotPrime(f"{args.p} is not prime")
    # families-only decides a handful of exponents, so no budget applies.
    if args.mode != "families-only":
        _budget_gate(args, SOFT_ORDER_BUDGET**2 if args.mode == "weight-p-only" else SOFT_ORDER_BUDGET)
    filters = SearchFilters(
        skip_even_weight=not args.no_skip_even,
        skip_low_weight=not args.no_skip_low,
        verify_filters=args.verify_filters,
    )
    job = SearchJob(
        p=args.p,
        n=args.n,
        mode=args.mode,
        filters=filters,
        jobs=args.jobs,
        cache_dir=args.cache,
    )
    result = run_search(job)
    if args.command == "conjecture":
        verdict = "holds" if result.conjecture_holds else "fails"
        lines = [f"conjecture {verdict} for ({args.p},{args.n})"]
    else:
        lines = [f"search p={args.p} n={args.n} mode={args.mode}"]
        if result.conjecture_holds is not None:
            lines.append(f"conjecture holds: {_yn(result.conjecture_holds)}")
    lines += [
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
    return result.to_dict(), lines, (["d", "weight", "members", "deciders"], rows)


def _cmd_spectrum(args):
    ctx = make_field(args.p, args.n)
    _budget_gate(args)
    if args.table is not None:
        if str(args.table).lower().endswith(".csv"):
            table = gapn.load_table_csv(ctx, args.table)
        else:
            table = gapn.load_table_raw(ctx, args.table)
        source = str(args.table)
    else:
        _check_exponent_range(args.d, args.p, args.n)
        table = gapn.monomial_table(ctx, args.d)
        source = f"x^{args.d}"
    report = gapn.differential_spectrum(table)
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


class _Option(NamedTuple):
    """One option of a subcommand, as build_parser hands it to argparse.
    kind converts its value: _positive, str, or a tuple of the values it
    may take; None makes the option a flag.  exclusive marks the
    subcommand's required, mutually exclusive options: exactly one must
    be given."""

    flag: str
    dest: str
    kind: object
    required: bool = False
    default: object = None
    help: str | None = None
    metavar: str | None = None
    exclusive: bool = False


def _options(*options: _Option) -> dict[str, _Option]:
    return {option.flag: option for option in options}


_P = _Option("-p", "p", _positive, required=True)
_N = _Option("-n", "n", _positive, required=True)
_D = _Option("-d", "d", _positive, required=True)
_FORMAT = _Option(
    "--format", "format", ("human", "json", "csv"), default="human", help="output format (default human)"
)
_SEARCH_FLAGS = (
    _Option(
        "--jobs", "jobs", _positive, default=1,
        help="at most this many worker processes; a pool starts only when it saves more than its start-up",
    ),
    _Option("--cache", "cache", str, metavar="DIR", help="verdict cache directory"),
    _Option("--no-skip-even", "no_skip_even", None, help="disable the even-weight filter"),
    _Option("--no-skip-low", "no_skip_low", None, help="disable the low-weight filter"),
    _Option("--verify-filters", "verify_filters", None, help="brute-force a sample of filtered cosets"),
    _Option("--long-running", "long_running", None, help="allow scans above the soft order budget"),
)

# Every subcommand, in help order: (help, options by flag, defaults).
_COMMANDS = {
    "test": (
        "full GAPN report for one exponent",
        _options(
            _P._replace(help="characteristic"),
            _N._replace(help="extension degree"),
            _D._replace(help="exponent"),
            _Option("--long-running", "long_running", None, help="full spectrum above the soft budget"),
            _FORMAT,
        ),
        {"func": _cmd_test},
    ),
    "criterion": (
        "digit-polynomial criterion for a weight-p exponent",
        _options(_P, _N, _D, _FORMAT),
        {"func": _cmd_criterion},
    ),
    "profile": (
        "dimension-independent profile of a weight-p exponent",
        _options(
            _P,
            _D,
            _Option("--max-n", "max_n", _positive, default=12, help="largest dimension tabulated (default 12)"),
            _FORMAT,
        ),
        {"func": _cmd_profile},
    ),
    "families": (
        "check classical families against exact deciders",
        _options(_P, _N, _FORMAT),
        {"func": _cmd_families},
    ),
    "search": (
        "scan coset space for GAPN exponents",
        _options(_P, _N, _Option("--mode", "mode", _MODES, default="exhaustive"), *_SEARCH_FLAGS, _FORMAT),
        {"func": _cmd_search},
    ),
    "conjecture": (
        "band scan: no GAPN with p < weight < n(p-1)-1",
        _options(_P, _N, *_SEARCH_FLAGS, _FORMAT),
        {"func": _cmd_search, "mode": "conjecture"},
    ),
    "spectrum": (
        "full differential spectrum as CSV rows",
        _options(
            _P,
            _N,
            _D._replace(required=False, help="monomial exponent", exclusive=True),
            _Option(
                "--table", "table", str, metavar="FILE", help="value table (.csv, else raw u8-le)", exclusive=True
            ),
            _Option("--long-running", "long_running", None, help="allow orders above the soft budget"),
            _FORMAT,
        ),
        {"func": _cmd_spectrum},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full argparse parser, built from _COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gapnkit",
        description="Decide, search, and profile GAPN monomials over F_(p^n).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, defaults) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        group = None
        for option in options.values():
            target = sub
            if option.exclusive:
                group = group or sub.add_mutually_exclusive_group(required=True)
                target = group
            if option.kind is None:
                target.add_argument(option.flag, dest=option.dest, action="store_true", help=option.help)
            else:
                choices = option.kind if isinstance(option.kind, tuple) else None
                target.add_argument(
                    option.flag, dest=option.dest, type=None if choices else option.kind, choices=choices,
                    required=option.required, default=option.default, help=option.help, metavar=option.metavar,
                )
        sub.set_defaults(**defaults)
    return parser


def _emit(args, doc, lines, csv_part) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        import csv

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
    """build_parser(), once per interpreter: parsing leaves it as it found it."""
    return build_parser()


def _read_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives argv, read from _COMMANDS, if argv is
    well formed: a subcommand, then each of its options at most once by
    its exact name, a flag alone and any other option with one value that
    does not start with "-" and that its kind accepts; every required
    option, and one of the exclusive ones.  None for any other argv."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, options, defaults = command
    values = {}
    i = 1
    while i < len(argv):
        option = options.get(argv[i])
        if option is None or option.dest in values:
            return None
        if option.kind is None:
            values[option.dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        text = argv[i + 1]
        if isinstance(option.kind, tuple):
            if text not in option.kind:
                return None
            values[option.dest] = text
        else:
            try:
                values[option.dest] = option.kind(text)
            except Exception:  # the full parser reports it, or raises it again
                return None
        i += 2
    exclusive = [option.dest in values for option in options.values() if option.exclusive]
    if exclusive and exclusive.count(True) != 1:
        return None
    for option in options.values():
        if option.dest not in values:
            if option.required:
                return None
            values[option.dest] = False if option.kind is None else option.default
    return SimpleNamespace(command=argv[0], **values, **defaults)


def _parse_args(argv) -> SimpleNamespace | argparse.Namespace:
    """What build_parser().parse_args(argv) returns.  A well-formed argv
    is read from _COMMANDS alone; anything else -- no argument, -h,
    --version, an abbreviation, --opt=value, -p3, a repeat, a stray or
    leftover argument, "--", a value that fails its conversion -- goes to
    the full parser, so help, version text and usage errors stay its own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_well_formed(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(argv)
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


__all__ = ["build_parser", "main"]


if __name__ == "__main__":
    sys.exit(main())
