"""Command-line front end.

Subcommands: ``validate``, ``invariants``, ``transition``, ``connect``,
``catalog``.  Input files use the text matrix format (one ``n | q q ...``
line per row, ``#`` comments); ``-`` reads from stdin.  ``--json`` switches
any subcommand to the machine-readable report::

    {"tool_version": ..., "input": ..., "results": {...},
     "checks": [{"name", "expected", "got", "provenance", "pass"}]}

Exit codes: 0 success, 1 validation failure or expected-value mismatch,
2 usage error, 3 internal-consistency failure (the certified node count
disagreeing with the direct Euler-number difference, the intersection
numbers disagreeing with the Chern-class Euler number or giving a
non-integral chi(O_X(J)), or a web-walk
invariant failing — a bug, not bad input).  ANSI styling is disabled when ``CICY_NO_COLOR`` is set or stdout
is not a terminal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .catalog import ENTRIES, CatalogCheck, get_entry
from .configuration import (
    ConfigurationMatrix,
    ParseError,
    parse_matrix,
    validate,
)
from .invariants import (
    BettiBaseCaseError,
    InternalConsistencyError,
    betti2,
    euler_number,
    hilbert_polynomial,
    hodge_numbers,
)
from .transitions import (
    analyze,
    contract,
    find_contraction_sites,
)
from .web import CHAIN_ASSUMPTIONS, chain_to_json, connect_to_c1111, verify_chain

#: Hilbert-polynomial value table shown by ``invariants``.
_HILBERT_TABLE_RANGE = range(0, 6)


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("CICY_NO_COLOR")


def _paint(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _use_color() else text


def _verdict(ok: bool) -> str:
    return _paint("PASS", "32") if ok else _paint("FAIL", "31")


def _load(path: str) -> ConfigurationMatrix:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_matrix(text)


def _check_dict(check: CatalogCheck) -> dict:
    return {
        "name": check.name,
        "expected": check.expected,
        "got": check.got,
        "provenance": check.provenance,
        "pass": check.passed,
    }


def _emit(args: argparse.Namespace, results: dict, checks: list[CatalogCheck],
          lines: list[str], input_label: Optional[str] = None) -> None:
    if args.json:
        payload = {
            "tool_version": __version__,
            "input": input_label if input_label is not None else getattr(args, "path", None),
            "results": results,
            "checks": [_check_dict(c) for c in checks],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


# ----------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load(args.path)
    report = validate(cfg)
    results = {
        "matrix": cfg.render().splitlines(),
        "dimension": report.dimension,
        "entries_nonnegative": report.entries_nonnegative,
        "column_sums_ok": report.column_sums_ok,
        "cy_condition": report.cy_condition,
        "block_diagonal": report.block_diagonal,
        "has_forbidden_block": report.has_forbidden_block,
        "is_cicy": report.is_cicy,
    }
    lines = [cfg.render(), ""]
    lines.extend(report.summary_lines())
    _emit(args, results, [], lines)
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    cfg = _load(args.path)
    if args.polarization:
        polarization = tuple(args.polarization)
        if len(polarization) != cfg.k:
            raise ValueError(
                f"--polarization takes one entry per row: {cfg.k} expected, "
                f"got {len(polarization)}"
            )
        if min(polarization) < 1:
            raise ValueError(f"--polarization entries must be positive, got {list(polarization)}")
    else:
        polarization = tuple(1 for _ in range(cfg.k))
    results: dict = {"matrix": cfg.render().splitlines()}
    lines = [cfg.render(), ""]

    e = euler_number(cfg)
    results["euler_number"] = e
    lines.append(f"euler number: {e}")

    try:
        b2 = betti2(cfg)
        results["betti2"] = b2
        lines.append(f"second Betti number: {b2}")
    except (BettiBaseCaseError, ValueError) as err:
        results["betti2_error"] = str(err)
        lines.append(f"second Betti number: unavailable ({err})")

    report = validate(cfg)
    if report.is_cicy:
        try:
            pair = hodge_numbers(cfg)
            results["hodge"] = {"h11": pair.h11, "h21": pair.h21}
            lines.append(f"Hodge pair: h11 = {pair.h11}, h21 = {pair.h21}")
        except (BettiBaseCaseError, ValueError) as err:
            results["hodge_error"] = str(err)
            lines.append(f"Hodge pair: unavailable ({err})")

    try:
        hp = hilbert_polynomial(cfg, polarization)
        values = {str(l): hp.value_at(l) for l in _HILBERT_TABLE_RANGE}
        results["hilbert"] = {
            "polarization": list(polarization),
            "polynomial": hp.render(),
            "coefficients": [str(c) for c in hp.coefficients],
            "values": values,
        }
        lines.append(f"Hilbert polynomial (polarization {list(polarization)}): {hp.render()}")
        lines.append("  l:      " + "  ".join(f"{l}" for l in _HILBERT_TABLE_RANGE))
        lines.append("  chi(l): " + "  ".join(str(values[str(l)]) for l in _HILBERT_TABLE_RANGE))
        if report.is_cicy:
            # a CICY 3-fold's polynomial is kappa(J,J,J) l^3 / 6 + (c2 . J) l / 12
            results["intersection"] = {
                "kappa_JJJ": int(6 * hp.coefficients[3]),
                "c2_J": int(12 * hp.coefficients[1]),
            }
    except InternalConsistencyError:
        raise
    except (ValueError, ArithmeticError) as err:
        results["hilbert_error"] = str(err)
        lines.append(f"Hilbert polynomial: unavailable ({err})")

    _emit(args, results, [], lines)
    return 0


def _cmd_transition(args: argparse.Namespace) -> int:
    cfg = _load(args.path)
    sites = find_contraction_sites(cfg)
    if args.row is not None:
        chosen = [s for s in sites if s.row == args.row - 1]
        if not chosen:
            print(f"error: no contraction site at row {args.row}", file=sys.stderr)
            return 1
    else:
        chosen = sites

    site_results = []
    checks: list[CatalogCheck] = []
    lines = [cfg.render(), ""]
    if not chosen:
        lines.append("no contraction sites")
    for site in chosen:
        report = analyze(site)
        site_contracted_render = contract(site).render().splitlines()
        site_results.append(
            {
                "row": site.row + 1,
                "one_columns": [j + 1 for j in site.one_columns],
                "contracted": site_contracted_render,
                "odp_count": report.odp_count,
                "euler_resolved": report.euler_resolved,
                "euler_smoothed": report.euler_smoothed,
                "certified": True,  # analyze raises instead of reporting a mismatch
                "ineffective": report.ineffective,
            }
        )
        checks.append(
            CatalogCheck(
                name=f"row-{site.row + 1}-euler-difference",
                expected=2 * report.odp_count,
                got=report.euler_resolved - report.euler_smoothed,
                provenance="derived",
                note="direct Euler difference vs twice the node count",
            )
        )
        lines.append(
            f"row {site.row + 1}: N = {report.odp_count}, "
            f"e = {report.euler_resolved} -> {report.euler_smoothed}"
            + (", ineffective" if report.ineffective else "")
            + f"  [{_verdict(True)}]"
        )
        lines.append("  contracted:")
        lines.extend(f"    {row}" for row in site_contracted_render)

    _emit(args, {"matrix": cfg.render().splitlines(), "sites": site_results}, checks, lines)
    return 0


def _cmd_connect(args: argparse.Namespace) -> int:
    cfg = _load(args.path)
    chain = connect_to_c1111(cfg)
    report = verify_chain(chain)
    if args.emit_chain:
        Path(args.emit_chain).write_text(chain_to_json(chain) + "\n")

    checks = [
        CatalogCheck(
            name="chain_verified",
            expected=True,
            got=report.ok,
            provenance="derived",
            note="chain re-executed step by step",
        )
    ]
    step_results = []
    lines = [cfg.render(), "", f"chain length: {len(chain.steps)}"]
    for check in report.checks:
        step_results.append(
            {
                "index": check.index,
                "kind": check.kind,
                "site_row": check.site_row + 1,
                "site_columns": [j + 1 for j in check.site_columns],
                "odp_count": check.odp_count,
                "euler_resolved": check.euler_resolved,
                "euler_smoothed": check.euler_smoothed,
                "ineffective": check.ineffective,
            }
        )
        checks.append(
            CatalogCheck(
                name=f"step-{check.index}-euler-difference",
                expected=2 * check.odp_count,
                got=check.euler_resolved - check.euler_smoothed,
                provenance="derived",
                note="certified on every step (reverse contraction for splits)",
            )
        )
        direction = "contract" if check.kind == "contract" else "split (reverse contract)"
        lines.append(
            f"step {check.index}: {direction} at row {check.site_row + 1}: "
            f"N = {check.odp_count}, e = {check.euler_resolved} -> {check.euler_smoothed}"
            + (", ineffective" if check.ineffective else "")
        )
    lines.append(f"verified: {_verdict(report.ok)}")
    for failure in report.failures:
        lines.append(f"  failure: {failure}")
    if args.emit_chain:
        lines.append(f"chain written to {args.emit_chain}")

    results = {
        "matrix": cfg.render().splitlines(),
        "steps": step_results,
        "end": chain.end.render().splitlines(),
        "verified": report.ok,
        "failures": list(report.failures),
        "assumptions": list(CHAIN_ASSUMPTIONS),
    }
    _emit(args, results, checks, lines)
    return 0 if report.ok else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        results = {entry.name: entry.description for entry in ENTRIES}
        lines = [f"{entry.name}: {entry.description}" for entry in ENTRIES]
        _emit(args, results, [], lines, input_label="--list")
        return 0

    names = [entry.name for entry in ENTRIES] if args.run_all else [args.run]
    try:
        entries = [get_entry(name) for name in names]
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 1

    results: dict = {}
    all_checks: list[CatalogCheck] = []
    lines = []
    failed = False
    for entry in entries:
        checks = entry.run()
        results[entry.name] = [_check_dict(c) for c in checks]
        lines.append(f"{entry.name}:")
        for check in checks:
            all_checks.append(
                CatalogCheck(
                    name=f"{entry.name}.{check.name}",
                    expected=check.expected,
                    got=check.got,
                    provenance=check.provenance,
                    note=check.note,
                )
            )
            lines.append(
                f"  {check.name}: expected {check.expected!r}, got {check.got!r} "
                f"[{check.provenance}] {_verdict(check.passed)}"
            )
            if not check.passed:
                failed = True
    _emit(args, results, all_checks, lines, input_label=",".join(names))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cicyweb",
        description="Exact invariants, contractions, and the transition web "
        "of complete-intersection Calabi-Yau 3-folds.",
    )
    parser.add_argument("--version", action="version", version=f"cicyweb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural and Calabi-Yau checks for a matrix file")
    p.add_argument("path", help="matrix file in the text format, or - for stdin")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("invariants", help="Euler number, b2, Hodge pair, Hilbert polynomial")
    p.add_argument("path", help="matrix file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--polarization",
        nargs="+",
        type=int,
        metavar="D",
        help="ample multidegree d1 d2 ... dk, one positive integer per row (default all ones)",
    )
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("transition", help="determinantal contractions with certified node counts")
    p.add_argument("path", help="matrix file, or - for stdin")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--row", type=int, help="contract the site at this row (1-indexed)")
    group.add_argument("--all", action="store_true", help="analyze every contraction site")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("connect", help="chain of splits/contractions to the hub C1111")
    p.add_argument("path", help="matrix file, or - for stdin")
    p.add_argument("--emit-chain", metavar="OUT.json", help="write the verified chain as JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_connect)

    p = sub.add_parser("catalog", help="run the built-in worked examples against pinned values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", help="list entries")
    group.add_argument("--run", metavar="NAME", help="run one entry")
    group.add_argument("--run-all", action="store_true", help="run every entry")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalConsistencyError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return 3
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
