"""Command line entry point.

    xcomplex validate  [--presentation X] [--complex X] [--group X] [--check-boundaries]
    xcomplex count      --presentation X --complex X [--enumerate] [--oracle]
    xcomplex invariant  --presentation X --complex X
    xcomplex classes    --presentation X --complex X
    xcomplex library
    xcomplex selfcheck

Common option: --cap N (overrides the XCOMPLEX_CAP environment variable,
which overrides the per-operation defaults).  X is a JSON file path or,
when no such file exists, a builtin name from `library`.

A machine-readable run report goes to stdout as JSON; human-oriented lines
go to stderr.  Exit codes: 0 success, 1 input error, 2 validation failure,
3 cap exceeded, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .complexes import FiniteCrossedComplex, validate
from .documents import (
    dump_complex,
    dump_group,
    dump_presentation,
    load_complex,
    load_group_table,
    load_presentation,
    read_json,
)
from .enumeration import (
    DEFAULT_ENUM_CAP,
    boundary_defect_report,
    count_engine,
    count_homs,
    count_homs_bruteforce,
    enumerate_homs,
)
from .errors import (
    InstanceTooLarge,
    ParseError,
    ResultTooLarge,
    TargetNotMorphism,
    XComplexError,
)
from .groups import group_violations
from .homotopies import DEFAULT_EDGE_CAP, homotopy_classes
from .invariant import format_rational, normalization_factor
from .library import resolve_coefficients, resolve_space, standard_coefficients, standard_spaces
from .presentations import CWPresentation, validate_presentation
from .selfcheck import run_all

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class _Inputs:
    """Resolved inputs plus provenance hashes for the run report."""

    def __init__(self) -> None:
        self.provenance: dict[str, dict[str, str]] = {}

    def presentation(self, ref: str) -> CWPresentation:
        if Path(ref).is_file():
            p = load_presentation(read_json(ref))
            self.provenance["presentation"] = {
                "source": ref, "sha256": _sha(Path(ref).read_bytes())}
        else:
            p = resolve_space(ref)
            self.provenance["presentation"] = {
                "source": f"builtin:{ref}",
                "sha256": _sha(_canonical(dump_presentation(p)))}
        return p

    def coefficients(self, ref: str) -> FiniteCrossedComplex:
        if Path(ref).is_file():
            cx = load_complex(read_json(ref))
            self.provenance["complex"] = {
                "source": ref, "sha256": _sha(Path(ref).read_bytes())}
        else:
            cx = resolve_coefficients(ref)
            self.provenance["complex"] = {
                "source": f"builtin:{ref}",
                "sha256": _sha(_canonical(dump_complex(cx)))}
        return cx

    def group(self, ref: str):
        if Path(ref).is_file():
            g = load_group_table(read_json(ref))
            self.provenance["group"] = {
                "source": ref, "sha256": _sha(Path(ref).read_bytes())}
        else:
            cx = resolve_coefficients(ref)
            if cx.length != 1:
                raise ParseError(f"'{ref}' is not a group document or group name")
            g = cx.groups[0]
            self.provenance["group"] = {
                "source": f"builtin:{ref}", "sha256": _sha(_canonical(dump_group(g)))}
        return g


def _report_violations(report) -> list[list]:
    return [[name, list(witness)] for name, witness in report.violations]


def _cap(args: argparse.Namespace, fallback: int) -> int:
    cap, source = getattr(args, "cap", None), "--cap"
    if cap is None:
        env = os.environ.get("XCOMPLEX_CAP")
        if not env:
            return fallback
        try:
            cap, source = int(env), "XCOMPLEX_CAP"
        except ValueError as exc:
            raise ParseError(f"XCOMPLEX_CAP={env!r} is not an integer") from exc
    if cap < 0:
        raise ParseError(f"{source} {cap} is negative")
    return cap


def _require_valid(p: Optional[CWPresentation], cx: Optional[FiniteCrossedComplex],
                   result: dict) -> bool:
    """Validate inputs before computing; fills `result` and returns ok."""
    ok = True
    if p is not None:
        rep = validate_presentation(p)
        if not rep.ok:
            result.setdefault("validation", {})["presentation"] = _report_violations(rep)
            ok = False
    if cx is not None:
        rep = validate(cx)
        if not rep.ok:
            result.setdefault("validation", {})["complex"] = _report_violations(rep)
            ok = False
    return ok


def cmd_validate(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    if not (args.presentation or args.complex or args.group):
        raise ParseError("validate needs at least one of --presentation/--complex/--group")
    ok = True
    reports: dict[str, Any] = {}
    cx = None
    p = None
    if args.group:
        violations = [[axiom, list(w)] for axiom, w in group_violations(inputs.group(args.group))]
        reports["group"] = {"ok": not violations, "violations": violations}
        ok = not violations
    if args.complex:
        cx = inputs.coefficients(args.complex)
        rep = validate(cx)
        reports["complex"] = {"ok": rep.ok, "violations": _report_violations(rep)}
        ok = ok and rep.ok
    if args.presentation:
        p = inputs.presentation(args.presentation)
        rep = validate_presentation(p)
        reports["presentation"] = {"ok": rep.ok, "violations": _report_violations(rep)}
        ok = ok and rep.ok
    if args.check_boundaries:
        if p is None or cx is None or not ok:
            raise ParseError("--check-boundaries needs a valid --presentation and --complex")
        defects = boundary_defect_report(p, cx, cap=_cap(args, DEFAULT_ENUM_CAP))
        reports["boundary-defects"] = [
            {"dimension": n, "cell": c, "colours": [list(t) for t in col], "value": v}
            for n, c, col, v in defects]
        ok = ok and not defects
    result["reports"] = reports
    result["ok"] = ok
    return EXIT_OK if ok else EXIT_INVALID


def cmd_count(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    p = inputs.presentation(args.presentation)
    cx = inputs.coefficients(args.complex)
    if not _require_valid(p, cx, result):
        return EXIT_INVALID
    n = count_homs(p, cx)
    result["count"] = n
    result["engine"] = count_engine(p, cx)
    if args.enumerate:
        morphisms = enumerate_homs(p, cx, cap=_cap(args, DEFAULT_ENUM_CAP))
        result["morphisms"] = [[list(layer) for layer in m.colours] for m in morphisms]
        if len(morphisms) != n:
            raise AssertionError(f"listing disagrees: counted {n}, listed {len(morphisms)}")
    if args.oracle:
        oracle = count_homs_bruteforce(p, cx, cap=_cap(args, DEFAULT_ENUM_CAP))
        result["oracle"] = oracle
        result["oracle_agrees"] = oracle == n
        if oracle != n:
            raise AssertionError(f"oracle disagrees: fast {n}, brute {oracle}")
    return EXIT_OK


def cmd_invariant(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    p = inputs.presentation(args.presentation)
    cx = inputs.coefficients(args.complex)
    if not _require_valid(p, cx, result):
        return EXIT_INVALID
    n = count_homs(p, cx)
    norm = normalization_factor(p, cx)
    inv = n * norm
    result["count"] = n
    result["engine"] = count_engine(p, cx)
    result["normalization"] = format_rational(norm)
    result["invariant"] = format_rational(inv)
    return EXIT_OK


def cmd_classes(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    p = inputs.presentation(args.presentation)
    cx = inputs.coefficients(args.complex)
    if not _require_valid(p, cx, result):
        return EXIT_INVALID
    dec = homotopy_classes(p, cx, cap=_cap(args, DEFAULT_EDGE_CAP))
    result["count"] = dec.count
    result["sizes"] = list(dec.sizes)
    result["representatives"] = [
        [list(layer) for layer in m.colours] for m in dec.representatives]
    return EXIT_OK


def cmd_library(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    spaces = []
    for p in standard_spaces():
        spaces.append({"name": p.name, "cells": list(p.cells)})
        print(f"{p.name} ({','.join(str(c) for c in p.cells)})", file=sys.stderr)
    coefficients = []
    for cx in standard_coefficients():
        coefficients.append({
            "name": cx.name, "L": cx.length,
            "orders": [g.order for g in cx.groups]})
        print(f"{cx.name} orders=[{','.join(str(g.order) for g in cx.groups)}]",
              file=sys.stderr)
    result["spaces"] = spaces
    result["coefficients"] = coefficients
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    results = run_all()
    result["criteria"] = [
        {"number": r.number, "name": r.name, "ok": r.ok, "details": r.details}
        for r in results]
    ok = all(r.ok for r in results)
    result["ok"] = ok
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] criterion {r.number}: {r.name} ({r.details})", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INVALID


class _Parser(argparse.ArgumentParser):
    """Usage errors become ParseError, so they end in a run report (exit 1)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xcomplex",
        description="Exact morphism counting of CW presentations against "
                    "finite crossed complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, presentation=False, complex_=False):
        if presentation:
            sp.add_argument("--presentation", required=True,
                            help="JSON file or builtin space name")
        if complex_:
            sp.add_argument("--complex", required=True,
                            help="JSON file or builtin coefficient name")
        sp.add_argument("--cap", type=int, default=None,
                        help="result/size cap (default from XCOMPLEX_CAP or builtin)")

    sp = sub.add_parser("validate", help="validate documents without computing")
    sp.add_argument("--presentation", help="JSON file or builtin space name")
    sp.add_argument("--complex", help="JSON file or builtin coefficient name")
    sp.add_argument("--group", help="JSON group file or builtin group name")
    sp.add_argument("--check-boundaries", action="store_true",
                    help="also sweep dimension >= 4 attaching data against the complex")
    sp.add_argument("--cap", type=int, default=None)

    sp = sub.add_parser("count", help="count morphisms")
    add_common(sp, presentation=True, complex_=True)
    sp.add_argument("--enumerate", action="store_true", help="list every morphism")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the brute-force count")

    sp = sub.add_parser("invariant", help="compute the rational invariant")
    add_common(sp, presentation=True, complex_=True)

    sp = sub.add_parser("classes", help="homotopy class decomposition")
    add_common(sp, presentation=True, complex_=True)

    sp = sub.add_parser("library", help="list builtin spaces and coefficients")
    sp.add_argument("--cap", type=int, default=None)

    sp = sub.add_parser("selfcheck", help="run the acceptance criteria")
    sp.add_argument("--cap", type=int, default=None)

    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "count": cmd_count,
    "invariant": cmd_invariant,
    "classes": cmd_classes,
    "library": cmd_library,
    "selfcheck": cmd_selfcheck,
}


def main(argv: Optional[list[str]] = None) -> int:
    inputs = _Inputs()
    result: dict[str, Any] = {}
    command = None
    started = time.perf_counter()
    # CPython's int/str digit limit, lifted for the command: answers print in full
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        try:
            args = build_parser().parse_args(argv)
            command = args.command
            _cap(args, 0)  # every subcommand takes --cap: reject a bad one before any work
            if limit:
                sys.set_int_max_str_digits(0)
            code = _COMMANDS[command](args, inputs, result)
        except (ParseError, OSError) as exc:
            result["error"] = str(exc)
            code = EXIT_INPUT
        except (ResultTooLarge, InstanceTooLarge) as exc:
            result["error"] = str(exc)
            code = EXIT_CAP
        except (TargetNotMorphism, AssertionError) as exc:
            result["error"] = f"internal check failed: {exc}"
            code = EXIT_INTERNAL
        except XComplexError as exc:
            result["error"] = str(exc)
            code = EXIT_INVALID
        except Exception as exc:  # any other failure still ends in a report
            traceback.print_exc(file=sys.stderr)
            result["error"] = f"internal error: {type(exc).__name__}: {exc}"
            code = EXIT_INTERNAL
        if "error" in result:
            print(f"error: {result['error']}", file=sys.stderr)
        report = {
            "command": command,
            "version": __version__,
            "inputs": inputs.provenance,
            "result": result,
            "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        print(json.dumps(report, sort_keys=True))
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
