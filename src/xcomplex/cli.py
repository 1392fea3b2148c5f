"""Command line entry point.

    xcomplex validate  [--presentation X] [--complex X] [--group X] [--check-boundaries]
    xcomplex count      --presentation X --complex X [--enumerate] [--oracle]
    xcomplex invariant  --presentation X --complex X
    xcomplex classes    --presentation X --complex X
    xcomplex library
    xcomplex selfcheck

validate, count, invariant and classes take --cap N, a bound on what a
command enumerates, on the entries of a sized builtin, on the decimal
digits of the answer and on the counting engine's work estimate: 10^6 by
default for every command (`--help` shows it).  Answers are weighed by
their digits from the cell counts and group orders alone (`cell_orders`),
before anything is planned (`weigh_answer`).  Every listing is admitted
by `enumerate_homs`, in one order: the count's digits, estimate and
morphisms, then the walk; classes weighs its edges last.  A refused
number past 4,300 digits is reported by its magnitude (`printable`).
X is a JSON file path or, when no such regular file exists, a builtin
name from `library`.  Each document is read once, and the provenance hash
in the report is of the bytes parsed.

A machine-readable run report goes to stdout as JSON; human-oriented lines
go to stderr.  Exit codes: 0 success, 1 input error, 2 validation failure,
3 cap exceeded, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback
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
    read_regular,
)
from .enumeration import (
    DEFAULT_ENUM_CAP,
    CountPlan,
    boundary_defect_report,
    count_engine,
    count_homs,
    count_homs_bruteforce,
    enumerate_homs,
    printable,
    refuse_count,
    weigh_answer,
)
from .errors import (
    InstanceTooLarge,
    ParseError,
    ResultTooLarge,
    TargetNotMorphism,
    XComplexError,
)
from .groups import FiniteGroup, group_violations
from .homotopies import homotopy_classes
from .invariant import format_rational, normalization_factor
from .library import STANDARD_COEFFICIENTS, STANDARD_SPACES, resolve_coefficients, resolve_space
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


def _builtin_group(ref: str, cap: int) -> FiniteGroup:
    cx = resolve_coefficients(ref, cap)
    if cx.length != 1:
        raise ParseError(f"'{ref}' is not a group document or group name")
    return cx.groups[0]


class _Inputs:
    """Resolved inputs plus provenance hashes for the run report."""

    def __init__(self) -> None:
        self.provenance: dict[str, dict[str, str]] = {}

    def resolve(self, kind: str, ref: str, cap: int) -> Any:
        """The "presentation", "complex" or "group" named by ref: a JSON file
        or, when no such regular file exists, a builtin name of at most `cap`
        entries.  A file is read once, and its hash is of the bytes parsed."""
        # looked up at call time, so that wrappers installed on this module apply
        load, builtin, dump = {
            "presentation": (load_presentation, resolve_space, dump_presentation),
            "complex": (load_complex, resolve_coefficients, dump_complex),
            "group": (load_group_table, _builtin_group, dump_group),
        }[kind]
        data = read_regular(ref)
        if data is not None:
            obj = load(read_json(ref, data))
            self.provenance[kind] = {"source": ref, "sha256": _sha(data)}
        else:
            obj = builtin(ref, cap)
            self.provenance[kind] = {
                "source": f"builtin:{ref}", "sha256": _sha(_canonical(dump(obj)))}
        return obj


def _violations(kind: str, obj: Any) -> list[list]:
    """The failing axioms of a resolved "group", "complex" or "presentation",
    each as [axiom, witness]."""
    if kind == "group":
        found = group_violations(obj)
    elif kind == "complex":
        found = validate(obj).violations
    else:
        found = validate_presentation(obj).violations
    return [[axiom, list(witness)] for axiom, witness in found]


def _on_valid_inputs(command):
    """Run `command(args, p, cx, result)` on the resolved --presentation and
    --complex once both validate; otherwise exit 2 with the violations of
    just the failing ones under result["validation"]."""

    @functools.wraps(command)
    def run(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
        p = inputs.resolve("presentation", args.presentation, args.cap)
        cx = inputs.resolve("complex", args.complex, args.cap)
        failing = {kind: found for kind, obj in (("presentation", p), ("complex", cx))
                   if (found := _violations(kind, obj))}
        if failing:
            result["validation"] = failing
            return EXIT_INVALID
        return command(args, p, cx, result)
    return run


def cmd_validate(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    refs = {"group": args.group, "complex": args.complex, "presentation": args.presentation}
    if not any(refs.values()):
        raise ParseError("validate needs at least one of --presentation/--complex/--group")
    resolved: dict[str, Any] = {}
    reports: dict[str, Any] = {}
    for kind, ref in refs.items():
        if ref:
            resolved[kind] = inputs.resolve(kind, ref, args.cap)
            violations = _violations(kind, resolved[kind])
            reports[kind] = {"ok": not violations, "violations": violations}
    ok = all(rep["ok"] for rep in reports.values())
    if args.check_boundaries:
        p, cx = resolved.get("presentation"), resolved.get("complex")
        if p is None or cx is None or not ok:
            raise ParseError("--check-boundaries needs a valid --presentation and --complex")
        defects = boundary_defect_report(p, cx, cap=args.cap)
        reports["boundary-defects"] = [
            {"dimension": n, "cell": c, "colours": col, "value": v}
            for n, c, col, v in defects]
        ok = ok and not defects
    result["reports"] = reports
    result["ok"] = ok
    return EXIT_OK if ok else EXIT_INVALID


def _plan(args: argparse.Namespace, p: CWPresentation, cx: FiniteCrossedComplex,
          result: dict) -> CountPlan:
    """The plan count_homs runs, with its engine and work estimate reported;
    raises InstanceTooLarge, before planning, when the answer's digits
    exceed --cap (`weigh_answer`, with the normalization for invariant),
    and after, when the estimate does."""
    weigh_answer(p, cx, args.cap, normalization=args.command == "invariant")
    plan = count_engine(p, cx)
    result["engine"], result["estimate"] = plan.engine, printable(plan.estimate)
    refuse_count(plan, args.cap)
    return plan


@_on_valid_inputs
def cmd_count(args: argparse.Namespace, p: CWPresentation, cx: FiniteCrossedComplex,
              result: dict) -> int:
    plan = _plan(args, p, cx, result)
    if args.enumerate:  # the listing plans, counts, refuses and checks itself
        result["morphisms"] = enumerate_homs(p, cx, cap=args.cap)
        n = len(result["morphisms"])
    else:
        n = count_homs(p, cx, plan)
    result["count"] = n
    if args.oracle:
        oracle = count_homs_bruteforce(p, cx, cap=args.cap)
        result["oracle"] = oracle
        result["oracle_agrees"] = oracle == n
        if oracle != n:
            raise AssertionError(f"oracle disagrees: fast {n}, brute {oracle}")
    return EXIT_OK


@_on_valid_inputs
def cmd_invariant(args: argparse.Namespace, p: CWPresentation, cx: FiniteCrossedComplex,
                  result: dict) -> int:
    n = count_homs(p, cx, _plan(args, p, cx, result))
    norm = normalization_factor(p, cx)
    inv = n * norm
    result["count"] = n
    result["normalization"] = format_rational(norm)
    result["invariant"] = format_rational(inv)
    return EXIT_OK


@_on_valid_inputs
def cmd_classes(args: argparse.Namespace, p: CWPresentation, cx: FiniteCrossedComplex,
                result: dict) -> int:
    dec = homotopy_classes(p, cx, cap=args.cap)
    result["count"] = dec.count
    result["sizes"] = dec.sizes
    result["representatives"] = dec.representatives
    return EXIT_OK


def cmd_library(args: argparse.Namespace, inputs: _Inputs, result: dict) -> int:
    spaces = []
    for name in STANDARD_SPACES:
        p = resolve_space(name)
        spaces.append({"name": name, "cells": list(p.cells)})
        print(f"{name} ({','.join(str(c) for c in p.cells)})", file=sys.stderr)
    coefficients = []
    for name in STANDARD_COEFFICIENTS:
        cx = resolve_coefficients(name)
        coefficients.append({
            "name": name, "L": cx.length,
            "orders": [g.order for g in cx.groups]})
        print(f"{name} orders=[{','.join(str(g.order) for g in cx.groups)}]",
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    later `main` call in the process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="xcomplex",
        description="Exact morphism counting of CW presentations against "
                    "finite crossed complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(sp):
        sp.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP,
                        help="result/size cap (default: %(default)s)")

    def add_common(sp):
        sp.add_argument("--presentation", required=True,
                        help="JSON file or builtin space name")
        sp.add_argument("--complex", required=True,
                        help="JSON file or builtin coefficient name")
        add_cap(sp)

    sp = sub.add_parser("validate", help="validate documents without computing")
    sp.add_argument("--presentation", help="JSON file or builtin space name")
    sp.add_argument("--complex", help="JSON file or builtin coefficient name")
    sp.add_argument("--group", help="JSON group file or builtin group name")
    sp.add_argument("--check-boundaries", action="store_true",
                    help="also sweep dimension >= 4 attaching data against the complex")
    add_cap(sp)

    sp = sub.add_parser("count", help="count morphisms")
    add_common(sp)
    sp.add_argument("--enumerate", action="store_true", help="list every morphism")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the brute-force count")

    sp = sub.add_parser("invariant", help="compute the rational invariant")
    add_common(sp)

    sp = sub.add_parser("classes", help="homotopy class decomposition")
    add_common(sp)

    sub.add_parser("library", help="list builtin spaces and coefficients")
    sub.add_parser("selfcheck", help="run the acceptance criteria")

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
            if getattr(args, "cap", 0) < 0:  # library and selfcheck take no cap
                raise ParseError(f"--cap {args.cap} is negative")
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
        # built fresh from ints, strs, lists, tuples and dicts, so it holds no cycle to look for
        print(json.dumps(report, sort_keys=True, check_circular=False))
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
