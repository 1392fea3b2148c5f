"""Benchmark of the xcomplex command line: seeded inputs, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates the workload's inputs
from the seed as JSON documents under .perfbench-out/, computes every
answer by an independent route (reference.py), and then starts fresh
interpreters (worker.py) that call `xcomplex.cli.main(argv)` in-process:

  * set-up-only interpreters before and after the timed one (4 to 10 on
    each side, as many as fit in 1.5 s) plus the timed one give 9 to 21
    samples of set-up time (import of xcomplex.cli plus one load and
    validation of every document), of which the median is reported;
  * the timed interpreter repeats passes over all ops for S seconds of wall
    time and times each op in CPU seconds; per op the median over passes
    is kept.

CPU time, not wall time, is measured: the program is single-threaded and
does no blocking I/O, so an op's CPU time is its wall time on an
uncontended core, while wall time on a shared machine also carries other
tenants' load (reported as bench.steal_frac, not gated).  CPU time still
stretches when another tenant shares the core's caches and hardware
threads, so each time is scaled to a reference core: it is multiplied by
REF_CALIBRATION_S over the CPU time of a fixed calibration loop run next
to it (worker.calibrate).  Scaled times are what the metrics report; the
raw sum and the median slowdown (bench.contention) go to the diagnostics.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s        median set-up CPU seconds
  ops_per_cpu_s  ops / sum of per-op median CPU seconds
  op_p50_ms      median of per-op median CPU ms
  op_tail_ms     per-op median CPU ms at the highest percentile with at
                 least ten ops above it (percentile and sample count go to
                 the diagnostics line)
  peak_rss_mb    peak resident set (VmHWM) of the timed interpreter
  ok_frac        share of op executions whose answer checked out
With --trace 1 the timed interpreter alternates untraced passes with passes
that record spans around the layer entry points (tracing.py); the last
line reports the per-layer metrics, medians over traced passes.  A layer
whose span never fires on a workload that must reach it aborts the run.

The line before the last is a diagnostics object: machine, run shape and a
digest of all answers.  The full record, with one answer digest per op and
the spans of each op of the last traced pass, goes to
.perfbench-out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
# set-up-only interpreters on each side of the timed one: at least the
# minimum, and more while the side's wall-time budget lasts
SETUP_RUNS_PER_SIDE = (4, 10)
SETUP_BUDGET_PER_SIDE_S = 1.5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# CPU times are reported as on a core where worker.calibrate() takes this long
REF_CALIBRATION_S = 0.003
CHILD_TIMEOUT_S = 170

# Spans every traced pass of a workload must record.
_ALWAYS = {"cli.main", "cli.read_json", "cli.load_presentation", "cli.load_complex",
           "cli.validate", "cli.validate_presentation"}
EXPECTED_SPANS = {
    "count-surfaces": _ALWAYS | {"cli.count_homs"},
    "classes-crossed": _ALWAYS | {"cli.homotopy_classes", "homotopies.enumerate_homs"},
    "tower-enumerate": _ALWAYS | {"cli.count_homs", "cli.enumerate_homs",
                                  "cli.normalization_factor"},
    "large-tables": _ALWAYS | {"cli.count_homs", "cli.normalization_factor"},
}

# per-layer metric -> span names whose self times it sums
LAYER_TIMES = {
    "enumeration.count_ms": ["cli.count_homs"],
    "enumeration.enumerate_ms": ["cli.enumerate_homs", "homotopies.enumerate_homs"],
    "homotopies.classes_ms": ["cli.homotopy_classes"],
    "documents.load_ms": ["cli.read_json", "cli.load_presentation", "cli.load_complex"],
    "complexes.validate_ms": ["cli.validate"],
    "presentations.validate_ms": ["cli.validate_presentation"],
    "invariant.normalization_ms": ["cli.normalization_factor"],
    "cli.self_ms": ["cli.main"],
}
# rate metric -> (counter, time)
LAYER_RATES = {
    "enumeration.colourings_per_ms": ("enumeration.layer1_colourings", "enumeration.count_ms"),
    "enumeration.morphisms_per_ms": ("enumeration.morphisms", "enumeration.enumerate_ms"),
    "homotopies.space_per_ms": ("homotopies.homotopy_space", "homotopies.classes_ms"),
}
UNITS = {"setup_s": "s", "ops_per_cpu_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB", "ok_frac": "frac", "documents.bytes": "bytes",
         "cli.report_bytes": "bytes", "bench.wall_s": "s", "bench.steal_frac": "frac",
         "bench.trace_overhead_frac": "frac"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_ms"):
        return "1/ms"
    return "ms" if name.endswith("_ms") else "count"


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Op:
    """One generated op: its documents, argv and independently known answer."""

    def __init__(self, spec, pres_path, cx_path, sizes):
        self.command = spec["command"]
        self.extra = spec["extra"]
        self.pres, self.cx = spec["pres"], spec["cx"]
        self.argv = [self.command, "--presentation", pres_path, "--complex", cx_path,
                     *self.extra]
        self.doc_bytes = sizes[pres_path] + sizes[cx_path]
        self.count = reference.count_homs(self.pres, self.cx)
        genus = reference.surface_genus(self.pres)
        if genus and len(self.cx["groups"]) == 1:
            closed = reference.mednykh(self.cx["groups"][0], genus)
            if closed != self.count:
                raise RuntimeError(f"reference routes disagree on {self.label}: "
                                   f"{self.count} vs Mednykh {closed}")
        self.morphisms = None
        if "--enumerate" in self.extra:
            self.morphisms = sorted(reference.enumerate_homs(self.pres, self.cx))
            if len(self.morphisms) != self.count:
                raise RuntimeError(f"reference routes disagree on {self.label}")

    @property
    def label(self):
        return " ".join([self.command, *self.extra, self.pres["name"], "x",
                         self.cx["name"]])

    def check(self, report):
        """Reason the report's answer is wrong, or None."""
        result = report.get("result", {})
        if "error" in result:
            return f"error: {result['error']}"
        if self.command == "classes":
            sizes, reps = result["sizes"], result["representatives"]
            if sum(sizes) != self.count:
                return f"class sizes sum to {sum(sizes)}, expected {self.count}"
            if not (result["count"] == len(sizes) == len(reps)) or min(sizes, default=1) < 1:
                return "class count, sizes and representatives disagree"
            if len({json.dumps(r) for r in reps}) != len(reps):
                return "repeated representative"
            for rep in reps:
                if not reference.is_morphism(self.pres, self.cx, rep):
                    return f"representative {rep} is not a morphism"
            return None
        if result.get("count") != self.count:
            return f"count {result.get('count')}, expected {self.count}"
        if self.morphisms is not None:
            listed = sorted(tuple(tuple(layer) for layer in m) for m in result["morphisms"])
            if listed != self.morphisms:
                return "listed morphisms differ from the reference listing"
        if self.command == "invariant":
            norm = reference.normalization(self.pres, self.cx)
            if (result.get("normalization"), result.get("invariant")) != (
                    reference.fmt(norm), reference.fmt(norm * self.count)):
                return f"invariant {result.get('invariant')}, expected " \
                       f"{reference.fmt(norm * self.count)}"
        return None

    def counters(self, report):
        """Work counts of this op, per layer, for the traced run."""
        cx, p = self.cx, self.pres
        out = dict.fromkeys(("enumeration.layer1_colourings", "enumeration.morphisms",
                             "homotopies.homotopy_space", "homotopies.classes"), 0)
        if self.command in ("count", "invariant"):
            out["enumeration.layer1_colourings"] = cx["groups"][0]["order"] ** p["cells"][1] \
                if len(p["cells"]) > 1 else 1
        if self.command == "classes" or self.morphisms is not None:
            out["enumeration.morphisms"] = self.count
        if self.command == "classes":
            out["homotopies.homotopy_space"] = \
                self.count * reference.homotopies_per_morphism(p, cx)
            out["homotopies.classes"] = report["result"]["count"]
        out["documents.bytes"] = self.doc_bytes
        out["groups.assoc_triples"] = sum(g["order"] ** 3 for g in cx["groups"])
        return out


def _write_docs(specs, work):
    """Write each distinct document once; returns (ops, doc list)."""
    paths, sizes, docs = {}, {}, []
    ops_paths = []
    for spec in specs:
        pair = []
        for kind, doc in (("pres", spec["pres"]), ("cx", workloads.complex_doc(spec["cx"]))):
            text = json.dumps(doc, separators=(",", ":"))
            if text not in paths:
                path = os.path.join(work, f"{kind}{len(paths)}.json")
                with open(path, "w") as fh:
                    fh.write(text)
                paths[text] = path
                sizes[path] = len(text.encode())
                docs.append({"path": path, "kind": kind})
            pair.append(paths[text])
        ops_paths.append(pair)
    ops = [Op(spec, p, c, sizes) for spec, (p, c) in zip(specs, ops_paths)]
    return ops, docs


def _child(mode, ops, docs, work, seconds, tag):
    spec_path = os.path.join(work, f"spec-{tag}.json")
    out_path = os.path.join(work, f"result-{tag}.json")
    report_dir = os.path.join(work, "reports")
    os.makedirs(report_dir, exist_ok=True)
    with open(spec_path, "w") as fh:
        json.dump({"root": ".", "mode": mode, "seconds": seconds,
                   "min_passes": MIN_PASSES if mode == "timed" else MIN_TRACED_PASSES,
                   "min_traced_passes": MIN_TRACED_PASSES if mode == "traced" else 0,
                   "docs": docs,
                   "ops": [op.argv for op in ops], "report_dir": report_dir,
                   "ref_calibration_s": REF_CALIBRATION_S, "out": out_path}, fh)
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"), spec_path],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} interpreter failed ({proc.returncode}):\n"
                           f"{proc.stderr.strip()}")
    with open(out_path) as fh:
        return json.load(fh)


def _setup_runs(ops, docs, work, side):
    least, most = SETUP_RUNS_PER_SIDE
    started = time.perf_counter()
    out = []
    while len(out) < least or (len(out) < most and
                               time.perf_counter() - started < SETUP_BUDGET_PER_SIDE_S):
        out.append(_child("setup", ops, docs, work, 0, f"setup-{side}{len(out)}"))
    return out


def _tail(values):
    """(value, percentile) at the highest percentile with >= 10 values above."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _machine():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "processes": 1, "threads": 1,
            "loadavg_1m": os.getloadavg()[0]}


def _layer_metrics(ops, reports, report_bytes, timed, workload):
    counters = {"cli.report_bytes": report_bytes}
    for op, report in zip(ops, reports):
        for name, value in op.counters(report).items():
            counters[name] = counters.get(name, 0) + value
    per_pass = []
    for selfs in timed["layer_passes"]:
        missing = EXPECTED_SPANS[workload] - set(selfs)
        if missing:
            raise RuntimeError(f"spans never fired on {workload}: {sorted(missing)}")
        per_pass.append({metric: 1000.0 * sum(selfs.get(n, 0.0) for n in names)
                         for metric, names in LAYER_TIMES.items()})
    metrics = {m: statistics.median(p[m] for p in per_pass) for m in LAYER_TIMES}
    metrics.update(counters)
    for rate, (count, ms) in LAYER_RATES.items():
        metrics[rate] = metrics[count] / metrics[ms] if metrics[ms] else 0.0
    traced = [scaled for is_traced, scaled in timed["passes"] if is_traced]
    plain = [scaled for is_traced, scaled in timed["passes"] if not is_traced]
    metrics["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def run(workload, seed, seconds, trace):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xcomplex", "cli.py")):
        raise SystemExit("run from the root of an xcomplex checkout (no src/xcomplex/cli.py)")
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ops, docs = _write_docs(workloads.generate(workload, seed, reference.count_homs),
                                work)
        # set-up samples come from both sides of the timed run, so that they
        # span the same stretch of the machine's load as the ops
        children = [] if trace else _setup_runs(ops, docs, work, "before")
        timed = _child("traced" if trace else "timed", ops, docs, work, seconds, "timed")
        children.append(timed)
        if not trace:
            children += _setup_runs(ops, docs, work, "after")
        setups = [c["setup_cpu_s"] * REF_CALIBRATION_S / c["setup_cal_s"] for c in children]
        reports, rows, failed, report_bytes = [], [], 0, 0
        for i, op in enumerate(ops):
            with open(os.path.join(work, "reports", f"op{i}.json")) as fh:
                text = fh.read()
            report_bytes += len(text.encode())
            try:
                report = json.loads(text)
                reason = timed["errors"][i] or op.check(report)
            except (ValueError, KeyError, TypeError) as exc:
                report, reason = {}, f"unreadable report: {exc!r}"
            if not reason and not timed["stable"][i]:
                reason = "report changed between passes"
            if reason:
                failed += len(timed["samples"][i])
            reports.append(report)
            samples = timed["samples"][i]
            rows.append({"op": op.label, "argv": op.argv,
                         "cpu_ms": 1000.0 * statistics.median(
                             cpu * REF_CALIBRATION_S / cal for cpu, cal in samples),
                         "raw_cpu_ms": 1000.0 * statistics.median(cpu for cpu, _ in samples),
                         "answer_sha256": _digest(report.get("result")),
                         "failure": reason})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(c) for c in timed["samples"])
    calibrations = [cal for samples in timed["samples"] for _, cal in samples]
    op_ms = [row["cpu_ms"] for row in rows]
    tail, tail_pct = _tail(op_ms)
    diagnostics = {
        "workload": workload, "seed": seed, "trace": trace, "machine": _machine(),
        "ops": len(ops), "passes": sum(1 for p in timed["passes"] if not p[0]),
        "traced_passes": sum(1 for p in timed["passes"] if p[0]),
        "bench.contention": statistics.median(calibrations) / REF_CALIBRATION_S,
        "op_tail_percentile": tail_pct, "op_samples": len(op_ms),
        "bench.wall_s": timed["wall_s"],
        "bench.steal_frac": 1.0 - timed["cpu_s"] / timed["wall_s"],
        "setup_samples_s": setups,
        "raw_op_cpu_ms": sum(row["raw_cpu_ms"] for row in rows),
        "answers_sha256": _digest([row["answer_sha256"] for row in rows]),
        "failures": [row for row in rows if row["failure"]],
    }
    if trace:
        metrics = _layer_metrics(ops, reports, report_bytes, timed, workload)
        metrics["bench.wall_s"] = diagnostics["bench.wall_s"]
        metrics["bench.steal_frac"] = diagnostics["bench.steal_frac"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_cpu_s": len(op_ms) / (sum(op_ms) / 1000.0),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail,
            "peak_rss_mb": timed["maxrss_kb"] / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    record = dict(diagnostics, metrics=metrics, per_op=rows,
                  spans=timed.get("spans", []))
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(diagnostics, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": _unit(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    run(args.workload, args.seed, args.seconds, args.trace)
    print(f"run took {time.perf_counter() - started:.1f} s wall", file=sys.stderr)


if __name__ == "__main__":
    main()
