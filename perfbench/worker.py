"""One fresh interpreter of a benchmark run.

    python3 -I perfbench/worker.py SPEC.json

SPEC names the checkout root, the mode, the input documents, the ops (each
an argv for `xcomplex.cli.main`) and where to write the result.  Modes:

  setup   import xcomplex.cli from the checkout's src/, load and validate
          every document once, report the CPU time that took, and exit;
  timed   the same set-up, then passes over all ops until `seconds` of wall
          time have gone (at least `min_passes` passes), timing each op's
          CPU time; the first pass keeps each op's report for checking;
  traced  as timed, alternating untraced passes with passes in which the
          layer entry points record spans.

Every CPU time is paired with the CPU time of a fixed calibration loop: the
mean of one run just before and one just after an op, or of the medians of
three before and three after set-up.  On a shared machine another tenant's
work on the sibling hardware thread slows both alike, so the caller scales
times by ref_calibration_s / calibration.

The program's reports go to files, never to this process's memory, so
that they do not inflate its peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import sys
import time

_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')
_WALK_TABLE = [[(a * 3 + b) % 11 for b in range(11)] for a in range(11)]
_CAL_TABLE = [[(a * 7 + b * 3) % 64 for b in range(64)] for a in range(64)]


def _cal_step(table, seen, i):
    key = (table[i % 64][i % 61], i & 15, i % 7)
    seen[key] = seen.get(key, 0) + 1
    return key


def calibrate():
    """CPU seconds of a fixed mix of Python work.

    Half is a tight table walk, like the group-table sweeps; half is calls,
    tuples, dicts, sorts and JSON, like the searches and the reports.
    Contention slows this mix about as much as it slows either kind of op.
    """
    start = time.process_time()
    mul, acc = _WALK_TABLE, 0
    for i in range(20000):
        acc = mul[acc][i % 11]
    seen, keys = {}, [acc]
    for i in range(6000):
        keys.append(_cal_step(_CAL_TABLE, seen, i))
    for row in [list(r) for r in _CAL_TABLE]:
        row.sort(reverse=True)
    json.dumps(keys[:300])
    return time.process_time() - start


def _import_program(root):
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "xcomplex", "cli.py")):
        raise SystemExit(f"no xcomplex sources under {src}")
    sys.path.insert(0, src)
    cli = importlib.import_module("xcomplex.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def _setup(spec):
    """Import the CLI and load and validate every document once."""
    before = sorted(calibrate() for _ in range(3))[1]
    start = time.process_time()
    cli = _import_program(spec["root"])
    for doc in spec["docs"]:
        data = cli.read_json(doc["path"])
        if doc["kind"] == "pres":
            report = cli.validate_presentation(cli.load_presentation(data))
        else:
            report = cli.validate(cli.load_complex(data))
        if not report.ok:
            raise SystemExit(f"{doc['path']} does not validate: {report}")
    cpu = time.process_time() - start
    after = sorted(calibrate() for _ in range(3))[1]
    return cli, cpu, (before + after) / 2


def _run_op(cli, argv):
    """(exit code or error text, CPU seconds, report text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - start
    return code, cpu, out.getvalue()


class _Runs:
    """Samples of one interpreter's passes over the ops."""

    def __init__(self, spec, cli, tracing=None):
        n = len(spec["ops"])
        self.spec, self.cli = spec, cli
        self.tracing = tracing
        self.tracer = tracing.Tracer(
            {m: importlib.import_module(m) for m in tracing.MODULES}) if tracing else None
        self.samples = [[] for _ in range(n)]  # untraced (CPU, calibration) pairs
        self.errors = [None] * n
        self.digests = [set() for _ in range(n)]
        self.passes = []         # [traced?, scaled op CPU] per pass
        self.layer_passes = []   # {span name: scaled self CPU} per traced pass
        self.last_spans = []     # per op of the last traced pass, its spans

    def one_pass(self, traced):
        layers = {}
        scaled = 0.0
        if traced:
            self.last_spans = []
        after = calibrate()
        for i, argv in enumerate(self.spec["ops"]):
            before = after
            if traced:
                self.tracer.install()
            try:
                code, cpu, text = _run_op(self.cli, argv)
            finally:
                if traced:
                    self.tracer.uninstall()
            after = calibrate()
            cal = (before + after) / 2
            factor = self.spec["ref_calibration_s"] / cal
            scaled += cpu * factor
            if traced:
                spans = self.tracer.take()
                for name, value in self.tracing.self_times(spans).items():
                    layers[name] = layers.get(name, 0.0) + value * factor
                self.last_spans.append(spans)
            else:
                self.samples[i].append((cpu, cal))
            if code != 0:
                self.errors[i] = str(code)
            self.digests[i].add(hashlib.sha256(_TIMING.sub("", text).encode()).hexdigest())
            if not self.passes:
                with open(os.path.join(self.spec["report_dir"], f"op{i}.json"), "w") as fh:
                    fh.write(text)
        self.passes.append([traced, scaled])
        if traced:
            self.layer_passes.append(layers)

    def run(self):
        """Passes until the time is up, alternating traced ones in if tracing."""
        spec = self.spec
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while True:
            traced = sum(1 for p in self.passes if p[0])
            plain = len(self.passes) - traced
            if (plain >= spec["min_passes"] and traced >= spec["min_traced_passes"]
                    and time.perf_counter() - wall0 >= spec["seconds"]):
                break
            self.one_pass(self.tracer is not None and traced < plain)
        return {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0,
                "passes": self.passes, "layer_passes": self.layer_passes,
                "spans": self.last_spans, "samples": self.samples, "errors": self.errors,
                "stable": [len(d) == 1 for d in self.digests]}


def _peak_rss_kb():
    """Peak resident set of this interpreter.

    ru_maxrss also counts the parent's resident set that an exec'd child
    briefly shared, so the per-address-space VmHWM is read where Linux
    provides it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    cli, setup_cpu, setup_cal = _setup(spec)
    result = {"setup_cpu_s": setup_cpu, "setup_cal_s": setup_cal}
    if spec["mode"] != "setup":
        tracing = None
        if spec["mode"] == "traced":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracing
        result.update(_Runs(spec, cli, tracing).run())
    result["maxrss_kb"] = _peak_rss_kb()
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
