"""In-memory spans around the program's layer entry points.

Each wrapped function is replaced, in the module namespace its caller
reads it from, by a wrapper that records a span: name, parent span, CPU
start and CPU end.  Spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute) pairs wrapped by the traced run; the span name is
# "<module>.<attribute>" with the package prefix dropped.
MODULES = ("xcomplex.cli", "xcomplex.homotopies")

TRACED = [
    ("xcomplex.cli", "main"),
    ("xcomplex.cli", "read_json"),
    ("xcomplex.cli", "load_presentation"),
    ("xcomplex.cli", "load_complex"),
    ("xcomplex.cli", "validate"),
    ("xcomplex.cli", "validate_presentation"),
    ("xcomplex.cli", "count_homs"),
    ("xcomplex.cli", "enumerate_homs"),
    ("xcomplex.cli", "homotopy_classes"),
    ("xcomplex.cli", "normalization_factor"),
    ("xcomplex.homotopies", "enumerate_homs"),
]


class Tracer:
    """Installs span-recording wrappers and collects the spans they record."""

    def __init__(self, modules):
        """`modules` maps each module name in TRACED to the imported module."""
        self.spans = []  # [name, parent index or -1, cpu start, cpu end]
        self._stack = []
        self._originals = []
        for mod_name, attr in TRACED:
            module = modules[mod_name]
            if not hasattr(module, attr):
                raise RuntimeError(f"{mod_name}.{attr} is gone; the trace would lose a layer")
            self._originals.append((module, attr, getattr(module, attr)))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return wrapper

    def install(self):
        for module, attr, fn in self._originals:
            short = module.__name__.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def take(self):
        """Spans recorded since the last call, and forget them."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans):
    """Total self CPU seconds per span name."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)
