"""Properties over drawn inputs: exact document round trips, and every JSON
document ending in one run report with an input-level exit code."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from xcomplex import cli
from xcomplex.documents import (
    dump_complex,
    dump_group,
    dump_presentation,
    load_complex,
    load_presentation,
)
from xcomplex.library import resolve_coefficients, resolve_space
from xcomplex.presentations import CWPresentation
from xcomplex.randomgen import random_complex, random_presentation

# Files that used to end in an internal error (exit 4) with a traceback.
HOSTILE = {
    "not-utf8": b'{"cells": [1, 1], "name": "\xff"}',
    "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
    "long-int-literal": b'{"cells": [1, ' + b"7" * 5000 + b"]}",
    "superscript-key": json.dumps(
        {"cells": [1, 1, 1], "attach": {"²": []}}, ensure_ascii=False).encode(),
}

COMMANDS = (
    ("validate", "--presentation"),
    ("validate", "--complex"),
    ("validate", "--group"),
    ("count", "--presentation", "{}", "--complex", "cm-z2-z3-flip"),
)


def run_in_process(argv):
    """cli.main on argv; returns (exit code, stdout lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


def run_every_command(content: bytes):
    """Each command of COMMANDS on one file holding `content`:
    a list of (argv, exit code, stdout lines)."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_bytes(content)
        runs = []
        for command in COMMANDS:
            argv = [str(doc) if a == "{}" else a for a in command]
            if len(argv) == 2:
                argv.append(str(doc))
            runs.append((argv, *run_in_process(argv)))
    return runs


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_document_is_input_error(name):
    for argv, code, lines in run_every_command(HOSTILE[name]):
        assert code == 1, (argv, lines)
        assert len(lines) == 1
        assert json.loads(lines[0])["result"]["error"]


words = st.lists(st.tuples(st.integers(-2, 6), st.sampled_from((1, -1))),
                 max_size=4).map(tuple)
names = st.text(max_size=6)


@st.composite
def presentations(draw):
    """Presentations of dimension 0..5 with arbitrary (not necessarily
    valid) attaching data: loading checks the schema, not the algebra."""
    cells = tuple(draw(st.lists(st.integers(-1, 4), min_size=1, max_size=6)))
    dim = len(cells) - 1
    attach2 = tuple(draw(st.lists(words, max_size=3))) if dim >= 2 else ()

    def terms(n):  # the power is +-1 on a 3-cell, any integer above
        power = st.sampled_from((1, -1)) if n == 3 else st.integers(-10**30, 10**30)
        return st.lists(st.tuples(words, st.integers(-2, 6), power), max_size=3).map(tuple)

    high = tuple(tuple(draw(st.lists(terms(n), max_size=3))) for n in range(3, dim + 1))
    return CWPresentation(cells, attach2, high, name=draw(names))


def through_text(doc):
    return json.loads(json.dumps(doc, ensure_ascii=False))


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_presentation_dump_load_dump_is_exact(p):
    doc = dump_presentation(p)
    assert dump_presentation(load_presentation(through_text(doc))) == doc


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_documents_dump_load_dump_is_exact(seed):
    rng = random.Random(seed)
    cx = random_complex(rng)
    p = random_presentation(rng, cx)
    doc = dump_complex(cx)
    assert dump_complex(load_complex(through_text(doc))) == doc
    doc = dump_presentation(p)
    assert dump_presentation(load_presentation(through_text(doc))) == doc


KEYS = ("cells", "attach", "2", "3", "4", "L", "groups", "boundaries", "actions",
        "mul", "order", "name")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | names,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | names, inner, max_size=5)),
    max_leaves=24)
VALID = ([dump_presentation(resolve_space(n)) for n in ("torus", "rp2", "disk:3", "sphere:4")]
         + [dump_complex(resolve_coefficients(n)) for n in ("cm-z2-z3-flip", "l3-z2")]
         + [dump_group(resolve_coefficients("s3").groups[0])])


def slots(obj):
    """(container, key) of every value nested in obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in list(items):
        yield obj, key
        yield from slots(value)


@st.composite
def near_valid(draw):
    """A valid document with up to three values replaced by drawn JSON,
    mostly small ints in place of ints."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    for _ in range(draw(st.integers(0, 3))):
        parent, key = draw(st.sampled_from(list(slots(doc))))
        small = type(parent[key]) is int and draw(st.integers(0, 3))
        parent[key] = draw(st.integers(-3, 8) if small else json_values)
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given((json_values | near_valid()).map(
    lambda doc: json.dumps(doc, ensure_ascii=False).encode()))
@example(HOSTILE["not-utf8"])
@example(HOSTILE["nested-too-deep"])
@example(HOSTILE["long-int-literal"])
@example(HOSTILE["superscript-key"])
def test_any_json_document_ends_in_one_report(content):
    """`validate` and `count` print exactly one JSON report line and exit 0,
    1 or 2 on any JSON file.  `classes` against complexes of length >= 3 is
    left out: a valid presentation whose 4-cell boundary is not a cycle
    still ends there in an internal error (exit 4), an open defect."""
    for argv, code, lines in run_every_command(content):
        assert code in (0, 1, 2), (argv, lines)
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["command"] == argv[0]
