"""JSON documents for groups, complexes and presentations.

Formats (all indices 0-based, identity at 0):

  group          {"order": n, "mul": [[...]], "name"?: str}
  complex        {"L": n, "groups": [group, ...],
                  "boundaries": [[image array], ...],     # d_2 .. d_L
                  "actions": [[[...]], ...],              # act_2 .. act_L
                  "name"?: str}
  presentation   {"cells": [1, l1, l2, ...],
                  "attach": {"2": [word, ...],
                             "3": [terms3, ...],
                             "4": [terms, ...], ...},
                  "name"?: str}

  word           [[gen, exp], ...]           exp in {1, -1}
  terms3         [[word, gen, exp], ...]     exp in {1, -1}
  terms          [[coef, word, gen], ...]    coef any integer

Both term layouts load as the one `Terms` form of `presentations`,
(word, gen, exp or coef), and `dump_presentation` writes them back.

Shape and schema problems raise ParseError naming the offending path;
algebraic validity is the business of the validators, not this module.
`read_regular` reads a document through one descriptor, and `read_json`
parses those bytes.  It turns every unreadable document into a ParseError
too: bytes that are not UTF-8, nesting past the parser's recursion limit,
and integer literals of more than MAX_DIGITS digits, which it refuses
before converting them, so the cost of parsing stays linear in the file's
size whatever CPython's own int/str limit is set to.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain
from pathlib import Path
from typing import Any

from .complexes import FiniteCrossedComplex
from .errors import DimensionMismatch, ParseError
from .groups import FiniteGroup, GroupAction, GroupHom, table_group
from .presentations import CWPresentation, Terms, Word

# CPython's default bound on int/str conversion (sys.int_info)
MAX_DIGITS = 4300
_DIGITS = bytes(48 if 48 <= b <= 57 else 32 for b in range(256))  # digit -> "0", else " "
# non-blocking, so that opening a FIFO never waits for a writer; binary where text mode exists
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def _expect(cond: bool, path: str, note: str) -> None:
    if not cond:
        raise ParseError(f"{path}: {note}")


def _is_int(v: Any) -> bool:
    """A JSON integer: not a float, and not a boolean, which Python counts as an int."""
    return type(v) is int


def _int_row(row: Any, path: str) -> None:
    """ParseError unless `row` is an array of integers, naming the first bad entry."""
    _expect(isinstance(row, list), path, "expected an array")
    if not set(map(type, row)) <= {int}:  # one pass; entries are visited only to name the bad one
        j = next(j for j, v in enumerate(row) if not _is_int(v))
        _expect(False, f"{path}[{j}]", "expected an integer")


def _int_matrix(obj: Any, path: str) -> list[list[int]]:
    _expect(isinstance(obj, list) and obj, path, "expected a non-empty array of arrays")
    # one type pass over the rows and one over their entries; rows are
    # scanned only to name the first bad one
    if not (set(map(type, obj)) <= {list} and set(map(type, chain.from_iterable(obj))) <= {int}):
        for i, row in enumerate(obj):
            _int_row(row, f"{path}[{i}]")
    return obj


def _in_range(rows: list[list[int]], bounds: list[int], path: str, what: str) -> None:
    """ParseError naming the first entry rows[j][k] outside 0..bounds[j]-1;
    every row is a non-empty list of integers."""
    for j, (row, bound) in enumerate(zip(rows, bounds)):
        if min(row) < 0 or max(row) >= bound:
            k = next(k for k, v in enumerate(row) if not 0 <= v < bound)
            _expect(False, f"{path}[{j}][{k}]", f"{what} {row[k]} out of range 0..{bound - 1}")


def load_group_table(obj: Any, path: str = "group") -> FiniteGroup:
    """A group document with the shape checks of `table_group` only."""
    _expect(isinstance(obj, dict), path, "expected an object")
    _expect("mul" in obj, path, "missing key 'mul'")
    mul = _int_matrix(obj["mul"], f"{path}.mul")
    if "order" in obj:
        _expect(_is_int(obj["order"]) and obj["order"] == len(mul), f"{path}.order",
                f"declared order {obj['order']!r}; expected the integer {len(mul)}, "
                "the rows of mul")
    name = obj.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    try:
        return table_group(mul, name=name)
    except DimensionMismatch as exc:
        raise ParseError(f"{path}.mul: {exc}") from exc


def load_complex(obj: Any, path: str = "complex") -> FiniteCrossedComplex:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in ("L", "groups", "boundaries", "actions"):
        _expect(key in obj, path, f"missing key '{key}'")
    length = obj["L"]
    _expect(_is_int(length) and length >= 1, f"{path}.L", "expected an integer >= 1")
    gs = obj["groups"]
    _expect(isinstance(gs, list) and len(gs) == length,
            f"{path}.groups", f"expected {length} groups")
    groups = tuple(load_group_table(g, f"{path}.groups[{i}]")
                   for i, g in enumerate(gs))
    bds = obj["boundaries"]
    acts = obj["actions"]
    _expect(isinstance(bds, list) and len(bds) == length - 1,
            f"{path}.boundaries", f"expected {length - 1} image arrays")
    _expect(isinstance(acts, list) and len(acts) == length - 1,
            f"{path}.actions", f"expected {length - 1} action tables")
    boundaries = []
    for i, img in enumerate(bds):
        where = f"{path}.boundaries[{i}]"
        _int_row(img, where)
        _expect(len(img) == groups[i + 1].order, where,
                f"expected {groups[i + 1].order} entries")
        boundaries.append(GroupHom(groups[i + 1], groups[i], tuple(img)))
    actions = []
    for i, table in enumerate(acts):
        where = f"{path}.actions[{i}]"
        rows = _int_matrix(table, where)
        _expect(len(rows) == groups[0].order, where,
                f"expected {groups[0].order} rows")
        if set(map(len, rows)) != {groups[i + 1].order}:  # name the first short or long row
            for j, row in enumerate(rows):
                _expect(len(row) == groups[i + 1].order, f"{where}[{j}]",
                        f"expected {groups[i + 1].order} entries")
        actions.append(GroupAction(groups[0], groups[i + 1], tuple(map(tuple, rows))))
    name = obj.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    # entries outside their group come last: a document that a check above
    # rejects keeps that error
    _in_range(bds, [g.order for g in groups], f"{path}.boundaries", "image value")
    for i, table in enumerate(acts):
        _in_range(table, [groups[i + 1].order] * len(table), f"{path}.actions[{i}]",
                  "action value")
    return FiniteCrossedComplex(groups, tuple(boundaries), tuple(actions), name=name)


def _load_word(obj: Any, path: str) -> Word:
    _expect(isinstance(obj, list), path, "expected an array of [gen, exp] pairs")
    for i, letter in enumerate(obj):  # one test per letter: paths are formatted for a bad one
        if not (isinstance(letter, list) and len(letter) == 2 and type(letter[0]) is int
                and type(letter[1]) is int and letter[1] in (1, -1)):
            at = f"{path}[{i}]"
            _expect(isinstance(letter, list) and len(letter) == 2, at, "expected [gen, exp]")
            _expect(_is_int(letter[0]), f"{at}[0]", "expected an integer generator index")
            _expect(False, f"{at}[1]", "expected exponent 1 or -1")
    return tuple(map(tuple, obj))


def _load_terms(obj: Any, path: str, n: int) -> Terms:
    """An n-cell's Terms (word, cell, power) from their JSON layout:
    [word, gen, exp] with exp = +-1 when n = 3, [coef, word, gen] above."""
    shape = "[word, gen, exp]" if n == 3 else "[coef, word, gen]"
    _expect(isinstance(obj, list), path, f"expected an array of {shape} terms")
    out = []
    for i, term in enumerate(obj):
        at = f"{path}[{i}]"
        _expect(isinstance(term, list) and len(term) == 3, at, f"expected {shape}")
        if n == 3:
            w, g, e = term
            word = _load_word(w, f"{at}[0]")
            _expect(_is_int(g), f"{at}[1]", "expected an integer 2-cell index")
            _expect(_is_int(e) and e in (1, -1), f"{at}[2]", "expected exponent 1 or -1")
        else:
            e, w, g = term
            _expect(_is_int(e), f"{at}[0]", "expected an integer coefficient")
            word = _load_word(w, f"{at}[1]")
            _expect(_is_int(g), f"{at}[2]", "expected an integer cell index")
        out.append((word, g, e))
    return tuple(out)


def load_presentation(obj: Any, path: str = "presentation") -> CWPresentation:
    _expect(isinstance(obj, dict), path, "expected an object")
    _expect("cells" in obj, path, "missing key 'cells'")
    cells = obj["cells"]
    _expect(isinstance(cells, list) and cells, f"{path}.cells",
            "expected a non-empty array of counts")
    for i, v in enumerate(cells):
        _expect(_is_int(v), f"{path}.cells[{i}]", "expected an integer")
    attach = obj.get("attach", {})
    _expect(isinstance(attach, dict), f"{path}.attach", "expected an object")
    dim = len(cells) - 1
    known = {}
    for key, val in attach.items():
        _expect(key.isascii() and key.isdigit() and key == str(n := parse_int(key)) and n >= 2,
                f"{path}.attach.{key}", "keys must be dimensions >= 2 without leading zeros")
        _expect(n <= dim, f"{path}.attach.{key}", f"presentation has dimension {dim}")
        _expect(isinstance(val, list), f"{path}.attach.{key}", "expected an array")
        known[n] = val
    attach2 = tuple(
        _load_word(w, f"{path}.attach.2[{i}]")
        for i, w in enumerate(known.get(2, [])))
    terms = tuple(
        tuple(_load_terms(t, f"{path}.attach.{n}[{i}]", n)
              for i, t in enumerate(known.get(n, [])))
        for n in range(3, dim + 1))
    name = obj.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    return CWPresentation(tuple(cells), attach2, terms, name=name)


def dump_group(g: FiniteGroup) -> dict:
    out: dict[str, Any] = {"order": g.order, "mul": [list(r) for r in g.mul]}
    if g.name:
        out["name"] = g.name
    return out


def dump_complex(cx: FiniteCrossedComplex) -> dict:
    out: dict[str, Any] = {
        "L": cx.length,
        "groups": [dump_group(g) for g in cx.groups],
        "boundaries": [list(bd.image) for bd in cx.boundaries],
        "actions": [[list(r) for r in a.act] for a in cx.actions],
    }
    if cx.name:
        out["name"] = cx.name
    return out


def dump_presentation(p: CWPresentation) -> dict:
    attach: dict[str, Any] = {}
    if p.attach2:
        attach["2"] = [[list(l) for l in w] for w in p.attach2]
    for n in range(3, p.dim + 1):
        if data := p.terms(n):
            attach[str(n)] = [
                [[[list(l) for l in w], gen, e] if n == 3 else [e, [list(l) for l in w], gen]
                 for w, gen, e in terms]
                for terms in data]
    out: dict[str, Any] = {"cells": list(p.cells), "attach": attach}
    if p.name:
        out["name"] = p.name
    return out


def parse_int(literal: str) -> int:
    """An integer literal of at most MAX_DIGITS digits; longer ones raise
    ParseError before any conversion."""
    _expect(len(literal.lstrip("-")) <= MAX_DIGITS, "integer literal",
            f"more than {MAX_DIGITS} digits")
    return int(literal)


def read_regular(path: str) -> bytes | None:
    """The bytes of the regular file at `path`, opened once and checked with
    fstat on that descriptor; None when `path` names no regular file (it is
    missing, too long, a directory, a FIFO, a device, a symlink loop or holds
    a NUL byte).  A regular file that cannot be opened raises its OSError."""
    try:
        fd = os.open(path, _READ_FLAGS)
    except (OSError, ValueError):
        if os.path.isfile(path):  # False, not raised, on any OSError or ValueError
            raise
        return None
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            return None
        parts = [os.read(fd, st.st_size + 1)]
        while parts[-1]:  # a short read, or a file that grew since fstat
            parts.append(os.read(fd, 1 << 16))
        return b"".join(parts)
    finally:
        os.close(fd)


def read_json(path: str | Path, data: bytes | None = None) -> Any:
    """Parse a UTF-8 JSON document: `data`, the bytes read from `path`, or
    else the file at `path`.  Malformed content raises ParseError with
    position, unreadable content a ParseError naming the cause."""
    try:
        if data is None:
            data = Path(path).read_bytes()
        # a Python parse_int costs ten times the parse: hook it only past a long digit run
        hook = parse_int if b"0" * (MAX_DIGITS + 1) in data.translate(_DIGITS) else None
        return json.loads(data.decode("utf-8"), parse_int=hook)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError, ParseError) as exc:  # see module docstring
        raise ParseError(f"{path}: {exc}") from exc
