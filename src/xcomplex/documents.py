"""JSON documents for groups, complexes and presentations.

Formats (all indices 0-based, identity at 0):

  group          {"order": n, "mul": [[...]], "name"?: str}
  complex        {"L": n, "groups": [group, ...],
                  "boundaries": [[image array], ...],     # d_2 .. d_L
                  "actions": [[[...]], ...],              # act_2 .. act_L
                  "name"?: str}
  presentation   {"cells": [1, l1, l2, ...],
                  "attach": {"2": [word, ...],
                             "3": [crossedword, ...],
                             "4": [moduleelt, ...], ...},
                  "name"?: str}

  word           [[gen, exp], ...]           exp in {1, -1}
  crossedword    [[word, gen, exp], ...]
  moduleelt      [[coef, word, gen], ...]    coef any integer

Shape and schema problems raise ParseError naming the offending path;
algebraic validity is the business of the validators, not this module.
`read_json` turns every unreadable file into a ParseError too: bytes that
are not UTF-8, nesting past the parser's recursion limit, and integer
literals of more than MAX_DIGITS digits, which it refuses before converting
them, so the cost of parsing stays linear in the file's size whatever
CPython's own int/str limit is set to.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .complexes import FiniteCrossedComplex
from .errors import DimensionMismatch, ParseError
from .groups import FiniteGroup, GroupAction, GroupHom, table_group
from .presentations import CrossedWord, CWPresentation, ModuleElt, Word

# CPython's default bound on int/str conversion (sys.int_info)
MAX_DIGITS = 4300
_DIGITS = bytes(48 if 48 <= b <= 57 else 32 for b in range(256))  # digit -> "0", else " "


def _expect(cond: bool, path: str, note: str) -> None:
    if not cond:
        raise ParseError(f"{path}: {note}")


def _int_matrix(obj: Any, path: str) -> list[list[int]]:
    _expect(isinstance(obj, list) and obj, path, "expected a non-empty array of arrays")
    out = []
    for i, row in enumerate(obj):
        _expect(isinstance(row, list), f"{path}[{i}]", "expected an array")
        if not all(type(v) is int for v in row):
            for j, v in enumerate(row):
                _expect(isinstance(v, int) and not isinstance(v, bool),
                        f"{path}[{i}][{j}]", "expected an integer")
        out.append(list(row))
    return out


def load_group_table(obj: Any, path: str = "group") -> FiniteGroup:
    """A group document with the shape checks of `table_group` only."""
    _expect(isinstance(obj, dict), path, "expected an object")
    _expect("mul" in obj, path, "missing key 'mul'")
    mul = _int_matrix(obj["mul"], f"{path}.mul")
    if "order" in obj:
        _expect(obj["order"] == len(mul), f"{path}.order",
                f"declared order {obj['order']} but mul has {len(mul)} rows")
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
    _expect(isinstance(length, int) and length >= 1, f"{path}.L", "expected an integer >= 1")
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
        _expect(isinstance(img, list), where, "expected an array")
        for j, v in enumerate(img):
            _expect(isinstance(v, int) and not isinstance(v, bool),
                    f"{where}[{j}]", "expected an integer")
        _expect(len(img) == groups[i + 1].order, where,
                f"expected {groups[i + 1].order} entries")
        boundaries.append(GroupHom(groups[i + 1], groups[i], tuple(img)))
    actions = []
    for i, table in enumerate(acts):
        where = f"{path}.actions[{i}]"
        rows = _int_matrix(table, where)
        _expect(len(rows) == groups[0].order, where,
                f"expected {groups[0].order} rows")
        for j, row in enumerate(rows):
            _expect(len(row) == groups[i + 1].order, f"{where}[{j}]",
                    f"expected {groups[i + 1].order} entries")
        actions.append(GroupAction(groups[0], groups[i + 1],
                                   tuple(tuple(r) for r in rows)))
    name = obj.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    return FiniteCrossedComplex(groups, tuple(boundaries), tuple(actions), name=name)


def _load_word(obj: Any, path: str) -> Word:
    _expect(isinstance(obj, list), path, "expected an array of [gen, exp] pairs")
    out = []
    for i, letter in enumerate(obj):
        _expect(isinstance(letter, list) and len(letter) == 2,
                f"{path}[{i}]", "expected [gen, exp]")
        g, e = letter
        _expect(isinstance(g, int) and not isinstance(g, bool), f"{path}[{i}][0]",
                "expected an integer generator index")
        _expect(e in (1, -1), f"{path}[{i}][1]", "expected exponent 1 or -1")
        out.append((g, e))
    return tuple(out)


def _load_crossedword(obj: Any, path: str) -> CrossedWord:
    _expect(isinstance(obj, list), path, "expected an array of [word, gen, exp] terms")
    out = []
    for i, term in enumerate(obj):
        _expect(isinstance(term, list) and len(term) == 3,
                f"{path}[{i}]", "expected [word, gen, exp]")
        w, g, e = term
        word = _load_word(w, f"{path}[{i}][0]")
        _expect(isinstance(g, int) and not isinstance(g, bool), f"{path}[{i}][1]",
                "expected an integer 2-cell index")
        _expect(e in (1, -1), f"{path}[{i}][2]", "expected exponent 1 or -1")
        out.append((word, g, e))
    return tuple(out)


def _load_moduleelt(obj: Any, path: str) -> ModuleElt:
    _expect(isinstance(obj, list), path, "expected an array of [coef, word, gen] terms")
    out = []
    for i, term in enumerate(obj):
        _expect(isinstance(term, list) and len(term) == 3,
                f"{path}[{i}]", "expected [coef, word, gen]")
        c, w, g = term
        _expect(isinstance(c, int) and not isinstance(c, bool), f"{path}[{i}][0]",
                "expected an integer coefficient")
        word = _load_word(w, f"{path}[{i}][1]")
        _expect(isinstance(g, int) and not isinstance(g, bool), f"{path}[{i}][2]",
                "expected an integer cell index")
        out.append((c, word, g))
    return tuple(out)


def load_presentation(obj: Any, path: str = "presentation") -> CWPresentation:
    _expect(isinstance(obj, dict), path, "expected an object")
    _expect("cells" in obj, path, "missing key 'cells'")
    cells = obj["cells"]
    _expect(isinstance(cells, list) and cells, f"{path}.cells",
            "expected a non-empty array of counts")
    for i, v in enumerate(cells):
        _expect(isinstance(v, int) and not isinstance(v, bool),
                f"{path}.cells[{i}]", "expected an integer")
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
    attach3 = tuple(
        _load_crossedword(cw, f"{path}.attach.3[{i}]")
        for i, cw in enumerate(known.get(3, [])))
    high = []
    for n in range(4, dim + 1):
        high.append(tuple(
            _load_moduleelt(m, f"{path}.attach.{n}[{i}]")
            for i, m in enumerate(known.get(n, []))))
    name = obj.get("name", "")
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    return CWPresentation(tuple(cells), attach2, attach3, tuple(high), name=name)


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
    if p.attach3:
        attach["3"] = [
            [[[list(l) for l in conj], gen, exp] for conj, gen, exp in cw]
            for cw in p.attach3]
    for n in range(4, p.dim + 1):
        data = p.attach_module(n)
        if data:
            attach[str(n)] = [
                [[coef, [list(l) for l in tw], gen] for coef, tw, gen in elt]
                for elt in data]
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


def read_json(path: str | Path) -> Any:
    """Read a UTF-8 JSON file; malformed content raises ParseError with
    position, unreadable content a ParseError naming the cause."""
    try:
        data = Path(path).read_bytes()
        # a Python parse_int costs ten times the parse: hook it only past a long digit run
        hook = parse_int if b"0" * (MAX_DIGITS + 1) in data.translate(_DIGITS) else None
        return json.loads(data.decode("utf-8"), parse_int=hook)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError, ParseError) as exc:  # see module docstring
        raise ParseError(f"{path}: {exc}") from exc
