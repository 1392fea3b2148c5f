"""Builtin spaces and coefficient complexes, addressable by name.

Space names: point, sphere:N (N >= 1), disk:N (N >= 2), torus, genus:G,
rp2, sphere2-two-cells.  Coefficient names: zN (cyclic), s3, z2xz2,
cm-z2-z2-zero, cm-z4-z2-incl, cm-z2-z3-flip, l3-z2.  Dashes and
underscores are interchangeable.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from .complexes import FiniteCrossedComplex, from_crossed_module, from_group
from .documents import parse_int
from .enumeration import refuse
from .errors import ParseError
from .groups import (
    GroupAction,
    GroupHom,
    cyclic_group,
    direct_product,
    symmetric_group_3,
    trivial_action,
    zero_hom,
)
from .presentations import (
    CWPresentation,
    disk,
    genus_surface,
    point,
    rp2,
    sphere,
    sphere2_two_cells,
    torus,
)


def _cm_z2_z2_zero() -> FiniteCrossedComplex:
    g = cyclic_group(2)
    e = cyclic_group(2)
    return from_crossed_module(g, e, zero_hom(e, g), trivial_action(g, e),
                               name="cm-z2-z2-zero")


def _cm_z4_z2_incl() -> FiniteCrossedComplex:
    g = cyclic_group(4)
    e = cyclic_group(2)
    incl = GroupHom(e, g, (0, 2))
    return from_crossed_module(g, e, incl, trivial_action(g, e),
                               name="cm-z4-z2-incl")


def _cm_z2_z3_flip() -> FiniteCrossedComplex:
    """Z/2 acting on Z/3 by negation, zero boundary; the nontrivial action
    makes crossed-word evaluation order matter."""
    g = cyclic_group(2)
    e = cyclic_group(3)
    act = GroupAction(g, e, ((0, 1, 2), (0, 2, 1)))
    return from_crossed_module(g, e, zero_hom(e, g), act, name="cm-z2-z3-flip")


def _l3_z2() -> FiniteCrossedComplex:
    """Length-3 tower of Z/2's with zero boundaries and trivial actions."""
    z2 = cyclic_group(2)
    cx = FiniteCrossedComplex(
        (z2, z2, z2),
        (zero_hom(z2, z2), zero_hom(z2, z2)),
        (trivial_action(z2, z2), trivial_action(z2, z2)),
        name="l3-z2")
    return cx


_SPACES: dict[str, Callable[[], CWPresentation]] = {
    "point": point,
    "torus": torus,
    "rp2": rp2,
    "sphere2-two-cells": sphere2_two_cells,
}

_COEFFICIENTS: dict[str, Callable[[], FiniteCrossedComplex]] = {
    "s3": lambda: from_group(symmetric_group_3()),
    "z2xz2": lambda: from_group(direct_product(cyclic_group(2), cyclic_group(2))),
    "cm-z2-z2-zero": _cm_z2_z2_zero,
    "cm-z4-z2-incl": _cm_z4_z2_incl,
    "cm-z2-z3-flip": _cm_z2_z3_flip,
    "l3-z2": _l3_z2,
}


def _norm(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def _sized(build: Callable[[int], object], size: str, name: str,
           entries: Callable[[int], int], cap: Optional[int]):
    """Build a sized builtin, refused before it is built when it holds more
    than `cap` entries; an out-of-range size is an input error."""
    try:
        n = parse_int(size)
        if cap is not None:  # name is letters, ':' and digits: no braces reach the template
            refuse(entries(n), cap, f"builtin '{name}' holds {{}} entries, more than the cap {{}}")
        return build(n)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"builtin '{name}': {exc}") from exc


def resolve_space(name: str, cap: Optional[int] = None) -> CWPresentation:
    """Builtin space by name; ParseError if unknown or out of range, InstanceTooLarge past cap."""
    key = _norm(name)
    if key in _SPACES:
        return _SPACES[key]()
    sized = (("sphere", sphere, lambda n: n + 1), ("disk", disk, lambda n: n + 1),
             ("genus", genus_surface, lambda g: 4 * g))  # N + 1 cell counts, 4G word letters
    for prefix, build, entries in sized:
        m = re.fullmatch(prefix + r":?(\d+)", key)
        if m:
            return _sized(build, m.group(1), name, entries, cap)
    raise ParseError(f"unknown builtin space '{name}'")


def resolve_coefficients(name: str, cap: Optional[int] = None) -> FiniteCrossedComplex:
    """Named builtin complex; ParseError if unknown or out of range, InstanceTooLarge past cap."""
    key = _norm(name)
    if key in _COEFFICIENTS:
        return _COEFFICIENTS[key]()
    m = re.fullmatch(r"z:?(\d+)", key)
    if m:
        return from_group(_sized(cyclic_group, m.group(1), name, lambda n: n * n, cap))
    raise ParseError(f"unknown builtin coefficients '{name}'")


# the names the library command lists, in its order
STANDARD_SPACES = ("point", "sphere:1", "sphere:2", "sphere:3", "disk:2", "disk:3",
                   "disk:4", "torus", "genus:2", "rp2", "sphere2-two-cells")
STANDARD_COEFFICIENTS = ("z2", "z3", "s3", "cm-z2-z2-zero", "cm-z4-z2-incl", "l3-z2")


def standard_spaces() -> list[CWPresentation]:
    """The showcase spaces listed by the library command."""
    return [resolve_space(name) for name in STANDARD_SPACES]


def standard_coefficients() -> list[FiniteCrossedComplex]:
    """The coefficient suite used by the acceptance checks."""
    return [resolve_coefficients(name) for name in STANDARD_COEFFICIENTS]
