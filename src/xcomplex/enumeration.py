"""Morphism counting and enumeration by dimension-layered backtracking.

A morphism from a presentation P into a complex A of length L is a family
of cell colourings f_n: C_n -> A_n (n = 1..L) such that

  * the colour of every n-cell (2 <= n <= L) lies in the boundary fiber
    over the evaluated attaching data of that cell, and
  * the attaching data of every (L+1)-cell evaluates to the identity
    (the "kill" constraints forced by truncation).

Cells of dimension greater than L+1 impose nothing.  The search assigns
layer 1 by an odometer over all colourings of the 1-cells; at layer n the
admissible values per cell form a precomputed boundary fiber over a target
that only depends on lower layers, so pruning on an empty fiber is exact,
and when no kill constraints exist the last layer contributes a plain
product of fiber sizes.  Enumeration order is lexicographic by (dimension,
cell index, element index).

Counts are Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .complexes import FiniteCrossedComplex
from .errors import DimensionMismatch, IndexOutOfRange, InstanceTooLarge, ResultTooLarge
from .groups import fibers_of
from .presentations import CrossedWord, CWPresentation, ModuleElt, Word

DEFAULT_ENUM_CAP = 10**6
DEFAULT_BRUTE_CAP = 10**6

Colouring = tuple[tuple[int, ...], ...]


def eval_word(cx: FiniteCrossedComplex, f1: tuple[int, ...], w: Word) -> int:
    """Image of a word in A_1 under the 1-cell colouring f1."""
    a1 = cx.groups[0]
    mul, inv = a1.mul, a1.inv
    acc = 0
    for g, e in w:
        v = f1[g]
        acc = mul[acc][v if e == 1 else inv[v]]
    return acc


def eval_crossed(
    cx: FiniteCrossedComplex,
    f1: tuple[int, ...],
    f2: tuple[int, ...],
    cw: CrossedWord,
    k: int,
) -> int:
    """Image of a crossed word in A_k: product of (f1(conj) |> f2(gen))^exp.

    A morphism evaluates 3-cells at k = 2; a homotopy's H_2 at k = 3.
    """
    if k < 2:
        raise IndexOutOfRange(f"crossed word degree {k} < 2")
    if cx.length < k:
        raise DimensionMismatch(f"complex of length {cx.length} has no A_{k}")
    ak = cx.groups[k - 1]
    act = cx.actions[k - 2].act
    acc = 0
    for conj, gen, exp in cw:
        x = eval_word(cx, f1, conj)
        v = act[x][f2[gen]]
        acc = ak.mul[acc][v if exp == 1 else ak.inv[v]]
    return acc


def eval_module(
    cx: FiniteCrossedComplex,
    f1: tuple[int, ...],
    fk: tuple[int, ...],
    m: ModuleElt,
    k: int,
) -> int:
    """Image of a degree-k ModuleElt in A_k: sum of coef * (f1(twist) |> fk(gen))."""
    if k < 3:
        raise IndexOutOfRange(f"ModuleElt degree {k} < 3")
    if cx.length < k:
        raise DimensionMismatch(f"complex of length {cx.length} has no A_{k}")
    ak = cx.groups[k - 1]
    act = cx.actions[k - 2].act
    acc = 0
    for coef, twist, gen in m:
        x = eval_word(cx, f1, twist)
        v = act[x][fk[gen]]
        c = coef % ak.order  # element order divides the group order
        for _ in range(c):
            acc = ak.mul[acc][v]
    return acc


def eval_attaching(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    f1: tuple[int, ...],
    below: tuple[int, ...],
    n: int,
    cell: int,
    k: int,
) -> int:
    """Evaluate the attaching data of an n-cell (n >= 3) in A_k, with `below`
    colouring the (n-1)-cells in A_k."""
    if n == 3:
        return eval_crossed(cx, f1, below, p.attach3[cell], k)
    return eval_module(cx, f1, below, p.attach_module(n)[cell], k)


@dataclass(frozen=True)
class Morphism:
    """A colouring of P's cells in A, one tuple per layer 1..L."""

    presentation: CWPresentation
    coefficients: FiniteCrossedComplex
    colours: Colouring


def attaching_target(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    colours: list[tuple[int, ...]] | Colouring,
    n: int,
    cell: int,
) -> int:
    """Evaluate the attaching data of an n-cell (2 <= n <= L+1) in A_{n-1}.

    Only layers below n are read from `colours`.
    """
    if n == 2:
        return eval_word(cx, colours[0], p.attach2[cell])
    return eval_attaching(p, cx, colours[0], colours[n - 2], n, cell, n - 1)


def morphism_violation(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    colours: Colouring,
) -> Optional[tuple]:
    """First violated morphism constraint, or None.

    Violations are ("shape", ...), ("layer", n, cell) for a boundary
    mismatch, or ("kill", n, cell) for a surviving (L+1)-cell.
    """
    length = cx.length
    if len(colours) != length:
        return ("shape", len(colours), length)
    for n in range(1, length + 1):
        layer = colours[n - 1]
        if len(layer) != p.count(n):
            return ("shape", n, len(layer))
        order = cx.groups[n - 1].order
        if any(not 0 <= v < order for v in layer):
            return ("shape", n)
    for n in range(2, length + 1):
        bd = cx.boundary(n).image
        for cell in range(p.count(n)):
            if bd[colours[n - 1][cell]] != attaching_target(p, cx, colours, n, cell):
                return ("layer", n, cell)
    kd = length + 1
    for cell in range(p.count(kd)):
        if attaching_target(p, cx, colours, kd, cell) != 0:
            return ("kill", kd, cell)
    return None


def verify_morphism(m: Morphism) -> bool:
    return morphism_violation(m.presentation, m.coefficients, m.colours) is None


class _Search:
    """Shared machinery for counting and enumeration; one instance per (P, A)."""

    def __init__(self, p: CWPresentation, cx: FiniteCrossedComplex):
        self.p = p
        self.cx = cx
        self.length = cx.length
        self.counts = [p.count(n) for n in range(self.length + 2)]
        self.kill_count = self.counts[self.length + 1]
        # boundary fibers, indexed by degree then target element
        self.fibers = {n: fibers_of(cx.boundary(n)) for n in range(2, self.length + 1)}

    def layer1(self):
        """Every 1-cell colouring, in lexicographic order."""
        return itertools.product(range(self.cx.groups[0].order), repeat=self.counts[1])

    def kill_ok(self, colours: list[tuple[int, ...]]) -> bool:
        kd = self.length + 1
        return all(
            attaching_target(self.p, self.cx, colours, kd, cell) == 0
            for cell in range(self.kill_count)
        )

    def layer_fibers(self, colours: list[tuple[int, ...]], n: int) -> Optional[list]:
        """Admissible values per n-cell, or None if some fiber is empty."""
        fibs = []
        fiber_table = self.fibers[n]
        for cell in range(self.counts[n]):
            fib = fiber_table[attaching_target(self.p, self.cx, colours, n, cell)]
            if not fib:
                return None
            fibs.append(fib)
        return fibs

    def count_below(self, colours: list[tuple[int, ...]]) -> int:
        n = len(colours) + 1
        if n > self.length:
            return 1 if self.kill_ok(colours) else 0
        fibs = self.layer_fibers(colours, n)
        if fibs is None:
            return 0
        if n == self.length and self.kill_count == 0:
            out = 1
            for fib in fibs:
                out *= len(fib)
            return out
        total = 0
        for combo in itertools.product(*fibs):
            colours.append(combo)
            total += self.count_below(colours)
            colours.pop()
        return total

    def enum_below(self, colours: list[tuple[int, ...]], out: list[Colouring]) -> None:
        n = len(colours) + 1
        if n > self.length:
            if self.kill_ok(colours):
                out.append(tuple(colours))
            return
        fibs = self.layer_fibers(colours, n)
        if fibs is None:
            return
        for combo in itertools.product(*fibs):
            colours.append(combo)
            self.enum_below(colours, out)
            colours.pop()


def count_homs(p: CWPresentation, cx: FiniteCrossedComplex) -> int:
    """Number of morphisms P -> A.  Assumes both inputs validated."""
    s = _Search(p, cx)
    if s.length == 1 and s.kill_count == 0:
        return cx.groups[0].order ** s.counts[1]
    return sum(s.count_below([f1]) for f1 in s.layer1())


def enumerate_homs(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Morphism]:
    """All morphisms P -> A in lexicographic order.

    Raises ResultTooLarge when more than `cap` morphisms exist.  Every
    returned morphism is re-verified against the morphism constraints.
    """
    s = _Search(p, cx)
    found: list[Colouring] = []
    for f1 in s.layer1():
        s.enum_below([f1], found)
        if len(found) > cap:
            raise ResultTooLarge(f"more than {cap} morphisms; raise the cap to list them")
    out = [Morphism(p, cx, c) for c in found]
    for m in out:
        assert verify_morphism(m), f"search produced a non-morphism: {m.colours}"
    return out


def count_homs_bruteforce(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_BRUTE_CAP,
) -> int:
    """Oracle count: sweep the full colouring space, check every constraint.

    Shares nothing with the layered search except the constraint checker.
    Raises InstanceTooLarge when the space exceeds `cap`.
    """
    length = cx.length
    sizes: list[int] = []
    layout: list[tuple[int, int]] = []
    at = 0
    for n in range(1, length + 1):
        ln = p.count(n)
        order = cx.groups[n - 1].order
        sizes.extend([order] * ln)
        layout.append((at, at + ln))
        at += ln
    total = 1
    for sz in sizes:
        total *= sz
    if total > cap:
        raise InstanceTooLarge(f"brute-force space {total} exceeds cap {cap}")
    count = 0
    for flat in itertools.product(*(range(sz) for sz in sizes)):
        colours = tuple(flat[lo:hi] for lo, hi in layout)
        if morphism_violation(p, cx, colours) is None:
            count += 1
    return count


def boundary_defect_report(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[tuple[int, int, Colouring, int]]:
    """Debug sweep for attaching data of dimension >= 4 whose boundary fails
    to die in A.

    For each n >= 4 with cells, enumerates the morphisms of the presentation
    truncated below n and evaluates each n-cell's ModuleElt; a value outside
    ker d_{n-1} is reported as (n, cell, colouring, value).  An empty report
    on a presentation with zero morphism count says nothing.
    """
    out: list[tuple[int, int, Colouring, int]] = []
    for n in range(4, min(p.dim, cx.length + 1) + 1):
        if p.count(n) == 0:
            continue
        cells = tuple(p.cells[:n])
        high = tuple(p.attach_module(d) for d in range(4, n))
        trunc = CWPresentation(cells, p.attach2, p.attach3, high, name=p.name)
        kerbd = cx.boundary(n - 1).image
        for m in enumerate_homs(trunc, cx, cap=cap):
            for cell in range(p.count(n)):
                val = attaching_target(p, cx, m.colours, n, cell)
                if kerbd[val] != 0:
                    out.append((n, cell, m.colours, val))
    return out
