"""Morphism counting and enumeration.

A morphism from a presentation P into a complex A of length L is a family
of cell colourings f_n: C_n -> A_n (n = 1..L) such that

  * the colour of every n-cell (2 <= n <= L) lies in the boundary fiber
    over the evaluated attaching data of that cell, and
  * the attaching data of every (L+1)-cell evaluates to the identity
    (the "kill" constraints forced by truncation).

Cells of dimension greater than L+1 impose nothing.  Two engines count:

  * Elimination, when no cell of dimension 3..L+1 exists, so every
    constraint comes from a 2-cell's word.  The relator letters are read in
    order; a state is the running product plus the colours of the live
    1-cells (seen and used again later), and a cell is summed out at its
    last letter.  A finished relator with value t weighs [t == 0] when
    L = 1 and |d_2^{-1}(t)| otherwise.  This is bucket elimination on the
    cell-relator incidence graph.
  * Layered backtracking otherwise: layer 1 by an odometer over all
    colourings of the 1-cells; at layer n the admissible values per cell
    form a precomputed boundary fiber over a target that only depends on
    lower layers, so pruning on an empty fiber is exact, and when no kill
    constraints exist the last layer contributes a plain product of fiber
    sizes.

`count_engine` picks one: elimination when it applies and its transition
estimate (elimination_cost) is at most the |A_1|^{l_1} colourings the
odometer would visit, so its state table never outgrows the odometer's
walk; backtracking otherwise.  Enumeration always backtracks, in
lexicographic order by (dimension, cell index, element index).

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


def elimination_cost(p: CWPresentation, cx: FiniteCrossedComplex) -> Optional[int]:
    """Bound on the state transitions elimination would make, or None when
    some cell of dimension 3..L+1 constrains the count.

    Before each letter the states number at most min(|A_1|^(live+1),
    |A_1|^seen), with |A_1|^live in place of the first term at a relator's
    first letter, where the product is the identity; a letter whose cell
    is new multiplies them by |A_1|.
    """
    if any(p.count(n) for n in range(3, cx.length + 2)):
        return None
    order = cx.groups[0].order
    last = _last_letters(p.attach2)
    seen: set[int] = set()
    live = 0
    cost = 0
    for i, w in enumerate(p.attach2):
        for j, (gen, _) in enumerate(w):
            states = order ** min(live + (j > 0), len(seen))
            if gen in seen:
                cost += states
            else:
                seen.add(gen)
                live += 1
                cost += states * order
            if last[gen] == (i, j):
                live -= 1
    return cost


def count_engine(p: CWPresentation, cx: FiniteCrossedComplex) -> str:
    """The engine count_homs runs: "elimination" or "backtrack"."""
    cost = elimination_cost(p, cx)
    if cost is not None and cost <= cx.groups[0].order ** p.count(1):
        return "elimination"
    return "backtrack"


def _last_letters(words: tuple[Word, ...]) -> dict[int, tuple[int, int]]:
    """(relator, letter) position of each 1-cell's last occurrence."""
    return {gen: (i, j) for i, w in enumerate(words) for j, (gen, _) in enumerate(w)}


def _eliminate(p: CWPresentation, cx: FiniteCrossedComplex) -> int:
    """Count by summing out 1-cells letter by letter (see module docstring).

    A state is one int: the running product in the lowest base-|A_1| digit
    and each live cell's colour in the digit of the slot it holds while live.
    """
    a1 = cx.groups[0]
    order, mul = a1.order, a1.mul
    # letter (gen, e) multiplies by colour v through mul[acc][factor[e][v]]
    factor = {1: range(order), -1: a1.inv}
    if cx.length == 1:
        weight = [1] + [0] * (order - 1)
    else:
        weight = [len(fib) for fib in fibers_of(cx.boundary(2))]
    last = _last_letters(p.attach2)
    slot_of: dict[int, int] = {}
    free: list[int] = []
    states = {0: 1}
    for i, w in enumerate(p.attach2):
        for j, (gen, e) in enumerate(w):
            src = factor[e]
            drop = last[gen] == (i, j)
            nxt: dict[int, int] = {}
            get = nxt.get
            if gen in slot_of:
                place = order ** (slot_of[gen] + 1)
                for state, cnt in states.items():
                    acc = state % order
                    v = state // place % order
                    key = state - acc + mul[acc][src[v]] - (v * place if drop else 0)
                    nxt[key] = get(key, 0) + cnt
                if drop:
                    free.append(slot_of.pop(gen))
            else:
                place = 0  # a cell used only here is summed out at once
                if not drop:
                    slot_of[gen] = slot = free.pop() if free else len(slot_of)
                    place = order ** (slot + 1)
                for state, cnt in states.items():
                    acc = state % order
                    rest = state - acc
                    row = mul[acc]
                    for v in range(order):
                        key = rest + v * place + row[src[v]]
                        nxt[key] = get(key, 0) + cnt
            states = nxt
        closed: dict[int, int] = {}
        for state, cnt in states.items():
            acc = state % order
            if weight[acc]:
                key = state - acc
                closed[key] = closed.get(key, 0) + cnt * weight[acc]
        states = closed
    return sum(states.values()) * order ** (p.count(1) - len(last))


def count_homs(p: CWPresentation, cx: FiniteCrossedComplex) -> int:
    """Number of morphisms P -> A, by the engine count_engine picks.

    Assumes both inputs validated.
    """
    if count_engine(p, cx) == "elimination":
        return _eliminate(p, cx)
    return _backtrack(p, cx)


def _backtrack(p: CWPresentation, cx: FiniteCrossedComplex) -> int:
    s = _Search(p, cx)
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

    Shares nothing with the counting engines but attaching-data evaluation.
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
