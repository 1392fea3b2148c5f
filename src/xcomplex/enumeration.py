"""Morphism counting and enumeration.

A morphism from a presentation P into a complex A of length L is a family
of cell colourings f_n: C_n -> A_n (n = 1..L) such that

  * the colour of every n-cell (2 <= n <= L) lies in the boundary fiber
    over the evaluated attaching data of that cell, and
  * the attaching data of every (L+1)-cell evaluates to the identity
    (the "kill" constraints forced by truncation).

A morphism is passed around as its plain colouring (`Colouring`): one
tuple of element indices per layer 1..L, compared and hashed by value.

Cells of dimension greater than L+1 impose nothing.  Two engines count:

  * Elimination, when no cell of dimension 3..L+1 exists, so every
    constraint comes from a 2-cell's word.  The relator letters are read in
    order; a state is the running product plus the colours of the live
    1-cells (seen and used again later), and a cell is summed out at its
    last letter.  A finished relator with value t weighs [t == 0] when
    L = 1 and |d_2^{-1}(t)| otherwise.  This is bucket elimination on the
    cell-relator incidence graph.
  * Layered search otherwise: layer 1 by an odometer over all colourings
    of the 1-cells, and layers 2..L below each of them.  At layer n the
    admissible values per cell form a precomputed boundary fiber over its
    entry of the target vector t_n, the n-cells' attaching data evaluated
    in A_{n-1}; an empty fiber prunes exactly.

`count_engine` picks one: elimination when it applies and its transition
estimate (elimination_cost) is at most the |A_1|^{l_1} colourings the
odometer would visit, so its state table never outgrows the odometer's
walk; backtracking otherwise.  Enumeration always runs the layered search,
in lexicographic order by (dimension, cell index, element index).

Attaching data of a cell of dimension >= 3, its Terms
(`CWPresentation.terms(n)`), is evaluated in two steps, for morphisms,
homotopies and the search alike.  Compiling reads f1: a term (twisting
word w, lower cell c, power e) becomes (row, c) with
row: y -> (f1(w) |> y)^e in the target degree k.  Applying reads the
lower layer only: the cell's value is the product of row[f(c)].
`morphism_checker` and `boundary_defect_report` run the pair in A_{n-1}
on a morphism's f_{n-1}; the homotopy targets (`homotopies`) run it in A_n
on a homotopy's H_{n-1}, on the Terms of every degree, the 2-cells' Fox
terms included, once per f1.

So with f1 fixed, layers n..L depend only on t_n.  When P has a cell of
dimension 3..L+1 the search compiles those cells once per twist key (the
twisting words' values, each mapped to the least element of A_1 with the
same action row) and memoises layers n..L on (n, t_n) under that key:
their count, or their suffixes (f_n, .., f_L) in lexicographic order.
Layer-1 colourings with equal keys share one memo; under trivial actions
all do.  Entries are made only at visited nodes: at most (#twist keys) x
sum_{n=2..top} |A_{n-1}|^{l_n}, top the highest dimension in 3..L+1 with
cells.  Without such cells nothing is compiled or memoised: a layer-1
colouring counts the product of layer 2's fiber sizes (for L = 1, whether
every 2-cell's word dies).

Morphisms are verified by `morphism_checker(p, cx, f1)`: it evaluates the
2-cell words and compiles the Terms of the cells of dimension 3..L+1 at
degree n-1 once, from f1 alone, and returns a function that applies them
to a colouring's f_{n-1} and compares the result with d_n(f_n), or with 1
for a killed cell.  It reads nothing of the layered search (no twist key,
canonical element, compiled tower or memo), so it checks the search
instead of repeating it.
`enumerate_homs` checks every listed colouring with the checker of its
layer 1, `count_homs_bruteforce` checks the colourings under each f1 with
one checker, and `morphism_violation` is shape checks plus a new checker.

Counts are Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from .complexes import FiniteCrossedComplex
from .errors import InstanceTooLarge, ResultTooLarge
from .groups import fibers_of
from .presentations import CWPresentation, Word

DEFAULT_ENUM_CAP = 10**6

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


def _compile(cx: FiniteCrossedComplex, k: int, cells, twist) -> list[list[tuple]]:
    """Each cell's Terms (twisting word, lower cell, power) as degree-k
    pairs (row, lower cell) with row[y] = (x |> y)^power in A_k, where
    x = twist(word) in A_1.  A power reduces mod |A_k|, which every element
    order divides; a zero power contributes nothing and is dropped."""
    order = cx.groups[k - 1].order
    act, powered = cx.actions[k - 2].act, cx.actions[k - 2].powered
    return [[((act if e == 1 else powered(e))[twist(w)], gen)
             for w, gen, power in terms if (e := power % order)]
            for terms in cells]


def _apply(mul, compiled, below: tuple[int, ...]) -> tuple[int, ...]:
    """Target vector of a layer: per cell, the product over its compiled
    terms (row, lower cell) of row[below[cell]]."""
    out = []
    for terms in compiled:
        acc = 0
        for row, gen in terms:
            acc = mul[acc][row[below[gen]]]
        out.append(acc)
    return tuple(out)


def morphism_violation(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    colours: Colouring,
) -> Optional[tuple]:
    """First violated morphism constraint, or None.

    Violations are ("shape", ...), ("layer", n, cell) for a boundary
    mismatch, or ("kill", n, cell) for a surviving (L+1)-cell.
    """
    return (_shape_violation(colours, _morphism_shape(p, cx))
            or morphism_checker(p, cx, colours[0])(colours))


def _morphism_shape(p: CWPresentation, cx: FiniteCrossedComplex) -> list[tuple[int, int]]:
    """(l_n, |A_n|) for n = 1 .. L: f_n colours the l_n n-cells in A_n."""
    return [(p.count(n), cx.groups[n - 1].order) for n in range(1, cx.length + 1)]


def _shape_violation(colours: Colouring, shape: Sequence[tuple[int, int]]) -> Optional[tuple]:
    """("shape", ...) unless colours has one layer per (l, order) of shape,
    each of l values in range(order); else None."""
    if len(colours) != len(shape):
        return ("shape", len(colours), len(shape))
    for n, (layer, (ln, order)) in enumerate(zip(colours, shape), 1):
        if len(layer) != ln:
            return ("shape", n, len(layer))
        if layer and not (0 <= min(layer) and max(layer) < order):
            return ("shape", n)
    return None


def morphism_checker(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    f1: tuple[int, ...],
) -> Callable[[Colouring], Optional[tuple]]:
    """The morphism constraints under the layer-1 colouring f1, as a function
    from a colouring in shape with layer 1 equal to f1 to its first
    violation, ("layer", n, cell) or ("kill", n, cell), or None.

    The 2-cell words are evaluated and the Terms of the cells of dimension
    3..L+1 compiled at degree n-1 once, here; each call applies them to
    f_{n-1} and compares with d_n(f_n), or with 1 for a killed cell.
    """
    length = cx.length
    words = tuple([eval_word(cx, f1, w) for w in p.attach2])
    checks = []  # (n, compiled Terms or None for the 2-cells, mul of A_{n-1}, d_n or None)
    for n in range(2, length + 2):
        if p.count(n):
            compiled = (_compile(cx, n - 1, p.terms(n), partial(eval_word, cx, f1))
                        if n > 2 else None)
            checks.append((n, compiled, cx.groups[n - 2].mul,
                           cx.boundary(n).image if n <= length else None))

    def violation(colours: Colouring) -> Optional[tuple]:
        for n, compiled, mul, bd in checks:
            got = words if compiled is None else _apply(mul, compiled, colours[n - 2])
            want = (0,) * len(got) if bd is None else tuple([bd[v] for v in colours[n - 1]])
            if got != want:
                cell = next(c for c, (a, b) in enumerate(zip(got, want)) if a != b)
                return ("kill" if bd is None else "layer", n, cell)
        return None

    return violation


def _relator_weights(cx: FiniteCrossedComplex) -> list[int]:
    """Per value x in A_1 of a 2-cell's word, the colours the cell may take:
    |d_2^{-1}(x)|, or [x == 0] when L = 1 and 2-cells are killed."""
    if cx.length == 1:
        return [1] + [0] * (cx.groups[0].order - 1)
    return [len(fib) for fib in fibers_of(cx.boundary(2))]


class _Search:
    """Layered search for one (P, A): `below(f1)` gives the colourings of
    layers 2..L under the layer-1 colouring f1, as their number or, with
    `listing`, as their suffixes (f_2, .., f_L) in lexicographic order."""

    def __init__(self, p: CWPresentation, cx: FiniteCrossedComplex, listing: bool = False):
        self.p = p
        self.cx = cx
        self.length = cx.length
        self.listing = listing
        # boundary fibers, indexed by degree then target element
        self.fibers = {n: fibers_of(cx.boundary(n)) for n in range(2, self.length + 1)}
        self.weight = _relator_weights(cx)
        # the highest dimension in 3..L+1 holding cells, or 2 when there is
        # none: from layer `top` on, each layer's fibers are free choices
        self.top = max((n for n in range(3, self.length + 2) if p.count(n)), default=2)
        # the distinct (degree, twisting word) pairs in the Terms of the
        # cells of dimension 3..top
        self.slots = list(dict.fromkeys(
            (n - 1, w) for n in range(3, self.top + 1) for ts in p.terms(n) for w, _, _ in ts))
        # per degree, the least element of A_1 with each action row
        self.canon = {}
        for k in range(2, self.top):
            first: dict[tuple[int, ...], int] = {}
            self.canon[k] = [first.setdefault(tuple(row), x)
                             for x, row in enumerate(cx.actions[k - 2].act)]
        self.towers: dict[tuple[int, ...], _Tower] = {}

    def layer1(self):
        """Every 1-cell colouring, in lexicographic order."""
        return itertools.product(range(self.cx.groups[0].order), repeat=self.p.count(1))

    def below(self, f1: tuple[int, ...]):
        cx, weight = self.cx, self.weight
        t = []
        size = 1  # product of layer 2's fiber sizes so far
        for w in self.p.attach2:
            v = eval_word(cx, f1, w)
            size *= weight[v]
            if not size:  # this 2-cell has no admissible colour
                return [] if self.listing else 0
            t.append(v)
        if self.top == 2:
            return self.leaf(2, tuple(t)) if self.listing else size
        key = tuple([self.canon[k][eval_word(cx, f1, w)] for k, w in self.slots])
        tower = self.towers.get(key)
        if tower is None:
            tower = self.towers[key] = _Tower(self, key)
        return tower.below(2, tuple(t))

    def leaf(self, n: int, t: tuple[int, ...]):
        """Layers n..L over the n-cells' targets t when no cell of a higher
        dimension constrains them: the kill check past L, else free choices
        in layer n's fibers and the empty colouring above."""
        if n > self.length:
            ok = not any(t)
            return ([()] if ok else []) if self.listing else int(ok)
        fibs = [self.fibers[n][v] for v in t]
        if self.listing:
            rest = ((),) * (self.length - n)
            return [(combo,) + rest for combo in itertools.product(*fibs)]
        return math.prod(map(len, fibs))


class _Tower:
    """Layers 2..L for the layer-1 colourings of one twist key: the cells'
    compiled terms and the memo on (n, t_n)."""

    def __init__(self, s: _Search, key: tuple[int, ...]):
        self.s = s
        twists = {n: {} for n in range(3, s.top + 1)}
        for (k, w), x in zip(s.slots, key):
            twists[k + 1][w] = x
        self.terms = {n: _compile(s.cx, n - 1, s.p.terms(n), tw.__getitem__)
                      for n, tw in twists.items()}
        self.memo: dict[tuple[int, tuple[int, ...]], int | list[Colouring]] = {}

    def below(self, n: int, t: tuple[int, ...]):
        """Layers n..L over the n-cells' target vector t: their number, or
        their suffixes (f_n, .., f_L) in lexicographic order."""
        got = self.memo.get((n, t))
        if got is not None:
            return got
        s = self.s
        if n >= s.top:
            got = s.leaf(n, t)
        else:
            got = [] if s.listing else 0
            terms, mul = self.terms[n + 1], s.cx.groups[n - 1].mul
            for combo in itertools.product(*[s.fibers[n][v] for v in t]):
                sub = self.below(n + 1, _apply(mul, terms, combo))
                if s.listing:
                    got.extend([(combo,) + tail for tail in sub])
                else:
                    got += sub
        self.memo[(n, t)] = got
        return got


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
    weight = _relator_weights(cx)
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
    return sum(s.below(f1) for f1 in s.layer1())


def refuse_listing(morphisms: int, cap: int) -> None:
    """Raise ResultTooLarge when `morphisms` exceed the listing cap."""
    if morphisms > cap:
        raise ResultTooLarge(f"more than {cap} morphisms; raise the cap to list them")


def enumerate_homs(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Colouring]:
    """All morphisms P -> A as colourings, in lexicographic order.

    Raises ResultTooLarge when more than `cap` morphisms exist.  Every
    listed colouring is checked by the `morphism_checker` of its layer 1.
    """
    s = _Search(p, cx, listing=True)
    found: list[Colouring] = []
    for f1 in s.layer1():
        tails = s.below(f1)
        if not tails:
            continue
        check = morphism_checker(p, cx, f1)
        for tail in tails:
            c = (f1,) + tail
            if check(c) is not None:  # raised, not asserted: kept under python -O
                raise AssertionError(f"search produced a non-morphism: {c}")
            found.append(c)
        refuse_listing(len(found), cap)
    return found


def count_homs_bruteforce(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_ENUM_CAP,
) -> int:
    """Oracle count: sweep the full colouring space, check every constraint.

    Shares nothing with the counting engines but attaching-data evaluation.
    Raises InstanceTooLarge when the space exceeds `cap`.
    """
    shape = _morphism_shape(p, cx)
    total = math.prod(order ** ln for ln, order in shape)
    if total > cap:
        raise InstanceTooLarge(f"brute-force space {total} exceeds cap {cap}")
    (l1, order), rest = shape[0], shape[1:]
    count = 0
    for f1 in itertools.product(range(order), repeat=l1):
        check = morphism_checker(p, cx, f1)
        count += sum(check((f1,) + tail) is None for tail in layered_product(rest))
    return count


def layered_product(shape: Sequence[tuple[int, int]]) -> Iterator[Colouring]:
    """Every colouring with l cells in range(order) per layer (l, order) of
    `shape`, one tuple per layer, in lexicographic order.

    Lazy in every layer: itertools.product would hold each layer's
    colourings, up to the whole space, in memory.
    """
    if not shape:
        yield ()
        return
    (ln, order), rest = shape[0], shape[1:]
    for head in itertools.product(range(order), repeat=ln):
        for tail in layered_product(rest):
            yield (head,) + tail


def boundary_defect_report(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[tuple[int, int, Colouring, int]]:
    """Debug sweep for attaching data of dimension >= 4 whose boundary fails
    to die in A.

    For each n >= 4 with cells, enumerates the morphisms of the presentation
    truncated below n and evaluates each n-cell's Terms; a value outside
    ker d_{n-1} is reported as (n, cell, colouring, value).  An empty report
    on a presentation with zero morphism count says nothing.
    """
    out: list[tuple[int, int, Colouring, int]] = []
    for n in range(4, min(p.dim, cx.length + 1) + 1):
        if p.count(n) == 0:
            continue
        trunc = CWPresentation(p.cells[:n], p.attach2, p.attach_terms[:n - 3], name=p.name)
        kerbd = cx.boundary(n - 1).image
        for f in enumerate_homs(trunc, cx, cap=cap):
            got = _apply(cx.groups[n - 2].mul,
                         _compile(cx, n - 1, p.terms(n), partial(eval_word, cx, f[0])),
                         f[n - 2])
            out.extend([(n, cell, f, val)
                        for cell, val in enumerate(got) if kerbd[val] != 0])
    return out
