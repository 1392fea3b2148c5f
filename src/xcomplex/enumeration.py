"""Morphism counting and enumeration.

A morphism from a presentation P into a complex A of length L is a family
of cell colourings f_n: C_n -> A_n (n = 1..L) such that

  * the colour of every n-cell (2 <= n <= L) lies in the boundary fiber
    over the evaluated attaching data of that cell, and
  * the attaching data of every (L+1)-cell evaluates to the identity
    (the "kill" constraints forced by truncation).

A morphism is passed around as its plain colouring (`Colouring`): one
tuple of element indices per layer 1..L, compared and hashed by value.

Cells of dimension greater than L+1 impose nothing.  Three engines count:

  * Elimination, when no cell of dimension 3..L+1 exists, so every
    constraint comes from a 2-cell's word.  A finished relator with value t
    weighs [t == 0] when L = 1 and |d_2^{-1}(t)| otherwise.  First a
    relator holding a 1-cell x used once in the words left is collapsed,
    repeatedly: whatever the other colours, x takes one colour per value
    of the relator, so x and its relator, a free D^2 factor, weigh
    W = sum_t weight(t) (|A_2|, or 1 when L = 1) and constrain nothing
    else.  The relator letters left are read in a planned order; a state is
    the running product plus the colours of the live 1-cells (seen and used
    again later), and a cell is summed out at its last letter.  A relator
    whose last letter x^e is a new cell is solved there: over a running
    product acc, each value t of nonzero weight gives x the one colour v
    with acc v^e = t, weighing weight(t).  This is bucket elimination on
    the cell-relator incidence graph (Dechter, AIJ 1999), whose cost the
    order sets: the plan rotates, inverts and reorders the relators, which
    changes no weight, so that fewer cells are live at once.  Over an
    abelian A_1 a relator's value depends only on each cell's exponent sum
    s, and x^|A_1| = 1, so a relator may be read as one run of |s| letters
    per cell instead, s reduced into (-|A_1|/2, |A_1|/2] (`_abelianised`):
    a commutator, a torus or genus word vanishes, and a cell with s = +-1
    lets the collapse remove its relator.
  * Exponent sums, over an abelian A_1 when elimination applies and some
    relator repeats a cell: the same bucket elimination, one cell per step
    instead of one letter.  The count is a sum over the colourings of the 1-cells of the product of
    the relators' weights, each relator's value the product of f(x)^s over
    its cells x, so the abelianised words are summed out one cell per
    step, in order of first appearance (`_count_by_cells`).  A state holds
    one accumulator per open relator, from its first cell to its last,
    where it is weighed and dropped.
  * Layered search otherwise: layer 1 by an odometer over all colourings
    of the 1-cells, and layers 2..L below each of them.  At layer n the
    admissible values per cell form a precomputed boundary fiber over its
    entry of the target vector t_n, the n-cells' attaching data evaluated
    in A_{n-1}; an empty fiber prunes exactly.

`count_engine` plans a count once: elimination whenever it applies,
estimated by the state transitions of the words left after the collapse,
or by a bound on them past 4,300 digits (never more than the odometer's
|A_1|^{l_1} x letters word steps); over an abelian A_1, the abelianised
words read letter by letter or summed cell by cell when either estimate is
strictly smaller, and backtracking otherwise, estimated
by its |A_1|^{l_1} layer-1 colourings.  The CLI refuses an estimate above
--cap before counting, and before planning, an answer whose digits may
exceed it (`weigh_answer`, over `cell_orders`); the collapse runs before
the estimate is checked, in time linear in the letters.  Enumeration
always runs the layered search, in lexicographic order by (dimension,
cell index, element index).  `enumerate_homs` admits every listing, in
one order: its count's digits, estimate and morphisms, then the entries
of one colouring and its walk of |A_1|^{l_1} layer-1 colourings, before
any visit.

Attaching data of a cell of dimension >= 3, its Terms
(`CWPresentation.terms(n)`), is evaluated in two steps, for morphisms,
homotopies and the search alike.  Compiling reads f1: a term (twisting
word w, lower cell c, power e) becomes (row, c) with
row: y -> (f1(w) |> y)^e in the target degree k.  Applying reads the
lower layer only: the cell's value is the product of row[f(c)].
`morphism_checker` and `boundary_defect_report` run the pair in A_{n-1}
on a morphism's f_{n-1}; the homotopy targets (`homotopies`) run it in A_n
on a homotopy's H_{n-1}, on the Terms of every degree, the 2-cells' Fox
terms included.

A compile reads f1 only through the action row of each twisting word's
value: the rows y -> (x |> y)^e are equal for x with equal action rows.
So each distinct (degree, twisting word) slot maps to the least element
of A_1 with the same action row in that degree, the *twist key* of f1,
and layer-1 colourings with equal keys compile alike.  A degree where
every action row is the same (A_1 acts trivially) leaves no slot, and its
words twist by 0.  `_twist_key(cx, cells_by_degree, build)` is the one
place that shares compiles: it returns f1 -> build(compiled), and calls
build once per twist key.  The search builds its towers through it, the
class walk its edge changes, and `boundary_defect_report` keeps the
compiled Terms as they are; `morphism_checker` and the homotopy oracles
compile once per f1.

So with f1 fixed, layers n..L depend only on t_n.  The search compiles
the cells of dimension 3..L+1 once per twist key and memoises layers n..L
on (n, t_n) under that key: their count, or their suffixes (f_n, .., f_L)
in lexicographic order.  Layer-1 colourings with equal keys share one
memo; under trivial actions, or without such cells, every key is the
empty key ().  Entries are made only at visited
nodes: at most (#twist keys) x sum_{n=2..top} |A_{n-1}|^{l_n}, top the
highest dimension in 3..L+1 with cells, or 2 when there is none.  From
layer top on the fibers are free choices, and past L the (L+1)-cells'
targets must die.

Morphisms are verified by `morphism_checker(p, cx, f1)`: it evaluates the
2-cell words and compiles the Terms of the cells of dimension 3..L+1 at
degree n-1 once, from f1 alone, and returns a function that compares each
layer's target with a colouring's d_n(f_n), or with 1 for a killed cell.
The colourings above one f1 share their lower layers, so a layer's target
is applied once per distinct f_{n-1} under f1 and kept by that checker
alone.  It reads nothing of the layered search (no twist key, canonical
element, compiled tower or memo), so it checks the search instead of
repeating it.
`enumerate_homs` checks every listed colouring with the checker of its
layer 1, `count_homs_bruteforce` checks the colourings under each f1 with
one checker, and `morphism_violation` is shape checks plus a new checker.

Counts are Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections import Counter
from functools import lru_cache, partial
from operator import add, itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from .complexes import FiniteCrossedComplex
from .documents import MAX_DIGITS
from .errors import InstanceTooLarge, ResultTooLarge
from .groups import fibers_of
from .presentations import CWPresentation, Word, word_inverse

DEFAULT_ENUM_CAP = 10**6

_LONG = 10**MAX_DIGITS

Colouring = tuple[tuple[int, ...], ...]

# per layer of a checker: a brute-force sweep meets every colouring of f_{n-1}
_KEPT_TARGETS = 4096


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


def _twist_key(cx: FiniteCrossedComplex, cells_by_degree: dict[int, Sequence], build: Callable):
    """f1 -> build(compiled), built once per twist key of f1, where compiled
    maps each degree d of `cells_by_degree` (d -> the cells' Terms) to their
    `_compile` at d under f1.

    The key of f1 is the tuple of the distinct (d, twisting word) slots'
    values under f1, each mapped to the least element of A_1 with the same
    row of cx.actions[d-2]; a degree with a single row adds no slot.  A
    compile under a key reads the key's value at each term's slot, numbered
    once here so that no word is hashed again, and 0 in a dropped degree.
    """
    slots: dict[tuple[int, Word], int] = {}
    numbered = {d: [[(slots.setdefault((d, w), len(slots)), gen, power) for w, gen, power in ts]
                    for ts in cells] for d, cells in cells_by_degree.items()}
    canon = {}
    for d in cells_by_degree:
        first: dict[tuple[int, ...], int] = {}
        canon[d] = [first.setdefault(tuple(row), x) for x, row in enumerate(cx.actions[d - 2].act)]
    # a degree whose least elements are all 0 has one action row: its words twist by 0
    live = [(i, canon[d], w) for (d, w), i in slots.items() if any(canon[d])]
    built: dict[tuple[int, ...], Any] = {}

    def value(f1: tuple[int, ...]):
        key = tuple([least[eval_word(cx, f1, w)] for _, least, w in live])
        got = built.get(key)
        if got is None:
            twist = [0] * len(slots)
            for (i, _, _), x in zip(live, key):
                twist[i] = x
            got = built[key] = build({d: _compile(cx, d, cells, twist.__getitem__)
                                      for d, cells in numbered.items()})
        return got

    return value


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
    return (_shape_violation(colours, cell_orders(p, cx))
            or morphism_checker(p, cx, colours[0])(colours))


def cell_orders(p: CWPresentation, cx: FiniteCrossedComplex,
                shift: int = 0) -> list[tuple[int, int]]:
    """(l_m, |A_{m+shift}|) for m = 1 .. L-shift: a shift map colours the
    m-cells in A_{m+shift}, a morphism at 0 and a homotopy's values at 1."""
    return [(p.count(m), cx.groups[m + shift - 1].order) for m in range(1, cx.length - shift + 1)]


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
    3..L+1 compiled at degree n-1 once, here.  A call compares each layer's
    target with d_n(f_n), or with 1 for a killed cell; the target of layer
    n >= 3 is applied once per distinct f_{n-1}, since the colourings above
    one f1 share their lower layers, and kept while this checker lives, up
    to 4,096 per layer: past that the kept targets are dropped, so that a
    sweep of every f_{n-1} holds no copy of the layer's colourings.
    """
    length = cx.length
    words = tuple([eval_word(cx, f1, w) for w in p.attach2])
    checks = []  # (n, compiled Terms or None for the 2-cells, mul of A_{n-1}, d_n or None,
    #               f_{n-1} -> target)
    for n in range(2, length + 2):
        if p.count(n):
            compiled = (_compile(cx, n - 1, p.terms(n), partial(eval_word, cx, f1))
                        if n > 2 else None)
            checks.append((n, compiled, cx.groups[n - 2].mul,
                           cx.boundary(n).image if n <= length else None, {}))

    def violation(colours: Colouring) -> Optional[tuple]:
        for n, compiled, mul, bd, targets in checks:
            if compiled is None:
                got = words
            else:
                got = targets.get(below := colours[n - 2])
                if got is None:
                    if len(targets) == _KEPT_TARGETS:
                        targets.clear()
                    got = targets[below] = _apply(mul, compiled, below)
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
        self.listing = listing
        # boundary fibers, indexed by degree then target element
        self.fibers = {n: fibers_of(cx.boundary(n)) for n in range(2, cx.length + 1)}
        self.weight = _relator_weights(cx)
        # the highest dimension in 3..L+1 holding cells, or 2 when there is
        # none: from layer `top` on, each layer's fibers are free choices
        self.top = max((n for n in range(3, cx.length + 2) if p.count(n)), default=2)
        # f1 -> the tower of its twist key: the cells of dimension 3..top compiled at n - 1
        self.tower = _twist_key(cx, {n - 1: p.terms(n) for n in range(3, self.top + 1)},
                                partial(_Tower, self))

    def layer1(self):
        """Every 1-cell colouring, in lexicographic order."""
        return itertools.product(range(self.cx.groups[0].order), repeat=self.p.count(1))

    def below(self, f1: tuple[int, ...]):
        t = []
        for w in self.p.attach2:
            t.append(v := eval_word(self.cx, f1, w))
            if not self.weight[v]:  # this 2-cell has no admissible colour
                return [] if self.listing else 0
        return self.tower(f1).below(2, tuple(t))


class _Tower:
    """Layers 2..L for the layer-1 colourings of one twist key: the cells'
    compiled terms and the memo on (n, t_n)."""

    def __init__(self, s: _Search, terms: dict[int, list[list[tuple]]]):
        self.s = s
        self.terms = terms  # by degree: the (n+1)-cells' at n
        self.memo: dict[tuple[int, tuple[int, ...]], int | list[Colouring]] = {}

    def below(self, n: int, t: tuple[int, ...]):
        """Layers n..L over the n-cells' target vector t: their number, or
        their suffixes (f_n, .., f_L) in lexicographic order."""
        got = self.memo.get((n, t))
        if got is not None:
            return got
        s = self.s
        if n > s.cx.length:  # the (L+1)-cells are killed
            ok = not any(t)
            got = ([()] if ok else []) if s.listing else int(ok)
        elif n >= s.top:  # no cell above constrains layer n: free choices in its fibers
            fibs = [s.fibers[n][v] for v in t]
            if s.listing:
                rest = ((),) * (s.cx.length - n)
                got = [(combo,) + rest for combo in itertools.product(*fibs)]
            else:  # one power per fibre size: a product cell by cell is quadratic in the cells
                got = math.prod(size ** times for size, times in Counter(map(len, fibs)).items())
        else:
            got = [] if s.listing else 0
            terms, mul = self.terms[n], s.cx.groups[n - 1].mul
            for combo in itertools.product(*[s.fibers[n][v] for v in t]):
                sub = self.below(n + 1, _apply(mul, terms, combo))
                if s.listing:
                    got.extend([(combo,) + tail for tail in sub])
                else:
                    got += sub
        self.memo[(n, t)] = got
        return got


class CountPlan(NamedTuple):
    """How count_homs counts: the engine, its work estimate, the 2-cell
    words as elimination or exponent sums read them, and the number of
    relators collapsed before planning (0 for the backtracker)."""

    engine: str
    estimate: int
    words: tuple[Word, ...]
    collapsed: int


def count_engine(p: CWPresentation, cx: FiniteCrossedComplex) -> CountPlan:
    """The plan count_homs runs.

    Elimination whenever no cell of dimension 3..L+1 constrains the count:
    `_elimination_plan` collapses the relators that hold a 1-cell used once
    and orders the words left, estimated by their state transitions.  When
    some relator repeats a cell and A_1 is abelian (`FiniteGroup.abelian`:
    its table equals its transpose), the `_abelianised` words, one run per
    cell of its exponent sum, are planned too, read letter by letter and
    summed out cell by cell (`_cell_plan`, engine "exponent-sums"), and the
    plan of smallest estimate is kept, a later one only when strictly
    smaller.  That is exact: over an abelian A_1 every colouring gives a
    word and its abelianised word the same value, hence the same weight,
    and a cell that leaves every word is counted free, |A_1| colours, as an
    unused cell is.  An abelianised word is never longer, so the rule
    "estimate <= |A_1|^{l_1} x letters", the word steps the odometer takes
    over its layer-1 colourings, always holds for the letter plans: at
    each letter the bound, |A_1|^seen states times |A_1| for a new cell, is
    at most |A_1|^{l_1}, and so is |A_1|^e in the bound `_estimate` gives
    past 4,300 digits; the cell plan, bounded by the relators open rather
    than the cells seen, is kept only below a letter plan's estimate.  A
    collapsed relator costs no transition, and a relator closed on a new
    cell makes at most the transitions estimated for it.
    Backtracking otherwise, estimated by its |A_1|^{l_1} layer-1
    colourings; that estimate covers layer 1 only, not the fibres searched
    above each colouring.
    """
    a1 = cx.groups[0]
    order = a1.order
    if any(p.count(n) for n in range(3, cx.length + 2)):
        return CountPlan("backtrack", order ** p.count(1), p.attach2, 0)
    words = tuple([tuple([(g, e) for g, e in w]) for w in p.attach2])  # hashable, for the cache
    abelian = any(len({g for g, _ in w}) < len(w) for w in words) and a1.abelian
    return _elimination_plan(words, order, abelian)


@lru_cache(maxsize=1)  # a command plans once: its count_homs reuses the plan it reported
def _elimination_plan(words: tuple[Word, ...], order: int, abelian: bool) -> CountPlan:
    """Elimination's plan for the 2-cell words `words` over |A_1| = order;
    when `abelian`, the candidate of smallest estimate among three: the
    given words, their `_abelianised` words read letter by letter, and
    those words summed out cell by cell (`_cell_plan`), a later candidate
    kept only when its estimate is strictly smaller, so no estimate rises.

    An abelianised word is never longer, but its letter plan may take more
    transitions, since words with at most two cells live at once are kept
    as given: the relators x4 x3 x0^-1 x4^-1, x2^-1 x3^-1 x2^-1 and x1 x0 x1
    plan to 450 transitions over order 6, and their abelianised words to
    978.  The cell plan is skipped when the letter plan's estimate is 0
    (the words vanish), and the given words go unplanned when the best
    abelianised estimate is below their letters left after the collapse,
    a lower bound on theirs.
    """
    if not abelian:
        return _planned(words, order)
    shrunk = _planned(tuple([_abelianised(w, order) for w in words]), order)
    if shrunk.estimate:
        cells = _cell_plan(shrunk.words, shrunk.collapsed, order)
        if cells.estimate < shrunk.estimate:
            shrunk = cells
    # every letter left after the collapse costs the given words a transition at least
    if shrunk.estimate < sum(map(len, _collapse(words)[0])):
        return shrunk
    plan = _planned(words, order)
    return shrunk if shrunk.estimate < plan.estimate else plan


def _abelianised(w: Word, order: int) -> Word:
    """w with one run per 1-cell, in the order the cells first appear: |s|
    letters x^(sign s), s the cell's exponent sum in w reduced into
    (-order/2, order/2]; a cell with s = 0 drops out.  Over an abelian
    group of that order w takes the same value under every colouring,
    since its letters commute and every element's order divides |A_1|.
    Never longer than w: |s| is at most the cell's letters."""
    sums: dict[int, int] = {}
    for g, e in w:
        sums[g] = sums.get(g, 0) + e
    out: list[tuple[int, int]] = []
    for g, s in sums.items():
        if 2 * (s := s % order) > order:
            s -= order
        out.extend([(g, 1 if s > 0 else -1)] * abs(s))
    return tuple(out)


def _planned(words: tuple[Word, ...], order: int) -> CountPlan:
    """Elimination's plan for the 2-cell words `words` themselves, over
    |A_1| = order.

    First the relators that `_collapse` removes go: each is a free D^2
    factor, counted by `_eliminate` as a weight.  The words left are
    planned: each planned word is a rotation of a relator or of its
    inverse, and the relators may be reordered: rotating a relator
    conjugates its value and inverting it inverts it, and neither changes
    the weight |d_2^{-1}(t)| or [t == 0], since im d_2 is normal; the
    relators' weights multiply.

    Words under which at most two cells are live at once (peak exponent
    at most 3, as in every surface word) are kept as given: planning
    them costs more than it could save.  Otherwise each word is rotated by
    `_rotation`, and every relator order and choice of inversions of the
    rotated words (up to three relators; the rotations alone for more) is
    scored by `_estimate`.  The given words stay unless a candidate makes
    fewer transitions, or as many with a smaller peak, and its peak is no
    larger than theirs.
    """
    words, collapsed = _collapse(words)
    cost, peak = _estimate(words, order)
    if order > 1 and peak > 3:  # over one element every candidate makes the same transitions
        # a word's cells held by another word too: counted once, so planning stays linear
        holders = Counter(g for w in words for g in {g for g, _ in w})
        rotated = [_rotation(w, {g for g, _ in w if holders[g] > 1}) for w in words]
        if len(words) <= 3:
            choices = [(w, word_inverse(w)) for w in rotated]
            perms = itertools.permutations(range(len(words)))
        else:
            choices, perms = [(w,) for w in rotated], [range(len(words))]
        given = peak
        for perm in perms:
            for cand in itertools.product(*[choices[i] for i in perm]):
                c, top = _estimate(cand, order)
                if (c, top) < (cost, peak) and top <= given:
                    cost, peak, words = c, top, cand
    return CountPlan("elimination", cost, words, collapsed)


def _collapse(words: tuple[Word, ...]) -> tuple[tuple[Word, ...], int]:
    """The relators left, in their given order, once every relator holding
    a 1-cell that occurs once in the words left (a free D^2 factor, see
    the module docstring) is removed, and the number removed.

    A removal can leave another cell used once, so a worklist runs to the
    end: `occurs` counts each cell's letters in the words left and `where`
    sums the indices of their words, so a cell down to one letter names
    its word.  Linear in the letters.
    """
    occurs: dict[int, int] = {}
    where: dict[int, int] = {}
    for i, w in enumerate(words):
        for g, _ in w:
            occurs[g] = occurs.get(g, 0) + 1
            where[g] = where.get(g, 0) + i
    todo = [where[g] for g, n in occurs.items() if n == 1]
    gone = set()
    while todo:
        i = todo.pop()
        if i in gone:
            continue
        gone.add(i)
        for g, _ in words[i]:
            occurs[g] -= 1
            where[g] -= i
            if occurs[g] == 1:
                todo.append(where[g])
    return tuple([w for i, w in enumerate(words) if i not in gone]), len(gone)


def _estimate(words: Sequence[Word], order: int) -> tuple[int, int]:
    """(transitions, peak exponent) of elimination reading `words` in order.

    Before each letter the states number at most min(|A_1|^(live+1),
    |A_1|^seen), with |A_1|^live in place of the first term at a relator's
    first letter, where the product is the identity; a letter whose cell
    is new multiplies them by |A_1|.  The peak exponent is the largest
    exponent of these bounds, so candidates compare without building it.
    Transitions are summed by Horner's rule over the exponents met.  Past
    4,300 digits, letters x |A_1|^e bounds them instead, e the highest
    exponent met: that sum is quadratic in e, and planning runs before
    --cap is weighed.
    """
    last = _last_letters(words)
    steps = [0] * (len(last) + 2)  # steps[e]: letters bounded by |A_1|^e transitions
    seen: set[int] = set()
    live = top = k = 0
    for w in words:
        extra = 0  # the running product is the identity at a relator's first letter
        for gen, _ in w:
            e = live + extra
            if e > len(seen):
                e = len(seen)
            if e > top:
                top = e
            if gen in seen:
                steps[e] += 1
            else:
                seen.add(gen)
                live += 1
                steps[e + 1] += 1
            if last[gen] == k:
                live -= 1
            k += 1
            extra = 1
    return _transitions(steps, order, k), top


def _transitions(steps: Sequence[int], order: int, count: int) -> int:
    """sum_e steps[e] x order^e, by Horner's rule; past 4,300 digits the
    bound count x order^high instead, high the highest e with steps, where
    count is sum(steps)."""
    high = max((e for e, n in enumerate(steps) if n), default=0)
    if high * math.log10(order) > MAX_DIGITS:
        return count * order ** high
    cost = 0
    for n in reversed(steps[:high + 1]):
        cost = cost * order + n
    return cost


def _cell_plan(words: tuple[Word, ...], collapsed: int, order: int) -> CountPlan:
    """The exponent-sums plan (`_count_by_cells`) over an abelian A_1 of
    order `order` of `words`, the relators left once `_collapse` removed
    `collapsed`: the words in their given order, and the cells in order of
    first appearance.

    Before cell k the states number at most |A_1|^open_k, open_k the
    relators held by a cell before k and by one from k on, and summing out
    cell k multiplies them by |A_1|; the estimate sums |A_1|^(open_k + 1)
    over the cells.  It does not use the cells seen, so a state's digits
    never outnumber the estimate's largest exponent.  The open counts come
    from a difference array over each relator's first and last cell, so
    planning is linear in the letters; past 4,300 digits the estimate is
    the bound of `_transitions`.
    """
    step: dict[int, int] = {}  # cell -> its step, in order of first appearance
    delta = [0] * (sum(map(len, words)) + 1)  # change in the open relators at each step
    for w in words:
        if w:
            ks = [step.setdefault(g, len(step)) for g, _ in w]
            delta[min(ks) + 1] += 1
            delta[max(ks) + 1] -= 1
    steps = [0] * (len(words) + 2)  # steps[e]: cells bounded by |A_1|^e transitions
    live = 0
    for k in range(len(step)):
        live += delta[k]
        steps[live + 1] += 1
    return CountPlan("exponent-sums", _transitions(steps, order, len(step)), words, collapsed)


def _rotation(w: Word, shared: set[int]) -> Word:
    """w read from the earliest cut that minimises the summed spans of its
    cells: a cell spans from its first letter to its last, or to the end of
    the word when it is in `shared`.

    Moving the cut past letter k lengthens the span of every shared cell
    by one, except that of letter k's own cell g: g now starts at its next
    letter, `after[k]` letters on, and when g is not shared it also ends at
    letter k, `before[k]` letters past its previous last letter.  So one
    pass over the cuts scores each against the first.
    """
    m = len(w)
    before, after = [m] * m, [m] * m  # cyclic distance to the cell's previous / next letter
    at: dict[int, int] = {}
    for i in range(2 * m):
        g = w[i % m][0]
        if g in at:
            before[i % m] = after[at[g] % m] = i - at[g]
        at[g] = i
    n_shared = len(shared.intersection(at))
    cut = score = best = 0
    for k in range(m - 1):
        if w[k][0] in shared:
            score += n_shared - after[k]
        else:
            score += n_shared + before[k] - after[k]
        if score < best:
            cut, best = k + 1, score
    return w[cut:] + w[:cut]


def _last_letters(words: Sequence[Word]) -> dict[int, int]:
    """Each 1-cell's last letter, counted through all of `words`."""
    return {gen: k for k, gen in enumerate(gen for w in words for gen, _ in w)}


def _eliminate(p: CWPresentation, cx: FiniteCrossedComplex, words: Sequence[Word],
               collapsed: int) -> int:
    """Count by summing out 1-cells letter by letter along `words`, the
    2-cell words of p or a plan of them, after `collapsed` relators were
    removed by `_collapse` (see module docstring).

    A state is one int: the running product in the lowest base-|A_1| digit
    and each live cell's colour in the digit of the slot it holds while live.
    A relator whose last letter is a new cell is closed there: each value t
    of nonzero weight gives that cell one colour, with t's weight.
    """
    a1 = cx.groups[0]
    order, mul, inv = a1.order, a1.mul, a1.inv
    # letter (gen, e) multiplies by colour v through mul[acc][factor[e][v]]
    factor = {1: range(order), -1: inv}
    weight = _relator_weights(cx)
    support = [(t, m) for t, m in enumerate(weight) if m]
    solved: dict[int, list[list[tuple[int, int]]]] = {}  # e -> acc -> [(colour, weight)]
    last = _last_letters(words)
    slot_of: dict[int, int] = {}
    free: list[int] = []
    states = {0: 1}
    k = 0
    for w in words:
        end = k + len(w)
        pending = True  # the relator's value is still to be weighed
        for gen, e in w:
            src = factor[e]
            drop = last[gen] == k
            k += 1
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
                if k == end:  # acc * src[v] = t for v = src[acc^-1 t]: src is an involution
                    pending = False
                    table = solved.get(e)
                    if table is None:
                        table = solved[e] = [[(src[mul[inv[acc]][t]], m) for t, m in support]
                                             for acc in range(order)]
                    for state, cnt in states.items():
                        acc = state % order
                        rest = state - acc
                        for v, m in table[acc]:
                            key = rest + v * place
                            nxt[key] = get(key, 0) + cnt * m
                else:
                    for state, cnt in states.items():
                        acc = state % order
                        rest = state - acc
                        row = mul[acc]
                        for v in range(order):
                            key = rest + v * place + row[src[v]]
                            nxt[key] = get(key, 0) + cnt
            states = nxt
        if pending:
            closed: dict[int, int] = {}
            for state, cnt in states.items():
                acc = state % order
                if weight[acc]:
                    key = state - acc
                    closed[key] = closed.get(key, 0) + cnt * weight[acc]
            states = closed
    return (sum(states.values()) * sum(weight) ** collapsed
            * order ** (p.count(1) - len(last) - collapsed))


def _count_by_cells(p: CWPresentation, cx: FiniteCrossedComplex, words: Sequence[Word],
                    collapsed: int) -> int:
    """Count over an abelian A_1 by summing out 1-cells one per step, in
    order of first appearance along `words`, the `_cell_plan` of p's
    2-cell words after `collapsed` relators were removed by `_collapse`.

    A relator's value is the product over its cells x of f(x)^s, s the
    exponent sum of x in it.  A state is one int: each open relator's value
    so far in the base-|A_1| digit of the slot it holds while open.  The
    step of cell x multiplies the value of each relator holding x by v^s
    for every colour v, through the row y -> y^s built once per distinct s,
    and weighs each relator whose last cell is x and drops its digit.  A
    relator's lists over the colours depend only on its digit, so each is
    built once per step and digit.  An empty relator weighs w(0).
    """
    a1 = cx.groups[0]
    order, mul = a1.order, a1.mul
    weight = _relator_weights(cx)
    held: dict[int, dict[int, int]] = {}  # cell -> relator -> its exponent sum, in step order
    for j, w in enumerate(words):
        for g, e in w:
            sums = held.setdefault(g, {})
            sums[j] = sums.get(j, 0) + e
    last = {j: k for k, sums in enumerate(held.values()) for j in sums}
    powers: dict[int, list[int]] = {}  # s mod |A_1| -> the row y -> y^s
    slot_of: dict[int, int] = {}
    free: list[int] = []
    states = {0: 1}
    for k, sums in enumerate(held.values()):
        holders = []  # (relator, the place its digit is read from or None when it opens, row)
        for j, s in sums.items():
            row = powers.get(s := s % order)
            if row is None:
                row = [0] * order
                for _ in range(s):
                    row = [mul[a][y] for y, a in enumerate(row)]
                powers[s] = row
            read = order ** slot_of[j] if j in slot_of else None
            if last[j] == k and read is not None:
                free.append(slot_of.pop(j))
            holders.append((j, read, row))
        # per relator holding the cell, and per digit d it may hold, a list over the colours
        # v: of the change d -> d v^s in its digit while it stays open, or of the weight of
        # d v^s when it closes here
        keep, close = [], []  # (read place, write place (kept only), row, the lists by digit)
        for j, read, row in holders:  # a slot freed at this step is reused at once
            if last[j] == k:
                close.append((read, row, [None] * order))
            else:
                if read is None:
                    slot_of[j] = free.pop() if free else len(slot_of)
                keep.append((read, order ** slot_of[j], row, [None] * order))
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, cnt in states.items():
            offsets = weights = None
            for read, write, row, lists in keep:
                d = state // read % order if read else 0
                got = lists[d]
                if got is None:
                    r, was = mul[d], d * write
                    got = lists[d] = [r[y] * write - was for y in row]
                offsets = got if offsets is None else list(map(add, offsets, got))
            base = state
            for read, row, lists in close:
                d = state // read % order if read else 0
                base -= d * (read or 0)
                got = lists[d]
                if got is None:
                    r = mul[d]
                    got = lists[d] = [weight[r[y]] for y in row]
                weights = got if weights is None else [a * b for a, b in zip(weights, got)]
            if offsets is None:
                if total := cnt * sum(weights):
                    nxt[base] = get(base, 0) + total
            elif weights is None:
                for x in offsets:
                    key = base + x
                    nxt[key] = get(key, 0) + cnt
            else:
                for x, m in zip(offsets, weights):
                    if m:
                        key = base + x
                        nxt[key] = get(key, 0) + cnt * m
        states = nxt
    return (sum(states.values()) * weight[0] ** (len(words) - len(last))
            * sum(weight) ** collapsed * order ** (p.count(1) - len(held) - collapsed))


def count_homs(p: CWPresentation, cx: FiniteCrossedComplex) -> int:
    """Number of morphisms P -> A, by the plan count_engine makes.

    Assumes both inputs validated.
    """
    plan = count_engine(p, cx)
    if plan.engine == "elimination":
        return _eliminate(p, cx, plan.words, plan.collapsed)
    if plan.engine == "exponent-sums":
        return _count_by_cells(p, cx, plan.words, plan.collapsed)
    return _backtrack(p, cx)


def _backtrack(p: CWPresentation, cx: FiniteCrossedComplex) -> int:
    s = _Search(p, cx)
    return sum(s.below(f1) for f1 in s.layer1())


def weigh_answer(p: CWPresentation, cx: FiniteCrossedComplex, cap: int,
                 normalization: bool = False) -> int:
    """The most decimal digits the answer may have; raises InstanceTooLarge,
    before anything is planned, when they exceed `cap`.  The count is at
    most the product over `cell_orders`; with `normalization`, the
    numerator times the denominator of the invariant's normalization, the
    products at shifts 1..L-1, multiply the bound.  Digits are summed as
    logarithms, so no large number is built."""
    shifts = range(cx.length if normalization else 1)
    digits = 1 + int(sum(_log10_size(cell_orders(p, cx, s)) for s in shifts))
    if digits > cap:
        raise InstanceTooLarge(
            f"answer of up to {printable(digits)} digits exceeds cap {printable(cap)}")
    return digits


def _log10_size(shape: Sequence[tuple[int, int]]) -> float | int:
    """log10 of prod order ** l over the (l, order) of shape, summed as
    logarithms so that no large number is built.  Past a float's range
    (about 10^308) each log10(order) is rounded up to an integer, so the
    sum is an int bound from above; an order 1 adds no digits."""
    with contextlib.suppress(OverflowError):  # an l past a float's range
        if (digits := sum(ln * math.log10(order) for ln, order in shape)) < math.inf:
            return digits
    return sum(ln * math.ceil(math.log10(order)) for ln, order in shape)


def printable(n: int) -> int | str:
    """`n` for a report or a message, or "about 10^k" past 4,300 digits:
    CPython prints an int in time quadratic in its digits."""
    return n if n < _LONG else f"about 10^{int(math.log10(n))}"


def refuse_count(plan: CountPlan, cap: int) -> None:
    """Raise InstanceTooLarge when the plan's work estimate exceeds `cap`."""
    if plan.estimate > cap:
        raise InstanceTooLarge(
            f"{plan.engine} estimate {printable(plan.estimate)} exceeds cap {printable(cap)}")


def _refuse_size(what: str, shape: Sequence[tuple[int, int]], cap: int) -> None:
    """InstanceTooLarge, `what` formatted with the size and `cap`, when prod
    order ** l over the (l, order) of `shape` exceeds `cap`; weighed by its
    logarithm first, so no power longer than 4,300 digits or `cap` is built."""
    digits = _log10_size(shape)
    if digits > MAX_DIGITS and digits > math.log10(max(cap, 1)) + 1:
        raise InstanceTooLarge(what.format(f"about 10^{printable(int(digits))}", printable(cap)))
    if (size := math.prod(order ** ln for ln, order in shape)) > cap:
        raise InstanceTooLarge(what.format(printable(size), printable(cap)))


def _refuse_entries(what: str, shape: Sequence[tuple[int, int]], cap: int) -> None:
    """InstanceTooLarge, `what` formatted with the entries and `cap`, when
    a colouring of `shape` holds more than `cap` entries, the sum of its l:
    a walk builds every colouring it visits, and a group of order 1 leaves
    the number of colourings at 1 however many cells there are."""
    if (entries := sum(ln for ln, _ in shape)) > cap:
        raise InstanceTooLarge(what.format(printable(entries), printable(cap)))


def enumerate_homs(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Colouring]:
    """All morphisms P -> A as colourings, in lexicographic order.

    The one admission of a listing, before the search is built: raises
    InstanceTooLarge when the answer's digits (`weigh_answer`), then the
    count's estimate (`refuse_count`) exceed `cap`, ResultTooLarge when
    `count_homs` finds more than `cap` morphisms, and InstanceTooLarge when
    each colouring holds more than `cap` entries, sum_m l_m, or the walk of
    |A_1|^{l_1} layer-1 colourings exceeds `cap`.  Every listed
    colouring is checked by the `morphism_checker` of its layer 1, and the
    listing by the count: AssertionError as soon as it grows past the
    count, or when it ends short of it.
    """
    weigh_answer(p, cx, cap)
    refuse_count(count_engine(p, cx), cap)
    n = count_homs(p, cx)
    if n > cap:
        raise ResultTooLarge(f"more than {printable(cap)} morphisms; raise the cap to list them")
    shape = cell_orders(p, cx)
    _refuse_entries("listing of colourings of {} entries each exceeds cap {}", shape, cap)
    _refuse_size("listing walk of {} layer-1 colourings exceeds cap {}", shape[:1], cap)
    s = _Search(p, cx, listing=True)
    found: list[Colouring] = []
    listed = 0
    for f1 in s.layer1():
        tails = s.below(f1)
        listed += len(tails)
        if listed > n:
            break
        if not tails:
            continue
        check = morphism_checker(p, cx, f1)
        for tail in tails:
            c = (f1,) + tail
            if check(c) is not None:  # raised, not asserted: kept under python -O
                raise AssertionError(f"search produced a non-morphism: {c}")
            found.append(c)
    if listed != n:  # raised, not asserted: kept under python -O
        raise AssertionError(f"listing disagrees: counted {n}, listed {listed}")
    return found


def count_homs_bruteforce(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_ENUM_CAP,
) -> int:
    """Oracle count: sweep the full colouring space, check every constraint.

    Shares nothing with the counting engines but attaching-data evaluation.
    Raises InstanceTooLarge when the space, or the entries of one of its
    colourings, exceed `cap`.
    """
    shape = cell_orders(p, cx)
    _refuse_size("brute-force space {} exceeds cap {}", shape, cap)
    _refuse_entries("brute-force colourings of {} entries each exceed cap {}", shape, cap)
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
    on a presentation with zero morphism count says nothing.  Each
    truncation is admitted, counted first, by `enumerate_homs`.
    """
    out: list[tuple[int, int, Colouring, int]] = []
    for n in range(4, min(p.dim, cx.length + 1) + 1):
        if p.count(n) == 0:
            continue
        trunc = CWPresentation(p.cells[:n], p.attach2, p.attach_terms[:n - 3], name=p.name)
        kerbd, mul = cx.boundary(n - 1).image, cx.groups[n - 2].mul
        compiled = _twist_key(cx, {n - 1: p.terms(n)}, itemgetter(n - 1))
        for f in enumerate_homs(trunc, cx, cap=cap):
            got = _apply(mul, compiled(f[0]), f[n - 2])
            out.extend([(n, cell, f, val)
                        for cell, val in enumerate(got) if kerbd[val] != 0])
    return out
