"""Finite groups given by multiplication tables, with dense 0-based elements.

Conventions used everywhere in the package:

  * the elements of a group of order n are the integers 0 .. n-1;
  * index 0 is always the identity;
  * tables are tuples of tuples and never change after construction.

`make_group` is the only validating constructor.  `table_group` checks the
shape only, so that complex documents leave the group axioms to
`complexes.validate`; the dataclass constructor itself is dumb on purpose,
so tests can build deliberately broken tables; a group holds its table
and inverses only (`enumeration.count_engine` decides commutativity when it
plans).  There are no subgroup or quotient types: `complexes` builds pi1
and homology as coset tables itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    MissingInverse,
    NoIdentityAtZero,
    NotAssociative,
)


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication-table group; build through make_group or the factories."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or '?'}, order={self.order})"


def table_group(mul_table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """The square table of ints over 0..n-1 as a FiniteGroup, no axiom checked:
    inv[x] is the least two-sided inverse of x, or -1 when x has none."""
    mul = tuple(map(tuple, mul_table))
    n = len(mul)
    if n == 0:
        raise DimensionMismatch("empty multiplication table")
    in_range = set(range(n))
    # one length pass and one range pass; rows are scanned only to name the first bad one
    if set(map(len, mul)) != {n} or not in_range.issuperset(itertools.chain.from_iterable(mul)):
        for a, row in enumerate(mul):
            if len(row) != n:
                raise DimensionMismatch(f"row {a} has length {len(row)}, expected {n}", (a,))
            if not in_range.issuperset(row):
                b = next(b for b, v in enumerate(row) if v not in in_range)
                raise DimensionMismatch(f"mul entry ({a},{b}) = {row[b]} out of range", (a, b))
    return FiniteGroup(n, mul, tuple(_least_inverse(mul, x) for x in range(n)), name)


def _least_inverse(mul: tuple[tuple[int, ...], ...], x: int) -> int:
    """The least y with x*y = 0 = y*x, or -1; only the zeros of row x are tried."""
    row, y = mul[x], -1
    try:
        while True:
            y = row.index(0, y + 1)
            if mul[y][x] == 0:
                return y
    except ValueError:  # no zero left in row x
        return -1


_AXIOM_ERRORS = {
    "group-identity": (NoIdentityAtZero, "index 0 is not a two-sided identity at x={}"),
    "group-inverse": (MissingInverse, "element {} has no two-sided inverse"),
    "group-associativity": (NotAssociative, "({0}*{1})*{2} != {0}*({1}*{2})"),
}


def make_group(mul_table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.

    Raises DimensionMismatch for shape problems, else the error of the first
    of `group_violations` with its witness: NoIdentityAtZero, MissingInverse,
    or NotAssociative naming a genuine violating triple (x, s, y) that need
    not be the lexicographically first.
    """
    g = table_group(mul_table, name)
    for axiom, w in group_violations(g):
        error, message = _AXIOM_ERRORS[axiom]
        raise error(message.format(*w), w)
    return g


def group_violations(g: FiniteGroup,
                     gens: Optional[Sequence[int]] = None) -> Iterator[tuple[str, tuple]]:
    """(axiom, witness) per failing axiom of a raw table, in this order:
    group-identity and group-inverse at the first failing element x, and
    group-associativity at the triple of `associativity_witness` (given
    `gens`, the table's greedy generators, when the caller has them)."""
    order, mul, inv = g.order, g.mul, g.inv
    x = next((x for x in range(order) if mul[0][x] != x or mul[x][0] != x), None)
    if x is not None:
        yield ("group-identity", (x,))
    x = next((x for x in range(order) if not 0 <= inv[x] < order
              or mul[x][inv[x]] != 0 or mul[inv[x]][x] != 0), None)
    if x is not None:
        yield ("group-inverse", (x,))
    w = associativity_witness(mul, gens)
    if w is not None:
        yield ("group-associativity", w)


def associativity_witness(mul: Sequence[Sequence[int]],
                          gens: Optional[Sequence[int]] = None) -> Optional[tuple[int, int, int]]:
    """A triple (x, s, y) with (x*s)*y != x*(s*y), or None if `mul` is associative.

    Light's associativity test (Clifford & Preston, The Algebraic Theory of
    Semigroups I, section 1.2) checks s over a generating set S only, so a
    table of order N costs O(N^2 |S|) lookups instead of N^3.  S is `gens`,
    the `greedy_generators` of the table, computed here when None.  When 32
    <= N <= 256 (below 32, converting rows costs more than it saves) and
    every entry lies in 0..N-1, a byte kernel runs first: the table passes
    if row x*s is row s translated by row x (`bytes.translate`) for every s
    in S and x.  Otherwise, or on a mismatch, the `itemgetter` sweep runs.

    Soundness holds for any finite magma.  T = {t : (x*t)*y = x*(t*y) for
    all x, y} is closed under the product: for t, u in T, x*(t*u) = (x*t)*u
    (t at y = u), so (x*(t*u))*y = ((x*t)*u)*y = (x*t)*(u*y) = x*(t*(u*y))
    = x*((t*u)*y), using u at x*t, then t at u*y, then u at t.  T contains S,
    hence every product reached from S, which is the whole table; so no
    violation with s in S means no violation at all.  When row 0 and column
    0 are the identity, 0 lies in T by construction, (x*0)*y = x*y =
    x*(0*y), and is not swept.  A returned triple is always a genuine
    violation; it need not be the lexicographically first.
    """
    n = len(mul)
    if n == 1:
        return None  # [[0]]; itemgetter below returns tuples only for n >= 2
    rows = [tuple(row) for row in mul]
    if gens is None:
        gens = greedy_generators(mul)
    if rows[0] == tuple(range(n)) and all(row[0] == x for x, row in enumerate(rows)):
        gens = [s for s in gens if s]
    try:  # the byte kernel takes n entries per row, none left once bytes 0..n-1 are deleted
        brows = [bytes(row) for row in rows] if 32 <= n <= 256 else ()
    except (TypeError, ValueError):  # an entry bytes() refuses
        brows = ()
    if set(map(len, brows)) == {n} and not b"".join(brows).translate(None, bytes(range(n))):
        through = [row.ljust(256, b"\0") for row in brows]
        if all(brows[bx[s]] == brows[s].translate(through[x])  # x*(s*y) for every y
               for s in gens for x, bx in enumerate(brows)):
            return None
    for s in gens:
        through_s = itemgetter(*rows[s])  # row x -> (x*(s*y) for every y)
        for x, mx in enumerate(rows):
            lhs, rhs = rows[mx[s]], through_s(mx)
            if lhs != rhs:
                return (x, s, next(y for y in range(n) if lhs[y] != rhs[y]))
    return None


def greedy_generators(mul: Sequence[Sequence[int]]) -> list[int]:
    """A generating set S of a finite table, chosen greedily.

    Each new generator is the least element not yet reached, and the reached
    set is S closed under right multiplication by S, grown from S itself
    (the table may be broken, and its reached set need not hold 0), so every
    element is a product of generators.  In a group with identity 0 the
    first generator is 0, which reaches only itself, and the others generate.
    """
    n = len(mul)
    reached = [False] * n
    members: list[int] = []
    gens: list[int] = []
    for g in range(n):
        if reached[g]:
            continue
        gens.append(g)
        # old members need the new generator, new members every generator
        queue = [g] + [mul[r][g] for r in members]
        for r in queue:
            if not reached[r]:
                reached[r] = True
                members.append(r)
                queue.extend(mul[r][s] for s in gens)
    return gens


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n written additively, identity 0."""
    if n < 1:
        raise ValueError("cyclic_group needs n >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(table, name=f"Z/{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on index pairs packed as a*|H| + b."""
    m = h.order
    table = [[g.mul[a][c] * m + h.mul[b][d] for c in range(g.order) for d in range(m)]
             for a in range(g.order) for b in range(m)]
    return make_group(table, name=f"{g.name}x{h.name}")


def symmetric_group_3() -> FiniteGroup:
    """S3 acting on {0,1,2}.

    Elements are the six permutation tuples in lexicographic order, so the
    identity (0,1,2) sits at index 0; the product p*q composes as
    x -> p[q[x]] (q first).
    """
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]
    return make_group(table, name="S3")


@dataclass(frozen=True)
class GroupHom:
    """Map between table groups, stored as the image array over the source."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]


def hom_violation(h: GroupHom) -> Optional[tuple[int, int]]:
    """First pair (x, y) with image(x*y) != image(x)*image(y), or None.

    image(0) = 0 is implied: the sweep hits (0, 0) where the equation forces
    the identity by cancellation.
    """
    smul, tmul, im = h.source.mul, h.target.mul, h.image
    if len(im) != h.source.order:
        raise DimensionMismatch(f"image array has length {len(im)}, expected {h.source.order}")
    if min(im) < 0 or max(im) >= h.target.order:
        v = next(v for v in im if not 0 <= v < h.target.order)
        raise DimensionMismatch(f"image value {v} out of target range")
    for x, row in enumerate(smul):  # image(x*y) and image(x)*image(y) for every y
        if itemgetter(*row)(im) != itemgetter(*im)(tmul[im[x]]):
            return (x, next(y for y in range(len(im)) if im[row[y]] != tmul[im[x]][im[y]]))
    return None


def check_hom(h: GroupHom) -> bool:
    return hom_violation(h) is None


def zero_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    return GroupHom(source, target, (0,) * source.order)


@dataclass(frozen=True)
class GroupAction:
    """Left action of `actor` on `space` by automorphisms: act[g][e]."""

    actor: FiniteGroup
    space: FiniteGroup
    act: tuple[tuple[int, ...], ...]
    _powered: dict[int, tuple[tuple[int, ...], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def powered(self, e: int) -> tuple[tuple[int, ...], ...]:
        """Rows of y -> (g |> y)^e per g, for 0 < e < |space|; built once per e."""
        rows = self._powered.get(e)
        if rows is None:
            mul = self.space.mul
            pw = range(self.space.order)
            for _ in range(e - 1):
                pw = [mul[a][y] for y, a in enumerate(pw)]
            rows = self._powered[e] = tuple(tuple(pw[v] for v in row) for row in self.act)
        return rows


def action_violation(a: GroupAction,
                     composers: Optional[Sequence[int]] = None) -> Optional[tuple[str, tuple]]:
    """First failing action axiom as (kind, witness), or None.

    Kinds, in check order: action-bijective (some act[g] is not a
    permutation), action-hom (act[g] does not preserve multiplication),
    action-identity (act[0] is not the identity map), action-composition
    (act[g1*g2] != act[g1] after act[g2]).  The first two are checked once
    per distinct row and name the least g holding it.

    Composition is checked for g2 in `composers` only: the caller's
    `greedy_generators(actor)` when the actor is associative, where the t
    with act[g*t] = act[g] after act[t] for every g are closed under the
    product, as in `associativity_witness`, and every g2 otherwise.  When
    None, the actor's associativity is tested here to choose.
    """
    n, m, act = a.actor.order, a.space.order, a.act
    if len(act) != n:
        raise DimensionMismatch(f"action has {len(act)} rows, expected {n}")
    for g, row in enumerate(act):
        if len(row) != m:
            raise DimensionMismatch(f"action row {g} has length {len(row)}, expected {m}")
        if min(row) < 0 or max(row) >= m:
            v = next(v for v in row if not 0 <= v < m)
            raise DimensionMismatch(f"action value {v} out of range in row {g}")
    for row in dict.fromkeys(act):  # each distinct row once, the least g holding it named
        if len(set(row)) != m:
            return ("action-bijective", (act.index(row),))
        w = hom_violation(GroupHom(a.space, a.space, row))
        if w is not None:
            return ("action-hom", (act.index(row),) + w)
    for e in range(m):
        if act[0][e] != e:
            return ("action-identity", (e,))
    amul = a.actor.mul
    if composers is None:
        gens = greedy_generators(amul)
        composers = gens if associativity_witness(amul, gens) is None else range(n)
    for g2 in composers if m > 1 else ():
        after2 = itemgetter(*act[g2])  # row1 after act[g2], as a tuple for m > 1 (m = 1 composes)
        for g1, row1 in enumerate(act):
            row12 = act[amul[g1][g2]]
            if row12 != after2(row1):
                return ("action-composition",
                        (g1, g2, next(e for e in range(m) if row12[e] != row1[act[g2][e]])))
    return None


def check_action(a: GroupAction) -> bool:
    return action_violation(a) is None


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    row = tuple(range(space.order))
    return GroupAction(actor, space, (row,) * actor.order)


def fibers_of(h: GroupHom) -> tuple[tuple[int, ...], ...]:
    """Partition of the source by image value, indexed by target element.

    Fiber sizes sum to the source order; fibers over the image all have the
    kernel's size; fibers off the image are empty.
    """
    buckets: list[list[int]] = [[] for _ in range(h.target.order)]
    for x, v in enumerate(h.image):
        buckets[v].append(x)
    return tuple(tuple(b) for b in buckets)
