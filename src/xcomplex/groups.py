"""Finite groups given by multiplication tables, with dense 0-based elements.

Conventions used everywhere in the package:

  * the elements of a group of order n are the integers 0 .. n-1;
  * index 0 is always the identity;
  * tables are tuples of tuples and never change after construction.

`make_group` is the only validating constructor.  `table_group` checks the
shape only, so that complex documents leave the group axioms to
`complexes.validate`; the dataclass constructor itself is dumb on purpose,
so tests can build deliberately broken tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    MissingInverse,
    NoIdentityAtZero,
    NotAssociative,
    NotNormal,
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
    """The square table over 0..n-1 as a FiniteGroup, no axiom checked.

    inv[x] is the least two-sided inverse of x, or -1 when x has none.
    """
    mul = tuple(tuple(map(int, row)) for row in mul_table)
    n = len(mul)
    if n == 0:
        raise DimensionMismatch("empty multiplication table")
    for a, row in enumerate(mul):
        if len(row) != n:
            raise DimensionMismatch(f"row {a} has length {len(row)}, expected {n}", (a,))
        for b, v in enumerate(row):
            if not 0 <= v < n:
                raise DimensionMismatch(f"mul entry ({a},{b}) = {v} out of range", (a, b))
    inv = tuple(
        next((y for y in range(n) if mul[x][y] == 0 and mul[y][x] == 0), -1)
        for x in range(n))
    return FiniteGroup(n, mul, inv, name)


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


def group_violations(g: FiniteGroup) -> Iterator[tuple[str, tuple]]:
    """(axiom, witness) per failing axiom of a raw table, in this order:
    group-identity and group-inverse at the first failing element x, and
    group-associativity at the triple of `associativity_witness`."""
    order, mul, inv = g.order, g.mul, g.inv
    x = next((x for x in range(order) if mul[0][x] != x or mul[x][0] != x), None)
    if x is not None:
        yield ("group-identity", (x,))
    x = next((x for x in range(order) if not 0 <= inv[x] < order
              or mul[x][inv[x]] != 0 or mul[inv[x]][x] != 0), None)
    if x is not None:
        yield ("group-inverse", (x,))
    w = associativity_witness(mul)
    if w is not None:
        yield ("group-associativity", w)


def associativity_witness(mul: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """A triple (x, s, y) with (x*s)*y != x*(s*y), or None if `mul` is associative.

    Light's associativity test (Clifford & Preston, The Algebraic Theory of
    Semigroups I, section 1.2) checks s over a generating set S only, so a
    table of order N costs O(N^2 |S|) lookups instead of N^3.  S is chosen
    greedily: each new generator is the least element not yet reached, and
    the reached set is S closed under right multiplication by S, grown from
    S itself (the table may be broken, and its reached set need not hold 0).

    Soundness holds for any finite magma.  T = {t : (x*t)*y = x*(t*y) for
    all x, y} is closed under the product: for t, u in T, x*(t*u) = (x*t)*u
    (t at y = u), so (x*(t*u))*y = ((x*t)*u)*y = (x*t)*(u*y) = x*(t*(u*y))
    = x*((t*u)*y), using u at x*t, then t at u*y, then u at t.  T contains S,
    hence every product reached from S, which is the whole table; so no
    violation with s in S means no violation at all.  A returned triple is
    always a genuine violation; it need not be the lexicographically first.
    """
    n = len(mul)
    if n == 1:
        return None  # [[0]]; itemgetter below returns tuples only for n >= 2
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
    rows = [tuple(row) for row in mul]
    for s in gens:
        through_s = itemgetter(*rows[s])  # row x -> (x*(s*y) for every y)
        for x, mx in enumerate(rows):
            lhs, rhs = rows[mx[s]], through_s(mx)
            if lhs != rhs:
                return (x, s, next(y for y in range(n) if lhs[y] != rhs[y]))
    return None


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
    if len(h.image) != h.source.order:
        raise DimensionMismatch(
            f"image array has length {len(h.image)}, expected {h.source.order}")
    for v in h.image:
        if not 0 <= v < h.target.order:
            raise DimensionMismatch(f"image value {v} out of target range")
    smul, tmul, im = h.source.mul, h.target.mul, h.image
    for x in range(h.source.order):
        for y in range(h.source.order):
            if im[smul[x][y]] != tmul[im[x]][im[y]]:
                return (x, y)
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


def action_violation(a: GroupAction) -> Optional[tuple[str, tuple]]:
    """First failing action axiom as (kind, witness), or None.

    Kinds, in check order: action-bijective (some act[g] is not a
    permutation), action-hom (act[g] does not preserve multiplication),
    action-identity (act[0] is not the identity map), action-composition
    (act[g1*g2] != act[g1] after act[g2]).
    """
    n, m = a.actor.order, a.space.order
    if len(a.act) != n:
        raise DimensionMismatch(f"action has {len(a.act)} rows, expected {n}")
    for g, row in enumerate(a.act):
        if len(row) != m:
            raise DimensionMismatch(f"action row {g} has length {len(row)}, expected {m}")
        for v in row:
            if not 0 <= v < m:
                raise DimensionMismatch(f"action value {v} out of range in row {g}")
    smul = a.space.mul
    for g in range(n):
        row = a.act[g]
        if sorted(row) != list(range(m)):
            return ("action-bijective", (g,))
        for e in range(m):
            for f in range(m):
                if row[smul[e][f]] != smul[row[e]][row[f]]:
                    return ("action-hom", (g, e, f))
    for e in range(m):
        if a.act[0][e] != e:
            return ("action-identity", (e,))
    amul = a.actor.mul
    for g1 in range(n):
        for g2 in range(n):
            row12, row1, row2 = a.act[amul[g1][g2]], a.act[g1], a.act[g2]
            for e in range(m):
                if row12[e] != row1[row2[e]]:
                    return ("action-composition", (g1, g2, e))
    return None


def check_action(a: GroupAction) -> bool:
    return action_violation(a) is None


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    row = tuple(range(space.order))
    return GroupAction(actor, space, (row,) * actor.order)


@dataclass(frozen=True)
class Subgroup:
    """Subset of a parent group with a computed (never assumed) normality flag."""

    parent: FiniteGroup
    members: tuple[int, ...]
    normal: bool


def subgroup(parent: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validate closure under mul/inv and record whether conjugation-stable."""
    mem = tuple(sorted(set(int(x) for x in members)))
    memset = set(mem)
    if 0 not in memset:
        raise ValueError("subgroup must contain the identity 0")
    for x in mem:
        if not 0 <= x < parent.order:
            raise IndexError(f"member {x} out of range")
        if parent.inv[x] not in memset:
            raise ValueError(f"subgroup not closed under inverse at {x}")
        for y in mem:
            if parent.mul[x][y] not in memset:
                raise ValueError(f"subgroup not closed under product at ({x},{y})")
    mul, inv = parent.mul, parent.inv
    normal = all(
        mul[mul[g][x]][inv[g]] in memset
        for g in range(parent.order)
        for x in mem
    )
    return Subgroup(parent, mem, normal)


def fibers_of(h: GroupHom) -> tuple[tuple[int, ...], ...]:
    """Partition of the source by image value, indexed by target element.

    Fiber sizes sum to the source order; fibers over the image all have the
    kernel's size; fibers off the image are empty.
    """
    buckets: list[list[int]] = [[] for _ in range(h.target.order)]
    for x, v in enumerate(h.image):
        buckets[v].append(x)
    return tuple(tuple(b) for b in buckets)


def image_of(h: GroupHom) -> Subgroup:
    return subgroup(h.target, set(h.image))


def subgroup_as_group(parent: FiniteGroup, members: Iterable[int]) -> tuple[FiniteGroup, dict[int, int]]:
    """Reindex a closed subset as a group of its own; returns (group, old->new)."""
    mem = tuple(sorted(set(members)))
    pos = {x: i for i, x in enumerate(mem)}
    try:
        table = [[pos[parent.mul[a][b]] for b in mem] for a in mem]
    except KeyError as exc:
        raise ValueError(f"subset not closed under product (escapes at {exc})") from exc
    return make_group(table, name=f"{parent.name}[{len(mem)}]"), pos


def quotient(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, cosets indexed by their least member.

    The identity coset contains 0, so it gets index 0.  Returns the quotient
    group and the projection hom.  Raises NotNormal when the flag is false.
    """
    if n.parent != g:
        raise DimensionMismatch("subgroup belongs to a different parent group")
    if not n.normal:
        raise NotNormal(f"subgroup of order {len(n.members)} is not normal in {g.name or 'G'}")
    rep = [min(g.mul[x][m] for m in n.members) for x in range(g.order)]
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[rep[g.mul[a][b]]] for b in reps] for a in reps]
    q = make_group(table, name=f"{g.name}/{len(n.members)}")
    proj = GroupHom(g, q, tuple(pos[rep[x]] for x in range(g.order)))
    return q, proj
