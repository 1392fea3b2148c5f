"""Finite reduced crossed complexes.

A complex of length L is a tower of table groups A_1 .. A_L with boundary
homs d_n: A_n -> A_{n-1} (n = 2..L) and A_1-actions on every A_n (n >= 2),
subject to the crossed-module axioms at the bottom and chain-complex,
equivariance, abelianness and factoring axioms above.  `validate` checks
every axiom exactly (associativity by Light's test on a generating set, the
rest by exhaustive sweeps); everything downstream assumes a validated
complex and does not re-check.

pi1 and H_n are coset groups on least elements (`_cosets`), built without
subgroup, normality or group-axiom checks: on a validated complex im d_2
is normal in A_1 by CM1, and im d_{n+1} lies in ker d_n (complex axiom)
and is normal there (A_n is abelian for n >= 3, ker d_2 central by Peiffer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidComplex,
    ValidationReport,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    action_violation,
    greedy_generators,
    group_violations,
    hom_violation,
    table_group,
)


@dataclass(frozen=True)
class FiniteCrossedComplex:
    """Tower (A_1..A_L, d_2..d_L, act_2..act_L); boundaries[k] is d_{k+2}."""

    groups: tuple[FiniteGroup, ...]
    boundaries: tuple[GroupHom, ...]
    actions: tuple[GroupAction, ...]
    name: str = field(default="", compare=False)

    @property
    def length(self) -> int:
        return len(self.groups)

    def group(self, n: int) -> FiniteGroup:
        if not 1 <= n <= self.length:
            raise IndexOutOfRange(f"no group in degree {n}")
        return self.groups[n - 1]

    def boundary(self, n: int) -> GroupHom:
        if not 2 <= n <= self.length:
            raise IndexOutOfRange(f"no boundary in degree {n}")
        return self.boundaries[n - 2]

    def action(self, n: int) -> GroupAction:
        if not 2 <= n <= self.length:
            raise IndexOutOfRange(f"no action in degree {n}")
        return self.actions[n - 2]

    def __repr__(self) -> str:
        orders = ",".join(str(g.order) for g in self.groups)
        return f"FiniteCrossedComplex({self.name or '?'}, orders=[{orders}])"


def size_at(cx: FiniteCrossedComplex, k: int) -> int:
    """|A_k| for k <= L, and 1 beyond the truncation degree."""
    if k < 1:
        raise IndexOutOfRange(f"degree {k} < 1")
    if k <= cx.length:
        return cx.groups[k - 1].order
    return 1


def from_group(g: FiniteGroup) -> FiniteCrossedComplex:
    """Length-1 complex concentrated in degree 1."""
    return FiniteCrossedComplex((g,), (), (), name=g.name)


def from_crossed_module(
    g: FiniteGroup,
    e: FiniteGroup,
    bd: GroupHom,
    act: GroupAction,
    name: str = "",
) -> FiniteCrossedComplex:
    """Length-2 complex from crossed-module data; validates before returning."""
    cx = FiniteCrossedComplex(
        (g, e), (bd,), (act,), name=name or f"({g.name},{e.name})")
    report = validate(cx)
    if not report.ok:
        raise InvalidComplex(report)
    return cx


def _check_shape(cx: FiniteCrossedComplex) -> None:
    l = cx.length
    if l < 1:
        raise DimensionMismatch("complex needs at least degree 1")
    if len(cx.boundaries) != l - 1 or len(cx.actions) != l - 1:
        raise DimensionMismatch(
            f"length {l} complex needs {l - 1} boundaries and actions, "
            f"got {len(cx.boundaries)} and {len(cx.actions)}")
    for n, g in enumerate(cx.groups, 1):  # lengths only: entry ranges are table_group's
        if len(g.mul) != g.order or set(map(len, g.mul)) != {g.order} or len(g.inv) != g.order:
            raise DimensionMismatch(f"group {n} tables do not fit its order {g.order}")
    for n in range(2, l + 1):
        bd = cx.boundary(n)
        if bd.source.order != cx.groups[n - 1].order or len(bd.image) != bd.source.order:
            raise DimensionMismatch(f"boundary {n} source shape mismatch")
        if bd.target.order != cx.groups[n - 2].order:
            raise DimensionMismatch(f"boundary {n} target shape mismatch")
        act = cx.action(n)
        if act.actor.order != cx.groups[0].order or act.space.order != cx.groups[n - 1].order:
            raise DimensionMismatch(f"action {n} shape mismatch")


def validate(cx: FiniteCrossedComplex) -> ValidationReport:
    """Axiom check over a complex, exact for every axiom.

    Associativity of each group is proved by Light's test on a generating
    set, O(N^2 |S|) per table of order N; every other axiom is swept
    exhaustively.  Shape problems raise DimensionMismatch; axiom failures
    are collected into the report, one entry per failing check site (the
    first witness found there).  Axiom names are listed on ValidationReport.
    """
    _check_shape(cx)
    length = cx.length
    violations: list[tuple[str, tuple]] = []

    a1 = cx.groups[0]
    gens = greedy_generators(a1.mul)  # Light's test on A_1 and every action's composition
    for n, g in enumerate(cx.groups, 1):
        violations.extend((axiom, (n,) + w)
                          for axiom, w in group_violations(g, gens if n == 1 else None))
    a1_associative = ("group-associativity", 1) not in ((v, w[0]) for v, w in violations)
    composers = gens if a1_associative else range(a1.order)

    for n in range(2, length + 1):
        w = hom_violation(cx.boundary(n))
        if w is not None:
            violations.append(("boundary-hom", (n,) + w))
        aw = action_violation(cx.action(n), composers)
        if aw is not None:
            violations.append((aw[0], (n,) + aw[1]))

    def first(axiom, witnesses):
        w = next(witnesses, None)
        if w is not None:
            violations.append((axiom, w))

    if length >= 2:
        a2 = cx.groups[1]
        bd2, act2 = cx.boundary(2).image, cx.action(2).act
        # CM1: d2(x |> e) = x d2(e) x^-1
        first("CM1", ((x, e) for x in range(a1.order) for e in range(a2.order)
                      if bd2[act2[x][e]] != a1.mul[a1.mul[x][bd2[e]]][a1.inv[x]]))
        # Peiffer: d2(e) |> f = e f e^-1
        first("Peiffer", ((e, f) for e in range(a2.order) for f in range(a2.order)
                          if act2[bd2[e]][f] != a2.mul[a2.mul[e][f]][a2.inv[e]]))

    for n in range(3, length + 1):
        an = cx.groups[n - 1]
        bdn, bdn1 = cx.boundary(n).image, cx.boundary(n - 1).image
        actn, actn1 = cx.action(n).act, cx.action(n - 1).act
        # equivariance: d_n(x |> a) = x |> d_n(a)
        first("equivariance", ((n, x, a) for x in range(a1.order) for a in range(an.order)
                               if bdn[actn[x][a]] != actn1[x][bdn[a]]))
        # complex: d_{n-1} d_n = 1
        first("complex", ((n, a) for a in range(an.order) if bdn1[bdn[a]] != 0))
        # abelian above degree 2
        first("abelian", ((n, a, b) for a in range(an.order) for b in range(an.order)
                          if an.mul[a][b] != an.mul[b][a]))
        # action factors through coker d2: im d2 acts trivially
        first("factoring", ((n, x, a) for x in sorted(set(bd2)) for a in range(an.order)
                            if actn[x][a] != a))

    return ValidationReport(violations)


def _cosets(g: FiniteGroup, within: Iterable[int], members: set[int], name: str) -> FiniteGroup:
    """Cosets x . members, x in `within` (a subgroup of g, `members` normal
    in it), as a group on their least elements in index order."""
    mul = g.mul
    rep = {x: min(mul[x][m] for m in members) for x in within}
    reps = sorted(set(rep.values()))
    pos = {r: i for i, r in enumerate(reps)}
    return table_group([[pos[rep[mul[a][b]]] for b in reps] for a in reps], name)


def pi1(cx: FiniteCrossedComplex) -> FiniteGroup:
    """Fundamental group: A_1 for length 1, else A_1 / im d_2."""
    a1 = cx.groups[0]
    if cx.length == 1:
        return a1
    img = set(cx.boundary(2).image)
    return _cosets(a1, range(a1.order), img, f"{a1.name}/{len(img)}")


def homology(cx: FiniteCrossedComplex, n: int) -> FiniteGroup:
    """ker d_n / im d_{n+1} for 2 <= n <= L (d_{L+1} is trivial)."""
    if not 2 <= n <= cx.length:
        raise IndexOutOfRange(f"homology degree {n} outside 2..{cx.length}")
    an = cx.groups[n - 1]
    ker = [x for x, v in enumerate(cx.boundary(n).image) if v == 0]
    img = set(cx.boundary(n + 1).image) if n < cx.length else {0}
    return _cosets(an, ker, img, f"{an.name}[{len(ker)}]/{len(img)}")
