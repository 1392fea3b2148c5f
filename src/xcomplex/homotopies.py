"""1-fold homotopies between morphisms and the class decomposition they induce.

A 1-fold homotopy out of a morphism f is a free choice of values
H_n: C_n -> A_{n+1} for n = 1 .. L-1; there are no compatibility equations,
so the number of homotopies out of f is a plain product of coefficient
sizes.  The target morphism is computed from f and H by

    g_n(c) = f_n(c) * H_{n-1}(attach(c)) * d_{n+1}(H_n(c))   (1 <= n <= L)

where the middle factor is 1 for n = 1, H_1 extends to words as a
derivation (n = 2), and for n >= 3 H_{n-1} is evaluated on the attaching
data by the evaluator that reads a morphism's f_{n-1},
`enumeration.layer_targets`, one degree up: in A_n instead of A_{n-1},
once per layer.  The last factor is dropped for n = L.
Every computed target is verified; a failure raises TargetNotMorphism.

Homotopy classes are the connected components of the graph on Hom(P, A)
whose edges join f to the target of a homotopy out of f.  The graph walked
has only the *elementary* homotopies as edges: those whose value table is
the identity everywhere except at one cell, sum_k l_k (|A_{k+1}| - 1) of
them per morphism instead of prod_k |A_{k+1}|^{l_k}.  They give the same
components.  Homotopies compose by pointwise product of their value tables
(Brown and Higgins, J. Pure Appl. Algebra 47, 1987): following H out of f
and then K out of its target ends where H * K out of f does.  A table with
m non-identity values is the pointwise product of the m elementary tables
that carry one value each, and since no two of them share a cell, the
product does not depend on their order.  So the target of any homotopy out
of f is reached from f along m elementary edges.  `homotopy_value_space`
walks the full graph and serves as the independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .complexes import FiniteCrossedComplex, size_at
from .errors import DimensionMismatch, ResultTooLarge, TargetNotMorphism
from .enumeration import (
    Colouring,
    Morphism,
    enumerate_homs,
    layer_targets,
    morphism_violation,
)
from .presentations import CWPresentation, Word

DEFAULT_EDGE_CAP = 10**7


@dataclass(frozen=True)
class Homotopy1:
    """Source morphism plus value tables; values[n-1] maps C_n into A_{n+1}."""

    source: Morphism
    values: tuple[tuple[int, ...], ...]


def eval_derivation(
    cx: FiniteCrossedComplex,
    f1: tuple[int, ...],
    h1: tuple[int, ...],
    w: Word,
) -> int:
    """Extend H_1 to a word by the derivation rule s(Xy) = (f1(y)^-1 |> s(X)) s(y).

    On a negative letter x^-1 the value is f1(x) |> H_1(x)^-1, the unique
    choice with s(x x^-1) = 1.  The result only depends on the free
    reduction of w.
    """
    if cx.length < 2:
        raise DimensionMismatch("derivations need a complex of length >= 2")
    a1, a2 = cx.groups[0], cx.groups[1]
    act = cx.actions[0].act
    s = 0
    for g, e in w:
        if e == 1:
            phi = f1[g]
            sv = h1[g]
        else:
            phi = a1.inv[f1[g]]
            sv = act[f1[g]][a2.inv[h1[g]]]
        s = a2.mul[act[a1.inv[phi]][s]][sv]
    return s


def homotopy_target(k: Homotopy1) -> Morphism:
    """Morphism at the far end of a homotopy; raises TargetNotMorphism if the
    computed colouring fails verification."""
    f = k.source
    p, cx = f.presentation, f.coefficients
    length = cx.length
    h = k.values
    if len(h) != max(length - 1, 0):
        raise DimensionMismatch(
            f"homotopy needs {length - 1} value tables, got {len(h)}")
    f1 = f.colours[0]
    out: list[tuple[int, ...]] = []
    for n in range(1, length + 1):
        an = cx.groups[n - 1]
        bd = cx.boundary(n + 1).image if n < length else None
        mid = layer_targets(p, cx, f1, h[n - 2], n, n) if n >= 3 and p.count(n) else None
        layer = []
        for c in range(p.count(n)):
            val = f.colours[n - 1][c]
            if n == 2:
                val = an.mul[val][eval_derivation(cx, f1, h[0], p.attach2[c])]
            elif mid is not None:
                val = an.mul[val][mid[c]]
            if bd is not None:
                val = an.mul[val][bd[h[n - 1][c]]]
            layer.append(val)
        out.append(tuple(layer))
    colours = tuple(out)
    w = morphism_violation(p, cx, colours)
    if w is not None:
        raise TargetNotMorphism(f"homotopy target violates {w}", w)
    return Morphism(p, cx, colours)


def count_homotopies_from(f: Morphism) -> int:
    """Number of homotopies out of f: prod_k |A_{k+1}|^{l_k}.

    The count does not depend on f; sizes above the truncation degree
    contribute 1, so the product is finite and equals 1 when L = 1.
    """
    p, cx = f.presentation, f.coefficients
    out = 1
    for k in range(1, p.dim + 1):
        out *= size_at(cx, k + 1) ** p.count(k)
    return out


def homotopy_value_space(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All 1-fold homotopy value tables, lexicographic by (layer, cell, value).

    Yields exactly one empty table when L = 1 (the identity homotopy).
    """
    length = cx.length
    shapes = [(p.count(n), cx.groups[n].order) for n in range(1, length)]
    ranges = []
    for ln, order in shapes:
        ranges.extend([range(order)] * ln)
    for flat in itertools.product(*ranges):
        values = []
        at = 0
        for ln, _ in shapes:
            values.append(tuple(flat[at:at + ln]))
            at += ln
        yield tuple(values)


def elementary_value_tables(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Value tables of the elementary homotopies: identity everywhere except
    h[k-1][c] = v, for k = 1 .. L-1, c < l_k and v = 1 .. |A_{k+1}|-1."""
    identity = tuple((0,) * p.count(k) for k in range(1, cx.length))
    for k, layer in enumerate(identity, start=1):
        for c in range(len(layer)):
            for v in range(1, cx.groups[k].order):
                values = list(identity)
                values[k - 1] = layer[:c] + (v,) + layer[c + 1:]
                yield tuple(values)


def count_class_edges(p: CWPresentation, cx: FiniteCrossedComplex, morphisms: int) -> int:
    """Edges `homotopy_classes` walks on `morphisms` morphisms:
    morphisms * sum_k l_k (|A_{k+1}| - 1)."""
    return morphisms * sum(
        p.count(k) * (cx.groups[k].order - 1) for k in range(1, cx.length))


@dataclass(frozen=True)
class ClassDecomposition:
    """Partition of the morphism set into homotopy classes.

    Representatives are the least-index morphisms of their classes, listed
    in index order; sizes align with representatives and sum to the number
    of morphisms.
    """

    count: int
    representatives: tuple[Morphism, ...]
    sizes: tuple[int, ...]


def homotopy_classes(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    cap: int = DEFAULT_EDGE_CAP,
) -> ClassDecomposition:
    """Connected components of the 1-fold homotopy graph on Hom(P, A).

    Raises ResultTooLarge when the elementary edges to walk,
    `count_class_edges(p, cx, #morphisms)`, exceed `cap`.
    """
    homs = enumerate_homs(p, cx, cap=cap)
    if not homs:
        return ClassDecomposition(0, (), ())
    edges = count_class_edges(p, cx, len(homs))
    if edges > cap:
        raise ResultTooLarge(
            f"{len(homs)} morphisms x {edges // len(homs)} elementary homotopies"
            f" = {edges} edges exceeds edge cap {cap}")
    tables = tuple(elementary_value_tables(p, cx))
    index: dict[Colouring, int] = {m.colours: i for i, m in enumerate(homs)}

    parent = list(range(len(homs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, f in enumerate(homs):
        for values in tables:
            j = index[homotopy_target(Homotopy1(f, values)).colours]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    members: dict[int, list[int]] = {}
    for i in range(len(homs)):
        members.setdefault(find(i), []).append(i)
    roots = sorted(members)
    return ClassDecomposition(
        count=len(roots),
        representatives=tuple(homs[r] for r in roots),
        sizes=tuple(len(members[r]) for r in roots),
    )


def homotopy_orbit(f: Morphism) -> tuple[int, int]:
    """Orbit size and stabiliser order of f over the full value space:
    the number of distinct targets of homotopies out of f, and the number of
    homotopies whose target is f itself."""
    targets = set()
    fixing = 0
    for k in enumerate_homotopies_from(f):
        g = homotopy_target(k).colours
        targets.add(g)
        fixing += g == f.colours
    return len(targets), fixing


def enumerate_homotopies_from(f: Morphism) -> Iterator[Homotopy1]:
    """All 1-fold homotopies out of f, in value-table order."""
    for values in homotopy_value_space(f.presentation, f.coefficients):
        yield Homotopy1(f, values)
