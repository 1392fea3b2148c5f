"""1-fold homotopies between morphisms and the class decomposition they induce.

A 1-fold homotopy out of a morphism f is a free choice of values
H_n: C_n -> A_{n+1} for n = 1 .. L-1; there are no compatibility equations,
so the number of homotopies out of f is a plain product of coefficient
sizes, the same for every f.  Morphisms are plain colourings (see
`enumeration`) and a homotopy is its value table h, one tuple per degree
with h[n-1] = H_n, taken together with the colouring f it starts from.
The target morphism is computed from f and H by

    g_n(c) = f_n(c) * H_{n-1}(attach(c)) * d_{n+1}(H_n(c))   (1 <= n <= L)

where the middle factor is 1 for n = 1, H_1 extends to words as a
derivation (n = 2), and for n >= 3 H_{n-1} is evaluated on the attaching
data by the evaluator that reads a morphism's f_{n-1},
`enumeration.layer_targets`, one degree up: in A_n instead of A_{n-1},
once per layer.  The last factor is dropped for n = L.
Every computed target is verified against all morphism constraints by the
`enumeration.morphism_checker` of its own layer 1: `homotopy_classes`
keeps one checker per layer-1 colouring for its walk, `homotopy_target`
checks through `morphism_violation`.  A failure raises TargetNotMorphism.
Both compute the target by one helper, `_target`.

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

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .complexes import FiniteCrossedComplex
from .errors import DimensionMismatch, ResultTooLarge, TargetNotMorphism
from .enumeration import (
    Colouring,
    enumerate_homs,
    layer_targets,
    layered_product,
    morphism_checker,
    morphism_violation,
)
from .presentations import CWPresentation, Word

DEFAULT_EDGE_CAP = 10**7


def _value_shape(p: CWPresentation, cx: FiniteCrossedComplex) -> list[tuple[int, int]]:
    """(l_k, |A_{k+1}|) for k = 1 .. L-1: H_k colours the l_k k-cells in A_{k+1}."""
    return [(p.count(k), cx.groups[k].order) for k in range(1, cx.length)]


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


def homotopy_target(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    f: Colouring,
    h: Colouring,
) -> Colouring:
    """Colouring at the far end of the homotopy with value table h out of
    the morphism f; raises TargetNotMorphism if it fails verification."""
    if len(h) != max(cx.length - 1, 0):
        raise DimensionMismatch(
            f"homotopy needs {cx.length - 1} value tables, got {len(h)}")
    g = _target(p, cx, f, h)
    _verify(morphism_violation(p, cx, g))
    return g


def _target(p: CWPresentation, cx: FiniteCrossedComplex, f: Colouring, h: Colouring) -> Colouring:
    """g = the far end of h out of f by the formula of the module docstring,
    unverified; h has one value table per degree 1..L-1."""
    length = cx.length
    f1 = f[0]
    out: list[tuple[int, ...]] = []
    for n in range(1, length + 1):
        an = cx.groups[n - 1]
        bd = cx.boundary(n + 1).image if n < length else None
        mid = layer_targets(p, cx, f1, h[n - 2], n, n) if n >= 3 and p.count(n) else None
        layer = []
        for c in range(p.count(n)):
            val = f[n - 1][c]
            if n == 2:
                val = an.mul[val][eval_derivation(cx, f1, h[0], p.attach2[c])]
            elif mid is not None:
                val = an.mul[val][mid[c]]
            if bd is not None:
                val = an.mul[val][bd[h[n - 1][c]]]
            layer.append(val)
        out.append(tuple(layer))
    return tuple(out)


def _verify(violation: Optional[tuple]) -> None:
    if violation is not None:
        raise TargetNotMorphism(f"homotopy target violates {violation}", violation)


def count_homotopies(p: CWPresentation, cx: FiniteCrossedComplex) -> int:
    """Number of homotopies out of any morphism P -> A: prod_k |A_{k+1}|^{l_k},
    which is 1 when L = 1."""
    return math.prod(order ** ln for ln, order in _value_shape(p, cx))


def homotopy_value_space(p: CWPresentation, cx: FiniteCrossedComplex) -> Iterator[Colouring]:
    """All 1-fold homotopy value tables, lexicographic by (layer, cell, value).

    Yields exactly one empty table when L = 1 (the identity homotopy).
    """
    return layered_product(_value_shape(p, cx))


def elementary_value_tables(p: CWPresentation, cx: FiniteCrossedComplex) -> Iterator[Colouring]:
    """Value tables of the elementary homotopies: identity everywhere except
    h[k-1][c] = v, for k = 1 .. L-1, c < l_k and v = 1 .. |A_{k+1}|-1."""
    shape = _value_shape(p, cx)
    identity = tuple((0,) * ln for ln, _ in shape)
    for k, (ln, order) in enumerate(shape):
        for c in range(ln):
            for v in range(1, order):
                values = list(identity)
                values[k] = identity[k][:c] + (v,) + identity[k][c + 1:]
                yield tuple(values)


def count_class_edges(p: CWPresentation, cx: FiniteCrossedComplex, morphisms: int) -> int:
    """Edges `homotopy_classes` walks on `morphisms` morphisms:
    morphisms * sum_k l_k (|A_{k+1}| - 1)."""
    return morphisms * sum(ln * (order - 1) for ln, order in _value_shape(p, cx))


@dataclass(frozen=True)
class ClassDecomposition:
    """Partition of the morphism set into homotopy classes.

    Representatives are the least-index morphisms of their classes, as
    colourings listed in index order; sizes align with representatives and
    sum to the number of morphisms.
    """

    count: int
    representatives: tuple[Colouring, ...]
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
    index: dict[Colouring, int] = {f: i for i, f in enumerate(homs)}

    parent = list(range(len(homs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # one checker per layer-1 colouring, each target checked by its own
    checkers: dict[tuple[int, ...], Callable[[Colouring], Optional[tuple]]] = {}
    for i, f in enumerate(homs):
        for values in tables:
            g = _target(p, cx, f, values)
            check = checkers.get(g[0])
            if check is None:
                check = checkers[g[0]] = morphism_checker(p, cx, g[0])
            _verify(check(g))
            j = index[g]
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


def homotopy_orbit(p: CWPresentation, cx: FiniteCrossedComplex, f: Colouring) -> tuple[int, int]:
    """Orbit size and stabiliser order of the morphism f over the full value
    space: the number of distinct targets of homotopies out of f, and the
    number of homotopies whose target is f itself."""
    targets = set()
    fixing = 0
    for values in homotopy_value_space(p, cx):
        g = homotopy_target(p, cx, f, values)
        targets.add(g)
        fixing += g == f
    return len(targets), fixing
