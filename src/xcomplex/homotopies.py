"""1-fold homotopies between morphisms and the class decomposition they induce.

A 1-fold homotopy out of a morphism f is a free choice of values
H_n: C_n -> A_{n+1} for n = 1 .. L-1; there are no compatibility equations,
so the number of homotopies out of f is a plain product of coefficient
sizes, the same for every f.  Morphisms are plain colourings (see
`enumeration`) and a homotopy is its value table h, one tuple per degree
with h[n-1] = H_n, taken together with the colouring f it starts from.
The target morphism is computed from f and H by

    g_n(c) = f_n(c) * H_{n-1}(attach(c)) * d_{n+1}(H_n(c))   (1 <= n <= L)

where the middle factor is 1 for n = 1 and the last is dropped for n = L.
The middle factor is the n-cells' attaching data as Terms, evaluated in
A_n by the `enumeration._compile`/`_apply` pair: the cells' own Terms for
n >= 3, and the Fox terms of the 2-cell words (`presentations.fox_terms`):
letter i of x_1^e_1 .. x_m^e_m, with suffix s = x_{i+1} .. x_m, becomes
(s^-1, x_i, 1) when e_i = 1 and (s^-1 x_i, x_i, -1) when e_i = -1, which
extends H_1 to words as the derivation s(Xy) = (f1(y)^-1 |> s(X)) s(y).
The Fox terms are built once per presentation; `_target_formula` compiles
every degree once per layer-1 colouring.

Homotopy classes are the orbits of the homotopies acting on Hom(P, A).
`homotopy_classes` walks them along the *elementary* homotopies only, whose
value table is the identity except at one cell: sum_k l_k (|A_{k+1}| - 1)
edges per morphism instead of prod_k |A_{k+1}|^{l_k}.  Homotopies compose
by pointwise product of their value tables (Brown and Higgins, J. Pure
Appl. Algebra 47, 1987): H out of f, then K out of its target, ends where
H * K out of f does.  A table with m non-identity values is the product of
the m elementary tables carrying one each, in any order, so its target is
m elementary edges from f; and the edge with v at (k, c) is undone by the
one with v^-1 at (k, c) out of its target, so the morphisms reached from f
along edges make up its whole orbit.  The walk takes the listing of
`enumerate_homs` in index order: a morphism not yet reached starts a new
class as its least member, and the class is closed before the next starts.
Listed colourings passed the morphism checker of their layer 1, so a target
verifies by membership; one outside the listing goes through
`morphism_violation` and raises TargetNotMorphism, or AssertionError if
the listing missed a morphism.  `homotopy_orbit` walks the full value
space at one morphism, each target verified by a checker: the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

from .complexes import FiniteCrossedComplex
from .errors import DimensionMismatch, ResultTooLarge, TargetNotMorphism
from .enumeration import (
    Colouring,
    _apply,
    _compile,
    _morphism_shape,
    _shape_violation,
    count_homs,
    enumerate_homs,
    eval_word,
    layered_product,
    morphism_checker,
    morphism_violation,
    refuse_listing,
)
from .presentations import CWPresentation, Terms, fox_terms

DEFAULT_EDGE_CAP = 10**7


def _value_shape(p: CWPresentation, cx: FiniteCrossedComplex) -> list[tuple[int, int]]:
    """(l_k, |A_{k+1}|) for k = 1 .. L-1: H_k colours the l_k k-cells in A_{k+1}."""
    return [(p.count(k), cx.groups[k].order) for k in range(1, cx.length)]


def homotopy_target(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    f: Colouring,
    h: Colouring,
) -> Colouring:
    """Colouring at the far end of the homotopy with value table h out of
    the morphism f; raises DimensionMismatch if f or h is out of shape or
    range, TargetNotMorphism if the target fails verification."""
    for name, table, shape in (("morphism", f, _morphism_shape(p, cx)),
                               ("homotopy", h, _value_shape(p, cx))):
        if bad := _shape_violation(table, shape):
            raise DimensionMismatch(f"{name} {table} does not fit {p} x {cx.name}: {bad}", bad)
    g = _target_formula(cx, _homotopy_terms(p, cx), f[0])(f, h)
    _verify(morphism_violation(p, cx, g))
    return g


def _homotopy_terms(p: CWPresentation, cx: FiniteCrossedComplex) -> tuple[tuple[Terms, ...], ...]:
    """Terms of the n-cells for n = 2 .. L, the 2-cells' being their Fox terms."""
    fox = tuple(map(fox_terms, p.attach2))
    return ((fox,) + tuple(map(p.terms, range(3, cx.length + 1))))[:cx.length - 1]


def _target_formula(cx: FiniteCrossedComplex, terms: tuple[tuple[Terms, ...], ...],
                    f1: tuple[int, ...]) -> Callable[[Colouring, Colouring], Colouring]:
    """The target formula for morphisms with layer 1 f1, as an unverified
    function (f, h) -> g, with `_homotopy_terms` compiled once here.  H_k
    enters as d_{k+1}(H_k) in degree k and on the Terms in degree k+1."""
    twist = partial(eval_word, cx, f1)
    steps = [(cx.groups[k - 1].mul, cx.boundary(k + 1).image, cx.groups[k].mul,
              _compile(cx, k + 1, cells, twist))
             for k, cells in enumerate(terms, 1)]

    def target(f: Colouring, h: Colouring) -> Colouring:
        g = list(f)
        for i, ((mul, bd, up, compiled), hk) in enumerate(zip(steps, h)):  # hk is H_{i+1}
            if any(hk):  # rows and d_{k+1} fix the identity: an identity H_k changes nothing
                g[i] = tuple([mul[a][bd[b]] for a, b in zip(g[i], hk)])
                g[i + 1] = tuple([up[a][b] for a, b in zip(g[i + 1], _apply(up, compiled, hk))])
        return tuple(g)

    return target


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
    """Homotopy classes of Hom(P, A), each walked once along elementary edges
    from its least member, over the listing of `enumerate_homs`.

    Raises ResultTooLarge, before listing anything, when `count_homs` finds
    more than `cap` morphisms or the elementary edges to walk,
    `count_class_edges(p, cx, #morphisms)`, exceed `cap`.
    """
    n = count_homs(p, cx)
    refuse_listing(n, cap)
    edges = count_class_edges(p, cx, n)
    if edges > cap:
        raise ResultTooLarge(
            f"{n} morphisms x {edges // n} elementary homotopies"
            f" = {edges} edges exceeds edge cap {cap}")
    homs = enumerate_homs(p, cx, cap=cap)
    tables = tuple(elementary_value_tables(p, cx))
    terms = _homotopy_terms(p, cx)
    formulas: dict[tuple[int, ...], Callable[[Colouring, Colouring], Colouring]] = {}
    reached = dict.fromkeys(homs, False)
    representatives, sizes = [], []
    for f in homs:
        if reached[f]:
            continue
        reached[f] = True
        members = [f]
        for g in members:  # grows while walked: the class is closed when it stops
            target = formulas.get(g[0])
            if target is None:
                target = formulas[g[0]] = _target_formula(cx, terms, g[0])
            for values in tables:
                t = target(g, values)
                seen = reached.get(t)
                if seen is None:
                    _verify(morphism_violation(p, cx, t))
                    raise AssertionError(f"homotopy target {t} is a morphism"
                                         " that enumerate_homs did not list")
                if not seen:
                    reached[t] = True
                    members.append(t)
        representatives.append(f)
        sizes.append(len(members))
    return ClassDecomposition(len(representatives), tuple(representatives), tuple(sizes))


def homotopy_orbit(p: CWPresentation, cx: FiniteCrossedComplex, f: Colouring) -> tuple[int, int]:
    """Orbit size and stabiliser order of the morphism f over the full value
    space: the number of distinct targets of homotopies out of f, and the
    number of homotopies whose target is f itself, each target verified."""
    target = _target_formula(cx, _homotopy_terms(p, cx), f[0])
    checkers: dict[tuple[int, ...], Callable[[Colouring], Optional[tuple]]] = {}
    targets = set()
    fixing = 0
    for values in homotopy_value_space(p, cx):
        g = target(f, values)
        if g[0] not in checkers:
            checkers[g[0]] = morphism_checker(p, cx, g[0])
        _verify(checkers[g[0]](g))
        targets.add(g)
        fixing += g == f
    return len(targets), fixing
