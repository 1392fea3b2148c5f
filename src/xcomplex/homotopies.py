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
every degree once per layer-1 colouring, the class walk once per twist key
(`enumeration._twist_key`).

Homotopy classes are the orbits of the homotopies acting on Hom(P, A).
Homotopies compose by pointwise product of their value tables (Brown and
Higgins, J. Pure Appl. Algebra 47, 1987): H out of f, then K out of its
target, ends where H * K out of f does.  So the orbits are those of the
group G = prod_k A_{k+1}^{l_k} of value tables, acting on the right.
`homotopy_classes` walks them along *generator edges* only: the elementary
tables, the identity except for H_k(c) = v, with v in S_{k+1}, the greedy
generating set of A_{k+1} (`groups.greedy_generators`) without the
identity.  That is sum_k l_k |S_{k+1}| edges per morphism instead of
prod_k |A_{k+1}|^{l_k}.  These tables generate G, and G is finite, so the
inverse of each is a positive power of it and every element of G is a
product of them: the morphisms reached forward from f make up its whole
orbit.  Each edge is a sparse change, exact because compiled rows and
d_{k+1} send the identity to the identity: the edge (k, c, v) multiplies
layer k at cell c by d_{k+1}(v), and at layer k + 1 each cell whose
compiled Terms name c by the product of those terms' rows at v; every other
factor of the target formula is 1.  `_edge_deltas` computes these changes
from the Terms compiled under one twist key, and `enumeration._twist_key`
builds them once per key; the walk looks them up per listed layer-1
colouring (under trivial actions, all share one build).  The walk takes
the listing of `enumerate_homs` in index order: a morphism not yet
reached starts a new class as its least member, and the class is closed
before the next starts.  Listed colourings passed the morphism checker of
their layer 1, so a target verifies by membership; one outside the
listing goes through `morphism_violation` and raises TargetNotMorphism,
or AssertionError if the listing missed a morphism.  `homotopy_target`
applies the full formula (`_target_formula`) to one table, and
`homotopy_orbit` walks the full value space at one morphism, each target
verified by a checker: the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

from .complexes import FiniteCrossedComplex
from .errors import DimensionMismatch, ResultTooLarge, TargetNotMorphism
from .enumeration import (
    DEFAULT_ENUM_CAP,
    Colouring,
    _apply,
    _compile,
    _shape_violation,
    _twist_key,
    cell_orders,
    enumerate_homs,
    eval_word,
    layered_product,
    morphism_checker,
    morphism_violation,
    refuse,
)
from .groups import greedy_generators
from .presentations import CWPresentation, Terms, fox_terms


def homotopy_target(
    p: CWPresentation,
    cx: FiniteCrossedComplex,
    f: Colouring,
    h: Colouring,
) -> Colouring:
    """Colouring at the far end of the homotopy with value table h out of
    the morphism f; raises DimensionMismatch if f or h is out of shape or
    range, TargetNotMorphism if the target fails verification."""
    for name, table, shape in (("morphism", f, cell_orders(p, cx)),
                               ("homotopy", h, cell_orders(p, cx, 1))):
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
    return math.prod(order ** ln for ln, order in cell_orders(p, cx, 1))


def homotopy_value_space(p: CWPresentation, cx: FiniteCrossedComplex) -> Iterator[Colouring]:
    """All 1-fold homotopy value tables, lexicographic by (layer, cell, value).

    Yields exactly one empty table when L = 1 (the identity homotopy).
    """
    return layered_product(cell_orders(p, cx, 1))


def _generator_edges(p: CWPresentation, cx: FiniteCrossedComplex) -> list[tuple[int, list[int]]]:
    """(l_k, S_{k+1}) for k = 1 .. L-1: S_{k+1} is the greedy generating set
    of A_{k+1} without the identity, empty when A_{k+1} is trivial."""
    return [(p.count(k), [v for v in greedy_generators(cx.groups[k].mul) if v])
            for k in range(1, cx.length)]


def _edge_deltas(cx: FiniteCrossedComplex, generators: list[tuple[int, list[int]]],
                 compiled: dict[int, list[list[tuple]]]) -> list[tuple]:
    """The generator edges out of morphisms whose layer 1 has one twist key,
    given the Terms of degrees 2..L compiled under it, as sparse changes
    (i, c, v, b, ups) in (k, c, v) order: the edge with H_k(c) = v,
    k = i + 1, multiplies layer k at cell c by b = d_{k+1}(v), and layer
    k + 1 at cell c' by x for each pair (c', x) in ups, the non-identity
    values of the (k+1)-cells' compiled Terms applied to that one-value H_k.
    Edges that change nothing are left out."""
    deltas = []
    for k, (ln, gens) in enumerate(generators, 1):
        bd, up, terms = cx.boundary(k + 1).image, cx.groups[k].mul, compiled[k + 1]
        for c in range(ln):
            for v in gens:
                hk = (0,) * c + (v,) + (0,) * (ln - c - 1)
                ups = tuple([(cell, x) for cell, x in enumerate(_apply(up, terms, hk)) if x])
                if bd[v] or ups:
                    deltas.append((k - 1, c, v, bd[v], ups))
    return deltas


def _edge_targets(g: Colouring, deltas: list[tuple], muls) -> Iterator[Colouring]:
    """The target of each change of `_edge_deltas` out of g, in order;
    `muls` are the multiplication tables of A_1 .. A_L."""
    for i, c, _, b, ups in deltas:
        t = list(g)
        if b:
            layer = list(g[i])
            layer[c] = muls[i][layer[c]][b]
            t[i] = tuple(layer)
        if ups:
            layer, mul = list(g[i + 1]), muls[i + 1]
            for cell, x in ups:
                layer[cell] = mul[layer[cell]][x]
            t[i + 1] = tuple(layer)
        yield tuple(t)


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
    cap: int = DEFAULT_ENUM_CAP,
) -> ClassDecomposition:
    """Homotopy classes of Hom(P, A), each walked once along generator edges
    from its least member, over the listing of `enumerate_homs`.

    The listing is admitted against `cap` by `enumerate_homs`; last,
    ResultTooLarge when the generator edges of its n morphisms,
    n x sum_k l_k |S_{k+1}|, exceed `cap`.
    """
    homs = enumerate_homs(p, cx, cap=cap)
    n = len(homs)
    generators = _generator_edges(p, cx)
    per = sum(ln * len(gens) for ln, gens in generators)
    refuse(n * per, cap,
           f"{n} morphisms x {per} generator edges = {{}} edges exceeds edge cap {{}}",
           ResultTooLarge)
    deltas = _twist_key(cx, dict(enumerate(_homotopy_terms(p, cx), 2)),
                        partial(_edge_deltas, cx, generators))
    changes = {f1: deltas(f1) for f1 in {f[0] for f in homs}}
    muls = [a.mul for a in cx.groups]
    reached = dict.fromkeys(homs, False)
    representatives, sizes = [], []
    for f in homs:
        if reached[f]:
            continue
        reached[f] = True
        members = [f]
        for g in members:  # grows while walked: the class is closed when it stops
            for t in _edge_targets(g, changes[g[0]], muls):
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
