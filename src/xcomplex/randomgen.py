"""Seeded random instances for oracle cross-checks.

Complexes are drawn by enumerating all boundary/action tables over a pool
of groups of order <= 4 and keeping those that validate; presentations
are drawn with at most 3 cells per dimension and attaching data built from
blocks that keep the dimension-3 boundary-of-boundary condition true by
construction, so no draw is validated again; the colouring space stays
small enough for the brute-force oracle.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from .complexes import FiniteCrossedComplex, validate
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    action_violation,
    cyclic_group,
    direct_product,
    hom_violation,
)
from .presentations import (
    CWPresentation,
    Terms,
    Word,
    free_reduce,
)

BRUTE_SPACE_LIMIT = 20_000


def group_pool() -> list[FiniteGroup]:
    return [
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        direct_product(cyclic_group(2), cyclic_group(2)),
    ]


@lru_cache(maxsize=None)
def all_homs(source: FiniteGroup, target: FiniteGroup) -> tuple[GroupHom, ...]:
    """Every homomorphism source -> target, by filtered table sweep."""
    trials = (GroupHom(source, target, (0,) + image)
              for image in product(range(target.order), repeat=source.order - 1))
    return tuple(h for h in trials if hom_violation(h) is None)


@lru_cache(maxsize=None)
def all_actions(actor: FiniteGroup, space: FiniteGroup) -> tuple[GroupAction, ...]:
    """Every action of actor on space by automorphisms: the bijective
    endomorphisms of `space` per non-identity row, filtered by the axioms."""
    autos = [h.image for h in all_homs(space, space) if len(set(h.image)) == space.order]
    identity = tuple(range(space.order))
    trials = (GroupAction(actor, space, (identity,) + rows)
              for rows in product(autos, repeat=actor.order - 1))
    return tuple(a for a in trials if action_violation(a) is None)


@lru_cache(maxsize=None)
def _extensions(cx: FiniteCrossedComplex, top: FiniteGroup) -> tuple[FiniteCrossedComplex, ...]:
    """Every valid complex extending `cx` by one degree with group `top`, in
    (boundary, action) order, each named by its length."""
    trials = (FiniteCrossedComplex(cx.groups + (top,), cx.boundaries + (bd,), cx.actions + (act,),
                                   name=f"random-l{cx.length + 1}")
              for bd in all_homs(top, cx.groups[-1]) for act in all_actions(cx.groups[0], top))
    return tuple(t for t in trials if validate(t).ok)


def random_complex(rng: random.Random) -> FiniteCrossedComplex:
    """Length, then A_1, then per further degree its group and one valid extension."""
    pool = group_pool()
    length = rng.choice((1, 2, 2, 3))
    cx = FiniteCrossedComplex((rng.choice(pool),), (), (), name="random-l1")
    for _ in range(length - 1):
        cx = rng.choice(_extensions(cx, rng.choice(pool)))
    return cx


def _random_word(rng: random.Random, ngens: int, maxlen: int) -> Word:
    if ngens == 0:
        return ()
    length = rng.randint(0, maxlen)
    return tuple(
        (rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length))


def _random_terms3(rng: random.Random, p2: tuple[Word, ...], l1: int) -> Terms:
    """Blocks that keep the boundary-of-boundary condition: cancelling pairs
    on any 2-cell, single terms on 2-cells whose word already dies."""
    l2 = len(p2)
    if l2 == 0:
        return ()
    spherical = [c for c, w in enumerate(p2) if not free_reduce(w)]
    terms: list[tuple[Word, int, int]] = []
    for _ in range(rng.randint(0, 2)):
        conj = _random_word(rng, l1, 2)
        if spherical and rng.random() < 0.5:
            terms.append((conj, rng.choice(spherical), rng.choice((1, -1))))
        else:
            gen = rng.randrange(l2)
            sign = rng.choice((1, -1))
            terms.append((conj, gen, sign))
            terms.append((conj, gen, -sign))
    return tuple(terms)


def _random_terms(rng: random.Random, l1: int, ngens: int) -> Terms:
    if ngens == 0:
        return ()
    out = []
    for _ in range(rng.randint(0, 2)):
        coef = rng.randint(-2, 2)  # drawn first: the seeded instances depend on the order
        out.append((_random_word(rng, l1, 2), rng.randrange(ngens), coef))
    return tuple(out)


def random_presentation(rng: random.Random, cx: FiniteCrossedComplex) -> CWPresentation:
    length = cx.length
    while True:
        counts = [1] + [rng.choice((0, 1, 1, 2, 2, 3)) for _ in range(length + 1)]
        space = 1
        for n in range(1, length + 1):
            space *= cx.groups[n - 1].order ** counts[n]
        if space <= BRUTE_SPACE_LIMIT:
            break
    while counts[-1] == 0 and len(counts) > 2:
        counts.pop()
    junk_dim = 0
    if rng.random() < 0.3:
        junk_dim = length + 2
        while len(counts) <= junk_dim:
            counts.append(0)
        counts[junk_dim] = 1
    dim = len(counts) - 1
    attach2 = ()
    if dim >= 2:
        attach2 = tuple(_random_word(rng, counts[1], 4) for _ in range(counts[2]))
    terms = tuple(
        tuple(_random_terms3(rng, attach2, counts[1]) if n == 3
              else _random_terms(rng, counts[1], counts[n - 1])
              for _ in range(counts[n]))
        for n in range(3, dim + 1))
    return CWPresentation(tuple(counts), attach2, terms, name="random")


def random_instances(
    seed: int,
    count: int,
) -> list[tuple[CWPresentation, FiniteCrossedComplex]]:
    """Deterministic list of (presentation, complex) pairs for oracle runs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cx = random_complex(rng)
        out.append((random_presentation(rng, cx), cx))
    return out
