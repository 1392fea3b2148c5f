"""Seeded random instances for oracle cross-checks.

Complexes are drawn by enumerating all boundary/action tables over a pool
of groups of order <= 4 and keeping those that validate; presentations
are drawn with at most 3 cells per dimension and attaching data built from
blocks that keep the dimension-3 boundary-of-boundary condition true by
construction.  Every emitted instance re-validates, and the colouring
space stays small enough for the brute-force oracle.
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
    check_action,
    check_hom,
    cyclic_group,
    direct_product,
)
from .presentations import (
    CWPresentation,
    Terms,
    Word,
    free_reduce,
    validate_presentation,
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
    out = []
    for image in product(range(target.order), repeat=source.order - 1):
        h = GroupHom(source, target, (0,) + image)
        if check_hom(h):
            out.append(h)
    return tuple(out)


@lru_cache(maxsize=None)
def all_actions(actor: FiniteGroup, space: FiniteGroup) -> tuple[GroupAction, ...]:
    """Every action of actor on space by automorphisms."""
    perms = []
    for perm in product(range(space.order), repeat=space.order - 1):
        row = (0,) + perm
        if sorted(row) == list(range(space.order)) and check_hom(GroupHom(space, space, row)):
            perms.append(row)
    identity = tuple(range(space.order))
    out = []
    for rows in product(perms, repeat=actor.order - 1):
        a = GroupAction(actor, space, (identity,) + rows)
        if check_action(a):
            out.append(a)
    return tuple(out)


@lru_cache(maxsize=None)
def _valid_layers(a1: FiniteGroup, a2: FiniteGroup) -> tuple[tuple[GroupHom, GroupAction], ...]:
    """All (boundary, action) pairs making (a1, a2) a crossed module."""
    out = []
    for bd in all_homs(a2, a1):
        for act in all_actions(a1, a2):
            cx = FiniteCrossedComplex((a1, a2), (bd,), (act,))
            if validate(cx).ok:
                out.append((bd, act))
    return tuple(out)


def random_complex(rng: random.Random) -> FiniteCrossedComplex:
    pool = group_pool()
    length = rng.choice((1, 2, 2, 3))
    a1 = rng.choice(pool)
    if length == 1:
        cx = FiniteCrossedComplex((a1,), (), (), name="random-l1")
    else:
        a2 = rng.choice(pool)
        bd2, act2 = rng.choice(_valid_layers(a1, a2))
        if length == 2:
            cx = FiniteCrossedComplex((a1, a2), (bd2,), (act2,), name="random-l2")
        else:
            a3 = rng.choice(pool)
            candidates = []
            for bd3 in all_homs(a3, a2):
                for act3 in all_actions(a1, a3):
                    trial = FiniteCrossedComplex(
                        (a1, a2, a3), (bd2, bd3), (act2, act3))
                    if validate(trial).ok:
                        candidates.append(trial)
            cx = rng.choice(candidates)
            cx = FiniteCrossedComplex(
                cx.groups, cx.boundaries, cx.actions, name="random-l3")
    if not (report := validate(cx)).ok:  # raised, not asserted: kept under python -O
        raise AssertionError(f"generated an invalid complex: {report.violations}")
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
    p = CWPresentation(tuple(counts), attach2, terms, name="random")
    if not (report := validate_presentation(p)).ok:  # raised, not asserted: kept under -O
        raise AssertionError(f"generated an invalid presentation: {report.violations}")
    return p


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
