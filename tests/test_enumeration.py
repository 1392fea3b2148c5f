"""Morphism evaluation, counting, enumeration and the brute-force oracle."""

import itertools
import json
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from xcomplex import enumeration
from xcomplex.complexes import FiniteCrossedComplex, from_crossed_module, from_group
from xcomplex.enumeration import (
    _apply,
    _backtrack,
    _cell_plan,
    _compile,
    _Search,
    _Tower,
    _abelianised,
    _collapse,
    _eliminate,
    _estimate,
    _planned,
    _rotation,
    boundary_defect_report,
    count_engine,
    count_homs,
    count_homs_bruteforce,
    enumerate_homs,
    eval_word,
    layered_product,
    morphism_checker,
    morphism_violation,
)
from xcomplex.errors import InstanceTooLarge, ResultTooLarge
from xcomplex.groups import (
    GroupAction,
    GroupHom,
    cyclic_group,
    direct_product,
    fibers_of,
    symmetric_group_3,
    trivial_action,
    zero_hom,
)
from xcomplex.homotopies import homotopy_classes
from xcomplex.invariant import invariant_ia
from xcomplex.library import resolve_coefficients, resolve_space, standard_coefficients
from xcomplex.presentations import (
    CWPresentation,
    disk,
    genus_surface,
    point,
    relabel_cells,
    rp2,
    sphere,
    torus,
    wedge,
    word_inverse,
)
from xcomplex.randomgen import random_complex, random_instances
from xcomplex.selfcheck import _conjugation_crossed_module


def test_eval_word_empty_is_identity():
    cx = from_group(symmetric_group_3())
    assert eval_word(cx, (3, 5), ()) == 0


def test_eval_word_commutator_against_table():
    """Commutator of two transpositions, checked against direct products."""
    s3 = symmetric_group_3()
    cx = from_group(s3)
    f1 = (1, 2)
    w = ((0, 1), (1, 1), (0, -1), (1, -1))
    got = eval_word(cx, f1, w)
    direct = s3.mul[s3.mul[s3.mul[f1[0]][f1[1]]][s3.inv[f1[0]]]][s3.inv[f1[1]]]
    assert got == direct
    assert got in (3, 4)  # the commutator of distinct transpositions 3-cycles


def test_eval_word_inverse_letters():
    z4 = from_group(cyclic_group(4))
    assert eval_word(z4, (1,), ((0, -1),)) == 3
    assert eval_word(z4, (3,), ((0, 1), (0, 1))) == 2


def mixed_action_tower():
    """Z/2, Z/3, Z/3, Z/3 with zero boundaries; Z/2 negates A_2 and A_4 but
    acts trivially on A_3, so each degree reads its own action."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    flip = GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))
    cx = FiniteCrossedComplex(
        (z2, z3, z3, z3),
        (zero_hom(z3, z2), zero_hom(z3, z3), zero_hom(z3, z3)),
        (flip, trivial_action(z2, z3), flip),
    )
    from xcomplex.complexes import validate
    assert validate(cx).ok
    return cx


def eval_terms(cx, f1, cells, below, k):
    """The Terms of each of `cells` compiled under f1 at degree k and
    applied to `below`, the colouring of the cells one dimension down."""
    return _apply(cx.groups[k - 1].mul, _compile(cx, k, cells, partial(eval_word, cx, f1)), below)


def eval_crossed(cx, f1, f2, cw, k):
    """A 3-cell's Terms evaluated in A_k."""
    return eval_terms(cx, f1, (cw,), f2, k)[0]


def eval_module(cx, f1, f3, m, k):
    """A 4-cell's Terms evaluated in A_k."""
    return eval_terms(cx, f1, (m,), f3, k)[0]


def test_eval_crossed_flip_action():
    """Single letters through the order-2 twist on Z/3, by hand."""
    cx = resolve_coefficients("cm-z2-z3-flip")
    f1, f2 = (1,), (2,)
    assert eval_crossed(cx, f1, f2, (), 2) == 0
    # x |> c with f1(x) = 1 flipping the fibre: 1 |> 2 = 1
    assert eval_crossed(cx, f1, f2, ((((0, 1),), 0, 1),), 2) == 1
    # inverse term: (x |> c)^-1 = 2
    assert eval_crossed(cx, f1, f2, ((((0, 1),), 0, -1),), 2) == 2
    # untwisted letter then twisted letter: 2 + 1 = 0 in Z/3
    cw = (((), 0, 1), (((0, 1),), 0, 1))
    assert eval_crossed(cx, f1, f2, cw, 2) == 0
    # one degree up the same letter meets the trivial action on A_3
    tower = mixed_action_tower()
    assert eval_crossed(tower, f1, f2, ((((0, 1),), 0, 1),), 2) == 1
    assert eval_crossed(tower, f1, f2, ((((0, 1),), 0, 1),), 3) == 2
    assert eval_crossed(tower, f1, f2, ((((0, 1),), 0, -1),), 3) == 1


def test_eval_module_coefficients_wrap():
    """Coefficients act modulo the fibre order, including negatives."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    flip = GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))
    cx = FiniteCrossedComplex(
        (z2, z3, z3),
        (zero_hom(z3, z2), zero_hom(z3, z3)),
        (flip, flip),
    )
    from xcomplex.complexes import validate
    assert validate(cx).ok
    f1, f3 = (1,), (1,)
    assert eval_module(cx, f1, f3, (((), 0, 1),), 3) == 1
    assert eval_module(cx, f1, f3, (((), 0, -1),), 3) == 2
    assert eval_module(cx, f1, f3, ((((0, 1),), 0, 2),), 3) == 1  # 2*(1|>1) = 2*2
    assert eval_module(cx, f1, f3, (((), 0, 0),), 3) == 0
    # A_3 ignores the twist, A_4 negates under it
    tower = mixed_action_tower()
    assert eval_module(tower, f1, f3, ((((0, 1),), 0, 1),), 3) == 1
    assert eval_module(tower, f1, f3, ((((0, 1),), 0, 1),), 4) == 2
    assert eval_module(tower, f1, f3, ((((0, 1),), 0, 2),), 4) == 1


@pytest.mark.parametrize("space,coeff,expected", [
    ("sphere:1", "z2", 2),
    ("sphere:1", "z3", 3),
    ("sphere:1", "s3", 6),
    ("torus", "s3", 18),
    ("rp2", "z2", 2),
    ("rp2", "z3", 1),
    ("rp2", "s3", 4),
    ("point", "s3", 1),
    ("point", "l3-z2", 1),
    ("genus:2", "z3", 81),
    ("sphere:2", "z3", 1),
    ("sphere2-two-cells", "s3", 1),
    ("sphere:2", "cm-z4-z2-incl", 1),
    ("sphere:2", "cm-z2-z2-zero", 2),
    ("sphere:2", "l3-z2", 2),
    ("sphere:3", "l3-z2", 2),
    ("disk:2", "s3", 1),
    ("disk:2", "cm-z4-z2-incl", 2),
    ("disk:3", "cm-z2-z2-zero", 1),
    ("disk:4", "l3-z2", 1),
], ids=lambda v: str(v))
def test_frozen_counts(space, coeff, expected):
    """Hand-derived counts for the named pairs.

    torus x S3 counts commuting pairs (6 * 3 classes = 18); rp2 counts
    square roots of the identity; spheres count kernels; disks are nearly
    rigid because the filled cell forces its boundary colour.
    """
    assert count_homs(resolve_space(space), resolve_coefficients(coeff)) == expected


def test_torus_counts_commuting_pairs():
    """Independent oracle: sweep all pairs of S3 and test commutation."""
    s3 = symmetric_group_3()
    pairs = sum(
        1 for a in range(6) for b in range(6) if s3.mul[a][b] == s3.mul[b][a])
    assert count_homs(torus(), from_group(s3)) == pairs


def test_rp2_counts_involutions():
    s3 = symmetric_group_3()
    roots = sum(1 for a in range(6) if s3.mul[a][a] == 0)
    assert count_homs(rp2(), from_group(s3)) == roots


def test_disk2_enumeration_frozen():
    """The filled disk admits exactly the kernel-lift and the shifted lift."""
    p, cx = disk(2), resolve_coefficients("cm-z4-z2-incl")
    homs = enumerate_homs(p, cx)
    assert homs == [((0,), (0,)), ((2,), (1,))]
    assert all(morphism_violation(p, cx, f) is None for f in homs)


def test_enumeration_is_lexicographic():
    homs = enumerate_homs(sphere(1), resolve_coefficients("s3"))
    assert homs == [((i,),) for i in range(6)]
    cols = enumerate_homs(torus(), resolve_coefficients("s3"))
    assert cols == sorted(cols)
    assert len(cols) == 18


def test_count_matches_enumeration_length():
    for space, coeff in (("torus", "s3"), ("rp2", "z2"),
                         ("sphere:2", "l3-z2"), ("disk:2", "cm-z4-z2-incl")):
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        assert count_homs(p, cx) == len(enumerate_homs(p, cx))


def test_layered_search_agrees_with_bruteforce():
    """Dual-route oracle on a handful of seeded random instances."""
    for p, cx in random_instances(seed=5, count=6):
        assert count_homs(p, cx) == count_homs_bruteforce(p, cx), (p, cx)


def random_2d_instances(seed, length, count):
    """Presentations of dimension <= 2 on random towers of one length: up to
    four 1-cells and three relators of up to five letters each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cx = random_complex(rng)
        if cx.length != length:
            continue
        l1, l2 = rng.randint(0, 4), rng.randint(0, 3)
        words = tuple(
            tuple((rng.randrange(l1), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 5) if l1 else 0))
            for _ in range(l2))
        out.append((CWPresentation((1, l1, l2), attach2=words, name="random-2d"), cx))
    return out


def rotations(w):
    return {w[k:] + w[:k] for k in range(max(len(w), 1))}


def check_plan(p, cx):
    """Check elimination's plan of p's given words (`_planned`,
    which abelianises nothing) against the given order, the plan count_homs
    runs (elimination, or exponent sums over an abelian A_1) and the other
    counting routes; return how it rearranged the relators left after the
    collapse."""
    order = cx.groups[0].order
    plan = _planned(p.attach2, order)
    assert plan.engine == "elimination"
    assert count_engine(p, cx).engine in ("elimination", "exponent-sums")
    assert count_engine(p, cx).estimate <= plan.estimate
    left, collapsed = _collapse(p.attach2)
    assert plan.collapsed == collapsed == p.count(2) - len(left), p.attach2
    cost, peak = _estimate(left, order)
    planned_cost, planned_peak = _estimate(plan.words, order)
    assert plan.estimate == planned_cost <= cost and planned_peak <= peak, p.attach2
    assert plan.estimate <= _estimate(p.attach2, order)[0]
    assert plan.estimate <= order ** p.count(1) * sum(map(len, p.attach2))
    # the planned words are the relators left, permuted, each rotated or inverted
    unmatched = list(range(len(left)))
    rearranged = set()
    for w in plan.words:
        i = next((i for i in unmatched if w in rotations(left[i])
                  | rotations(word_inverse(left[i]))), None)
        assert i is not None, (w, p.attach2)
        if i != unmatched[0]:
            rearranged.add("reordered")
        if w != left[i]:
            rearranged.add("rotated" if w in rotations(left[i]) else "inverted")
        unmatched.remove(i)
    assert not unmatched, (plan.words, p.attach2)
    assert count_homs(p, cx) == _eliminate(p, cx, plan.words, plan.collapsed) \
        == _eliminate(p, cx, p.attach2, 0) == _backtrack(p, cx) == count_homs_bruteforce(p, cx), \
        p.attach2
    return rearranged


@pytest.mark.parametrize("length", [1, 2, 3])
def test_elimination_agrees_with_backtracker_and_bruteforce(length):
    instances = random_2d_instances(seed=40 + length, length=length, count=30)
    features = set()
    for p, cx in instances:
        check_plan(p, cx)
        used = [g for w in p.attach2 for g, _ in w]
        if len(set(used)) < p.count(1):
            features.add("unused cell")
        if () in p.attach2:
            features.add("empty relator")
        if any(len({g for g, _ in w}) < len(w) for w in p.attach2):
            features.add("repeat within a relator")
        if any({g for g, _ in v} & {g for g, _ in w}
               for i, v in enumerate(p.attach2) for w in p.attach2[i + 1:]):
            features.add("cell shared across relators")
    assert features == {"unused cell", "empty relator", "repeat within a relator",
                        "cell shared across relators"}


def test_planned_order_on_long_relators():
    """Relators long enough for more than two cells to be live at once,
    against small groups and the twisted modules: the plan reorders, rotates
    and inverts them, and counts as the given order, the backtracker and
    the brute-force sweep do."""
    rng = random.Random(15)
    coefficients = [resolve_coefficients(name) for name in ("z2", "z3", "cm-z2-z3-flip")]
    coefficients.append(_conjugation_crossed_module())
    features = set()
    planned = 0
    for _ in range(40):
        cx = rng.choice(coefficients)
        l1, l2 = (4, rng.randint(1, 2)) if cx.name == "s3-conj" else (5, rng.randint(1, 3))
        words = tuple(tuple((rng.randrange(l1), rng.choice((1, -1)))
                            for _ in range(rng.randint(4, 8)))
                      for _ in range(l2))
        p = CWPresentation((1, l1, l2), attach2=words, name="long-relators")
        rearranged = check_plan(p, cx)
        planned += bool(rearranged)
        features |= rearranged
    assert features == {"reordered", "rotated", "inverted"}
    assert planned >= 10


def test_plan_only_rotates_past_three_relators():
    """Four or five relators of 4-8 letters over five 1-cells, whose given
    order peaks above |A_1|^3 states: the plan tries no reordering or
    inversion there, so it keeps the relator order and rotates each word,
    and counts as the given order, the backtracker and the brute-force
    sweep do."""
    rng = random.Random(18)
    coefficients = [resolve_coefficients(name) for name in ("z2", "z3", "cm-z2-z3-flip")]
    planned = rotated = 0
    while planned < 12:
        cx = rng.choice(coefficients)
        order = cx.groups[0].order
        words = tuple(tuple((rng.randrange(5), rng.choice((1, -1)))
                            for _ in range(rng.randint(4, 8)))
                      for _ in range(rng.randint(4, 5)))
        if _estimate(words, order)[1] <= 3:
            continue
        planned += 1
        p = CWPresentation((1, 5, len(words)), attach2=words, name="many-relators")
        assert check_plan(p, cx) <= {"rotated"}, words
        plan = _planned(words, order)
        assert len(plan.words) == len(words)
        assert all(w in rotations(r) for w, r in zip(plan.words, words)), words
        rotated += plan.words != words
    assert rotated >= 6


def test_planning_is_linear_in_the_relators():
    """One relator interleaving five cells turns the planner on (peak
    above |A_1|^3); 20,000 commutators [y_i, y_{i+1}] chained behind it
    collapse nothing.  Planning runs before --cap is weighed, so finding
    each word's shared cells and scoring the words must stay linear: a
    sweep of the other words per word, or a power table over all 20,006
    cells, takes minutes."""
    n = 20_000
    wide = tuple((g, 1) for g in (0, 1, 2, 3, 4) * 2)
    chain = tuple(((5 + i, 1), (6 + i, 1), (5 + i, -1), (6 + i, -1)) for i in range(n))
    p = CWPresentation((1, 6 + n, n + 1), attach2=(wide,) + chain, name="wide-then-chain")
    started = time.process_time()
    plan = count_engine(p, resolve_coefficients("z2"))
    assert time.process_time() - started < 3
    assert plan.collapsed == 0 and len(plan.words) == n + 1
    assert plan.estimate <= 2 ** 6 * sum(map(len, p.attach2))


def test_rotation_minimises_summed_spans():
    """_rotation picks the earliest cut of least summed span, against a
    direct sweep of every cut."""
    def spans(w, shared):
        total = 0
        for g in {g for g, _ in w}:
            at = [i for i, (h, _) in enumerate(w) if h == g]
            total += len(w) - at[0] if g in shared else at[-1] - at[0] + 1
        return total

    rng = random.Random(3)
    for _ in range(500):
        l1 = rng.randint(1, 6)
        w = tuple((rng.randrange(l1), rng.choice((1, -1))) for _ in range(rng.randint(0, 12)))
        shared = {g for g in range(l1) if rng.random() < 0.4}
        scores = [spans(w[k:] + w[:k], shared) for k in range(len(w))] or [0]
        cut = scores.index(min(scores))
        assert _rotation(w, shared) == w[cut:] + w[:cut], (w, shared)


def test_engine_choice():
    """Elimination runs whenever no cell of dimension 3..L+1 constrains the
    count, at an estimate within the odometer's word steps; otherwise the
    backtracker counts, estimated by its layer-1 colourings."""
    s3 = resolve_coefficients("s3")
    # torus: 6 + 3 * 6^2 transitions against 6^2 colourings x 4 letters
    assert count_engine(torus(), s3) == ("elimination", 114, torus().attach2, 0)
    assert count_homs(torus(), s3) == _backtrack(torus(), s3) == 18
    assert count_engine(genus_surface(2), s3).engine == "elimination"
    assert count_engine(point(), s3).engine == "elimination"
    # a 3-cell below the kill dimension keeps the backtracker, whatever it costs
    for space, coeff in (("disk:3", "cm-z2-z2-zero"), ("sphere:3", "l3-z2")):
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        assert count_engine(p, cx) == ("backtrack", cx.groups[0].order ** p.count(1),
                                       p.attach2, 0)
        assert count_homs(p, cx) == count_homs_bruteforce(p, cx)
    # above the kill dimension a 3-cell is inert
    assert count_engine(wedge(genus_surface(2), sphere(3)), s3).engine == "elimination"


# 1-cells 0, 1, 2, 3 as one-letter words, lower case with exponent +1, upper case -1
a, b, c, d = ((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),)
A, B, C = ((0, -1),), ((1, -1),), ((2, -1),)

# words, the words left after the collapse, and the number of relators removed
COLLAPSES = {
    # c occurs once, so its relator goes; the commutator stays
    "single": ((a + b + A + B, a + c + a), (a + b + A + B,), 1),
    # a occurs once; once its relator goes, b does too, and c stays twice
    "chained": ((a + b, b + C, c + c), (c + c,), 2),
    # the once-used letter has exponent -1
    "inverse": ((b + A + B, b + b), (b + b,), 1),
    # listed from the far end of the chain, every relator goes
    "all": ((c + d + d, b + c, a + b), (), 3),
    # every cell occurs twice: nothing goes
    "none": ((a + b + A + B, b + a), (a + b + A + B, b + a), 0),
}


def collapse_coefficients():
    """L = 1 (z2, s3), and L >= 2 with d_2 zero (cm-z2-z2-zero, the twisted
    cm-z2-z3-flip, l3-z2), injective (cm-z4-z2-incl) and surjective
    (S3 acting on itself by conjugation)."""
    names = ("z2", "s3", "cm-z2-z2-zero", "cm-z2-z3-flip", "cm-z4-z2-incl", "l3-z2")
    return [resolve_coefficients(n) for n in names] + [_conjugation_crossed_module()]


@pytest.mark.parametrize("case", sorted(COLLAPSES))
def test_collapse_removes_free_disk_factors(case):
    """A relator holding a 1-cell used once in the words left goes, as often
    as one removal exposes the next; the plan of the given words covers the
    words left only, and every route counts alike."""
    words, left, collapsed = COLLAPSES[case]
    assert _collapse(words) == (left, collapsed)
    l1 = 1 + max(g for w in words for g, _ in w)
    p = CWPresentation((1, l1, len(words)), attach2=words, name=case)
    for cx in collapse_coefficients():
        plan = _planned(words, cx.groups[0].order)
        assert (plan.words, plan.collapsed) == (left, collapsed)
        assert plan.estimate == _estimate(left, cx.groups[0].order)[0]
        assert count_homs(p, cx) == _eliminate(p, cx, words, 0) == _backtrack(p, cx) \
            == count_homs_bruteforce(p, cx), (case, cx.name)


@pytest.mark.parametrize("e", [1, -1])
def test_closing_cell_is_solved(e):
    """A relator whose last letter is a cell not seen before, but used
    again later, is closed by solving for that cell's colour: on the first
    relator of both presentations, with exponent e, whether d_2 is zero,
    injective or onto, the count agrees with the backtracker and the
    brute-force sweep."""
    x = ((1, e),)
    for words in ((a + x, b + a + a), (x, b + a + b + a)):
        p = CWPresentation((1, 2, 2), attach2=words, name="closing")
        assert _collapse(words) == (words, 0)
        for cx in collapse_coefficients():
            plan = _planned(words, cx.groups[0].order)
            assert plan.words == words  # the first relator still closes on a new cell
            assert count_homs(p, cx) == _backtrack(p, cx) == count_homs_bruteforce(p, cx), \
                (words, cx.name)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_free_disk_factor_identities(data):
    """The paper's free D^2 factor: a 1-cell x used once, with its relator
    r, splits off, so count(P) = count(P - x - r) x count(disk:2, A) and
    I_A(P) = I_A(P - x - r), for every standard coefficient; P is counted
    by elimination and by the backtracker, which collapses nothing."""
    cx = data.draw(st.sampled_from(standard_coefficients()))
    l1 = data.draw(st.integers(0, 3))
    word = (st.lists(st.tuples(st.integers(0, l1 - 1), st.sampled_from((1, -1))), max_size=4)
            .map(tuple) if l1 else st.just(()))
    relators = tuple(data.draw(st.lists(word, max_size=2)))
    r = data.draw(word) + ((l1, data.draw(st.sampled_from((1, -1)))),) + data.draw(word)
    at = data.draw(st.integers(0, len(relators)))
    base = CWPresentation((1, l1, len(relators)), attach2=relators)
    p = CWPresentation((1, l1 + 1, len(relators) + 1),
                       attach2=relators[:at] + (r,) + relators[at:])
    assert count_homs(p, cx) == _backtrack(p, cx) \
        == count_homs(base, cx) * count_homs(disk(2), cx)
    assert invariant_ia(p, cx) == invariant_ia(base, cx)


def test_abelianised_words():
    """One run per cell in first-appearance order, of |s| letters, s the
    exponent sum reduced into (-|A_1|/2, |A_1|/2]; a cell with s = 0 drops
    out, so a commutator and x^|A_1| vanish."""
    assert _abelianised(a + b + a + a + B + c + C, 4) == A  # s = 3 -> -1; b, c vanish
    assert _abelianised(a + b + a + A + a, 4) == a + a + b  # s = 2 = |A_1|/2 stays positive
    assert _abelianised(a + a + a + b, 5) == A + A + b  # 3 -> -2
    assert _abelianised(a + b + A + B, 6) == () == _abelianised(a * 6, 6)
    assert _abelianised(a * 5, 4) == a  # reduced mod |A_1|, since x^|A_1| = 1
    assert _abelianised(a + b + a, 1) == ()


def test_abelianised_plan_only_when_it_is_cheaper():
    """Over the abelian Z/6 these three relators abelianise to words no
    longer, two of them shorter, but words under which at most two cells
    are live at once are planned as given, and theirs take 978
    transitions against the 450 of the given words' plan: count_engine
    keeps the given words.  Over Z/2 x Z/2 and Z/2 x Z/3 the genus word
    vanishes: estimate 0.  Over S3 nothing is abelianised, and the counts
    agree with the backtracker."""
    words = ((4, 1), (3, 1), (0, -1), (4, -1)), ((2, -1), (3, -1), (2, -1)), b + a + b
    shrunk = tuple(_abelianised(w, 6) for w in words)
    assert [len(w) for w in shrunk] == [2, 3, 3]
    assert _planned(shrunk, 6).estimate == 978
    p = CWPresentation((1, 5, 3), attach2=words)
    z6 = from_group(cyclic_group(6))
    assert count_engine(p, z6) == _planned(words, 6)
    assert count_engine(p, z6).estimate == 450
    assert count_homs(p, z6) == _backtrack(p, z6)
    for cx in (resolve_coefficients("z2xz2"),
               from_group(direct_product(cyclic_group(2), cyclic_group(3)))):
        assert count_engine(genus_surface(2), cx) == ("elimination", 0, ((),), 0)
        assert count_homs(genus_surface(2), cx) == cx.groups[0].order ** 4
    s3 = resolve_coefficients("s3")
    assert count_engine(genus_surface(2), s3) == _planned(genus_surface(2).attach2, 6)
    assert count_homs(p, s3) == _backtrack(p, s3)


def abelianised_coefficients():
    """A_1 abelian of order 1..6 (Z/n, Z/2 x Z/2, the crossed modules
    cm-z4-z2-incl and cm-z2-z3-flip, l3-z2), and S3 and S3 acting on
    itself by conjugation, which no rewrite may touch."""
    out = [from_group(cyclic_group(n)) for n in (1, 4, 5, 6)]
    out += [resolve_coefficients(n) for n in ("z2xz2", "cm-z4-z2-incl", "cm-z2-z3-flip",
                                              "l3-z2", "s3")]
    return out + [_conjugation_crossed_module()]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_abelianised_plan_counts_alike(data):
    """On random relators over up to three cells, against abelian and
    non-abelian A_1: count_homs agrees with the backtracker and the
    brute-force sweep, its plan's estimate is at most that of the given
    words' plan, and is that plan over a non-abelian A_1, and no
    abelianised word is longer than its relator."""
    cx = data.draw(st.sampled_from(abelianised_coefficients()))
    order = cx.groups[0].order
    l1 = data.draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, l1 - 1), st.sampled_from((1, -1)))
    words = tuple(data.draw(st.lists(st.lists(letter, max_size=8).map(tuple),
                                     min_size=1, max_size=3 if cx.length == 1 else 2)))
    p = CWPresentation((1, l1, len(words)), attach2=words)
    assert count_homs(p, cx) == _backtrack(p, cx) == count_homs_bruteforce(p, cx), words
    plan, given = count_engine(p, cx), _planned(words, order)
    assert plan.estimate <= given.estimate, words
    mul = cx.groups[0].mul
    if any(mul[x][y] != mul[y][x] for x in range(order) for y in range(x)):
        assert plan == given, words
    assert all(len(_abelianised(w, order)) <= len(w) for w in words)


def repeating_word(l1):
    """A relator over cells 0..l1-1 of up to seven letters that holds some
    cell at least twice: a word and a copy of one of its letters."""
    letter = st.tuples(st.integers(0, l1 - 1), st.sampled_from((1, -1)))
    return st.lists(letter, min_size=1, max_size=6).flatmap(
        lambda w: st.tuples(st.integers(0, len(w) - 1), st.integers(0, len(w)),
                            st.sampled_from((1, -1))).map(
            lambda at: tuple(w[:at[1]]) + ((w[at[0]][0], at[2]),) + tuple(w[at[1]:])))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cell_plan_counts_alike(data):
    """Up to three relators over up to four cells, each holding some cell
    twice, against abelian and non-abelian A_1: count_homs agrees with the
    backtracker and the brute-force sweep, and over an abelian A_1 its
    plan's estimate is at most that of the given words and of the
    abelianised words read letter by letter (over a non-abelian one the
    plan is the given words').  Weighing a relator one cell before its
    last, or building the power row y -> y^s for s reduced mod |A_1| + 1,
    fails it."""
    cx = data.draw(st.sampled_from(abelianised_coefficients()))
    order = cx.groups[0].order
    l1 = data.draw(st.integers(1, 4))
    words = tuple(data.draw(st.lists(repeating_word(l1), min_size=1,
                                     max_size=3 if cx.length == 1 else 2)))
    p = CWPresentation((1, l1, len(words)), attach2=words)
    assert count_homs(p, cx) == _backtrack(p, cx) == count_homs_bruteforce(p, cx), words
    plan, given = count_engine(p, cx), _planned(words, order)
    mul = cx.groups[0].mul
    if any(mul[x][y] != mul[y][x] for x in range(order) for y in range(x)):
        assert plan == given, words
        return
    shrunk = _planned(tuple(_abelianised(w, order) for w in words), order)
    assert plan.estimate <= min(given.estimate, shrunk.estimate), words
    if plan.engine == "exponent-sums":
        assert plan == _cell_plan(shrunk.words, shrunk.collapsed, order), words


# count-surfaces' narrow-6-2 relators, as random_relators draws them
NARROW_6_2 = (((0, -1), (0, -1), (1, -1), (2, -1), (3, 1), (4, -1), (5, -1), (5, -1)),
              ((1, -1), (2, -1), (3, 1), (3, 1), (4, -1), (5, 1), (5, 1), (5, 1)))


def test_narrow_relators_are_counted_cell_by_cell():
    """count-surfaces' narrow-6-2 relators against the inclusion Z/3 -> Z/6
    share five cells, so read letter by letter their states are bounded by
    up to 6^5, estimate 28,206.  Summed out cell by cell, at most two
    accumulators are open at once: 6 + 36 + 4 x 216 = 906 transitions, and
    the count is the backtracker's."""
    z6, z3 = cyclic_group(6), cyclic_group(3)
    cx = from_crossed_module(z6, z3, GroupHom(z3, z6, (0, 2, 4)), trivial_action(z6, z3),
                             name="incl-z3-z6")
    p = CWPresentation((1, 6, 2), attach2=NARROW_6_2, name="narrow-6-2")
    plan = count_engine(p, cx)
    assert plan.engine == "exponent-sums"
    assert plan.estimate == 906 <= 1000
    assert _planned(NARROW_6_2, 6).estimate == 28206
    assert count_homs(p, cx) == _backtrack(p, cx)


def test_free_layer_counts_in_linear_time():
    """200,000 free 3-cells over one 1-cell against l3-z2: the top layer
    is counted by one power per fibre size, not one product per cell, which
    takes about 0.6 s of CPU on a 2-core x86_64 host under CPython 3.11 and
    grows with the square of the cells."""
    n = 200_000
    p = CWPresentation((1, 1, 0, n), attach2=(), attach_terms=(((),) * n,))
    cx = resolve_coefficients("l3-z2")
    assert count_homs(p, cx) == 2 * len(fibers_of(cx.boundary(3))[0]) ** n
    tower = _Search(p, cx).tower((0,))
    started = time.process_time()
    assert tower.below(3, (0,) * n) == 2 ** n
    assert time.process_time() - started < 0.2


def lexicographic_sweep(p, cx):
    """Every colouring of the full space that morphism_violation accepts,
    in lexicographic order."""
    sizes = [cx.groups[n - 1].order for n in range(1, cx.length + 1)]
    cuts = list(itertools.accumulate([p.count(n) for n in range(1, cx.length + 1)], initial=0))
    out = []
    for flat in itertools.product(*(range(sizes[n]) for n in range(cx.length)
                                     for _ in range(p.count(n + 1)))):
        colours = tuple(flat[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
        if morphism_violation(p, cx, colours) is None:
            out.append(colours)
    return out


def twisted_tower4():
    """Z/2, Z/3, Z/3, Z/3 with zero boundaries, Z/2 negating every degree."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    flip = GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))
    cx = FiniteCrossedComplex(
        (z2, z3, z3, z3),
        (zero_hom(z3, z2), zero_hom(z3, z3), zero_hom(z3, z3)),
        (flip, flip, flip),
    )
    from xcomplex.complexes import validate
    assert validate(cx).ok
    return cx


def tower4_presentation():
    """Two 1-cells, spherical 2-cells, and twisted data in dimensions 3..5:
    the 4-cells are evaluated in A_3, the 5-cell is killed in A_4."""
    a, b = (0, 1), (1, 1)
    return CWPresentation(
        (1, 2, 2, 2, 2, 1),
        attach2=((), ()),
        attach_terms=(
            ((((a,), 0, 1), ((), 1, -1)), (((b, a), 1, 1),)),
            ((((a,), 0, 1), ((b,), 1, 2)), (((a, b), 1, -1),)),
            ((((b,), 0, 1), ((), 1, 1)),),
        ),
        name="tower4",
    )


def parity_complexes():
    """Z/4 acting on Z/3 through its parity, or trivially, in degrees 2 and
    3; zero boundaries.  Under parity a twisting word's row depends on its
    value mod 2 only, so colourings of equal parities share compiled data."""
    z4, z3 = cyclic_group(4), cyclic_group(3)
    parity = GroupAction(z4, z3, ((0, 1, 2), (0, 2, 1)) * 2)
    trivial = trivial_action(z4, z3)
    bds = (zero_hom(z3, z4), zero_hom(z3, z3))
    return {name: FiniteCrossedComplex((z4, z3, z3), bds, (act, act))
            for name, act in (("parity", parity), ("trivial", trivial))}


def parity_presentation():
    a, b = (0, 1), (1, 1)
    return CWPresentation(
        (1, 2, 2, 2, 2),
        attach2=((), ()),
        attach_terms=(
            ((((a,), 0, 1), ((), 1, -1)), (((b,), 1, 1), ((a, b), 0, 1))),
            ((((a,), 0, 1), ((b,), 1, 1)), (((b,), 0, 1), ((), 1, 1))),
        ),
        name="parity",
    )


def test_memoised_search_matches_sweep_and_bruteforce():
    """Counts and listings of the memoised layered search against the
    brute-force count and a lexicographic sweep of the full space, on towers
    whose cells of dimension 3..L+1 read twisted action rows."""
    cases = [(p, cx) for p, cx in random_instances(seed=11, count=120)
             if cx.length == 3 and any(len(set(a.act)) > 1 for a in cx.actions)
             and any(p.count(n) for n in (3, 4))]
    assert len(cases) == 8
    cases.append((tower4_presentation(), twisted_tower4()))
    cases += [(parity_presentation(), cx) for cx in parity_complexes().values()]
    nonzero = 0
    for p, cx in cases:
        assert count_engine(p, cx).engine == "backtrack"
        listed = enumerate_homs(p, cx)
        assert listed == lexicographic_sweep(p, cx), p
        assert count_homs(p, cx) == len(listed) == count_homs_bruteforce(p, cx), p
        nonzero += bool(listed)
    assert nonzero >= 8


def _count_towers(monkeypatch):
    """Patch `_Tower` to record the compiled Terms of each tower built;
    returns the record."""
    built = []

    class Counted(_Tower):
        def __init__(self, s, terms):
            built.append(terms)
            super().__init__(s, terms)

    monkeypatch.setattr(enumeration, "_Tower", Counted)
    return built


def test_memo_shared_across_equal_action_rows(monkeypatch):
    """The 16 layer-1 colourings share one memo under the trivial action,
    where every twisting word drops out of the key: one tower is built, and
    the search evaluates the two 2-cell words of each colouring and no
    twisting word.  Under parity they fall into four, one per parity of
    the two 1-cells, and the count differs; each colouring's key also
    evaluates the seven distinct (degree, twisting word) slots.  Without
    cells of dimension 3..L+1 every layer-1 colouring takes the same path,
    under the empty key: listing the torus into a crossed module builds one
    tower, with nothing compiled."""
    p = parity_presentation()
    counts, towers, words = {}, {}, {}
    for name, cx in parity_complexes().items():
        built = _count_towers(monkeypatch)
        evaluated = []

        def counted(cx, f1, w, evaluated=evaluated):
            evaluated.append(w)
            return eval_word(cx, f1, w)

        monkeypatch.setattr(enumeration, "eval_word", counted)
        s = _Search(p, cx)
        counts[name] = sum(s.below(f1) for f1 in s.layer1())
        monkeypatch.setattr(enumeration, "eval_word", eval_word)
        assert counts[name] == count_homs_bruteforce(p, cx)
        towers[name], words[name] = len(built), len(evaluated)
    assert counts == {"trivial": 48, "parity": 32}
    assert towers == {"trivial": 1, "parity": 4}
    assert words == {"trivial": 16 * 2, "parity": 16 * (2 + 7)}
    cx = resolve_coefficients("cm-z4-z2-incl")
    built = _count_towers(monkeypatch)
    s = _Search(torus(), cx, listing=True)
    listed = [(f1,) + tail for f1 in s.layer1() for tail in s.below(f1)]
    assert built == [{}]
    assert listed == lexicographic_sweep(torus(), cx) and len(listed) == 16


def test_equal_action_rows_have_equal_powered_rows():
    """The twist key rests on this: elements of A_1 with equal action rows
    in degree d have equal rows y -> (x |> y)^e for every power e, so a
    compile reads a twisting word's value only through its action row."""
    complexes = standard_coefficients() + [
        resolve_coefficients("cm-z2-z3-flip"), _conjugation_crossed_module(),
        mixed_action_tower(), twisted_tower4(), *parity_complexes().values()]
    merged = 0
    for cx in complexes:
        for d in range(2, cx.length + 1):
            action = cx.actions[d - 2]
            for e in range(1, cx.groups[d - 1].order):
                rows = action.act if e == 1 else action.powered(e)
                for x, y in itertools.combinations(range(cx.groups[0].order), 2):
                    if action.act[x] == action.act[y]:
                        assert rows[x] == rows[y], (cx.name, d, e, x, y)
                        merged += e == 1
    assert merged > 20


def test_checker_agrees_with_morphism_violation_on_full_space():
    """One checker per layer-1 colouring, reused over all its colourings,
    agrees with morphism_violation and with a direct evaluation through
    eval_word (2-cells) and eval_terms (cells of dimension >= 3) on all
    4 x 3^6 colourings of the length-4 tower."""
    p, cx = tower4_presentation(), twisted_tower4()

    def direct(colours):
        for n in range(2, cx.length + 2):
            got = (tuple(eval_word(cx, colours[0], w) for w in p.attach2) if n == 2
                   else eval_terms(cx, colours[0], p.terms(n), colours[n - 2], n - 1))
            want = (tuple(cx.boundary(n).image[v] for v in colours[n - 1])
                    if n <= cx.length else (0,) * len(got))
            bad = [c for c, (a, b) in enumerate(zip(got, want)) if a != b]
            if bad:
                return ("layer" if n <= cx.length else "kill", n, bad[0])
        return None

    shape = [(p.count(n), cx.groups[n - 1].order) for n in range(1, cx.length + 1)]
    kinds = set()
    for f1 in itertools.product(range(2), repeat=2):
        check = morphism_checker(p, cx, f1)
        for tail in layered_product(shape[1:]):
            colours = (f1,) + tail
            got = check(colours)
            assert got == morphism_violation(p, cx, colours) == direct(colours), colours
            kinds.add(got and got[:2])
    assert kinds == {None, ("layer", 3), ("layer", 4), ("kill", 5)}


def _plant_wrong_suffix(monkeypatch):
    """Make every listing of layers 2.. under a layer-1 colouring end in one
    suffix more: the first one with the 5-cell's second 4-cell recoloured,
    which changes the 5-cell's value in A_4, so the 5-cell survives."""
    real = _Tower.below

    def planted(self, n, t):
        got = real(self, n, t)
        if n == 2 and self.s.listing and got:
            *lower, top = got[0]
            got = got + [(*lower, (top[0], (top[1] + 1) % 3))]
        return got

    monkeypatch.setattr(_Tower, "below", planted)


def test_planted_wrong_suffix_fails_enumeration(monkeypatch):
    p, cx = tower4_presentation(), twisted_tower4()
    assert enumerate_homs(p, cx)
    _plant_wrong_suffix(monkeypatch)
    with pytest.raises(AssertionError, match="non-morphism"):
        enumerate_homs(p, cx)


def test_planted_wrong_suffix_is_internal_error(monkeypatch, tmp_path, capsys):
    """count --enumerate ends in exit 4 on a listing that fails its check."""
    from xcomplex import cli
    from xcomplex.documents import dump_complex, dump_presentation

    pres, cplx = tmp_path / "tower4.json", tmp_path / "twisted4.json"
    pres.write_text(json.dumps(dump_presentation(tower4_presentation())))
    cplx.write_text(json.dumps(dump_complex(twisted_tower4())))
    argv = ["count", "--presentation", str(pres), "--complex", str(cplx), "--enumerate"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    _plant_wrong_suffix(monkeypatch)
    assert cli.main(argv) == 4
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert error.startswith("internal check failed: search produced a non-morphism")


def bounded_tower4():
    """twisted_tower4 with d_3 the identity of Z/3: a 3-cell's colour is
    its target, so layer 3 is checked against f_3 itself."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    flip = GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))
    cx = FiniteCrossedComplex(
        (z2, z3, z3, z3),
        (zero_hom(z3, z2), GroupHom(z3, z3, (0, 1, 2)), zero_hom(z3, z3)),
        (flip, flip, flip),
    )
    from xcomplex.complexes import validate
    assert validate(cx).ok
    return cx


@pytest.mark.parametrize("layer, index, kind", [
    (0, 0, ("layer", 3)),  # f2
    (1, 1, ("layer", 3)),  # f3 of a suffix whose f2 the suffix before shares
    (2, 0, ("kill", 5)),  # the 4-cells' colours, read by the killed 5-cell
])
def test_planted_altered_suffix_is_named(monkeypatch, layer, index, kind):
    """A search fault that recolours cell 0 of one layer in one listed
    suffix under each layer-1 colouring fails the listing, naming the
    colouring.  The altered f3 meets the layer-3 target kept from the
    suffix before, which has the same f2, and is caught there by d_3(f_3)."""
    p, cx = tower4_presentation(), bounded_tower4()
    homs = enumerate_homs(p, cx)
    f1 = homs[0][0]
    tails = [h[1:] for h in homs if h[0] == f1]
    assert len(tails) == 3 and tails[0][:2] == tails[1][:2]

    def alter(tail):
        cells = tail[layer]
        return tail[:layer] + (((cells[0] + 1) % 3,) + cells[1:],) + tail[layer + 1:]

    bad = (f1,) + alter(tails[index])
    check = morphism_checker(p, cx, f1)
    assert [check((f1,) + tail) for tail in tails[:index]] == [None] * index
    assert check(bad) == morphism_violation(p, cx, bad) and check(bad)[:2] == kind
    real = _Tower.below

    def planted(self, n, t):
        got = real(self, n, t)
        if n == 2 and self.s.listing and len(got) > index:
            got = got[:index] + [alter(got[index])] + got[index + 1:]
        return got

    monkeypatch.setattr(_Tower, "below", planted)
    with pytest.raises(AssertionError) as caught:
        enumerate_homs(p, cx)
    assert str(caught.value) == f"search produced a non-morphism: {bad}"


def test_bruteforce_on_named_pairs():
    for space, coeff in (("torus", "s3"), ("rp2", "z3"),
                         ("disk:3", "cm-z2-z2-zero"), ("sphere:3", "l3-z2")):
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        assert count_homs(p, cx) == count_homs_bruteforce(p, cx)


def test_wedge_multiplicativity():
    pairs = [
        (torus(), rp2(), "s3"),
        (sphere(2), disk(2), "cm-z4-z2-incl"),
        (sphere(3), disk(3), "l3-z2"),
        (rp2(), rp2(), "z2"),
    ]
    for p, q, coeff in pairs:
        cx = resolve_coefficients(coeff)
        assert count_homs(wedge(p, q), cx) == \
            count_homs(p, cx) * count_homs(q, cx), (p.name, q.name, coeff)


def test_conjugated_word_same_count():
    """Conjugating a 2-cell's word leaves the morphism count alone."""
    base = torus()
    w = base.attach2[0]
    conj = ((1, 1),) + w + ((1, -1),)
    peer = CWPresentation(base.cells, attach2=(conj,))
    for coeff in ("s3", "z3"):
        cx = resolve_coefficients(coeff)
        assert count_homs(base, cx) == count_homs(peer, cx)


def test_cells_above_truncation_are_inert():
    """Wedging on a sphere of dimension L+2 never changes the count."""
    cases = [
        (torus(), "s3", 3),
        (rp2(), "cm-z2-z2-zero", 4),
        (sphere(2), "l3-z2", 5),
    ]
    for p, coeff, junk_dim in cases:
        cx = resolve_coefficients(coeff)
        assert junk_dim == cx.length + 2
        assert count_homs(wedge(p, sphere(junk_dim)), cx) == count_homs(p, cx)


def test_relabelling_cells_preserves_count():
    p = wedge(torus(), rp2())
    perms = {n: tuple(reversed(range(p.count(n)))) for n in (1, 2)}
    q = relabel_cells(p, perms)
    for coeff in ("s3", "cm-z4-z2-incl"):
        cx = resolve_coefficients(coeff)
        assert count_homs(p, cx) == count_homs(q, cx)


def test_morphism_violation_kinds():
    s3 = from_group(symmetric_group_3())
    assert morphism_violation(torus(), s3, ((0, 0),)) is None
    v = morphism_violation(torus(), s3, ((1, 2),))
    assert v == ("kill", 2, 0)
    incl = resolve_coefficients("cm-z4-z2-incl")
    assert morphism_violation(disk(2), incl, ((0,), (1,))) == ("layer", 2, 0)
    assert morphism_violation(disk(2), incl, ((0,),))[0] == "shape"
    assert morphism_violation(disk(2), incl, ((9,), (0,)))[0] == "shape"


def test_attaching_target_dispatch():
    incl = resolve_coefficients("cm-z4-z2-incl")
    assert eval_word(incl, (2,), disk(2).attach2[0]) == 2
    l3 = resolve_coefficients("l3-z2")
    assert eval_terms(l3, (), disk(3).terms(3), (1,), 2) == (1,)
    assert eval_terms(l3, (), disk(4).terms(4), (1,), 3) == (1,)


def test_enumeration_cap():
    """Both refusals of a listing, each at cap 3, in their order: sphere:1
    x s3 has 6 morphisms over 6 layer-1 colourings and is refused on its
    morphisms (ResultTooLarge); two 1-cells killed by the relators x_i
    against s3 have one morphism over 36 colourings and are refused on
    the walk (InstanceTooLarge).  Each passes a cap of its own size."""
    s3 = resolve_coefficients("s3")
    with pytest.raises(ResultTooLarge, match="^more than 3 morphisms; raise the cap to list them$"):
        enumerate_homs(sphere(1), s3, cap=3)
    assert len(enumerate_homs(sphere(1), s3, cap=6)) == 6
    killed = CWPresentation((1, 2, 2), attach2=(((0, 1),), ((1, 1),)))
    with pytest.raises(InstanceTooLarge, match="^listing walk of 36 layer-1 colourings exceeds cap 3$"):
        enumerate_homs(killed, s3, cap=3)
    assert enumerate_homs(killed, s3, cap=36) == [((0, 0),)]


def test_listing_walk_is_refused_before_the_search(monkeypatch):
    """l 1-cells killed by the relators x_i against s3 have one morphism
    over 6^l layer-1 colourings.  enumerate_homs refuses the walk at
    cap 1000 before it builds the search that would visit them: at l = 8
    walking all 1,679,616 takes about a second, at l = 12 half an hour."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("search built")

    monkeypatch.setattr(enumeration, "_Search", unbuilt)
    for l1 in (8, 12):
        p = CWPresentation((1, l1, l1), attach2=tuple(((g, 1),) for g in range(l1)))
        with pytest.raises(InstanceTooLarge) as refused:
            enumerate_homs(p, resolve_coefficients("s3"), cap=1000)
        assert str(refused.value) == f"listing walk of {6 ** l1} layer-1 colourings exceeds cap 1000"


def test_bruteforce_cap():
    with pytest.raises(InstanceTooLarge) as refused:
        count_homs_bruteforce(torus(), resolve_coefficients("s3"), cap=10)
    assert str(refused.value) == "brute-force space 36 exceeds cap 10"


def limited_run(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter under 1 GiB of address space,
    asserting that it ends within 5 s."""
    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, preexec_fn=limited)
    assert time.perf_counter() - started < 5.0, proc.stderr
    return proc


def test_huge_spaces_are_weighed_by_their_logarithm():
    """10^12 free 1-cells against z2: the answer of enumerate_homs, up to
    2^(10^12), is refused on its digits, and the sweep of
    count_homs_bruteforce, 2^(10^12) colourings, by its magnitude, at once
    and within 1 GiB of address space, where building the power alone ran
    out of memory.  A walk of 2^20000 colourings over one morphism is
    refused by its magnitude too."""
    proc = limited_run(
        "from xcomplex.enumeration import count_homs_bruteforce, enumerate_homs\n"
        "from xcomplex.errors import InstanceTooLarge\n"
        "from xcomplex.library import resolve_coefficients\n"
        "from xcomplex.presentations import CWPresentation\n"
        "p, z2 = CWPresentation((1, 10**12)), resolve_coefficients('z2')\n"
        "for run in (enumerate_homs, count_homs_bruteforce):\n"
        "    try:\n"
        "        run(p, z2)\n"
        "    except InstanceTooLarge as exc:\n"
        "        print(exc)\n")
    assert proc.stdout.splitlines() == [
        "answer of up to 301029995664 digits exceeds cap 1000000",
        "brute-force space about 10^301029995663 exceeds cap 1000000"], proc.stderr
    killed = CWPresentation((1, 20000, 20000), attach2=tuple(((g, 1),) for g in range(20000)))
    with pytest.raises(InstanceTooLarge) as refused:  # 2^20000: 6,021 digits
        enumerate_homs(killed, resolve_coefficients("z2"))
    assert str(refused.value) == "listing walk of about 10^6020 layer-1 colourings exceeds cap 1000000"


def test_listing_is_counted_before_its_search_is_built():
    """22 free 3-cells against l3-z2 have 2^22 = 4,194,304 morphisms over a
    single layer-1 colouring.  A direct enumerate_homs call at the default
    cap counts them and refuses the listing before it builds the search
    for it, within 5 s under 1 GiB of address space, where building the
    listing ran out of memory."""
    proc = limited_run(
        "from xcomplex import enumeration\n"
        "from xcomplex.errors import ResultTooLarge\n"
        "from xcomplex.library import resolve_coefficients\n"
        "from xcomplex.presentations import CWPresentation\n"
        "class Unlisted(enumeration._Search):\n"
        "    def __init__(self, p, cx, listing=False):\n"
        "        if listing:\n"
        "            raise AssertionError('listing started')\n"
        "        super().__init__(p, cx)\n"
        "enumeration._Search = Unlisted\n"
        "free = CWPresentation((1, 0, 0, 22), attach_terms=(((),) * 22,))\n"
        "try:\n"
        "    enumeration.enumerate_homs(free, resolve_coefficients('l3-z2'))\n"
        "except ResultTooLarge as exc:\n"
        "    print(exc)\n")
    assert proc.stdout.splitlines() == [
        "more than 1000000 morphisms; raise the cap to list them"], proc.stderr


def test_refusals_print_a_long_cap_by_its_magnitude():
    """A library cap of 2^20000 - 1 has 6,021 digits, past CPython's
    default int/str limit of 4,300: every refusal it reaches names it as
    "about 10^6020" instead of failing to print it.  (No answer of more
    than 10^6020 digits, nor a listing long enough to exceed it in
    generator edges, can be built to reach the other two refusals.)"""
    cap, long = 2**20000 - 1, "about 10^6020"
    z2, l3 = resolve_coefficients("z2"), resolve_coefficients("l3-z2")
    killed = CWPresentation((1, 20100, 20100), attach2=tuple(((g, 1),) for g in range(20100)))
    runs = [
        (enumerate_homs, CWPresentation((1, 20000)), z2, ResultTooLarge,
         f"more than {long} morphisms; raise the cap to list them"),
        (homotopy_classes, CWPresentation((1, 20000)), z2, ResultTooLarge,
         f"more than {long} morphisms; raise the cap to list them"),
        (enumerate_homs, CWPresentation((1, 20100, 0, 1), attach_terms=(((),),)), l3,
         InstanceTooLarge, f"backtrack estimate about 10^6050 exceeds cap {long}"),
        (enumerate_homs, killed, z2, InstanceTooLarge,
         f"listing walk of about 10^6050 layer-1 colourings exceeds cap {long}"),
        (count_homs_bruteforce, CWPresentation((1, 20100)), z2, InstanceTooLarge,
         f"brute-force space about 10^6050 exceeds cap {long}"),
    ]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(4300)
    try:
        for run, p, cx, error, message in runs:
            with pytest.raises(error) as refused:
                run(p, cx, cap=cap)
            assert str(refused.value) == message
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_defect_report_clean_on_disk4():
    assert boundary_defect_report(disk(4), resolve_coefficients("l3-z2")) == []


def planted_defect_instance():
    """Tower with d3 = id and a 4-cell whose data does not die in ker d3."""
    z2 = cyclic_group(2)
    cx = FiniteCrossedComplex(
        (z2, z2, z2),
        (zero_hom(z2, z2), GroupHom(z2, z2, (0, 1))),
        (trivial_action(z2, z2), trivial_action(z2, z2)),
    )
    p = CWPresentation(
        (1, 0, 1, 1, 1),
        attach2=((),),
        attach_terms=(((((), 0, 1),),), ((((), 0, 1),),)),
    )
    return p, cx


def test_defect_report_finds_planted_defect():
    from xcomplex.complexes import validate
    from xcomplex.presentations import validate_presentation
    p, cx = planted_defect_instance()
    assert validate(cx).ok
    assert validate_presentation(p).ok
    report = boundary_defect_report(p, cx)
    assert report == [(4, 0, ((), (1,), (1,)), 1)]
    # the kill constraint removes that colouring from the actual count
    assert count_homs(p, cx) == 1


def test_defect_report_compiles_once_per_twist_key(monkeypatch):
    """The 4-cells' Terms are compiled once per twist key of their words,
    not once per listed morphism: with d_3 the identity on Z/3, the parity
    presentation has 16 live layer-1 colourings, each under several
    morphisms, and 4 twist keys under parity, 1 under the trivial action.
    The report equals a per-morphism evaluation from f1 itself."""
    z3 = cyclic_group(3)
    p = parity_presentation()
    compiles = []
    real = enumeration._compile

    def counted(cx, k, cells, twist):
        compiles.append(k)
        return real(cx, k, cells, twist)

    monkeypatch.setattr(enumeration, "_compile", counted)
    for name, keys in (("parity", 4), ("trivial", 1)):
        base = parity_complexes()[name]
        cx = FiniteCrossedComplex(base.groups, (base.boundaries[0], GroupHom(z3, z3, (0, 1, 2))),
                                  base.actions)
        from xcomplex.complexes import validate
        assert validate(cx).ok
        compiles.clear()
        report = boundary_defect_report(p, cx)
        assert compiles.count(3) == keys, name
        trunc = CWPresentation(p.cells[:4], p.attach2, p.attach_terms[:1])
        homs = enumerate_homs(trunc, cx)
        assert len({f[0] for f in homs}) == 16 and len(homs) > 16
        want = [(4, cell, f, val) for f in homs
                for cell, val in enumerate(eval_terms(cx, f[0], p.terms(4), f[2], 3)) if val]
        assert report == want and report, name


def test_layered_product_order_and_laziness():
    """The sweep splits the lexicographic product of all cells into layers,
    and holds one colouring at a time rather than a layer's worth."""
    flat = itertools.product(range(2), range(2), range(3))
    assert list(layered_product([(2, 2), (1, 3)])) == [(f[:2], f[2:]) for f in flat]
    assert list(layered_product([])) == [()]
    assert list(layered_product([(0, 5), (1, 2)])) == [((), (0,)), ((), (1,))]
    tracemalloc.start()
    try:
        first = next(layered_product([(16, 2), (1, 3)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == ((0,) * 16, (0,))
    assert peak < 1_000_000  # the 2^16 colourings of the first layer take about 12 MB


def test_bruteforce_checker_keeps_few_targets():
    """The oracle's sweep under a killed 4-cell meets each of the 2^15
    colourings of 15 free 3-cells once, and the checker keeps at most 4,096
    of their targets, not one per colouring."""
    p = CWPresentation((1, 0, 0, 15, 1), attach2=(), attach_terms=(((),) * 15, ((),)))
    cx = resolve_coefficients("l3-z2")
    tracemalloc.start()
    try:
        assert count_homs_bruteforce(p, cx) == 2 ** 15
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000  # keeping every target takes about 8 MB


def test_genus_two_spot_check():
    """Abelian coefficients kill all commutators, so every colouring works."""
    cx = from_group(cyclic_group(3))
    assert count_homs(genus_surface(2), cx) == 3 ** 4
    assert count_homs_bruteforce(genus_surface(2), cx) == 3 ** 4


def test_point_maps_uniquely_everywhere():
    for coeff in ("z2", "s3", "cm-z4-z2-incl", "l3-z2"):
        cx = resolve_coefficients(coeff)
        homs = enumerate_homs(point(), cx)
        assert len(homs) == 1
        assert homs[0] == ((),) * cx.length


def test_colouring_verifies_and_compares_by_value():
    p, cx = sphere(1), resolve_coefficients("z2")
    assert morphism_violation(p, cx, ((1,),)) is None
    assert enumerate_homs(p, cx)[1] == ((1,),)
