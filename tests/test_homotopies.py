"""Derivations, homotopy targets, counting formulas, class decomposition."""

import random

import pytest

from xcomplex.enumeration import Morphism, enumerate_homs, eval_word
from xcomplex.errors import ResultTooLarge
from xcomplex.homotopies import (
    ClassDecomposition,
    Homotopy1,
    count_class_edges,
    count_homotopies_from,
    elementary_value_tables,
    enumerate_homotopies_from,
    eval_derivation,
    homotopy_classes,
    homotopy_target,
    homotopy_value_space,
)
from xcomplex.complexes import from_crossed_module, pi1
from xcomplex.groups import GroupAction, GroupHom, symmetric_group_3
from xcomplex.library import (
    resolve_coefficients,
    resolve_space,
    standard_coefficients,
    standard_spaces,
)
from xcomplex.randomgen import random_instances
from xcomplex.presentations import free_reduce, rp2, sphere, torus, wedge


def random_word(rng, gens, length):
    return tuple((rng.randrange(gens), rng.choice((1, -1)))
                 for _ in range(length))


def test_derivation_single_letters():
    """Letter values on the twisted Z/3 fibre, checked by hand."""
    cx = resolve_coefficients("cm-z2-z3-flip")
    f1, h1 = (1,), (2,)
    assert eval_derivation(cx, f1, h1, ()) == 0
    assert eval_derivation(cx, f1, h1, ((0, 1),)) == 2
    # negative letter: f1(x) |> H(x)^-1 = flip(1) = 2
    assert eval_derivation(cx, f1, h1, ((0, -1),)) == 2
    # x then x^-1 must cancel
    assert eval_derivation(cx, f1, h1, ((0, 1), (0, -1))) == 0
    # the square twists the first summand to its inverse: flip(2) + 2 = 0
    assert eval_derivation(cx, f1, h1, ((0, 1), (0, 1))) == 0


def test_derivation_untwisted_is_signed_sum():
    """With a trivial action the derivation adds letter values with signs."""
    cx = resolve_coefficients("cm-z4-z2-incl")
    f1, h1 = (3, 1), (1, 0)
    w = ((0, 1), (1, 1), (0, -1), (1, -1))
    assert eval_derivation(cx, f1, h1, w) == 0  # 1 + 0 - 1 - 0 in Z/2
    assert eval_derivation(cx, f1, h1, ((0, 1), (1, 1))) == 1


def test_derivation_cancellation_property():
    """s(w) depends only on the free reduction of w."""
    rng = random.Random(23)
    cx = resolve_coefficients("cm-z2-z3-flip")
    for _ in range(150):
        f1 = (rng.randrange(2), rng.randrange(2))
        h1 = (rng.randrange(3), rng.randrange(3))
        w = random_word(rng, 2, rng.randrange(9))
        assert eval_derivation(cx, f1, h1, w) == \
            eval_derivation(cx, f1, h1, free_reduce(w))
        assert eval_derivation(
            cx, f1, h1, w + tuple((g, -e) for g, e in reversed(w))) == 0


def test_derivation_concatenation_law():
    """s(w1 w2) = (f1(w2)^-1 |> s(w1)) * s(w2), the defining recursion."""
    rng = random.Random(31)
    cx = resolve_coefficients("cm-z2-z3-flip")
    a1, a2 = cx.groups[0], cx.groups[1]
    act = cx.actions[0].act
    for _ in range(150):
        f1 = (rng.randrange(2), rng.randrange(2))
        h1 = (rng.randrange(3), rng.randrange(3))
        w1 = random_word(rng, 2, rng.randrange(6))
        w2 = random_word(rng, 2, rng.randrange(6))
        lhs = eval_derivation(cx, f1, h1, w1 + w2)
        tw = act[a1.inv[eval_word(cx, f1, w2)]][eval_derivation(cx, f1, h1, w1)]
        rhs = a2.mul[tw][eval_derivation(cx, f1, h1, w2)]
        assert lhs == rhs


def test_identity_homotopy_fixes_every_morphism():
    cases = [("torus", "cm-z4-z2-incl"), ("rp2", "cm-z2-z3-flip"),
             ("sphere:2", "l3-z2"), ("torus", "s3")]
    for space, coeff in cases:
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        zeros = tuple(
            (0,) * p.count(n) for n in range(1, cx.length))
        for f in enumerate_homs(p, cx):
            assert homotopy_target(Homotopy1(f, zeros)).colours == f.colours


def test_target_on_circle_shifts_by_boundary():
    cx = resolve_coefficients("cm-z4-z2-incl")
    f = enumerate_homs(sphere(1), cx)[0]
    assert f.colours == ((0,), ())
    g = homotopy_target(Homotopy1(f, ((1,),)))
    assert g.colours == ((2,), ())


def test_target_on_torus_frozen():
    """Commutator words absorb untwisted derivations, so layer 2 stays put."""
    cx = resolve_coefficients("cm-z4-z2-incl")
    p = torus()
    f = Morphism(p, cx, ((1, 2), (0,)))
    g = homotopy_target(Homotopy1(f, ((1, 0),)))
    assert g.colours == ((3, 2), (0,))


def test_all_targets_are_morphisms():
    """Exhaustive connection check on twisted and untwisted instances."""
    cases = [("rp2", "cm-z2-z3-flip"), ("disk:2", "cm-z4-z2-incl"),
             ("sphere:3", "l3-z2")]
    for space, coeff in cases:
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        for f in enumerate_homs(p, cx):
            for k in enumerate_homotopies_from(f):
                homotopy_target(k)  # raises TargetNotMorphism on any defect


def test_homotopy_count_formula():
    cx = resolve_coefficients("cm-z4-z2-incl")
    f = enumerate_homs(torus(), cx)[0]
    assert count_homotopies_from(f) == 4  # |A_2|^2 for the two 1-cells
    l3 = resolve_coefficients("l3-z2")
    g = enumerate_homs(torus(), l3)[0]
    assert count_homotopies_from(g) == 8  # 2^2 * 2^1


def test_count_matches_value_space():
    for space, coeff in (("torus", "cm-z4-z2-incl"), ("rp2", "cm-z2-z3-flip"),
                         ("sphere:2", "l3-z2")):
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        f = enumerate_homs(p, cx)[0]
        assert count_homotopies_from(f) == \
            sum(1 for _ in homotopy_value_space(p, cx))


def test_value_space_length_one_is_identity_only():
    tables = list(homotopy_value_space(torus(), resolve_coefficients("s3")))
    assert tables == [()]


def test_value_space_is_lexicographic():
    tables = list(homotopy_value_space(
        sphere(1), resolve_coefficients("cm-z2-z3-flip")))
    assert tables == [((0,),), ((1,),), ((2,),)]


def test_enumerate_homotopies_carry_source():
    cx = resolve_coefficients("cm-z4-z2-incl")
    f = enumerate_homs(sphere(1), cx)[0]
    ks = list(enumerate_homotopies_from(f))
    assert len(ks) == count_homotopies_from(f)
    assert all(k.source is f for k in ks)
    assert ks[0].values == ((0,),)


@pytest.mark.parametrize("coeff", ["z2", "z3", "s3", "cm-z4-z2-incl", "l3-z2"])
def test_circle_classes_count_pi1(coeff):
    """Components of the free loop space of |A| biject with pi_1 here."""
    cx = resolve_coefficients(coeff)
    dec = homotopy_classes(sphere(1), cx)
    assert dec.count == pi1(cx).order


def test_classes_on_circle_frozen():
    dec = homotopy_classes(sphere(1), resolve_coefficients("cm-z4-z2-incl"))
    assert dec.count == 2
    assert dec.sizes == (2, 2)
    assert [m.colours for m in dec.representatives] == \
        [((0,), ()), ((1,), ())]


def test_classes_on_torus_cosets():
    """Layer-1 classes are cosets of (im d2)^2: sixteen morphisms, four cells."""
    dec = homotopy_classes(torus(), resolve_coefficients("cm-z4-z2-incl"))
    assert dec.count == 4
    assert dec.sizes == (4, 4, 4, 4)


def test_classes_with_twisted_action_frozen():
    """The flip makes one colour mobile and freezes the rest.

    Over f1 = 0 the derivation doubles through Z/3, merging all three
    2-colours; over f1 = 1 the square word absorbs every value, so the
    three remaining morphisms are rigid.
    """
    dec = homotopy_classes(rp2(), resolve_coefficients("cm-z2-z3-flip"))
    assert dec.count == 4
    assert dec.sizes == (3, 1, 1, 1)
    assert [m.colours for m in dec.representatives] == [
        ((0,), (0,)), ((1,), (0,)), ((1,), (1,)), ((1,), (2,))]


def test_classes_partition_hom_set():
    for space, coeff in (("torus", "cm-z4-z2-incl"), ("rp2", "cm-z2-z3-flip"),
                         ("sphere:2", "cm-z2-z2-zero")):
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        dec = homotopy_classes(p, cx)
        homs = enumerate_homs(p, cx)
        assert sum(dec.sizes) == len(homs)
        assert len(dec.representatives) == dec.count
        # representatives are genuine morphisms from the enumeration
        cols = {m.colours for m in homs}
        assert all(r.colours in cols for r in dec.representatives)


def test_classes_singleton_hom_set():
    """rp2 into Z/3 admits only the constant morphism."""
    dec = homotopy_classes(rp2(), resolve_coefficients("z3"))
    assert isinstance(dec, ClassDecomposition)
    assert dec.count == 1 and dec.sizes == (1,)
    assert dec.representatives[0].colours == ((0,),)


def test_classes_edge_cap():
    """The cap counts elementary edges: 16 morphisms x 2 homotopies each."""
    p, cx = torus(), resolve_coefficients("cm-z4-z2-incl")
    with pytest.raises(ResultTooLarge):
        homotopy_classes(p, cx, cap=8)
    with pytest.raises(ResultTooLarge, match="= 32 edges"):
        homotopy_classes(p, cx, cap=31)
    assert count_class_edges(p, cx, 16) == 32
    assert homotopy_classes(p, cx, cap=32).count == 4


def test_elementary_value_tables():
    """One non-identity value per table, in (layer, cell, value) order."""
    tables = list(elementary_value_tables(torus(), resolve_coefficients("l3-z2")))
    assert tables == [((1, 0), (0,)), ((0, 1), (0,)), ((0, 0), (1,))]
    assert list(elementary_value_tables(torus(), resolve_coefficients("s3"))) == []
    p, cx = sphere(1), resolve_coefficients("cm-z2-z3-flip")
    assert list(elementary_value_tables(p, cx)) == [((1,),), ((2,),)]
    assert count_class_edges(p, cx, 5) == 10


def _full_graph_classes(p, cx, homs):
    """Union-find over every value table of homotopy_value_space: the oracle."""
    index = {m.colours: i for i, m in enumerate(homs)}
    parent = list(range(len(homs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, f in enumerate(homs):
        for values in homotopy_value_space(p, cx):
            ri = find(i)
            rj = find(index[homotopy_target(Homotopy1(f, values)).colours])
            parent[max(ri, rj)] = min(ri, rj)
    roots = [find(i) for i in range(len(homs))]
    reps = sorted(set(roots))
    return [homs[r].colours for r in reps], [roots.count(r) for r in reps]


def _conjugation_crossed_module():
    """S3 acting on itself by conjugation, with the identity as boundary."""
    s3 = symmetric_group_3()
    act = tuple(tuple(s3.mul[s3.mul[g][e]][s3.inv[g]] for e in range(6))
                for g in range(6))
    return from_crossed_module(s3, s3, GroupHom(s3, s3, tuple(range(6))),
                               GroupAction(s3, s3, act), name="s3-conj")


def test_elementary_classes_match_full_graph():
    """Elementary edges give the components of the full homotopy graph."""
    instances = (
        [(p, cx) for p in standard_spaces() for cx in standard_coefficients()]
        + [(p, _conjugation_crossed_module()) for p in (sphere(1), torus(), rp2())]
        + random_instances(20260819, 60))
    compared = []
    for p, cx in instances:
        homs = enumerate_homs(p, cx)
        if not homs or count_homotopies_from(homs[0]) * len(homs) > 2_000:
            continue
        dec = homotopy_classes(p, cx)
        reps, sizes = _full_graph_classes(p, cx, homs)
        assert [m.colours for m in dec.representatives] == reps, (p, cx.name)
        assert list(dec.sizes) == sizes, (p, cx.name)
        compared.append((cx, dec.sizes))
    assert any(cx.length == 3 and max(sizes) > 1 for cx, sizes in compared)
    assert any(cx.length >= 2 and max(sizes) > 1
               and cx.groups[0].mul != tuple(zip(*cx.groups[0].mul))
               for cx, sizes in compared)


def test_wedge_classes_spot_check():
    """Classes of a wedge multiply for these instances."""
    cx = resolve_coefficients("cm-z4-z2-incl")
    single = homotopy_classes(sphere(1), cx)
    double = homotopy_classes(wedge(sphere(1), sphere(1)), cx)
    assert double.count == single.count ** 2
