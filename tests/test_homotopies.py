"""Fox derivations, homotopy targets, counting formulas, class decomposition."""

import json
import random
from functools import partial

import pytest

from xcomplex.enumeration import (
    _apply,
    _compile,
    _twist_key,
    count_homs,
    count_homs_bruteforce,
    enumerate_homs,
    eval_word,
    layered_product,
    morphism_checker,
    morphism_violation,
)
from xcomplex import homotopies
from xcomplex.errors import (
    DimensionMismatch,
    InstanceTooLarge,
    ResultTooLarge,
    TargetNotMorphism,
)
from xcomplex.homotopies import (
    ClassDecomposition,
    _edge_targets,
    _generator_edges,
    _homotopy_terms,
    count_homotopies,
    homotopy_classes,
    homotopy_target,
    homotopy_value_space,
)
from xcomplex.complexes import FiniteCrossedComplex, from_crossed_module, homology, pi1, validate
from xcomplex.groups import (
    GroupAction,
    GroupHom,
    cyclic_group,
    make_group,
    symmetric_group_3,
    trivial_action,
    zero_hom,
)
from xcomplex.library import (
    resolve_coefficients,
    resolve_space,
    standard_coefficients,
    standard_spaces,
)
from xcomplex.randomgen import random_instances
from xcomplex.selfcheck import _conjugation_crossed_module
from xcomplex.presentations import (
    CWPresentation,
    disk,
    fox_terms,
    free_reduce,
    rp2,
    sphere,
    torus,
    wedge,
)


def edges_per_morphism(p, cx):
    """sum_k l_k |S_{k+1}|: the generator edges out of each morphism."""
    return sum(ln * len(gens) for ln, gens in _generator_edges(p, cx))


def random_word(rng, gens, length):
    return tuple((rng.randrange(gens), rng.choice((1, -1)))
                 for _ in range(length))


def derivation(cx, f1, h1, w):
    """H_1 extended to the word w: its Fox terms compiled at degree 2 under
    f1, applied to h1."""
    compiled = _compile(cx, 2, (fox_terms(w),), partial(eval_word, cx, f1))
    return _apply(cx.groups[1].mul, compiled, h1)[0]


def test_derivation_single_letters():
    """Letter values on the twisted Z/3 fibre, checked by hand."""
    cx = resolve_coefficients("cm-z2-z3-flip")
    f1, h1 = (1,), (2,)
    assert derivation(cx, f1, h1, ()) == 0
    assert derivation(cx, f1, h1, ((0, 1),)) == 2
    # negative letter: f1(x) |> H(x)^-1 = flip(1) = 2
    assert derivation(cx, f1, h1, ((0, -1),)) == 2
    # x then x^-1 must cancel
    assert derivation(cx, f1, h1, ((0, 1), (0, -1))) == 0
    # the square twists the first summand to its inverse: flip(2) + 2 = 0
    assert derivation(cx, f1, h1, ((0, 1), (0, 1))) == 0


def test_derivation_untwisted_is_signed_sum():
    """With a trivial action the derivation adds letter values with signs."""
    cx = resolve_coefficients("cm-z4-z2-incl")
    f1, h1 = (3, 1), (1, 0)
    w = ((0, 1), (1, 1), (0, -1), (1, -1))
    assert derivation(cx, f1, h1, w) == 0  # 1 + 0 - 1 - 0 in Z/2
    assert derivation(cx, f1, h1, ((0, 1), (1, 1))) == 1


def test_derivation_cancellation_property():
    """s(w) depends only on the free reduction of w."""
    rng = random.Random(23)
    cx = resolve_coefficients("cm-z2-z3-flip")
    for _ in range(150):
        f1 = (rng.randrange(2), rng.randrange(2))
        h1 = (rng.randrange(3), rng.randrange(3))
        w = random_word(rng, 2, rng.randrange(9))
        assert derivation(cx, f1, h1, w) == \
            derivation(cx, f1, h1, free_reduce(w))
        assert derivation(
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
        lhs = derivation(cx, f1, h1, w1 + w2)
        tw = act[a1.inv[eval_word(cx, f1, w2)]][derivation(cx, f1, h1, w1)]
        rhs = a2.mul[tw][derivation(cx, f1, h1, w2)]
        assert lhs == rhs


def test_identity_homotopy_fixes_every_morphism():
    cases = [("torus", "cm-z4-z2-incl"), ("rp2", "cm-z2-z3-flip"),
             ("sphere:2", "l3-z2"), ("torus", "s3")]
    for space, coeff in cases:
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        zeros = tuple(
            (0,) * p.count(n) for n in range(1, cx.length))
        for f in enumerate_homs(p, cx):
            assert homotopy_target(p, cx, f, zeros) == f


def test_target_on_circle_shifts_by_boundary():
    cx = resolve_coefficients("cm-z4-z2-incl")
    f = enumerate_homs(sphere(1), cx)[0]
    assert f == ((0,), ())
    assert homotopy_target(sphere(1), cx, f, ((1,),)) == ((2,), ())


def test_target_on_torus_frozen():
    """Commutator words absorb untwisted derivations, so layer 2 stays put."""
    cx = resolve_coefficients("cm-z4-z2-incl")
    assert homotopy_target(torus(), cx, ((1, 2), (0,)), ((1, 0),)) == ((3, 2), (0,))


def test_all_targets_are_morphisms():
    """Exhaustive connection check on twisted and untwisted instances."""
    cases = [("rp2", "cm-z2-z3-flip"), ("disk:2", "cm-z4-z2-incl"),
             ("sphere:3", "l3-z2")]
    for space, coeff in cases:
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        for f in enumerate_homs(p, cx):
            for values in homotopy_value_space(p, cx):
                homotopy_target(p, cx, f, values)  # raises TargetNotMorphism on any defect


def test_homotopies_compose_by_pointwise_product():
    """Following H out of f and then K out of its target ends where H * K
    out of f does, H * K the pointwise product of the value tables in
    A_{k+1}: the law the elementary-edge walk rests on.  Whenever H moves
    layer 1, K runs out of a target whose layer 1 differs from f's.  The
    conjugation crossed module on S3 has an injective boundary and a
    non-trivial action, so a wrong target there fails verification."""
    rng = random.Random(47)
    pairs = ([(p, cx) for p in standard_spaces() for cx in standard_coefficients()]
             + [(p, _conjugation_crossed_module()) for p in (torus(), rp2())])
    triples = moved = 0
    for p, cx in pairs + random_instances(12345, 120):
        if cx.length < 2:
            continue
        homs = enumerate_homs(p, cx)
        shape = [(p.count(k), cx.groups[k]) for k in range(1, cx.length)]
        for _ in range(20 if homs else 0):
            f = rng.choice(homs)
            h, k = (tuple(tuple(rng.randrange(a.order) for _ in range(ln)) for ln, a in shape)
                    for _ in range(2))
            hk = tuple(tuple(a.mul[x][y] for x, y in zip(hs, ks))
                       for (_, a), hs, ks in zip(shape, h, k))
            g = homotopy_target(p, cx, f, h)
            assert homotopy_target(p, cx, g, k) == homotopy_target(p, cx, f, hk)
            triples += 1
            moved += g[0] != f[0]
    assert triples > 2000 and moved > 200


def test_planted_target_fault_raises(monkeypatch):
    """Sparse edge changes off by one value in the top layer: over the
    injective boundary Z/2 -> Z/4, the recoloured 2-cell no longer matches
    its word, and the walk's check of the target names it.  The same fault
    planted in the full target formula fails `homotopy_target`."""
    p, cx = resolve_space("disk:2"), resolve_coefficients("cm-z4-z2-incl")
    assert homotopy_classes(p, cx).count == 1
    real_deltas, real_formula = homotopies._edge_deltas, homotopies._target_formula

    def planted_deltas(*args):
        return [(i, c, v, b, tuple((cell, (x + 1) % 2) for cell, x in ups))
                for i, c, v, b, ups in real_deltas(*args)]

    monkeypatch.setattr(homotopies, "_edge_deltas", planted_deltas)
    with pytest.raises(TargetNotMorphism) as raised:
        homotopy_classes(p, cx)
    assert raised.value.witness == ("layer", 2, 0)

    def planted_formula(cx, terms, f1):
        target = real_formula(cx, terms, f1)

        def wrong(f, h):
            *lower, top = target(f, h)
            return (*lower, ((top[0] + 1) % 2,) + top[1:])
        return wrong

    monkeypatch.setattr(homotopies, "_target_formula", planted_formula)
    with pytest.raises(TargetNotMorphism):
        homotopy_target(p, cx, ((0,), (0,)), ((1,),))


def test_target_outside_listing_is_a_missed_morphism(monkeypatch):
    """A morphism the listing drops is still reached by the walk; it
    verifies, so the listing, not the target, is at fault."""
    p, cx = resolve_space("disk:2"), resolve_coefficients("cm-z4-z2-incl")
    real = homotopies.enumerate_homs
    assert homotopy_classes(p, cx).sizes == (len(real(p, cx)),)
    monkeypatch.setattr(homotopies, "enumerate_homs", lambda p, cx, cap: real(p, cx, cap=cap)[:-1])
    with pytest.raises(AssertionError, match="did not list"):
        homotopy_classes(p, cx)


@pytest.mark.parametrize("off", [1, -1])
def test_listing_disagreeing_with_its_count_is_internal_error(monkeypatch, capsys, off):
    """enumerate_homs checks the listing of homotopy_classes against its own
    count, as it does for count --enumerate: a count off by one either way
    raises AssertionError before any class is walked, exit 4 from classes."""
    from xcomplex import cli, enumeration

    real = enumeration.count_homs
    monkeypatch.setattr(enumeration, "count_homs",
                        lambda p, cx, plan=None: real(p, cx, plan) + off)
    monkeypatch.setattr(homotopies, "_edge_targets", None)  # walking a class would raise TypeError
    with pytest.raises(AssertionError, match=f"listing disagrees: counted {256 + off}, listed 256"):
        homotopy_classes(resolve_space("genus:2"), resolve_coefficients("cm-z4-z2-incl"))
    assert cli.main(["classes", "--presentation", "genus:2", "--complex", "cm-z4-z2-incl"]) == 4
    assert json.loads(capsys.readouterr().out)["result"]["error"] == (
        f"internal check failed: listing disagrees: counted {256 + off}, listed 256")


@pytest.mark.parametrize("f,h", [
    (((0, 0), (0,)), ((1, 0, 0),)),  # one value too many in H_1
    (((0,),), ((1, 0),)),  # layer 2 of f missing
    (((0, 9), (0,)), ((1, 0),)),  # f_1 out of range
    (((0, 0), (5,)), ((1, 0),)),  # f_2 out of range
    (((0, 0), (0,)), ((9, 0),)),  # H_1 out of range
    (((0, 0), (0,)), ((1,),)),  # one value too few in H_1
], ids=["long-h1", "short-f", "f1-range", "f2-range", "h1-range", "short-h1"])
def test_target_rejects_malformed_inputs(f, h):
    with pytest.raises(DimensionMismatch):
        homotopy_target(torus(), resolve_coefficients("cm-z4-z2-incl"), f, h)


def test_homotopy_count_formula():
    assert count_homotopies(torus(), resolve_coefficients("cm-z4-z2-incl")) == 4  # |A_2|^2
    assert count_homotopies(torus(), resolve_coefficients("l3-z2")) == 8  # 2^2 * 2^1
    assert count_homotopies(torus(), resolve_coefficients("s3")) == 1  # L = 1


def test_count_matches_value_space():
    for space, coeff in (("torus", "cm-z4-z2-incl"), ("rp2", "cm-z2-z3-flip"),
                         ("sphere:2", "l3-z2")):
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        assert count_homotopies(p, cx) == sum(1 for _ in homotopy_value_space(p, cx))


def test_value_space_length_one_is_identity_only():
    tables = list(homotopy_value_space(torus(), resolve_coefficients("s3")))
    assert tables == [()]


def test_value_space_is_lexicographic():
    tables = list(homotopy_value_space(
        sphere(1), resolve_coefficients("cm-z2-z3-flip")))
    assert tables == [((0,),), ((1,),), ((2,),)]


def test_value_space_starts_at_identity():
    p, cx = sphere(1), resolve_coefficients("cm-z4-z2-incl")
    f = enumerate_homs(p, cx)[0]
    tables = list(homotopy_value_space(p, cx))
    assert len(tables) == count_homotopies(p, cx)
    assert tables[0] == ((0,),)
    assert homotopy_target(p, cx, f, tables[0]) == f


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
    assert list(dec.representatives) == [((0,), ()), ((1,), ())]


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
    assert list(dec.representatives) == [
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
        assert set(dec.representatives) <= set(homs)


def test_classes_singleton_hom_set():
    """rp2 into Z/3 admits only the constant morphism."""
    dec = homotopy_classes(rp2(), resolve_coefficients("z3"))
    assert isinstance(dec, ClassDecomposition)
    assert dec.count == 1 and dec.sizes == (1,)
    assert dec.representatives[0] == ((0,),)


def test_classes_edge_cap():
    """The cap bounds, in this order, the count's work estimate (618
    transitions over the non-abelian S3), the morphisms listed (6^4 = 1296,
    the boundary an isomorphism) and the generator edges walked (1296
    morphisms x 4 cells x 2 generators of S3)."""
    p, cx = resolve_space("genus:2"), _conjugation_crossed_module()
    with pytest.raises(InstanceTooLarge, match="elimination estimate 618 exceeds cap 617"):
        homotopy_classes(p, cx, cap=617)
    with pytest.raises(ResultTooLarge, match="more than 1295 morphisms"):
        homotopy_classes(p, cx, cap=1295)
    with pytest.raises(ResultTooLarge, match="= 10368 edges"):
        homotopy_classes(p, cx, cap=10367)
    assert 1296 * edges_per_morphism(p, cx) == 10368
    assert homotopy_classes(p, cx, cap=10368).count == 1
    torus_cx = resolve_coefficients("cm-z4-z2-incl")
    assert 16 * edges_per_morphism(torus(), torus_cx) == 32
    assert homotopy_classes(torus(), torus_cx, cap=52).count == 4


def test_generator_edges():
    """One greedy generator per cyclic coefficient, none for a trivial one;
    the edge count is #morphisms x sum_k l_k |S_{k+1}|."""
    assert _generator_edges(torus(), resolve_coefficients("l3-z2")) == [(2, [1]), (1, [1])]
    assert _generator_edges(torus(), resolve_coefficients("s3")) == []
    p, cx = sphere(1), resolve_coefficients("cm-z2-z3-flip")
    assert _generator_edges(p, cx) == [(1, [1])]
    assert 5 * edges_per_morphism(p, cx) == 5
    s3_pair = _conjugation_crossed_module()
    assert _generator_edges(torus(), s3_pair) == [(2, [1, 2])]
    assert 7 * edges_per_morphism(torus(), s3_pair) == 28


def test_sparse_edge_targets_match_full_formula(monkeypatch):
    """Each generator edge applied as a sparse change ends where
    `homotopy_target` ends for its one-value table, and an edge that
    `_edge_deltas` leaves out fixes the morphism, for every listed
    morphism of the pairs whose generator edges fit a budget; the changes
    come through `_twist_key`, built per twist key as the class walk builds
    them, not per layer-1 colouring: never more often than a pair has
    listed layer-1 colourings, and less often on some pair.  Where the full
    target fails verification (presentations whose 4-cells do not bound a
    cycle), the unverified formula is compared instead."""
    pairs = ([(p, cx) for p in standard_spaces() for cx in standard_coefficients()]
             + [(p, _conjugation_crossed_module()) for p in (sphere(1), torus(), rp2(), disk(2))]
             + random_instances(12345, 200))
    calls = _count_edge_compiles(monkeypatch)
    compared = unverified = shared = 0
    for p, cx in pairs:
        if cx.length < 2 or edges_per_morphism(p, cx) * count_homs(p, cx) > 600:
            continue
        generators, terms = _generator_edges(p, cx), _homotopy_terms(p, cx)
        changes = _twist_key(cx, dict(enumerate(terms, 2)),
                             partial(homotopies._edge_deltas, cx, generators))
        muls = [a.mul for a in cx.groups]
        homs = enumerate_homs(p, cx)
        calls.clear()
        for f in homs:
            deltas = changes(f[0])
            sparse = {(i + 1, c, v): t for (i, c, v, _, _), t
                      in zip(deltas, _edge_targets(f, deltas, muls))}
            for k, (ln, gens) in enumerate(generators, 1):
                for c in range(ln):
                    for v in gens:
                        table = tuple(tuple(v if (n, cell) == (k, c) else 0 for cell in range(m))
                                      for n, (m, _) in enumerate(generators, 1))
                        try:
                            want = homotopy_target(p, cx, f, table)
                        except TargetNotMorphism:
                            want = homotopies._target_formula(cx, terms, f[0])(f, table)
                            unverified += 1
                        assert sparse.get((k, c, v), f) == want, (p, cx.name, f, table)
                        compared += 1
        assert len(calls) <= len({f[0] for f in homs}), (p, cx.name)
        shared += len(calls) < len({f[0] for f in homs})
    assert compared > 6000 and unverified > 0 and shared > 0


def _full_graph_classes(p, cx, homs):
    """Union-find over every value table of homotopy_value_space: the oracle."""
    index = {f: i for i, f in enumerate(homs)}
    parent = list(range(len(homs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, f in enumerate(homs):
        for values in homotopy_value_space(p, cx):
            ri = find(i)
            rj = find(index[homotopy_target(p, cx, f, values)])
            parent[max(ri, rj)] = min(ri, rj)
    roots = [find(i) for i in range(len(homs))]
    reps = sorted(set(roots))
    return [homs[r] for r in reps], [roots.count(r) for r in reps]


def test_elementary_classes_match_full_graph():
    """Generator edges give the components of the full homotopy graph:
    same representatives and sizes, towers and coefficients needing two
    generators included.  Where a target fails verification, both raise."""
    instances = (
        [(p, cx) for p in standard_spaces() for cx in standard_coefficients()]
        + [(p, _conjugation_crossed_module()) for p in (sphere(1), torus(), rp2(), disk(2))]
        + random_instances(20260819, 60) + random_instances(12345, 200))
    compared, refused = [], 0
    for p, cx in instances:
        homs = enumerate_homs(p, cx)
        if not homs or count_homotopies(p, cx) * len(homs) > 2_000:
            continue
        try:
            dec = homotopy_classes(p, cx)
        except TargetNotMorphism:
            with pytest.raises(TargetNotMorphism):
                _full_graph_classes(p, cx, homs)
            refused += 1
            continue
        reps, sizes = _full_graph_classes(p, cx, homs)
        assert list(dec.representatives) == reps, (p, cx.name)
        assert list(dec.sizes) == sizes, (p, cx.name)
        compared.append((p, cx, dec.sizes))
    assert refused > 0
    assert any(cx.length == 3 and max(sizes) > 1 for _, cx, sizes in compared)
    assert any(cx.length >= 2 and max(sizes) > 1
               and cx.groups[0].mul != tuple(zip(*cx.groups[0].mul))
               for _, cx, sizes in compared)
    assert any(max(sizes) > 1 and any(ln and len(gens) > 1 for ln, gens in _generator_edges(p, cx))
               for p, cx, sizes in compared)


def _degree_dependent_tower():
    """Z/2 acts trivially on A_2 = Z/2 and by negation on A_3 = Z/3, with
    zero boundaries, so the degree-2 action rows do not refine the
    degree-3 ones.  The 4-cell c + x.c is killed: for x = 0 only the 3-cell
    colour 0 survives, for x = 1 all three do."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    cx = FiniteCrossedComplex(
        (z2, z2, z3), (zero_hom(z2, z2), zero_hom(z3, z2)),
        (trivial_action(z2, z2), GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))))
    assert validate(cx).ok
    p = CWPresentation((1, 1, 1, 1, 1), attach2=((),),
                       attach_terms=(((),), ((((), 0, 1), (((0, 1),), 0, 1)),)))
    return p, cx


def test_tower_action_depends_on_degree():
    """On `_degree_dependent_tower`, 2 x (1 + 3) = 8 morphisms.  A twist
    key read from the degree-2 rows would compile x = 1 as x = 0 and find
    4."""
    p, cx = _degree_dependent_tower()
    homs = enumerate_homs(p, cx)
    assert count_homs(p, cx) == len(homs) == count_homs_bruteforce(p, cx) == 8
    dec = homotopy_classes(p, cx)
    assert (list(dec.representatives), list(dec.sizes)) == _full_graph_classes(p, cx, homs)


def test_checker_targets_are_kept_per_layer1_colouring():
    """On `_degree_dependent_tower` the killed 4-cell's target depends on f1
    as well as on f3.  Two checkers, one per layer-1 colouring, called in
    turn on every (f2, f3), each keeping the targets it has applied, give
    the verdicts of morphism_violation, which builds a new checker per
    call; the two verdicts differ on the f3 = 1, 2 that only x = 1 keeps."""
    p, cx = _degree_dependent_tower()
    checks = {f1: morphism_checker(p, cx, f1) for f1 in ((0,), (1,))}
    differ = 0
    for _ in range(2):  # the second round meets every target already kept
        for tail in layered_product([(1, 2), (1, 3)]):
            verdicts = []
            for f1, check in checks.items():
                colours = (f1,) + tail
                verdicts.append(check(colours))
                assert verdicts[-1] == morphism_violation(p, cx, colours), colours
            differ += verdicts[0] != verdicts[1]
    assert differ == 2 * 2 * 2


def _count_edge_compiles(monkeypatch):
    """Patch `_edge_deltas` to record each call; returns the call list."""
    calls, real = [], homotopies._edge_deltas

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(homotopies, "_edge_deltas", counted)
    return calls


def _a3_in_s3():
    """A3 -> S3, the inclusion, with S3 acting by conjugation: an action row
    depends on the sign of the acting element only."""
    s3 = symmetric_group_3()
    back = [g for g in range(6) if s3.mul[s3.mul[g][g]][g] == 0]
    pos = {g: i for i, g in enumerate(back)}
    a3 = make_group([[pos[s3.mul[a][b]] for b in back] for a in back], name="A3")
    act = tuple(tuple(pos[s3.mul[s3.mul[g][back[e]]][s3.inv[g]]] for e in range(3))
                for g in range(6))
    return from_crossed_module(s3, a3, GroupHom(a3, s3, tuple(back[e] for e in range(3))),
                               GroupAction(s3, a3, act), name="a3-s3")


def test_edge_changes_compiled_once_under_trivial_action(monkeypatch):
    """Z/4 acts trivially on Z/2: every twisting word drops out of the key,
    so the 256 layer-1 colourings of genus 2 share one compile of the
    class walk's edge changes."""
    calls = _count_edge_compiles(monkeypatch)
    p, cx = resolve_space("genus:2"), resolve_coefficients("cm-z4-z2-incl")
    dec = homotopy_classes(p, cx)
    assert len({f[0] for f in enumerate_homs(p, cx)}) == 256
    assert dec.count == 16 and len(calls) == 1


def test_edge_changes_compiled_once_per_twist_key(monkeypatch):
    """S3 acts on A3 through the sign: layer-1 colourings whose twisting
    words have equal signs share one compile, so the walk compiles fewer
    times than there are listed layer-1 colourings, and its classes are
    those of the full homotopy graph."""
    cx = _a3_in_s3()
    assert len(set(cx.actions[0].act)) == 2
    for p in (torus(), rp2(), wedge(torus(), rp2())):
        calls = _count_edge_compiles(monkeypatch)
        homs = enumerate_homs(p, cx)
        dec = homotopy_classes(p, cx)
        assert 1 < len(calls) < len({f[0] for f in homs}), p
        assert (list(dec.representatives), list(dec.sizes)) == _full_graph_classes(p, cx, homs)


def test_wedge_classes_spot_check():
    """Classes of a wedge multiply for these instances."""
    cx = resolve_coefficients("cm-z4-z2-incl")
    single = homotopy_classes(sphere(1), cx)
    double = homotopy_classes(wedge(sphere(1), sphere(1)), cx)
    assert double.count == single.count ** 2


def test_sphere_classes_count_homology():
    """pi_n = H_n for n >= 2: the classes of maps S^n -> |A| number
    |ker d_n / im d_{n+1}| for 2 <= n <= L."""
    cases = 0
    for cx in standard_coefficients() + [cx for _, cx in random_instances(12345, 200)]:
        for n in range(2, cx.length + 1):
            assert homotopy_classes(sphere(n), cx).count == homology(cx, n).order, (n, cx.name)
            cases += 1
    assert cases > 200
