"""Morphism evaluation, counting, enumeration and the brute-force oracle."""

import itertools
import random

import pytest

from xcomplex.complexes import FiniteCrossedComplex, from_group
from xcomplex.enumeration import (
    Morphism,
    _backtrack,
    _Search,
    _eliminate,
    boundary_defect_report,
    count_engine,
    count_homs,
    count_homs_bruteforce,
    elimination_cost,
    enumerate_homs,
    eval_word,
    layer_targets,
    morphism_violation,
    verify_morphism,
)
from xcomplex.errors import DimensionMismatch, InstanceTooLarge, ResultTooLarge
from xcomplex.groups import (
    GroupAction,
    GroupHom,
    cyclic_group,
    symmetric_group_3,
    trivial_action,
    zero_hom,
)
from xcomplex.library import resolve_coefficients, resolve_space
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
)
from xcomplex.randomgen import random_complex, random_instances


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


def eval_crossed(cx, f1, f2, cw, k):
    """A crossed word's value in A_k, as the data of a lone 3-cell."""
    p = CWPresentation((1, len(f1), len(f2), 1), attach3=(cw,))
    return layer_targets(p, cx, f1, f2, 3, k)[0]


def eval_module(cx, f1, f3, m, k):
    """A ModuleElt's value in A_k, as the data of a lone 4-cell."""
    p = CWPresentation((1, len(f1), 0, len(f3), 1), attach_high=((m,),))
    return layer_targets(p, cx, f1, f3, 4, k)[0]


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
    assert eval_module(cx, f1, f3, ((1, (), 0),), 3) == 1
    assert eval_module(cx, f1, f3, ((-1, (), 0),), 3) == 2
    assert eval_module(cx, f1, f3, ((2, ((0, 1),), 0),), 3) == 1  # 2*(1|>1) = 2*2
    assert eval_module(cx, f1, f3, ((0, (), 0),), 3) == 0
    # A_3 ignores the twist, A_4 negates under it
    tower = mixed_action_tower()
    assert eval_module(tower, f1, f3, ((1, ((0, 1),), 0),), 3) == 1
    assert eval_module(tower, f1, f3, ((1, ((0, 1),), 0),), 4) == 2
    assert eval_module(tower, f1, f3, ((2, ((0, 1),), 0),), 4) == 1


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
    homs = enumerate_homs(disk(2), resolve_coefficients("cm-z4-z2-incl"))
    assert [m.colours for m in homs] == [((0,), (0,)), ((2,), (1,))]
    assert all(verify_morphism(m) for m in homs)


def test_enumeration_is_lexicographic():
    homs = enumerate_homs(sphere(1), resolve_coefficients("s3"))
    assert [m.colours for m in homs] == [((i,),) for i in range(6)]
    bigger = enumerate_homs(torus(), resolve_coefficients("s3"))
    cols = [m.colours for m in bigger]
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


@pytest.mark.parametrize("length", [1, 2, 3])
def test_elimination_agrees_with_backtracker_and_bruteforce(length):
    instances = random_2d_instances(seed=40 + length, length=length, count=30)
    features = set()
    for p, cx in instances:
        assert elimination_cost(p, cx) is not None
        eliminated = _eliminate(p, cx)
        assert eliminated == _backtrack(p, cx) == count_homs_bruteforce(p, cx), p.attach2
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


def test_engine_choice():
    """Elimination runs only within the odometer's colourings and never
    past the 2-cells; otherwise the backtracker counts."""
    s3 = resolve_coefficients("s3")
    # torus: 6 + 3 * 6^2 transitions against 6^2 colourings
    assert elimination_cost(torus(), s3) == 114
    assert count_engine(torus(), s3) == "backtrack"
    assert count_homs(torus(), s3) == _eliminate(torus(), s3) == 18
    assert count_engine(genus_surface(2), s3) == "elimination"
    assert count_engine(point(), s3) == "elimination"
    # a 3-cell below the kill dimension keeps the backtracker, whatever it costs
    for space, coeff in (("disk:3", "cm-z2-z2-zero"), ("sphere:3", "l3-z2")):
        p, cx = resolve_space(space), resolve_coefficients(coeff)
        assert elimination_cost(p, cx) is None
        assert count_engine(p, cx) == "backtrack"
        assert count_homs(p, cx) == count_homs_bruteforce(p, cx)
    # above the kill dimension a 3-cell is inert
    assert count_engine(wedge(genus_surface(2), sphere(3)), s3) == "elimination"


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
        attach3=((((a,), 0, 1), ((), 1, -1)), (((b, a), 1, 1),)),
        attach_high=(
            (((1, (a,), 0), (2, (b,), 1)), ((-1, (a, b), 1),)),
            (((1, (b,), 0), (1, (), 1)),),
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
        attach3=((((a,), 0, 1), ((), 1, -1)), (((b,), 1, 1), ((a, b), 0, 1))),
        attach_high=((((1, (a,), 0), (1, (b,), 1)), ((1, (b,), 0), (1, (), 1))),),
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
        assert count_engine(p, cx) == "backtrack"
        listed = [m.colours for m in enumerate_homs(p, cx)]
        assert listed == lexicographic_sweep(p, cx), p
        assert count_homs(p, cx) == len(listed) == count_homs_bruteforce(p, cx), p
        nonzero += bool(listed)
    assert nonzero >= 8


def test_memo_shared_across_equal_action_rows():
    """The 16 layer-1 colourings share one memo under the trivial action and
    fall into four, one per parity of the two 1-cells, under parity, where
    the count differs."""
    p = parity_presentation()
    counts, towers = {}, {}
    for name, cx in parity_complexes().items():
        s = _Search(p, cx)
        counts[name] = sum(s.below(f1) for f1 in s.layer1())
        assert counts[name] == count_homs_bruteforce(p, cx)
        towers[name] = len(s.towers)
    assert counts == {"trivial": 48, "parity": 32}
    assert towers == {"trivial": 1, "parity": 4}


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
    assert layer_targets(disk(2), incl, (2,), (2,), 2, 1) == (2,)
    l3 = resolve_coefficients("l3-z2")
    assert layer_targets(disk(3), l3, (), (1,), 3, 2) == (1,)
    assert layer_targets(disk(4), l3, (), (1,), 4, 3) == (1,)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (3, 4), (4, 2), (4, 4), (5, 3), (3, 3)])
def test_layer_targets_degree_guard(n, k):
    """Data of an n-cell (n >= 3) has a value in A_{n-1} or A_n only, and only
    in a degree the complex has; 2-cell words only in A_1.  (3, 3) is the
    degree of a homotopy's H_2, which a length-2 complex lacks."""
    with pytest.raises(DimensionMismatch):
        layer_targets(disk(n), resolve_coefficients("cm-z4-z2-incl"), (0,), (0,), n, k)


def test_enumeration_cap():
    with pytest.raises(ResultTooLarge):
        enumerate_homs(sphere(1), resolve_coefficients("s3"), cap=3)


def test_bruteforce_cap():
    with pytest.raises(InstanceTooLarge):
        count_homs_bruteforce(torus(), resolve_coefficients("s3"), cap=10)


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
        attach3=(((((), 0, 1)),),),
        attach_high=((((1, (), 0),),),),
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
        assert homs[0].colours == ((),) * cx.length


def test_morphism_dataclass_round_trip():
    p, cx = sphere(1), resolve_coefficients("z2")
    m = Morphism(p, cx, ((1,),))
    assert verify_morphism(m)
    assert m == Morphism(p, cx, ((1,),))
