"""Table groups: construction, homs, actions and fibres; no subgroups or quotients."""

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from xcomplex.errors import (
    DimensionMismatch,
    MissingInverse,
    NoIdentityAtZero,
    NotAssociative,
)
from xcomplex.complexes import from_group
from xcomplex.enumeration import _backtrack, count_engine, count_homs
from xcomplex.groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    action_violation,
    associativity_witness,
    check_action,
    check_hom,
    cyclic_group,
    direct_product,
    fibers_of,
    greedy_generators,
    hom_violation,
    make_group,
    symmetric_group_3,
    table_group,
    trivial_action,
    zero_hom,
)
from xcomplex.library import resolve_space
from xcomplex.randomgen import all_actions, group_pool


def element_order(g, x):
    n, acc = 1, x
    while acc != 0:
        acc = g.mul[acc][x]
        n += 1
    return n


def test_trivial_group():
    g = make_group([[0]])
    assert g.order == 1 and g.inv == (0,)


def test_z2_from_table():
    g = make_group([[0, 1], [1, 0]])
    assert g.inv == (0, 1)


def test_missing_inverse_rejected():
    """[[0,1],[1,1]] has an identity at 0 but no inverse for 1."""
    with pytest.raises(MissingInverse) as exc:
        make_group([[0, 1], [1, 1]])
    assert exc.value.witness == (1,)


def test_no_identity_rejected():
    with pytest.raises(NoIdentityAtZero):
        make_group([[1, 0], [0, 1]])


def test_not_associative_rejected():
    """Identity and inverses fine, but (1*2)*2 != 1*(2*2)."""
    with pytest.raises(NotAssociative) as exc:
        make_group([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert exc.value.witness is not None


def sweep_violates(mul):
    """Brute-force oracle: does any (a, b, c) break associativity?"""
    n = len(mul)
    return any(mul[mul[a][b]][c] != mul[a][mul[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def assert_witness_agrees(mul):
    w = associativity_witness(mul)
    assert (w is None) == (not sweep_violates(mul)), mul
    if w is not None:
        x, s, y = w
        assert mul[mul[x][s]][y] != mul[x][mul[s][y]], (mul, w)


def test_associativity_witness_matches_sweep_on_mutations():
    """Light's test against the full sweep on every single-entry mutation.

    Covers each cell and each other value of the pool's tables and of S3,
    Z/6 and Z/2 x S3, whose mutations include tables with no identity, no
    inverses and submagmas missing 0.
    """
    s3 = symmetric_group_3()
    tables = [g.mul for g in group_pool()]
    tables += [s3.mul, cyclic_group(6).mul, direct_product(cyclic_group(2), s3).mul]
    checked = broken = 0
    for mul in tables:
        assert associativity_witness(mul) is None
        n = len(mul)
        for a in range(n):
            for b in range(n):
                for v in range(n):
                    if v == mul[a][b]:
                        continue
                    mutated = [list(row) for row in mul]
                    mutated[a][b] = v
                    assert_witness_agrees(mutated)
                    checked += 1
                    broken += sweep_violates(mutated)
    assert checked == 2062
    assert 0 < broken < checked


def test_greedy_generators_generate():
    """The first generator of a group is its identity 0, and the others
    generate it; none lies in the subgroup the earlier ones generate."""
    s3 = symmetric_group_3()
    assert greedy_generators(cyclic_group(6).mul) == [0, 1]
    assert greedy_generators(s3.mul) == [0, 1, 2]
    assert greedy_generators(direct_product(cyclic_group(2), cyclic_group(2)).mul) == [0, 1, 2]
    for g in group_pool() + [s3, direct_product(cyclic_group(2), s3)]:
        gens = greedy_generators(g.mul)
        assert gens[0] == 0
        generated = {0}
        for s in gens[1:]:
            assert s not in generated
            generated.add(s)
            while (grown := {g.mul[x][y] for x in generated for y in generated}) != generated:
                generated = grown
        assert generated == set(range(g.order)), g


def square_tables(max_order=5, min_order=1):
    """Arbitrary n x n tables over 0..n-1, n <= max_order, broken ones included."""
    return st.integers(min_order, max_order).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(square_tables())
def test_associativity_witness_matches_sweep_on_any_table(mul):
    """Arbitrary n x n tables, n <= 5, with no identity assumed."""
    assert_witness_agrees(mul)


def with_identity(mul):
    """mul with row 0 and column 0 made the identity, as in a unital magma."""
    n = len(mul)
    mul[0] = list(range(n))
    for x in range(n):
        mul[x][0] = x
    return mul


@settings(max_examples=300, deadline=None)
@given(square_tables(min_order=2).map(with_identity))
def test_associativity_witness_matches_sweep_with_identity_0(mul):
    """Tables whose 0 is a two-sided identity, the case where Light's test
    leaves s = 0 out: 0 passes there, and every other generator is still
    swept."""
    assert_witness_agrees(mul)


def light_sweep(mul, gens):
    """The itemgetter sweep of Light's test over `gens`, with no byte kernel:
    the first (x, s, y) with (x*s)*y != x*(s*y), or None."""
    rows = [tuple(row) for row in mul]
    for s in gens:
        through_s = itemgetter(*rows[s])
        for x, mx in enumerate(rows):
            lhs, rhs = rows[mx[s]], through_s(mx)
            if lhs != rhs:
                return (x, s, next(y for y in range(len(mul)) if lhs[y] != rhs[y]))
    return None


@st.composite
def medium_tables(draw):
    """Z/a x Z/b of order 20..300, relabelled (0 kept fixed half the time),
    with zero or one entry replaced; orders 31, 32 and 255, 256, 257 sit on
    either side of the byte kernel's bounds."""
    n = draw(st.one_of(st.sampled_from([31, 32, 255, 256, 257]), st.integers(20, 300)))
    a = draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
    b = n // a
    label = list(range(n))
    random.Random(draw(st.integers(0, 2**32))).shuffle(label)
    if draw(st.booleans()):
        label[label.index(0)], label[0] = label[0], 0
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mul[label[x]][label[y]] = label[(x // b + y // b) % a * b + (x + y) % b]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mul[x][y] = (mul[x][y] + draw(st.integers(1, n - 1))) % n
    return mul


@settings(max_examples=40, deadline=None)
@given(medium_tables())
def test_associativity_witness_is_genuine_on_medium_tables(mul):
    """The byte kernel accepts only what the sweep over the greedy generators
    accepts, so the answer is the sweep's, and each triple returned is a
    genuine violation."""
    w = associativity_witness(mul)
    assert w == light_sweep(mul, greedy_generators(mul))
    if w is not None:
        x, s, y = w
        assert mul[mul[x][s]][y] != mul[x][mul[s][y]], w


@settings(max_examples=4, deadline=None)
@given(medium_tables())
def test_associativity_witness_matches_full_light_sweep_on_medium_tables(mul):
    """None exactly when Light's sweep over every s, an N^3 oracle, finds no
    violation."""
    assert (associativity_witness(mul) is None) == (light_sweep(mul, range(len(mul))) is None)


@pytest.mark.parametrize("n", [20, 32, 200, 256, 300])
def test_transposed_composition_is_not_associativity(n):
    """x*0 = 0 and x*y = (1 if x == 0 else 2) otherwise satisfy (x*s)*y =
    s*(x*y) for every x, s, y, yet (1*0)*1 = 1 != 2 = 1*(0*1): composing
    row x by row s in place of row s by row x would accept the table."""
    mul = [[0] + [1 if x == 0 else 2] * (n - 1) for x in range(n)]
    assert associativity_witness(mul) == light_sweep(mul, greedy_generators(mul)) == (1, 0, 1)


def test_entry_past_the_order_never_passes_the_byte_kernel():
    """The zero semigroup x*y = 0 is associative.  Set one entry to 230 in
    a table of order 200, built by the dataclass constructor: translating
    it through a row padded with zeros would accept the table, so the
    kernel must leave it to the sweep, which indexes row 0 at 230."""
    n, a = 200, 7
    zero = FiniteGroup(n, ((0,) * n,) * n, (0,) * n)
    assert associativity_witness(zero.mul, [a]) is None
    planted = [list(row) for row in zero.mul]
    planted[a][9] = 230
    g = FiniteGroup(n, tuple(map(tuple, planted)), zero.inv)
    with pytest.raises(IndexError):
        light_sweep(g.mul, [a])
    with pytest.raises(IndexError):
        associativity_witness(g.mul, [a])


@settings(max_examples=300, deadline=None)
@given(square_tables(6), st.data())
def test_table_group_inverse_is_least_two_sided(mul, data):
    """inv[x] is the first y with x*y = 0 = y*x, or -1, also where a row
    holds several zeros; zeros are planted so that inverses do occur."""
    n = len(mul)
    for x, y in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        mul[x][y] = 0
    g = table_group(mul)
    assert g.inv == tuple(
        next((y for y in range(n) if mul[x][y] == 0 == mul[y][x]), -1) for x in range(n))


@settings(max_examples=200, deadline=None)
@given(square_tables(6), st.booleans())
def test_abelian_is_a_commuting_table(mul, symmetric):
    """count_engine plans the diagonal engine for a 2-cell presentation
    exactly when A_1's table has x*y = y*x for every pair, on broken tables
    too; half the tables are made symmetric so that both answers occur.  A
    commuting group built by the FiniteGroup constructor is diagonalised,
    and one given by list rows, which do not compare equal to the
    transpose's tuples, counts alike by elimination."""
    n = len(mul)
    if symmetric:
        mul = [[mul[min(x, y)][max(x, y)] for y in range(n)] for x in range(n)]
    torus = resolve_space("torus")
    assert (count_engine(torus, from_group(table_group(mul))).engine == "diagonal") == all(
        mul[x][y] == mul[y][x] for x in range(n) for y in range(x))
    z6 = cyclic_group(6)
    for g, engine in ((z6, "diagonal"), (direct_product(cyclic_group(2), cyclic_group(2)),
                                         "diagonal"), (symmetric_group_3(), "elimination"),
                      (FiniteGroup(6, z6.mul, z6.inv), "diagonal"),
                      (FiniteGroup(6, [list(row) for row in z6.mul], z6.inv), "elimination")):
        assert count_engine(torus, from_group(g)).engine == engine, g
        assert count_homs(torus, from_group(g)) == _backtrack(torus, from_group(g))


def action_violation_by_sweep(a):
    """The full-sweep definition of action_violation: every kind in check
    order, each at its first witness."""
    n, m, act, amul = a.actor.order, a.space.order, a.act, a.actor.mul
    for g, row in enumerate(act):
        if sorted(row) != list(range(m)):
            return ("action-bijective", (g,))
        w = hom_violation(GroupHom(a.space, a.space, row))
        if w is not None:
            return ("action-hom", (g,) + w)
    for e in range(m):
        if act[0][e] != e:
            return ("action-identity", (e,))
    return next((("action-composition", (g1, g2, e))
                 for g1 in range(n) for g2 in range(n) for e in range(m)
                 if act[amul[g1][g2]][e] != act[g1][act[g2][e]]), None)


@st.composite
def near_actions(draw):
    """A valid action of a pool group, then up to two entries replaced: a
    row of the action by another automorphism, or an entry of the actor's
    table (which may leave it non-associative).  One time in four the actor
    is an arbitrary table of the same order instead."""
    pool = group_pool() + [symmetric_group_3()]
    actor, space = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    valid = all_actions(actor, space)
    act = list(draw(st.sampled_from(valid)).act)
    n = actor.order
    mul = draw(square_tables(n, n)) if draw(st.integers(0, 3)) == 0 else \
        [list(row) for row in actor.mul]
    automorphisms = sorted({row for v in valid for row in v.act})
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            act[draw(st.integers(0, actor.order - 1))] = draw(st.sampled_from(automorphisms))
        else:
            mul[draw(st.integers(0, actor.order - 1))][draw(st.integers(0, actor.order - 1))] = \
                draw(st.integers(0, actor.order - 1))
    return GroupAction(table_group(mul), space, tuple(act))


@settings(max_examples=400, deadline=None)
@given(near_actions())
def test_action_violation_matches_full_sweep(a):
    """Checking composition on the actor's generators finds a violation
    exactly when the full g1 x g2 x e sweep does, for associative and for
    non-associative actors; each composition witness is genuine, and every
    other kind has the sweep's witness.  Composers handed in agree: the
    greedy generators of an associative actor, every element otherwise."""
    assert_action_violation_agrees(a)


def assert_action_violation_agrees(a):
    expected = action_violation_by_sweep(a)
    gens = greedy_generators(a.actor.mul)
    composers = (gens if associativity_witness(a.actor.mul, gens) is None
                 else range(a.actor.order))
    for found in (action_violation(a), action_violation(a, composers)):
        assert (found is None) == (expected is None)
        if found is not None:
            assert found[0] == expected[0]
            if found[0] == "action-composition":
                g1, g2, e = found[1]
                act, amul = a.act, a.actor.mul
                assert act[amul[g1][g2]][e] != act[g1][act[g2][e]]
            else:
                assert found == expected


@st.composite
def repeated_row_actions(draw):
    """An action of a pool group on a pool group whose rows are drawn, with
    repeats, from up to four maps of the space, automorphisms or arbitrary
    maps, so that distinct failing rows occur in either order."""
    pool = group_pool() + [symmetric_group_3()]
    actor, space = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    m = space.order
    automorphisms = sorted({row for v in all_actions(actor, space) for row in v.act})
    maps = st.lists(st.integers(0, m - 1), min_size=m, max_size=m).map(tuple)
    palette = st.sampled_from(draw(st.lists(st.one_of(st.sampled_from(automorphisms), maps),
                                            min_size=1, max_size=4)))
    return GroupAction(actor, space, tuple(draw(palette) for _ in range(actor.order)))


@settings(max_examples=300, deadline=None)
@given(repeated_row_actions())
def test_action_violation_with_repeated_rows_matches_full_sweep(a):
    """Rows are checked once per distinct row, and a failing one is named at
    the least g holding it, as the per-g sweep names it."""
    assert_action_violation_agrees(a)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(group_pool() + [symmetric_group_3()]),
       st.sampled_from(group_pool() + [symmetric_group_3()]), st.data())
def test_hom_violation_is_first_failing_pair(source, target, data):
    """The row-wise sweep names the pair a per-entry sweep finds first."""
    image = tuple(data.draw(st.lists(st.integers(0, target.order - 1),
                                     min_size=source.order, max_size=source.order)))
    smul, tmul = source.mul, target.mul
    assert hom_violation(GroupHom(source, target, image)) == next(
        ((x, y) for x in range(source.order) for y in range(source.order)
         if image[smul[x][y]] != tmul[image[x]][image[y]]), None)


@pytest.mark.parametrize("table", [
    [],
    [[0, 1], [1]],
    [[0, 1], [1, 7]],
])
def test_bad_shapes_rejected(table):
    with pytest.raises(DimensionMismatch):
        make_group(table)


@pytest.mark.parametrize("row", [[1, 7, -1], [1, -1, 7]])
def test_out_of_range_names_the_first_bad_entry(row):
    """A row holding two bad entries is reported at the first of them."""
    with pytest.raises(DimensionMismatch) as exc:
        table_group([[0, 1, 2], row, [2, 0, 1]])
    assert exc.value.witness == (1, 1)
    assert str(exc.value).startswith(f"mul entry (1,1) = {row[1]} out of range")


def test_cyclic_group_orders():
    for n in (1, 2, 3, 4, 5, 6):
        g = cyclic_group(n)
        assert g.order == n
        assert element_order(g, 1 % n) == n or n == 1


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_direct_product_is_z6():
    """Z/2 x Z/3 has the same element-order profile as Z/6."""
    p = direct_product(cyclic_group(2), cyclic_group(3))
    z6 = cyclic_group(6)
    assert p.order == 6
    assert sorted(element_order(p, x) for x in range(6)) == \
        sorted(element_order(z6, x) for x in range(6))


def test_s3_structure():
    s3 = symmetric_group_3()
    assert s3.order == 6
    # center computed by brute force: only the identity commutes with all
    center = [a for a in range(6)
              if all(s3.mul[a][b] == s3.mul[b][a] for b in range(6))]
    assert center == [0]
    orders = sorted(element_order(s3, x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_identity_hom_valid():
    z2 = cyclic_group(2)
    assert check_hom(GroupHom(z2, z2, (0, 1)))


def test_z2_to_z3_unit_map_invalid():
    h = GroupHom(cyclic_group(2), cyclic_group(3), (0, 1))
    w = hom_violation(h)
    assert w is not None
    x, y = w
    assert h.image[h.source.mul[x][y]] != h.target.mul[h.image[x]][h.image[y]]


def test_zero_hom_valid():
    assert check_hom(zero_hom(symmetric_group_3(), cyclic_group(4)))


def test_hom_shape_errors():
    z2 = cyclic_group(2)
    with pytest.raises(DimensionMismatch):
        hom_violation(GroupHom(z2, z2, (0,)))
    with pytest.raises(DimensionMismatch):
        hom_violation(GroupHom(z2, z2, (0, 5)))


def test_inclusion_fibers_image_kernel():
    """Z/2 -> Z/4 sending 1 to 2, checked against direct scans."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    h = GroupHom(z2, z4, (0, 2))
    assert check_hom(h)
    fibers = fibers_of(h)
    for t in range(4):
        assert fibers[t] == tuple(x for x in range(2) if h.image[x] == t)
    assert fibers[1] == ()
    assert set(h.image) == {0, 2}
    assert fibers[0] == (0,)  # the kernel


def test_fiber_sizes_property():
    """Fibers partition the source; nonempty ones share the kernel's size."""
    s3, z2 = symmetric_group_3(), cyclic_group(2)
    # sign map found by scanning all maps S3 -> Z/2
    homs = []
    for bits in range(2 ** 5):
        image = (0,) + tuple((bits >> i) & 1 for i in range(5))
        h = GroupHom(s3, z2, image)
        if check_hom(h):
            homs.append(h)
    assert len(homs) == 2  # zero and sign
    for h in homs:
        fibers = fibers_of(h)
        assert sum(len(f) for f in fibers) == 6
        ker = len(fibers[0])
        assert all(len(f) == ker for f in fibers if f)
        assert len(set(h.image)) * ker == 6


def test_trivial_action_valid():
    assert check_action(trivial_action(symmetric_group_3(), cyclic_group(4)))


def test_action_rejects_non_automorphism_row():
    """The swap on Z/2 moves the identity, so it cannot be an action row."""
    z2 = cyclic_group(2)
    a = GroupAction(z2, z2, ((0, 1), (1, 0)))
    w = action_violation(a)
    assert w is not None and w[0] == "action-hom"


def test_action_rejects_bad_composition():
    """Rows are fine automorphisms but do not compose along the actor."""
    z4, z3 = cyclic_group(4), cyclic_group(3)
    ident, flip = (0, 1, 2), (0, 2, 1)
    a = GroupAction(z4, z3, (ident, flip, flip, ident))
    assert action_violation(a) == ("action-composition", (1, 1, 1))


@pytest.mark.parametrize("last_rows, expected", [
    (((0, 0, 0), (0, 0, 0)), ("action-bijective", (2,))),
    (((1, 0, 2), (1, 0, 2)), ("action-hom", (2, 0, 0))),
    (((0, 0, 1), (0, 0, 0)), ("action-bijective", (2,))),
])
def test_repeated_failing_row_names_its_least_g(last_rows, expected):
    """A Z/4 action on Z/3 whose first failing row sits at g = 2 and recurs
    at g = 3: the row is checked once and named at g = 2, with the pair of
    `hom_violation` when it is no homomorphism.  Another failing row at
    g = 3, which a set of the rows visits first, does not displace it."""
    z4, z3 = cyclic_group(4), cyclic_group(3)
    a = GroupAction(z4, z3, ((0, 1, 2), (0, 2, 1)) + last_rows)
    assert action_violation(a) == action_violation_by_sweep(a) == expected
    if expected[0] == "action-hom":
        assert expected[1][1:] == hom_violation(GroupHom(z3, z3, last_rows[0]))


def test_action_negation_of_z3_by_z2():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    assert check_action(GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1))))


def test_random_conjugation_actions_valid():
    """Conjugation of a group on itself always checks out."""
    rng = random.Random(7)
    for g in (cyclic_group(4), symmetric_group_3()):
        table = tuple(
            tuple(g.mul[g.mul[x][e]][g.inv[x]] for e in range(g.order))
            for x in range(g.order))
        assert check_action(GroupAction(g, g, table)), g.name
        # spot-check a couple of rows are really conjugation
        x = rng.randrange(g.order)
        e = rng.randrange(g.order)
        assert table[x][e] == g.mul[g.mul[x][e]][g.inv[x]]
