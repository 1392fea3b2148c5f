"""Table groups: construction, homs, actions, subgroups, quotients."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from xcomplex.errors import (
    DimensionMismatch,
    MissingInverse,
    NoIdentityAtZero,
    NotAssociative,
    NotNormal,
)
from xcomplex.groups import (
    GroupAction,
    GroupHom,
    action_violation,
    associativity_witness,
    check_action,
    check_hom,
    cyclic_group,
    direct_product,
    fibers_of,
    hom_violation,
    image_of,
    make_group,
    quotient,
    subgroup,
    subgroup_as_group,
    symmetric_group_3,
    trivial_action,
    zero_hom,
)
from xcomplex.randomgen import group_pool


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_associativity_witness_matches_sweep_on_any_table(mul):
    """Arbitrary n x n tables, n <= 5, with no identity assumed."""
    assert_witness_agrees(mul)


@pytest.mark.parametrize("table", [
    [],
    [[0, 1], [1]],
    [[0, 1], [1, 7]],
])
def test_bad_shapes_rejected(table):
    with pytest.raises(DimensionMismatch):
        make_group(table)


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
    assert image_of(h).members == (0, 2)
    assert image_of(h).normal
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
        assert len(image_of(h).members) * ker == 6


def test_quotient_z4_by_even():
    z4 = cyclic_group(4)
    n = subgroup(z4, (0, 2))
    assert n.normal
    q, proj = quotient(z4, n)
    assert q.order == 2
    assert check_hom(proj)
    assert [x for x in range(4) if proj.image[x] == 0] == [0, 2]  # the kernel


def test_quotient_by_trivial_is_bijective():
    s3 = symmetric_group_3()
    q, proj = quotient(s3, subgroup(s3, (0,)))
    assert q.order == 6
    assert sorted(proj.image) == list(range(6))


def test_quotient_s3_by_a3():
    """A3 located by an in-test parity oracle, then quotiented out."""
    s3 = symmetric_group_3()
    import itertools
    perms = sorted(itertools.permutations(range(3)))

    def parity(p):
        return sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2

    a3 = [i for i, p in enumerate(perms) if parity(p) == 0]
    n = subgroup(s3, a3)
    assert n.normal
    q, _ = quotient(s3, n)
    assert q.order == 2


def test_quotient_rejects_non_normal():
    s3 = symmetric_group_3()
    two = next(x for x in range(1, 6) if element_order(s3, x) == 2)
    n = subgroup(s3, (0, two))
    assert not n.normal
    with pytest.raises(NotNormal):
        quotient(s3, n)


def test_subgroup_rejects_non_closed():
    with pytest.raises(ValueError):
        subgroup(cyclic_group(4), (0, 1))


def test_subgroup_as_group_reindexes():
    z4 = cyclic_group(4)
    k, pos = subgroup_as_group(z4, (0, 2))
    assert k.order == 2 and pos == {0: 0, 2: 1}
    assert k.mul[1][1] == 0


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
    w = action_violation(a)
    assert w is not None and w[0] == "action-composition"


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
