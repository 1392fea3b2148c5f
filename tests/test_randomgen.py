"""Instance generator: determinism, validity, bounded brute-force spaces."""

import random

from xcomplex.complexes import validate
from xcomplex.presentations import validate_presentation
from xcomplex.randomgen import (
    BRUTE_SPACE_LIMIT,
    all_actions,
    all_homs,
    group_pool,
    random_instances,
)
from xcomplex.groups import cyclic_group, symmetric_group_3


def test_instances_deterministic():
    a = random_instances(seed=99, count=8)
    b = random_instances(seed=99, count=8)
    assert [p for p, _ in a] == [p for p, _ in b]
    assert [cx.groups for _, cx in a] == [cx.groups for _, cx in b]
    c = random_instances(seed=100, count=8)
    assert a != c  # different seed, different stream (overwhelmingly)


def test_instances_valid_and_bounded():
    for p, cx in random_instances(seed=3, count=12):
        assert validate(cx).ok
        assert validate_presentation(p).ok
        space = 1
        for n in range(1, cx.length + 1):
            space *= cx.groups[n - 1].order ** p.count(n)
        assert space <= BRUTE_SPACE_LIMIT


def test_all_homs_counts():
    """Hom-set sizes double-checked against elementary group theory."""
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    assert len(all_homs(z2, z3)) == 1          # only zero
    assert len(all_homs(z4, z4)) == 4          # 1 generator, 4 targets
    assert len(all_homs(z2, z4)) == 2          # 0 and 2
    assert len(all_homs(symmetric_group_3(), z2)) == 2  # zero and sign


def test_all_actions_counts():
    """Aut(Z/3) = Z/2 and Aut(Z/4) = Z/2 pin these down by hand."""
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    assert len(all_actions(z2, z3)) == 2       # trivial and negation
    assert len(all_actions(z3, z4)) == 1       # no order-3 automorphism
    assert len(all_actions(z2, z4)) == 2


def test_group_pool_small():
    assert [g.order for g in group_pool()] == [1, 2, 3, 4, 4]
