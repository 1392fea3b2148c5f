"""Instance generator: determinism, validity, bounded brute-force spaces."""

import hashlib
import json
import random

import pytest

from xcomplex.complexes import validate
from xcomplex.documents import dump_complex, dump_presentation
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


@pytest.mark.parametrize("seed,count,digest", [
    (12345, 200, "b99bbc18ad254b8b75038d3b8d6528ede6184f9381a8085d1bac981fe52c28f0"),
    (20260819, 24, "7cb66626d168a0f484884b3a5692923a8e30b14c4628021804c6729226c96515"),  # selfcheck's
])
def test_seeded_draws_are_pinned(seed, count, digest):
    """The seeded draws are fixed: a change to the draw order, a candidate
    list or a name shows here, and must be made on purpose."""
    h = hashlib.sha256()
    for p, cx in random_instances(seed, count):
        h.update(json.dumps([dump_presentation(p), dump_complex(cx)], sort_keys=True).encode())
    assert h.hexdigest() == digest


def test_instances_valid_and_bounded():
    """randomgen does not validate its draws again, so this does, at every
    seed the tests and selfcheck draw from and the longest count drawn
    there: a shorter draw is a prefix of a longer one."""
    for seed, count in ((3, 12), (12345, 200), (20260819, 100), (11, 120), (5, 6)):
        for p, cx in random_instances(seed=seed, count=count):
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
