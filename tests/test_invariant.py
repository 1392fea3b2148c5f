"""Normalization factor, the exact invariant, and class sizes by orbit and stabiliser."""

import math
from fractions import Fraction

import pytest

from xcomplex.complexes import FiniteCrossedComplex, homology, pi1, size_at, validate
from xcomplex.enumeration import cell_orders, count_homs, weigh_answer
from xcomplex.groups import cyclic_group, trivial_action, zero_hom
from xcomplex.homotopies import count_homotopies, homotopy_classes, homotopy_orbit
from xcomplex.invariant import format_rational, invariant_ia, normalization_factor
from xcomplex.library import (
    resolve_coefficients,
    resolve_space,
    standard_coefficients,
    standard_spaces,
)
from xcomplex.presentations import disk, point, rp2, sphere, torus, wedge
from xcomplex.randomgen import random_instances

SEED = 12345


def tall_z2_z4_z2():
    """Length-3 tower with |A_2| = 4 to make the factor asymmetric."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    cx = FiniteCrossedComplex(
        (z2, z4, z2),
        (zero_hom(z4, z2), zero_hom(z2, z4)),
        (trivial_action(z2, z4), trivial_action(z2, z2)),
    )
    assert validate(cx).ok
    return cx


def test_factor_is_one_for_length_one():
    for space in ("torus", "rp2", "genus:2"):
        assert normalization_factor(
            resolve_space(space), resolve_coefficients("s3")) == 1


def test_factor_is_one_for_point():
    for coeff in ("s3", "cm-z4-z2-incl", "l3-z2"):
        assert normalization_factor(
            point(), resolve_coefficients(coeff)) == 1


def test_factor_circle_values():
    """One 1-cell: factor = |A_3| / |A_2| with sizes 1 beyond the length."""
    circle = sphere(1)
    assert normalization_factor(
        circle, resolve_coefficients("cm-z4-z2-incl")) == Fraction(1, 2)
    assert normalization_factor(
        circle, resolve_coefficients("l3-z2")) == 1  # 2/2 cancels
    assert normalization_factor(circle, tall_z2_z4_z2()) == Fraction(1, 2)


def test_factor_counts_cells():
    """Two 1-cells and a 2-cell against the inclusion tower: 1 / |A_2|^2."""
    assert normalization_factor(
        torus(), resolve_coefficients("cm-z4-z2-incl")) == Fraction(1, 4)


@pytest.mark.parametrize("space,coeff,expected", [
    ("torus", "s3", Fraction(18)),
    ("rp2", "z2", Fraction(2)),
    ("rp2", "z3", Fraction(1)),
    ("point", "l3-z2", Fraction(1)),
    ("sphere:1", "cm-z4-z2-incl", Fraction(2)),
    ("sphere:1", "l3-z2", Fraction(2)),
    ("torus", "cm-z4-z2-incl", Fraction(4)),
    ("disk:2", "cm-z4-z2-incl", Fraction(1)),
    ("disk:3", "cm-z2-z2-zero", Fraction(1)),
    ("disk:3", "l3-z2", Fraction(1)),
    ("disk:4", "l3-z2", Fraction(1)),
    ("sphere:2", "l3-z2", Fraction(1)),
    ("sphere2-two-cells", "l3-z2", Fraction(1)),
], ids=lambda v: str(v))
def test_frozen_invariants(space, coeff, expected):
    """Hand-derived invariant values; disks and the point must give 1."""
    got = invariant_ia(resolve_space(space), resolve_coefficients(coeff))
    assert got == expected


def test_invariant_multiplies_over_wedges():
    cx = resolve_coefficients("s3")
    assert invariant_ia(wedge(torus(), rp2()), cx) == \
        invariant_ia(torus(), cx) * invariant_ia(rp2(), cx)
    l3 = resolve_coefficients("l3-z2")
    assert invariant_ia(wedge(sphere(2), disk(3)), l3) == \
        invariant_ia(sphere(2), l3) * invariant_ia(disk(3), l3)


def test_invariant_is_count_times_factor():
    p, cx = rp2(), resolve_coefficients("cm-z2-z3-flip")
    assert invariant_ia(p, cx) == \
        count_homs(p, cx) * normalization_factor(p, cx)


def test_euler_identity_with_verified_homotopy_counts():
    """Class sizes again, by orbit and stabiliser over every value table.

    rp2 into the flip: the mobile class has three members and a trivial
    stabiliser, each rigid morphism is fixed by all three homotopies, and
    #homotopies / |Stab| summed over the classes gives back the six
    morphisms.
    """
    p, cx = rp2(), resolve_coefficients("cm-z2-z3-flip")
    dec = homotopy_classes(p, cx)
    orbits = [homotopy_orbit(p, cx, f) for f in dec.representatives]
    assert orbits == [(3, 1), (1, 3), (1, 3), (1, 3)]
    assert tuple(size for size, _ in orbits) == dec.sizes
    total = sum(Fraction(count_homotopies(p, cx), stab) for _, stab in orbits)
    assert total == 6
    assert normalization_factor(p, cx) * total == invariant_ia(p, cx) == 2


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(18)) == "18"


def test_cell_orders_give_the_written_out_products():
    """The normalization, the homotopy count and the digit bound of the
    invariant read `cell_orders`; each equals its formula written out from
    size_at and p.count, and a shift of L or more sizes no cell."""
    pairs = ([(p, cx) for p in standard_spaces() for cx in standard_coefficients()]
             + random_instances(SEED, 24))
    for p, cx in pairs:
        top = cx.length
        inner = {n: math.prod(size_at(cx, m + n) ** p.count(m) for m in range(1, top - n + 1))
                 for n in range(top)}
        factor = Fraction(1)
        for n in range(1, top):
            factor *= inner[n] if n % 2 == 0 else Fraction(1, inner[n])
        digits = 1 + int(sum(p.count(m) * math.log10(size_at(cx, m + n))
                             for n in range(top) for m in range(1, top - n + 1)))
        assert normalization_factor(p, cx) == factor, (p.name, cx.name)
        assert count_homotopies(p, cx) == inner.get(1, 1), (p.name, cx.name)
        assert weigh_answer(p, cx, 10**9, normalization=True) == digits, (p.name, cx.name)
        for shift in range(top, top + 3):
            assert cell_orders(p, cx, shift) == []


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sphere_invariant_is_the_alternating_product_of_homotopy_groups(m):
    """I_A(sphere:m x A) = prod_{j=m..L} |pi_j|A||^((-1)^(j-m)), with
    pi_1 = pi1(A) and pi_j = homology(A, j) for j >= 2, since the pointed
    maps of S^m are Omega^m |A|; an empty product (m > L) is 1.  Over the
    standard coefficients and the complexes of random_instances(12345, 60)."""
    for cx in standard_coefficients() + [cx for _, cx in random_instances(SEED, 60)]:
        orders = [pi1(cx).order] + [homology(cx, j).order for j in range(2, cx.length + 1)]
        want = math.prod(Fraction(orders[j - 1]) ** (-1) ** (j - m)
                         for j in range(m, cx.length + 1))
        assert invariant_ia(sphere(m), cx) == want, (m, cx.name)
