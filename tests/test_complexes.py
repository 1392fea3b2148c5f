"""Crossed-complex validation, invariants of the tower, planted violations."""

import pytest

from xcomplex.complexes import (
    FiniteCrossedComplex,
    from_crossed_module,
    from_group,
    homology,
    pi1,
    size_at,
    validate,
)
from xcomplex.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidComplex,
)
from xcomplex.groups import (
    GroupAction,
    GroupHom,
    cyclic_group,
    direct_product,
    symmetric_group_3,
    trivial_action,
    zero_hom,
)
from xcomplex.library import resolve_coefficients, standard_coefficients


def replace_boundary(cx, n, image):
    bds = list(cx.boundaries)
    old = bds[n - 2]
    bds[n - 2] = GroupHom(old.source, old.target, tuple(image))
    return FiniteCrossedComplex(cx.groups, tuple(bds), cx.actions, cx.name)


@pytest.mark.parametrize(
    "cx", standard_coefficients(), ids=lambda c: c.name)
def test_standard_coefficients_validate(cx):
    report = validate(cx)
    assert report.ok, report.violations


def test_from_group_is_length_one():
    cx = from_group(symmetric_group_3())
    assert cx.length == 1
    assert validate(cx).ok
    with pytest.raises(IndexOutOfRange):
        cx.boundary(2)


def test_degree_accessors_range():
    cx = resolve_coefficients("l3-z2")
    assert cx.group(3).order == 2
    with pytest.raises(IndexOutOfRange):
        cx.group(0)
    with pytest.raises(IndexOutOfRange):
        cx.action(4)


def test_size_at():
    cx = resolve_coefficients("l3-z2")
    assert [size_at(cx, k) for k in (1, 2, 3, 4, 9)] == [2, 2, 2, 1, 1]
    with pytest.raises(IndexOutOfRange):
        size_at(cx, 0)


def test_broken_boundary_named():
    """Mutating one entry of the inclusion Z/2 -> Z/4 breaks boundary-hom."""
    cx = resolve_coefficients("cm-z4-z2-incl")
    bad = replace_boundary(cx, 2, (0, 1))
    report = validate(bad)
    assert not report.ok
    assert "boundary-hom" in report.names()


def test_pure_peiffer_violation():
    """Zero boundary with nonabelian fibre: only Peiffer can fail, and does.

    With d2 = 0 every CM1 instance reads d2(x |> e) = 0 = x 0 x^-1, and the
    action axioms hold for the trivial action, so the single failing axiom
    is Peiffer at the first noncommuting pair of S3.
    """
    z2, s3 = cyclic_group(2), symmetric_group_3()
    cx = FiniteCrossedComplex(
        (z2, s3), (zero_hom(s3, z2),), (trivial_action(z2, s3),))
    report = validate(cx)
    assert report.names() == {"Peiffer"}


def test_pure_cm1_violation():
    """Embedding Z/3 onto the 3-cycles of S3 with the trivial action.

    Conjugating a 3-cycle by a transposition gives the other 3-cycle, so
    d2(x |> e) = d2(e) != x d2(e) x^-1 and CM1 fails; Peiffer holds because
    Z/3 is abelian and the action trivial.  The only reported name is CM1.
    """
    s3, z3 = symmetric_group_3(), cyclic_group(3)
    embed = GroupHom(z3, s3, (0, 3, 4))
    assert validate(FiniteCrossedComplex(
        (s3, z3), (embed,), (trivial_action(s3, z3),))).names() == {"CM1"}


def test_from_crossed_module_rejects_bad_action():
    """An action table that moves the identity of the fibre is refused."""
    z3, z2 = cyclic_group(3), cyclic_group(2)
    swap = GroupAction(z3, z2, ((0, 1), (1, 0), (1, 0)))
    with pytest.raises(InvalidComplex) as exc:
        from_crossed_module(z3, z2, zero_hom(z2, z3), swap)
    assert "action-hom" in exc.value.report.names()


def test_validate_rejects_bad_shape():
    z2 = cyclic_group(2)
    cx = FiniteCrossedComplex((z2, z2), (), ())
    with pytest.raises(DimensionMismatch):
        validate(cx)


def test_pure_factoring_violation():
    """Surjective d2 whose image acts nontrivially in degree 3.

    d2 = id makes im d2 all of A_1 = Z/2; letting 1 negate the Z/3 fibre is
    a perfectly valid action, so the single failing axiom is factoring.
    """
    z2, z3 = cyclic_group(2), cyclic_group(3)
    negate = GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))
    cx = FiniteCrossedComplex(
        (z2, z2, z3),
        (GroupHom(z2, z2, (0, 1)), zero_hom(z3, z2)),
        (trivial_action(z2, z2), negate),
    )
    assert validate(cx).names() == {"factoring"}


def test_pure_equivariance_violation():
    """d3 = id into a fibre the actor flips, while degree 3 sits still.

    d3(x |> a) = a but x |> d3(a) flips, so equivariance fails at (3, 1, 1);
    the zero d2 keeps CM1, Peiffer, complex and factoring all happy.
    """
    z2, z3 = cyclic_group(2), cyclic_group(3)
    flip = GroupAction(z2, z3, ((0, 1, 2), (0, 2, 1)))
    cx = FiniteCrossedComplex(
        (z2, z3, z3),
        (zero_hom(z3, z2), GroupHom(z3, z3, (0, 1, 2))),
        (flip, trivial_action(z2, z3)),
    )
    assert validate(cx).names() == {"equivariance"}


def test_complex_axiom_violation():
    """d2 d3 != 1 is reported as `complex`."""
    z4, z2 = cyclic_group(4), cyclic_group(2)
    incl = GroupHom(z2, z4, (0, 2))
    ident = GroupHom(z2, z2, (0, 1))
    cx = FiniteCrossedComplex(
        (z4, z2, z2),
        (incl, ident),
        (trivial_action(z4, z2), trivial_action(z4, z2)),
    )
    assert validate(cx).names() == {"complex"}


def test_abelian_violation_above_two():
    z1, s3 = cyclic_group(1), symmetric_group_3()
    cx = FiniteCrossedComplex(
        (z1, z1, s3),
        (zero_hom(z1, z1), zero_hom(s3, z1)),
        (trivial_action(z1, z1), trivial_action(z1, s3)),
    )
    assert validate(cx).names() == {"abelian"}


def test_pi1_values():
    assert pi1(from_group(symmetric_group_3())).order == 6
    assert pi1(resolve_coefficients("cm-z4-z2-incl")).order == 2
    assert pi1(resolve_coefficients("cm-z2-z2-zero")).order == 2
    assert pi1(resolve_coefficients("l3-z2")).order == 2


def test_homology_values():
    """Frozen from the tower shapes: ker/im computed by direct scans."""
    incl = resolve_coefficients("cm-z4-z2-incl")
    assert homology(incl, 2).order == 1  # injective boundary
    zero = resolve_coefficients("cm-z2-z2-zero")
    assert homology(zero, 2).order == 2
    l3 = resolve_coefficients("l3-z2")
    assert homology(l3, 2).order == 2
    assert homology(l3, 3).order == 2
    with pytest.raises(IndexOutOfRange):
        homology(incl, 3)
    with pytest.raises(IndexOutOfRange):
        homology(from_group(cyclic_group(2)), 2)


def test_kernel_times_image_is_order():
    for cx in standard_coefficients():
        for n in range(2, cx.length + 1):
            bd = cx.boundary(n)
            ker = bd.image.count(0)
            img = len(set(bd.image))
            assert ker * img == bd.source.order, (cx.name, n)


def test_factoring_property_holds_on_suite():
    """im d2 acts trivially in degrees above 2 on every suite complex."""
    for cx in standard_coefficients():
        if cx.length < 3:
            continue
        img = set(cx.boundary(2).image)
        for n in range(3, cx.length + 1):
            act = cx.action(n).act
            for x in img:
                assert all(act[x][a] == a for a in range(cx.group(n).order))


def test_nonabelian_fibre_accepted_at_two():
    """Conjugation crossed module G -> G is valid even for nonabelian G."""
    s3 = symmetric_group_3()
    conj = GroupAction(s3, s3, tuple(
        tuple(s3.mul[s3.mul[x][e]][s3.inv[x]] for e in range(6))
        for x in range(6)))
    ident = GroupHom(s3, s3, tuple(range(6)))
    cx = from_crossed_module(s3, s3, ident, conj)
    assert validate(cx).ok
    assert pi1(cx).order == 1


def test_product_coefficients_validate():
    """Direct products stay within the axioms (sanity for bigger tables)."""
    g = direct_product(cyclic_group(2), cyclic_group(2))
    cx = from_crossed_module(
        g, cyclic_group(2), zero_hom(cyclic_group(2), g),
        trivial_action(g, cyclic_group(2)))
    assert validate(cx).ok
