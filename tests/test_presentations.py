"""Presentation builders, free reduction, wedge sums, structural validation."""

import random

import pytest

from xcomplex.presentations import (
    CWPresentation,
    disk,
    free_reduce,
    genus_surface,
    point,
    relabel_cells,
    rp2,
    sphere,
    sphere2_two_cells,
    torus,
    validate_presentation,
    wedge,
    word_inverse,
)


def random_word(rng, gens, length):
    return tuple((rng.randrange(gens), rng.choice((1, -1)))
                 for _ in range(length))


def test_free_reduce_examples():
    assert free_reduce(()) == ()
    assert free_reduce(((0, 1), (0, -1))) == ()
    assert free_reduce(((0, 1), (1, 1), (1, -1), (0, -1))) == ()
    assert free_reduce(((0, 1), (1, 1), (0, -1))) == ((0, 1), (1, 1), (0, -1))
    assert free_reduce(((0, 1), (0, 1))) == ((0, 1), (0, 1))


def test_free_reduce_properties():
    """Idempotent, and w * w^-1 always cancels to nothing."""
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng, 3, rng.randrange(8))
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert free_reduce(w + word_inverse(w)) == ()
        assert word_inverse(word_inverse(w)) == w


def test_builder_cell_counts():
    assert point().cells == (1,)
    assert sphere(1).cells == (1, 1)
    assert sphere(2).cells == (1, 0, 1)
    assert sphere(3).cells == (1, 0, 0, 1)
    assert sphere(5).cells == (1, 0, 0, 0, 0, 1)
    assert disk(2).cells == (1, 1, 1)
    assert disk(3).cells == (1, 0, 1, 1)
    assert disk(4).cells == (1, 0, 0, 1, 1)
    assert disk(5).cells == (1, 0, 0, 0, 1, 1)
    assert torus().cells == (1, 2, 1)
    assert genus_surface(2).cells == (1, 4, 1)
    assert rp2().cells == (1, 1, 1)
    assert sphere2_two_cells().cells == (1, 1, 2)


def test_builder_guards():
    with pytest.raises(ValueError):
        sphere(0)
    with pytest.raises(ValueError):
        disk(1)
    with pytest.raises(ValueError):
        genus_surface(-1)


def test_torus_word():
    assert torus().attach2 == (((0, 1), (1, 1), (0, -1), (1, -1)),)


def test_genus_one_is_torus_word():
    assert genus_surface(1).attach2 == torus().attach2


@pytest.mark.parametrize("p", [
    point(), sphere(1), sphere(2), sphere(3), sphere(4), sphere(6),
    disk(2), disk(3), disk(4), disk(5), disk(6),
    torus(), genus_surface(0), genus_surface(2), rp2(), sphere2_two_cells(),
], ids=lambda p: p.name)
def test_builders_validate(p):
    report = validate_presentation(p)
    assert report.ok, report.violations


def test_count_and_dim():
    p = disk(4)
    assert p.dim == 4
    assert [p.count(n) for n in range(7)] == [1, 0, 0, 1, 1, 0, 0]
    with pytest.raises(ValueError):
        p.count(-1)
    with pytest.raises(ValueError):
        p.terms(2)


def test_wedge_counts_add():
    w = wedge(torus(), rp2())
    assert w.cells == (1, 3, 2)
    assert w.attach2[0] == torus().attach2[0]
    assert w.attach2[1] == ((2, 1), (2, 1))  # rp2's 1-cell shifted past two
    assert validate_presentation(w).ok


def test_wedge_with_point_is_identity():
    for p in (torus(), disk(3), sphere(4)):
        assert wedge(p, point()) == p
        assert wedge(point(), p) == p


def test_wedge_associative_structurally():
    a, b, c = torus(), disk(3), sphere2_two_cells()
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert left == right


def test_wedge_shifts_high_cells():
    w = wedge(disk(4), disk(4))
    assert w.cells == (1, 0, 0, 2, 2)
    assert w.terms(4) == ((((), 0, 1),), (((), 1, 1),))
    assert validate_presentation(w).ok


def test_validation_base_cells():
    report = validate_presentation(CWPresentation((2, 1)))
    assert "base-cells" in report.names()


def test_validation_negative_count():
    report = validate_presentation(CWPresentation((1, -1)))
    assert "cell-count" in report.names()


def test_validation_generator_range():
    p = CWPresentation((1, 1, 1), attach2=(((3, 1),),))
    assert "generator-range" in validate_presentation(p).names()


def test_validation_exponent():
    p = CWPresentation((1, 1, 1), attach2=(((0, 2),),))
    assert "exponent" in validate_presentation(p).names()


def test_validation_attach_arity():
    p = CWPresentation((1, 1, 2), attach2=(((0, 1),),))
    assert "attach-arity" in validate_presentation(p).names()
    # data for a 4-cell the presentation does not have, past its dimension
    p = CWPresentation((1, 1, 1), attach2=(((0, 1),),),
                       attach_terms=((), ((((), 0, 1),),)))
    assert ("attach-arity", (4, 1, 0)) in validate_presentation(p).violations


def test_validation_boundary_boundary():
    """A 3-cell over disk:2's filled loop leaves the letter x uncancelled."""
    p = CWPresentation(
        (1, 1, 1, 1),
        attach2=(((0, 1),),),
        attach_terms=((((((0, 1),), 0, 1),),),),
    )
    report = validate_presentation(p)
    assert "boundary-boundary" in report.names()


def test_validation_boundary_boundary_cancels():
    """Conjugated cell followed by its inverse is spherical and accepted."""
    p = CWPresentation(
        (1, 1, 1, 1),
        attach2=(((0, 1),),),
        attach_terms=((((((0, 1),), 0, 1), (((0, 1),), 0, -1)),),),
    )
    assert validate_presentation(p).ok


def test_validation_module_layer():
    good = CWPresentation((1, 0, 0, 1, 1), attach_terms=(((),), ((((), 0, 2),),)))
    assert validate_presentation(good).ok
    bad_gen = CWPresentation((1, 0, 0, 1, 1), attach_terms=(((),), ((((), 5, 1),),)))
    assert "generator-range" in validate_presentation(bad_gen).names()
    # the same power 2 on a 3-cell: a crossed-module term takes +-1 only
    bad_exp = CWPresentation((1, 0, 1, 1), attach2=((),), attach_terms=(((((), 0, 2),),),))
    assert validate_presentation(bad_exp).violations == [("exponent", (3, 0, 0, 2))]


def test_validation_reports_malformed_terms():
    """A 3-cell level one tuple too shallow: the cell's Terms are read as
    the three items of one term, none of them a (word, cell, power) triple."""
    p = CWPresentation((1, 1, 1, 1), attach2=(((0, 1),),),
                       attach_terms=(((((0, 1),), 0, 1),),))
    assert validate_presentation(p).violations == [
        ("attach-shape", (3, 0, 0)), ("attach-shape", (3, 0, 1)),
        ("attach-shape", (3, 0, 2))]


def test_validation_reports_malformed_letters():
    """A letter that is no (gen, exp) pair, in a 2-cell word and in a
    twisting word, or whose generator is no int; each witness names its
    dimension first."""
    p = CWPresentation((1, 1, 1), attach2=(((0,),),))
    assert validate_presentation(p).violations == [("attach-shape", (2, 0, 0))]
    p = CWPresentation((1, 1, 1, 1), attach2=(((0, 1), (0, -1)),),
                       attach_terms=((((((0, 1, 1),), 0, 1),),),))
    assert validate_presentation(p).violations == [("attach-shape", (3, 0, 0, 0))]
    p = CWPresentation((1, 1, 1), attach2=((("a", 1),),))
    assert validate_presentation(p).violations == [("generator-range", (2, 0, 0, "a"))]


@pytest.mark.parametrize("p, where", [
    (CWPresentation((1, 1, 1), attach2=5), (2,)),
    (CWPresentation((1, 1, 1, 1), attach2=(((0, 1),),), attach_terms=(7,)), (3,)),
    (CWPresentation((1, 1, 1, 1), attach2=(((0, 1),),), attach_terms=5), (3,)),
    (CWPresentation((1, 1, 1), attach2=(5,)), (2, 0)),
    (CWPresentation((1, 1, 1, 1), attach2=(((0, 1),),), attach_terms=((7,),)), (3, 0)),
])
def test_validation_reports_non_sequence_attaching_data(p, where):
    """attach2, attach_terms or one level of it (a 2-cell's word, a cell's
    Terms) that is no sequence is an attach-shape violation naming its
    first dimension, not a TypeError."""
    assert validate_presentation(p).violations == [("attach-shape", where)]


def test_relabel_round_trip():
    """Reversing cell order twice gives back the original presentation."""
    p = wedge(torus(), wedge(rp2(), disk(4)))
    perms = {n: tuple(reversed(range(p.count(n)))) for n in range(1, p.dim + 1)}
    q = relabel_cells(p, perms)
    assert validate_presentation(q).ok
    r = relabel_cells(q, perms)
    assert r == p


def test_relabel_moves_words():
    q = relabel_cells(torus(), {1: (1, 0)})
    assert q.attach2 == (((1, 1), (0, 1), (1, -1), (0, -1)),)
