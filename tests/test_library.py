"""Name resolution and the standard instance suites."""

import pytest

from xcomplex.complexes import validate
from xcomplex.errors import InstanceTooLarge, ParseError
from xcomplex.library import (
    resolve_coefficients,
    resolve_space,
    standard_coefficients,
    standard_spaces,
)
from xcomplex.presentations import validate_presentation
from xcomplex.selfcheck import _conjugation_crossed_module


@pytest.mark.parametrize("name,cells", [
    ("point", (1,)),
    ("sphere:1", (1, 1)),
    ("sphere:4", (1, 0, 0, 0, 1)),
    ("disk:2", (1, 1, 1)),
    ("torus", (1, 2, 1)),
    ("genus:3", (1, 6, 1)),
    ("rp2", (1, 1, 1)),
    ("sphere2-two-cells", (1, 1, 2)),
])
def test_resolve_space(name, cells):
    assert resolve_space(name).cells == cells


def test_space_name_forms():
    """Colon optional, case and underscore insensitive."""
    assert resolve_space("sphere3").cells == resolve_space("sphere:3").cells
    assert resolve_space("SPHERE:3").cells == resolve_space("sphere:3").cells
    assert resolve_space("sphere2_two_cells").cells == (1, 1, 2)
    assert resolve_space("  torus ").cells == (1, 2, 1)


@pytest.mark.parametrize("name,orders", [
    ("z2", (2,)),
    ("z:5", (5,)),
    ("s3", (6,)),
    ("z2xz2", (4,)),
    ("cm-z2-z2-zero", (2, 2)),
    ("cm-z4-z2-incl", (4, 2)),
    ("cm-z2-z3-flip", (2, 3)),
    ("l3-z2", (2, 2, 2)),
    pytest.param(_conjugation_crossed_module, (6, 6), id="s3-conj"),  # selfcheck's
])
def test_resolve_coefficients(name, orders):
    """Each builtin has its orders and is valid: builtins are built without
    a run-time check, so this is the one that pins their tables."""
    cx = name() if callable(name) else resolve_coefficients(name)
    assert tuple(g.order for g in cx.groups) == orders
    assert validate(cx).ok


def test_coefficient_name_forms():
    a = resolve_coefficients("cm_z4_z2_incl")
    b = resolve_coefficients("CM-Z4-Z2-INCL")
    assert a.boundaries[0].image == b.boundaries[0].image == (0, 2)


def test_unknown_names_raise():
    with pytest.raises(ParseError, match="space"):
        resolve_space("klein-bottle")
    with pytest.raises(ParseError, match="coefficients"):
        resolve_coefficients("q8")


def test_sizes_past_the_digit_limit_raise_no_bare_value_error():
    """A size past CPython's 4,300-digit conversion limit is a ParseError
    naming the builtin, and a refused size's square is reported by its
    magnitude, (10^3000 - 1)^2 as about 10^6000: neither conversion raises
    a bare ValueError."""
    name = "sphere:" + "9" * 5000
    with pytest.raises(ParseError) as caught:
        resolve_space(name, cap=10)
    assert str(caught.value) == f"builtin '{name}': integer literal: more than 4300 digits"
    name = "z:" + "9" * 3000
    with pytest.raises(InstanceTooLarge) as caught:
        resolve_coefficients(name, cap=10)
    assert str(caught.value) == f"builtin '{name}' holds about 10^6000 entries, more than the cap 10"


def test_flip_complex_really_flips():
    cx = resolve_coefficients("cm-z2-z3-flip")
    assert cx.actions[0].act[1] == (0, 2, 1)


def test_standard_spaces_all_validate():
    spaces = standard_spaces()
    assert len(spaces) == 11
    assert len({p.name for p in spaces}) == 11
    for p in spaces:
        assert validate_presentation(p).ok, p.name


def test_standard_coefficients_all_validate():
    suite = standard_coefficients()
    assert len(suite) == 6
    for cx in suite:
        assert validate(cx).ok, cx.name
    lengths = sorted(cx.length for cx in suite)
    assert lengths == [1, 1, 1, 2, 2, 3]
