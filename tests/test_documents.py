"""JSON round-trips and schema errors for the three document kinds."""

import json

import pytest

from xcomplex.documents import (
    dump_complex,
    dump_group,
    dump_presentation,
    load_complex,
    load_group_table,
    load_presentation,
    read_json,
)
from xcomplex.errors import ParseError
from xcomplex.groups import cyclic_group, symmetric_group_3
from xcomplex.library import (
    resolve_coefficients,
    resolve_space,
    standard_coefficients,
    standard_spaces,
)


@pytest.mark.parametrize("g", [cyclic_group(1), cyclic_group(4),
                               symmetric_group_3()], ids=lambda g: g.name)
def test_group_round_trip(g):
    again = load_group_table(dump_group(g))
    assert again == g
    assert again.name == g.name


@pytest.mark.parametrize("cx", standard_coefficients(), ids=lambda c: c.name)
def test_complex_round_trip(cx):
    doc = dump_complex(cx)
    json.dumps(doc)  # must be serializable as-is
    again = load_complex(doc)
    assert again.groups == cx.groups
    assert again.boundaries == cx.boundaries
    assert again.actions == cx.actions


@pytest.mark.parametrize("p", standard_spaces(), ids=lambda p: p.name)
def test_presentation_round_trip(p):
    doc = dump_presentation(p)
    json.dumps(doc)
    again = load_presentation(doc)
    assert again == p
    assert again.name == p.name


def test_load_group_requires_mul():
    with pytest.raises(ParseError, match="mul"):
        load_group_table({"order": 2})


def test_load_group_rejects_bool_entries():
    with pytest.raises(ParseError, match="integer"):
        load_group_table({"mul": [[0, 1], [1, True]]})


@pytest.mark.parametrize("bad", [[True, 1.0], [1.0, True]], ids=["true-first", "float-first"])
def test_non_integer_entry_is_named_at_the_first(bad):
    """An action row holding two non-integers is reported at the first."""
    doc = dump_complex(resolve_coefficients("cm-z2-z3-flip"))
    doc["actions"][0][1][1:] = bad
    with pytest.raises(ParseError) as exc:
        load_complex(json.loads(json.dumps(doc)))
    assert str(exc.value) == "complex.actions[0][1][1]: expected an integer"


def test_load_group_order_mismatch():
    with pytest.raises(ParseError, match="order"):
        load_group_table({"order": 3, "mul": [[0, 1], [1, 0]]})
    # equal to the row count, but not JSON integers
    for order, mul in ((2.0, [[0, 1], [1, 0]]), (True, [[0]])):
        with pytest.raises(ParseError, match=r"group\.order"):
            load_group_table({"order": order, "mul": mul})


def test_load_group_ragged_table_is_parse_error():
    with pytest.raises(ParseError):
        load_group_table({"mul": [[0, 1], [1]]})


def test_load_complex_missing_keys():
    with pytest.raises(ParseError, match="missing key"):
        load_complex({"L": 1, "groups": [{"mul": [[0]]}]})


def test_load_complex_length_must_be_an_integer():
    doc = dump_complex(resolve_coefficients("z2"))
    for length in (True, 1.0):
        doc["L"] = length
        with pytest.raises(ParseError, match=r"complex\.L"):
            load_complex(doc)


def test_load_complex_wrong_boundary_count():
    doc = dump_complex(resolve_coefficients("cm-z2-z2-zero"))
    doc["boundaries"] = []
    with pytest.raises(ParseError, match="boundaries"):
        load_complex(doc)


def test_load_complex_wrong_boundary_length():
    doc = dump_complex(resolve_coefficients("cm-z2-z2-zero"))
    doc["boundaries"] = [[0, 0, 0]]
    with pytest.raises(ParseError, match="entries"):
        load_complex(doc)


def test_load_complex_wrong_action_shape():
    doc = dump_complex(resolve_coefficients("cm-z2-z2-zero"))
    doc["actions"] = [[[0, 1]]]
    with pytest.raises(ParseError, match="rows"):
        load_complex(doc)


def test_load_complex_does_not_validate_algebra():
    """Loading checks shape only; the axioms stay with validate()."""
    from xcomplex.complexes import validate
    doc = dump_complex(resolve_coefficients("cm-z4-z2-incl"))
    doc["boundaries"] = [[0, 1]]  # no longer a hom into Z/4
    cx = load_complex(doc)
    assert not validate(cx).ok
    doc = dump_complex(resolve_coefficients("cm-z4-z2-incl"))
    doc["groups"][1]["mul"] = [[0, 1], [1, 1]]  # 1 has no inverse
    assert validate(load_complex(doc)).violations[0] == ("group-inverse", (2, 1))


def test_load_presentation_minimal():
    p = load_presentation({"cells": [1]})
    assert p.cells == (1,) and p.dim == 0


def test_load_presentation_attach_keys():
    with pytest.raises(ParseError, match="dimensions >= 2"):
        load_presentation({"cells": [1, 1], "attach": {"1": []}})
    with pytest.raises(ParseError, match="dimension"):
        load_presentation({"cells": [1, 1], "attach": {"5": []}})
    # "²" passes str.isdigit; "02" would stand for "2" and replace its data
    for key in ("²", "02"):
        with pytest.raises(ParseError, match="dimensions >= 2"):
            load_presentation({"cells": [1, 2, 1], "attach": {"2": [[]], key: [[]]}})


def test_load_presentation_word_schema():
    with pytest.raises(ParseError, match="exponent"):
        load_presentation({"cells": [1, 1, 1], "attach": {"2": [[[0, 2]]]}})
    with pytest.raises(ParseError, match="gen"):
        load_presentation({"cells": [1, 1, 1], "attach": {"2": [[[0]]]}})
    # equal to 1 or -1, but not JSON integers
    for exp in (True, 1.0, -1.0):
        with pytest.raises(ParseError, match=r"attach\.2\[0\]\[0\]\[1\].*exponent"):
            load_presentation({"cells": [1, 1, 1], "attach": {"2": [[[0, exp]]]}})


@pytest.mark.parametrize("bad, where, note", [
    ([0], "", "expected [gen, exp]"),
    (["0", 1], "[0]", "expected an integer generator index"),
    ([0, 2], "[1]", "expected exponent 1 or -1"),
])
def test_bad_letter_of_a_long_word_is_named(bad, where, note):
    """A word is checked one condition per letter; the first bad letter,
    here the last of 400,000, is named with the path of its bad part."""
    word = [[i, 1] for i in range(399_999)] + [bad]
    with pytest.raises(ParseError) as caught:
        load_presentation({"cells": [1, 399_999, 1], "attach": {"2": [word]}})
    assert str(caught.value) == f"presentation.attach.2[0][399999]{where}: {note}"


def test_load_presentation_crossedword_schema():
    doc = {"cells": [1, 1, 1, 1],
           "attach": {"2": [[[0, 1]]], "3": [[[[[0, 1]], 0]]]}}
    with pytest.raises(ParseError, match="word, gen, exp"):
        load_presentation(doc)
    # equal to 1 or -1 but not JSON integers, or a power a 4-cell may carry
    for exp in (True, 1.0, -1.0, 2):
        doc = {"cells": [1, 1, 1, 1],
               "attach": {"2": [[[0, 1]]], "3": [[[[[0, 1]], 0, exp]]]}}
        with pytest.raises(ParseError, match=r"attach\.3\[0\]\[0\]\[2\].*exponent"):
            load_presentation(doc)


def test_load_presentation_moduleelt_schema():
    doc = {"cells": [1, 0, 0, 1, 1],
           "attach": {"3": [[]], "4": [[[True, [], 0]]]}}
    with pytest.raises(ParseError, match="coefficient"):
        load_presentation(doc)
    # power 2, which no 3-cell may carry, is a 4-cell coefficient
    doc["attach"]["4"] = [[[2, [], 0]]]
    assert load_presentation(doc).terms(4) == ((((), 0, 2),),)


def test_load_presentation_bool_cell_count():
    with pytest.raises(ParseError, match="integer"):
        load_presentation({"cells": [1, True]})


def test_read_json_reports_position(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"cells": [1,]}')
    with pytest.raises(ParseError, match="line 1"):
        read_json(f)


def test_read_json_round_trip(tmp_path):
    f = tmp_path / "ok.json"
    doc = dump_presentation(resolve_space("torus"))
    f.write_text(json.dumps(doc))
    assert read_json(f) == doc
