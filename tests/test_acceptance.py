"""Acceptance gate: one test per criterion, one printed line per criterion.

The checks themselves live in xcomplex.selfcheck and are also reachable as
`xcomplex selfcheck`; this module runs them once per session and turns each
into its own pass/fail test with a visible summary line.
"""

import random

import pytest

from xcomplex import selfcheck
from xcomplex.complexes import validate
from xcomplex.errors import TargetNotMorphism, ValidationReport
from xcomplex.groups import cyclic_group
from xcomplex.library import standard_coefficients
from xcomplex.presentations import point

EXPECTED = [
    (1, "oracle equivalence"),
    (2, "decomposition invariance"),
    (3, "disk-wedge count identity"),
    (4, "euler characteristic identity"),
    (5, "named invariant values"),
    (6, "circle classes count pi1"),
    (7, "homotopy targets are morphisms"),
    (8, "mutation fuzzing names axioms"),
    (9, "cell relabelling invariance"),
]


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in selfcheck.run_all()}


@pytest.mark.parametrize("number,name", EXPECTED,
                         ids=[f"criterion-{n}-{t.replace(' ', '-')}"
                              for n, t in EXPECTED])
def test_criterion(results, number, name):
    r = results[number]
    status = "PASS" if r.ok else "FAIL"
    print(f"[{status}] criterion {r.number}: {r.name} ({r.details})")
    assert r.name == name
    assert r.ok, f"criterion {r.number} ({r.name}): {r.details}"


def test_all_nine_present(results):
    assert sorted(results) == list(range(1, 10))


def test_every_mutation_site_is_detected():
    """Every single-entry plant on the standard coefficients is caught and
    named; only a boundary entry with no hom-breaking value plants nothing."""
    rng = random.Random(8)
    sites = unplanted = 0
    for cx in standard_coefficients():
        for site in selfcheck._mutation_sites(cx):
            sites += 1
            planted = selfcheck._mutate(cx, site, rng)
            if planted is None:
                assert site[0] == "bd", site
                unplanted += 1
                continue
            mutated, expected = planted
            report = validate(mutated)
            assert not report.ok, (cx.name, site)
            assert report.names() & expected, (cx.name, site, report.names())
    assert sites == 144 and unplanted == 3


def test_mutation_fuzzing_can_fail(monkeypatch):
    """A validator that passes everything fails criterion 8."""
    monkeypatch.setattr(selfcheck, "validate", lambda cx: ValidationReport())
    r = selfcheck.check_mutation_fuzzing()
    assert not r.ok
    assert "mutation not detected" in r.details


def _raise_not_morphism(p, cx, f):
    raise TargetNotMorphism(f"planted target of {f}")


# (criterion, name in selfcheck, planted fault given the genuine function, label in details)
PLANTS = [
    (1, "count_homs", lambda real: lambda *a: real(*a) + 1, "mismatches"),
    (2, "invariant_ia", lambda real: lambda p, cx: real(p, cx) + sum(p.cells), "disagreements"),
    (3, "count_homs", lambda real: lambda *a: real(*a) + 1, "failures"),
    (4, "homotopy_orbit", lambda real: lambda *a: (real(*a)[0] + 1, real(*a)[1]), "mismatches"),
    (5, "invariant_ia", lambda real: lambda p, cx: real(p, cx) + sum(p.cells), "wrong"),
    (6, "pi1", lambda real: lambda cx: cyclic_group(real(cx).order + 1), "mismatches"),
    (7, "homotopy_orbit", lambda real: _raise_not_morphism, "failures"),
    (8, "validate", lambda real: lambda cx: ValidationReport([("CM1", (1,))]),
     "failures"),
    (9, "relabel_cells", lambda real: lambda p, perms: point(), "changed by relabelling"),
]


@pytest.mark.parametrize("number,name,plant,label", PLANTS,
                         ids=[f"criterion-{n}-{name}" for n, name, _, _ in PLANTS])
def test_every_criterion_can_fail(monkeypatch, number, name, plant, label):
    """A planted fault in what a criterion checks fails it, and its details
    name the failures after the criterion's label; criteria 4, 7 and 8 list
    at most five."""
    monkeypatch.setattr(selfcheck, name, plant(getattr(selfcheck, name)))
    check = [selfcheck.check_oracle_equivalence, selfcheck.check_decomposition_invariance,
             selfcheck.check_disk_wedge_counts, selfcheck.check_euler_identity,
             selfcheck.check_named_values, selfcheck.check_class_counts,
             selfcheck.check_connection_validity, selfcheck.check_mutation_fuzzing,
             selfcheck.check_relabelling_invariance][number - 1]
    r = check()
    assert (r.number, r.name) == EXPECTED[number - 1]
    assert not r.ok
    head, failures = r.details.split(f"; {label}: ")
    assert head and failures
    if number in (4, 7, 8):
        assert failures.count("; ") == 4
    if number == 8:
        assert "expected one of" in failures
