"""Acceptance gate: one test per criterion, one printed line per criterion.

The checks themselves live in xcomplex.selfcheck and are also reachable as
`xcomplex selfcheck`; this module runs them once per session and turns each
into its own pass/fail test with a visible summary line.
"""

import random

import pytest

from xcomplex import selfcheck
from xcomplex.complexes import validate
from xcomplex.errors import ValidationReport
from xcomplex.library import standard_coefficients

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
    monkeypatch.setattr(selfcheck, "validate", lambda cx: ValidationReport(ok=True))
    r = selfcheck.check_mutation_fuzzing()
    assert not r.ok
    assert "mutation not detected" in r.details
