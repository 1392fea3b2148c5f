"""Acceptance gate: one test per criterion, one printed line per criterion.

The checks themselves live in xcomplex.selfcheck and are also reachable as
`xcomplex selfcheck`; this module runs them once per session and turns each
into its own pass/fail test with a visible summary line.
"""

import pytest

from xcomplex.selfcheck import run_all

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
    return {r.number: r for r in run_all()}


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
