"""Tests of the benchmark itself: its references and its failure accounting.

    python3 -m pytest perfbench

The references are checked against the package's brute-force oracle on
small instances; a run with a planted wrong answer must report it.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from xcomplex.documents import load_complex, load_presentation  # noqa: E402
from xcomplex.enumeration import count_homs_bruteforce  # noqa: E402


def _oracle(p, cx):
    return count_homs_bruteforce(load_presentation(p), load_complex(wl.complex_doc(cx)))


SMALL = [
    (wl.genus(2), wl.from_group(wl.s3())),
    (wl.TORUS, wl.from_group(wl.d4())),
    (wl.RP2, wl.cm_flip(3)),
    (wl.TORUS, wl.cm_incl(wl.s3(), [0, 3, 4], "a3-s3")),
    (wl.SPHERE2_TWO, wl.tower_flip(3, 3)),
    (wl.DISK3, wl.cm_cyclic_incl(8, 2)),
    (wl.wedge2(wl.DISK2, wl.TORUS), wl.cm_z3_on_v4()),
]


@pytest.mark.parametrize("p, cx", SMALL, ids=lambda x: x.get("name", ""))
def test_reference_count_matches_oracle(p, cx):
    rng = random.Random(1)
    cx = wl.relabel(cx, rng)
    assert reference.count_homs(p, cx) == _oracle(p, cx)
    assert len(reference.enumerate_homs(p, cx)) == _oracle(p, cx)


def test_relator_and_tower_references_match_oracle():
    rng = random.Random(2)
    for _ in range(6):
        words = wl.random_relators(rng, 3, [6, 4], rng.random() < 0.5)
        p = wl.pres([1, 3, 2], {2: words}, "r")
        for cx in (wl.from_group(wl.s3()), wl.cm_cyclic_incl(4, 2)):
            assert reference.count_homs(p, cx) == _oracle(p, cx)
    for _ in range(6):
        p = wl.random_tower_pres(rng, 2, 3, 2, 1, 1)
        cx = wl.relabel(wl.tower_flip(3, 3), rng)
        assert reference.count_homs(p, cx) == _oracle(p, cx)


@pytest.mark.parametrize("g", [2, 3])
def test_mednykh_matches_elimination(g):
    for group in (wl.s3(), wl.d4(), wl.product(2, 4)):
        assert reference.mednykh(group, g) == reference.count_homs(
            wl.genus(g), wl.from_group(group))


def test_generation_is_seeded():
    for name in wl.WORKLOADS:
        if name != "tower-enumerate":
            assert wl.generate(name, 7, None) == wl.generate(name, 7, None)
            assert wl.generate(name, 7, None) != wl.generate(name, 8, None)


def _small_run(monkeypatch, capsys, plant):
    """A short tower-enumerate run on four ops; `plant` corrupts one expected answer."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_RUNS_PER_SIDE", (1, 1))
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    generate, write_docs = wl.generate, run._write_docs
    monkeypatch.setattr(run.workloads, "generate", lambda *args: generate(*args)[:4])

    def planted(specs, work):
        ops, docs = write_docs(specs, work)
        ops[0].count += 1
        return ops, docs
    if plant:
        monkeypatch.setattr(run, "_write_docs", planted)
    run.run("tower-enumerate", 3, 0.0, 0)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_clean_run_checks_out(monkeypatch, capsys):
    out = _small_run(monkeypatch, capsys, plant=False)
    assert out["correct"] and out["failed"] == 0
    assert out["metrics"]["ok_frac"]["value"] == 1.0
    assert set(out["metrics"]) == {"setup_s", "ops_per_cpu_s", "op_p50_ms", "op_tail_ms",
                                   "peak_rss_mb", "ok_frac"}


def test_planted_wrong_answer_is_counted(monkeypatch, capsys):
    out = _small_run(monkeypatch, capsys, plant=True)
    assert not out["correct"]
    assert out["failed"] >= 1
    assert out["metrics"]["ok_frac"]["value"] < 1.0


def test_check_rejects_wrong_listing_and_classes():
    p, cx = wl.TORUS, wl.cm_flip(3)
    spec = {"command": "classes", "extra": [], "pres": p, "cx": cx}
    op = run.Op(spec, "p", "c", {"p": 1, "c": 1})
    good = {"result": {"count": 1, "sizes": [op.count],
                       "representatives": [[[0, 0], [0]]]}}
    assert op.check(good) is None
    bad_sum = {"result": dict(good["result"], sizes=[op.count - 1])}
    assert "sum" in op.check(bad_sum)
    bad_rep = {"result": dict(good["result"], representatives=[[[0, 0], [7]]])}
    assert "not a morphism" in op.check(bad_rep)
    spec = {"command": "count", "extra": ["--enumerate"], "pres": p, "cx": cx}
    op = run.Op(spec, "p", "c", {"p": 1, "c": 1})
    listed = [[list(layer) for layer in m] for m in op.morphisms]
    assert op.check({"result": {"count": op.count, "morphisms": listed}}) is None
    listed[0] = listed[1]
    assert op.check({"result": {"count": op.count, "morphisms": listed}})
