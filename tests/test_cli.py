"""End-to-end command tests through the installed entry point."""

import json
import os
import subprocess
import sys
import time

import pytest

from xcomplex.documents import dump_complex, dump_group, dump_presentation
from xcomplex.enumeration import enumerate_homs
from xcomplex.homotopies import homotopy_classes, homotopy_target
from xcomplex.library import (
    resolve_coefficients,
    resolve_space,
    standard_coefficients,
    standard_spaces,
)
from xcomplex.presentations import CWPresentation, rp2
from xcomplex.selfcheck import _conjugation_crossed_module


def run_cli(*args):
    """Run the CLI in a subprocess; returns (exit code, report dict, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "xcomplex.cli", *args], capture_output=True, text=True)
    report = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, report, proc.stderr


def forbid_listing(monkeypatch):
    """Make the layered search raise when it is built for a listing, which
    happens once the listing is admitted and before any colouring is
    visited; counts still search as before."""
    from xcomplex import enumeration

    class Unlisted(enumeration._Search):
        def __init__(self, p, cx, listing=False):
            if listing:
                raise AssertionError("listing started")
            super().__init__(p, cx)

    monkeypatch.setattr(enumeration, "_Search", Unlisted)


def test_count_torus_s3():
    code, report, _ = run_cli("count", "--presentation", "torus",
                              "--complex", "s3")
    assert code == 0
    assert report["command"] == "count"
    assert report["result"]["count"] == 18
    prov = report["inputs"]
    assert prov["presentation"]["source"] == "builtin:torus"
    assert len(prov["complex"]["sha256"]) == 64


def test_count_enumerate_lists_colourings():
    code, report, _ = run_cli("count", "--presentation", "disk:2",
                              "--complex", "cm-z4-z2-incl", "--enumerate")
    assert code == 0
    assert report["result"]["morphisms"] == [[[0], [0]], [[2], [1]]]


def test_count_oracle_agrees():
    code, report, _ = run_cli("count", "--presentation", "rp2",
                              "--complex", "s3", "--oracle")
    assert code == 0
    assert report["result"]["count"] == 4
    assert report["result"]["oracle"] == 4
    assert report["result"]["oracle_agrees"] is True


def test_invariant_values():
    code, report, _ = run_cli("invariant", "--presentation", "sphere:1",
                              "--complex", "cm-z4-z2-incl")
    assert code == 0
    res = report["result"]
    assert res["count"] == 4
    assert res["normalization"] == "1/2"
    assert res["invariant"] == "2"


def test_classes_circle():
    code, report, _ = run_cli("classes", "--presentation", "sphere:1",
                              "--complex", "cm-z4-z2-incl")
    assert code == 0
    res = report["result"]
    assert res["count"] == 2
    assert res["sizes"] == [2, 2]
    assert res["representatives"] == [[[0], []], [[1], []]]


def test_library_results_are_the_listed_colourings():
    """enumerate_homs, class representatives and homotopy targets are plain
    colourings, equal to the morphisms `count --enumerate` prints."""
    p, cx = rp2(), resolve_coefficients("cm-z2-z3-flip")
    code, report, _ = run_cli("count", "--presentation", "rp2",
                              "--complex", "cm-z2-z3-flip", "--enumerate")
    assert code == 0
    listed = [tuple(map(tuple, f)) for f in report["result"]["morphisms"]]
    homs = enumerate_homs(p, cx)
    assert homs == listed and len(homs) == 6
    assert all(f in listed for f in homotopy_classes(p, cx).representatives)
    for f in homs:
        assert homotopy_target(p, cx, f, ((0,),)) == f


def test_classes_twisted():
    code, report, _ = run_cli("classes", "--presentation", "rp2",
                              "--complex", "cm-z2-z3-flip")
    assert code == 0
    assert report["result"]["count"] == 4
    assert report["result"]["sizes"] == [3, 1, 1, 1]


def test_validate_builtin_trio():
    code, report, _ = run_cli(
        "validate", "--presentation", "torus", "--complex", "l3-z2",
        "--group", "s3")
    assert code == 0
    reports = report["result"]["reports"]
    assert reports["presentation"]["ok"] is True
    assert reports["complex"]["ok"] is True
    assert reports["group"]["ok"] is True


def test_validate_bad_group_file(tmp_path):
    f = tmp_path / "bad_group.json"
    f.write_text(json.dumps({"mul": [[0, 1], [1, 1]]}))
    code, report, stderr = run_cli("validate", "--group", str(f))
    assert code == 2
    assert report["result"]["reports"]["group"]["violations"] == \
        [["group-inverse", [1]]]


def test_validate_group_reports_every_failing_axiom(tmp_path):
    """Like `validate --complex`, `--group` names each failing axiom: this
    table lacks an inverse of 2 and is not associative at (1, 1, 2)."""
    f = tmp_path / "two_faults.json"
    f.write_text(json.dumps({"mul": [[0, 1, 2], [1, 0, 0], [2, 1, 1]]}))
    code, report, _ = run_cli("validate", "--group", str(f))
    assert code == 2
    assert report["result"]["reports"]["group"] == {
        "ok": False,
        "violations": [["group-inverse", [2]], ["group-associativity", [1, 1, 2]]]}


def test_non_associative_witness_at_both_entry_points(tmp_path):
    """make_group and `validate --complex` name a genuine violating triple.

    The witness (x, s, y) comes from Light's test on a generating set, so it
    need not be the lexicographically first violation: on this table that is
    (1, 2, 1), and only genuineness is asserted.  Identity and inverses hold.
    """
    from xcomplex.errors import NotAssociative
    from xcomplex.groups import make_group
    mul = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 0, 0], [3, 0, 0, 0]]

    def genuine(x, s, y):
        return mul[mul[x][s]][y] != mul[x][mul[s][y]]

    with pytest.raises(NotAssociative) as exc:
        make_group(mul)
    assert genuine(*exc.value.witness)
    f = tmp_path / "loop_complex.json"
    f.write_text(json.dumps({"L": 1, "groups": [{"mul": mul}],
                             "boundaries": [], "actions": []}))
    code, report, _ = run_cli("validate", "--complex", str(f))
    assert code == 2
    [[axiom, [n, x, s, y]]] = report["result"]["reports"]["complex"]["violations"]
    assert axiom == "group-associativity" and n == 1
    assert genuine(x, s, y)


def test_validate_broken_complex_file(tmp_path):
    doc = dump_complex(resolve_coefficients("cm-z4-z2-incl"))
    doc["boundaries"] = [[0, 1]]
    f = tmp_path / "broken_complex.json"
    f.write_text(json.dumps(doc))
    code, report, _ = run_cli("validate", "--complex", str(f))
    assert code == 2
    names = [v[0] for v in report["result"]["reports"]["complex"]["violations"]]
    assert "boundary-hom" in names


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc["boundaries"][0].__setitem__(1, 7),
     "complex.boundaries[0][1]: image value 7 out of range 0..3"),
    (lambda doc: doc["actions"][0][1].__setitem__(0, -1),
     "complex.actions[0][1][0]: action value -1 out of range 0..1"),
    (lambda doc: doc["actions"][0][1].pop(), "complex.actions[0][1]: expected 2 entries"),
], ids=["boundaries", "actions", "ragged-action"])
def test_out_of_range_table_entry_is_input_error(tmp_path, edit, error):
    """An entry outside its group, or an action row of the wrong length, is
    a document error naming its path, as an out-of-range `mul` entry is,
    under every command that loads it."""
    doc = dump_complex(resolve_coefficients("cm-z4-z2-incl"))
    edit(doc)
    f = tmp_path / "complex.json"
    f.write_text(json.dumps(doc))
    for argv in (("validate", "--complex", str(f)),
                 ("count", "--presentation", "torus", "--complex", str(f))):
        code, report, _ = run_cli(*argv)
        assert code == 1, argv
        assert report["result"]["error"] == error


def test_validate_needs_an_input():
    code, report, stderr = run_cli("validate")
    assert code == 1
    assert "error" in report["result"]


def test_check_boundaries_needs_both_inputs(capsys):
    from xcomplex import cli

    code = cli.main(["validate", "--check-boundaries", "--presentation", "torus"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["result"]["error"] == \
        "--check-boundaries needs a valid --presentation and --complex"


def test_group_builtin_longer_than_one_degree_is_input_error(capsys):
    from xcomplex import cli

    code = cli.main(["validate", "--group", "cm-z4-z2-incl"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["result"]["error"] == \
        "'cm-z4-z2-incl' is not a group document or group name"


def test_malformed_json_is_input_error(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, report, stderr = run_cli("count", "--presentation", str(f),
                                   "--complex", "z2")
    assert code == 1
    assert "line 1" in report["result"]["error"]


def test_unknown_builtin_is_input_error():
    code, report, _ = run_cli("count", "--presentation", "klein-bottle",
                              "--complex", "z2")
    assert code == 1
    assert "klein-bottle" in report["result"]["error"]


def test_file_inputs_match_builtins(tmp_path):
    pf = tmp_path / "torus.json"
    cf = tmp_path / "s3.json"
    pf.write_text(json.dumps(dump_presentation(resolve_space("torus"))))
    cf.write_text(json.dumps(dump_complex(resolve_coefficients("s3"))))
    code, report, _ = run_cli("count", "--presentation", str(pf),
                              "--complex", str(cf))
    assert code == 0
    assert report["result"]["count"] == 18
    assert report["inputs"]["presentation"]["source"] == str(pf)


_OPENS = None  # the paths of "open" audit events while a test collects them


def _audit(event, args):
    if event == "open" and _OPENS is not None:
        _OPENS.append(args[0])


sys.addaudithook(_audit)


def test_each_document_is_opened_once(tmp_path, capsys):
    """Two file documents cost two opens: each is opened once, checked,
    read, hashed and parsed from the same bytes."""
    global _OPENS
    from xcomplex import cli

    pf, cf = tmp_path / "torus.json", tmp_path / "s3.json"
    pf.write_text(json.dumps(dump_presentation(resolve_space("torus"))))
    cf.write_text(json.dumps(dump_complex(resolve_coefficients("s3"))))
    _OPENS = []
    try:
        code = cli.main(["count", "--presentation", str(pf), "--complex", str(cf)])
        opens = _OPENS
    finally:
        _OPENS = None
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == 18
    assert opens == [str(pf), str(cf)]


def test_provenance_hash_is_of_the_file_bytes(tmp_path):
    import hashlib

    f = tmp_path / "torus.json"
    f.write_bytes(b"  " + json.dumps(dump_presentation(resolve_space("torus"))).encode() + b"\n")
    code, report, _ = run_cli("count", "--presentation", str(f), "--complex", "z2")
    assert code == 0
    assert report["inputs"]["presentation"] == {
        "source": str(f), "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}


def _not_regular(tmp_path, kind):
    """A ref that names no regular file: it is looked up as a builtin name."""
    if kind == "directory":
        return str(tmp_path)
    if kind == "symlink loop":
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        return str(tmp_path / "a")
    return {"device": "/dev/null", "missing": str(tmp_path / "missing.json"),
            "nul byte": "a\0b.json"}[kind]


@pytest.mark.parametrize("kind", ["directory", "symlink loop", "device", "missing", "nul byte"])
def test_a_ref_that_is_no_regular_file_is_a_builtin_name(tmp_path, capsys, kind):
    from xcomplex import cli

    ref = _not_regular(tmp_path, kind)
    assert cli.main(["count", "--presentation", ref, "--complex", "z2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["result"] == {"error": f"unknown builtin space '{ref}'"}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_is_a_builtin_name_and_never_waited_on(tmp_path):
    """A FIFO with no writer: a blocking open would wait for one, so the
    run has a timeout that fails the test instead of hanging the suite."""
    fifo = tmp_path / "pipe.json"
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "xcomplex.cli", "validate", "--presentation", str(fifo)],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert len(proc.stdout.splitlines()) == 1
    assert json.loads(proc.stdout)["result"] == {"error": f"unknown builtin space '{fifo}'"}


def test_group_document_round_trip(tmp_path):
    from xcomplex.groups import symmetric_group_3
    f = tmp_path / "s3.json"
    f.write_text(json.dumps(dump_group(symmetric_group_3())))
    code, report, _ = run_cli("validate", "--group", str(f))
    assert code == 0
    assert report["result"]["reports"]["group"]["ok"] is True


def test_enumerate_cap_exceeded():
    code, report, _ = run_cli("count", "--presentation", "sphere:1",
                              "--complex", "s3", "--enumerate", "--cap", "3")
    assert code == 3
    assert "cap" in report["result"]["error"]


def test_classes_cap_bounds_the_edge_walk(tmp_path):
    """genus:2 against S3 acting on itself by conjugation, with the
    identity as boundary, is counted in 618 transitions (A_1 = S3 is not
    abelian, so its word is planned as given) and has 6^4 = 1296
    morphisms with 4 x 2 generator edges each: each cap below is refused
    in turn, with nothing but the error in the result."""
    path = tmp_path / "s3-conj.json"
    path.write_text(json.dumps(dump_complex(_conjugation_crossed_module())))
    argv = ("classes", "--presentation", "genus:2", "--complex", str(path))
    for cap, error in ((617, "elimination estimate 618 exceeds cap 617"),
                       (1295, "more than 1295 morphisms; raise the cap to list them"),
                       (10367, "1296 morphisms x 8 generator edges = 10368 edges"
                               " exceeds edge cap 10367")):
        code, report, _ = run_cli(*argv, "--cap", str(cap))
        assert code == 3
        assert report["result"] == {"error": error}
    code, report, _ = run_cli(*argv, "--cap", "10368")
    assert code == 0
    assert report["result"]["count"] == 1


def test_oversized_listing_is_refused_before_it_starts(monkeypatch, capsys):
    """genus:6 x cm-z4-z2-incl has 4^12 morphisms: the listing's own count
    refuses them, so neither command starts the listing, and count
    --enumerate, which counts only through its listing, reports no count.
    Over the abelian A_1 = Z/4 the genus word's exponent sums vanish: the
    diagonal engine, estimate 0."""
    from xcomplex import cli

    forbid_listing(monkeypatch)
    pair = ["--presentation", "genus:6", "--complex", "cm-z4-z2-incl"]
    for argv in (["classes"], ["count", "--enumerate"]):
        assert cli.main(argv + pair) == 3
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["error"] == "more than 1000000 morphisms; raise the cap to list them"
    assert result == {"engine": "diagonal", "estimate": 0,
                      "error": "more than 1000000 morphisms; raise the cap to list them"}


def test_listing_walk_is_refused_before_it_starts(tmp_path, monkeypatch, capsys):
    """A listing visits all |A_1|^{l_1} layer-1 colourings, however few
    morphisms there are.  Six 1-cells killed by the relators x_i against
    s3 have one morphism over 6^6 = 46656 colourings, counted at estimate 0
    since each relator collapses on its cell; with a 4-cell added,
    ten such 1-cells against Z/2, 1, 1 have one morphism over 2^10 = 1024.
    Above --cap 1000, classes, count --enumerate and validate
    --check-boundaries refuse the walk with exit 3 before listing; at the
    walk's size they list."""
    from xcomplex import cli
    from xcomplex.complexes import FiniteCrossedComplex
    from xcomplex.groups import cyclic_group, trivial_action, zero_hom

    killed = tmp_path / "killed.json"
    killed.write_text(json.dumps(dump_presentation(CWPresentation(
        (1, 6, 6), attach2=tuple(((g, 1),) for g in range(6))))))
    with_4cell = tmp_path / "with-4-cell.json"
    with_4cell.write_text(json.dumps(dump_presentation(CWPresentation(
        (1, 10, 10, 0, 1), attach2=tuple(((g, 1),) for g in range(10)),
        attach_terms=((), ((),))))))
    z2, z1 = cyclic_group(2), cyclic_group(1)
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps(dump_complex(FiniteCrossedComplex(
        (z2, z1, z1), (zero_hom(z1, z2), zero_hom(z1, z1)),
        (trivial_action(z2, z1), trivial_action(z2, z1))))))
    runs = [(["classes", "--presentation", str(killed), "--complex", "s3"], 46656, {}),
            (["count", "--enumerate", "--presentation", str(killed), "--complex", "s3"],
             46656, {"engine": "elimination", "estimate": 0}),
            (["validate", "--check-boundaries", "--presentation", str(with_4cell),
              "--complex", str(tower)], 1024, {})]
    with monkeypatch.context() as patched:
        forbid_listing(patched)
        for argv, walk, fields in runs:
            assert cli.main(argv + ["--cap", "1000"]) == 3, argv
            result = json.loads(capsys.readouterr().out)["result"]
            assert result == {
                **fields, "error": f"listing walk of {walk} layer-1 colourings"
                                   " exceeds cap 1000"}, argv
    for argv, walk, _ in runs:
        assert cli.main(argv + ["--cap", str(walk)]) == 0, argv
        capsys.readouterr()


def test_chained_collapse_is_linear(tmp_path, capsys):
    """100,000 relators x_i x_{i+1}^-1, the last x_{n-1} x_n x_n, listed
    last first: only x_0 is used once at the start, and each removal
    exposes the next cell, so the whole chain collapses one relator at a
    time.  Planning runs before --cap is weighed, so it must stay linear in
    the letters; it plans and counts within seconds: estimate 0, and |A_1|
    morphisms, since each relator weighs 1 at L = 1.  Over the abelian z2
    the exponent-sum rows collapse alike for the diagonal engine."""
    from xcomplex import cli

    n = 100_000
    words = [[[i, 1], [i + 1, -1]] for i in range(n - 1)] + [[[n - 1, 1], [n, 1], [n, 1]]]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"cells": [1, n + 1, n], "attach": {"2": words[::-1]}}))
    for coeff, engine, count in (("z2", "diagonal", 2), ("s3", "elimination", 6)):
        started = time.process_time()
        assert cli.main(["count", "--presentation", str(path), "--complex", coeff]) == 0
        assert time.process_time() - started < 5
        result = json.loads(capsys.readouterr().out)["result"]
        assert result == {"engine": engine, "estimate": 0, "count": count}


def test_long_peak_is_estimated_by_its_magnitude(tmp_path, capsys):
    """One relator x_1..x_n x_1..x_n against s3, n = 200,000: every cell is
    live through the second half, so the states peak at 6^n.  Planning runs
    before --cap is weighed, and summing one power per exponent up to that
    peak is quadratic in n; past 4,300 digits the estimate is the bound
    letters x 6^n instead, refused by its magnitude within seconds.  S3 is
    not abelian: over an abelian A_1 the word would be planned as x_1^2 ..
    x_n^2, or as nothing over Z/2."""
    from xcomplex import cli

    n = 200_000
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps({"cells": [1, n, 1], "attach": {"2": [[[i, 1] for i in range(n)] * 2]}}))
    started = time.process_time()
    assert cli.main(["count", "--presentation", str(path), "--complex", "s3"]) == 3
    assert time.process_time() - started < 5
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"engine": "elimination", "estimate": "about 10^155635",
                      "error": "elimination estimate about 10^155635 exceeds cap 1000000"}


def test_classes_refuses_the_walk_before_the_edges(tmp_path, capsys):
    """Six 1-cells with the relators x_i against cm-z4-z2-incl: 64
    morphisms, estimate 0 (each relator collapses on its cell), a walk of
    4^6 = 4096 layer-1 colourings and 64 x 6 = 384 generator edges.  At
    --cap 100 both the walk and the edges exceed the cap; the walk is
    weighed first."""
    from xcomplex import cli

    path = tmp_path / "killed.json"
    path.write_text(json.dumps(dump_presentation(CWPresentation(
        (1, 6, 6), attach2=tuple(((g, 1),) for g in range(6))))))
    argv = ["classes", "--presentation", str(path), "--complex", "cm-z4-z2-incl"]
    assert cli.main(argv + ["--cap", "100"]) == 3
    assert json.loads(capsys.readouterr().out)["result"] == {
        "error": "listing walk of 4096 layer-1 colourings exceeds cap 100"}
    assert cli.main(argv + ["--cap", "4096"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert sum(result["sizes"]) == 64


def test_boundary_sweep_counts_each_truncation_before_listing(tmp_path, monkeypatch, capsys):
    """k free 3-cells with empty Terms plus one 4-cell against l3-z2: the
    truncation below the 4-cell has 2^k morphisms over a single layer-1
    colouring.  validate --check-boundaries counts them and refuses the
    listing with exit 3 before it starts, for k = 18 at --cap 1000 and for
    k = 22 (4,194,304 morphisms) at the default cap."""
    from xcomplex import cli

    forbid_listing(monkeypatch)
    for k, cap in ((18, 1000), (22, None)):
        path = tmp_path / f"free-{k}.json"
        path.write_text(json.dumps(dump_presentation(CWPresentation(
            (1, 0, 0, k, 1), attach_terms=(((),) * k, ((),))))))
        argv = ["validate", "--check-boundaries", "--presentation", str(path),
                "--complex", "l3-z2"] + (["--cap", str(cap)] if cap else [])
        assert cli.main(argv) == 3, k
        want = cap or 10**6
        assert json.loads(capsys.readouterr().out)["result"] == {
            "error": f"more than {want} morphisms; raise the cap to list them"}, k


def test_oversized_count_is_refused_before_it_starts(tmp_path, capsys):
    """a1..a20 a1..a20 with 40 free 1-cells against s3 would grow a state
    table of up to 6^20 entries: count and invariant refuse the chosen
    engine's estimate against the cap, name it, and never start counting;
    classes refuses it too, with the error alone in its result."""
    from xcomplex import cli

    word = tuple((g, 1) for g in range(20)) * 2
    path = tmp_path / "long.json"
    path.write_text(json.dumps(dump_presentation(CWPresentation((1, 60, 1), attach2=(word,)))))
    for command in ("count", "invariant"):
        started = time.process_time()
        code = cli.main([command, "--presentation", str(path), "--complex", "s3"])
        assert time.process_time() - started < 1.0
        assert code == 3
        result = json.loads(capsys.readouterr().out)["result"]
        assert result == {"engine": "elimination", "estimate": 12430938696214110,
                          "error": "elimination estimate 12430938696214110 exceeds cap 1000000"}
    started = time.process_time()
    assert cli.main(["classes", "--presentation", str(path), "--complex", "s3"]) == 3
    assert time.process_time() - started < 1.0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "error": "elimination estimate 12430938696214110 exceeds cap 1000000"}
    # torus x s3 is estimated at 6 + 3 * 6^2 = 114 transitions
    for cap, code in ((113, 3), (114, 0)):
        assert cli.main(["count", "--presentation", "torus", "--complex", "s3",
                         "--cap", str(cap)]) == code
        capsys.readouterr()


def test_count_plans_once(monkeypatch, capsys):
    """count and invariant plan once: count_homs runs the plan whose engine
    and estimate the report names.  classes plans once, in the listing's
    admission; count --enumerate plans for its report and again in the
    listing's own admission."""
    from xcomplex import cli, enumeration

    calls = []
    real = enumeration.count_engine

    def counted(p, cx):
        calls.append(p.name)
        return real(p, cx)

    monkeypatch.setattr(enumeration, "count_engine", counted)
    monkeypatch.setattr(cli, "count_engine", counted)
    for argv, plans in ((["count"], 1), (["invariant"], 1), (["classes"], 1),
                        (["count", "--enumerate"], 2)):
        calls.clear()
        assert cli.main(argv + ["--presentation", "genus:2", "--complex", "s3"]) == 0
        capsys.readouterr()
        assert len(calls) == plans, argv


def test_cap_past_digit_limit_is_input_error():
    """The cap is parsed under CPython's int/str digit limit, before main
    lifts it for the command."""
    code, report, _ = run_cli(
        "count", "--presentation", "torus", "--complex", "s3", "--cap", "9" * 5000)
    assert code == 1
    assert report["result"]["error"].startswith("argument --cap: invalid int value: '999")


@pytest.fixture
def exact_ints():
    """This process without CPython's int/str digit limit, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    yield
    if limit:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", ["count", "invariant"])
def test_exact_answer_past_digit_limit(tmp_path, exact_ints, command):
    """2^20000 has 6,021 digits, past CPython's default limit of 4,300."""
    f = tmp_path / "wide.json"
    f.write_text('{"cells": [1, 20000]}')
    code, report, stderr = run_cli(command, "--presentation", str(f), "--complex", "z2")
    assert code == 0, stderr
    assert report["result"]["count"] == 2 ** 20000
    if command == "invariant":
        assert report["result"]["invariant"] == str(2 ** 20000)


def test_oversized_answers_are_refused_before_planning(tmp_path):
    """2^(10^12) morphisms, with or without a killed 3-cell on top, and
    2^20000000 (6,020,600 digits): each answer's digits are weighed from
    the cell counts and group orders, and refused with exit 3 before any
    plan is made or any number of that size is built, in a process
    limited to 1 GiB of address space.  So is the truncation that the
    boundary sweep would count below a 4-cell.  Just under the digit cap,
    2^3300000 (993,400 digits) passes the weighing of count and classes,
    whose estimate is then refused by its magnitude, and of the sweep,
    whose count of that size is refused as too many morphisms to list:
    every run ends within seconds, where printing the estimate or the
    count in decimal would take minutes."""
    import resource

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    docs = {"wide": {"cells": [1, 10**12]},
            "killed": {"cells": [1, 10**12, 0, 1], "attach": {"3": [[]]}},
            "long": {"cells": [1, 20_000_000]},
            "sweep": {"cells": [1, 10**12, 0, 0, 1], "attach": {"4": [[]]}},
            "near": {"cells": [1, 3_300_000, 0, 1], "attach": {"3": [[]]}},
            "near-sweep": {"cells": [1, 3_300_000, 0, 0, 1], "attach": {"4": [[]]}}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    answer, estimate = "answer of up to ", "backtrack estimate about 10^993398 exceeds"
    runs = [("count", "wide", "z2", answer), ("invariant", "wide", "z2", answer),
            ("classes", "wide", "z2", answer), ("count", "killed", "l3-z2", answer),
            ("count", "long", "z2", answer),
            ("invariant", "long", "z2", answer, "--cap", "1000"),
            ("validate", "sweep", "l3-z2", answer, "--check-boundaries"),
            ("count", "near", "l3-z2", estimate),
            ("count", "near", "l3-z2", estimate, "--enumerate", "--oracle"),
            ("invariant", "near", "l3-z2", answer), ("classes", "near", "l3-z2", estimate),
            ("validate", "near-sweep", "l3-z2",
             "more than 1000000 morphisms; raise the cap to list them", "--check-boundaries")]
    for command, name, complex_, error, *rest in runs:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "xcomplex.cli", command, "--presentation",
             str(tmp_path / f"{name}.json"), "--complex", complex_, *rest],
            capture_output=True, text=True, timeout=60, preexec_fn=limited)
        assert time.perf_counter() - started < 5.0, (command, name)
        assert proc.returncode == 3, (command, name, proc.stderr)
        result = json.loads(proc.stdout)["result"]
        assert result["error"].startswith(error), (command, name)
        if command == "count" and name == "near":
            assert result["estimate"] == "about 10^993398"
        else:
            assert list(result) == ["error"], (command, name)


@pytest.mark.parametrize("argv", [["count"], ["invariant"], ["classes"],
                                  ["count", "--enumerate"]])
@pytest.mark.parametrize("cells, complex_, digits", [
    (10**400, "z2", 10**400 + 1), (17 * 10**307, "z100", 34 * 10**307 + 1)],
    ids=["cells-past-a-float", "digits-past-a-float"])
def test_answer_past_a_floats_range_is_refused(tmp_path, capsys, argv, cells, complex_, digits):
    """2^(10^400) morphisms, whose cell count is past a float's range, and
    100^(1.7 * 10^308), whose digits are: each answer's digits are weighed
    by integer logarithms and refused (exit 3)."""
    from xcomplex import cli

    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"cells": [1, cells]}))
    assert cli.main([*argv, "--presentation", str(f), "--complex", complex_]) == 3
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"error": f"answer of up to {digits} digits exceeds cap 1000000"}


@pytest.mark.parametrize("argv, fields", [
    (["classes"], {}),
    (["count", "--enumerate"], {"engine": "diagonal", "estimate": 0}),
    (["count", "--oracle"], {"engine": "diagonal", "estimate": 0, "count": 1})],
    ids=["classes", "enumerate", "oracle"])
def test_walk_over_a_trivial_group_is_refused_by_its_entries(tmp_path, capsys, argv, fields):
    """10^400 free 1-cells against the group of order 1: one morphism of a
    one-digit answer over one layer-1 colouring, but that colouring holds
    10^400 entries, past what a listing or a sweep can build.  Each walk is
    refused (exit 3) before it starts, not crash sizing its colourings."""
    from xcomplex import cli

    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"cells": [1, 10**400]}))
    assert cli.main([*argv, "--presentation", str(f), "--complex", "z:1"]) == 3
    result = json.loads(capsys.readouterr().out)["result"]
    what = "brute-force colourings of {} entries each exceed" if "--oracle" in argv \
        else "listing of colourings of {} entries each exceeds"
    assert result == {**fields, "error": what.format(10**400) + " cap 1000000"}


def test_abelian_genus_word_vanishes(capsys):
    """genus:20 against Z/200: over an abelian A_1 the genus word's
    exponent sums vanish, so the diagonal engine has no row to reduce,
    estimate 0, and counts at once 200^40; elimination of the word as
    given takes 305,640,200 transitions, past the default cap."""
    from xcomplex import cli

    started = time.process_time()
    assert cli.main(["count", "--presentation", "genus:20", "--complex", "z:200"]) == 0
    assert time.process_time() - started < 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"engine": "diagonal", "estimate": 0, "count": 200**40}


def test_main_restores_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    from xcomplex import cli
    assert cli.main(["count", "--presentation", "torus", "--complex", "s3"]) == 0
    assert cli.main(["count", "--presentation", "no-such-space", "--complex", "s3"]) == 1
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    capsys.readouterr()


def test_main_back_to_back_shares_one_parser(capsys):
    """The parser built for the first call serves every later one: each
    call still reports its own command, answer and exit code."""
    from xcomplex import cli

    runs = (
        (["count", "--presentation", "torus", "--complex", "s3"], 0, "count", 18),
        (["classes", "--presentation", "sphere:1", "--complex", "cm-z4-z2-incl"],
         0, "classes", 2),
        (["invariant", "--presentation", "sphere:1", "--complex", "cm-z4-z2-incl"],
         0, "invariant", 4),
        (["count", "--presentation", "torus", "--complex", "s3", "--threads", "2"],
         1, None, None),
    )
    for argv, code, command, count in runs:
        assert cli.main(argv) == code
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == command
        if code:
            assert "--threads" in report["result"]["error"]
        else:
            assert report["result"]["count"] == count
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("flag,name", [
    ("--presentation", "sphere:0"),
    ("--presentation", "disk:1"),
    ("--complex", "z0"),
])
def test_out_of_range_builtin_is_input_error(flag, name):
    args = {"--presentation": "torus", "--complex": "z2", flag: name}
    code, report, _ = run_cli("count", *[x for kv in args.items() for x in kv])
    assert code == 1
    assert name in report["result"]["error"]


@pytest.mark.parametrize("flag,name,entries", [
    ("--complex", "z60000", 3_600_000_000),
    ("--presentation", "genus:3000000", 12_000_000),
])
def test_oversized_builtin_is_refused_before_it_is_built(flag, name, entries):
    """zN is weighed by its N^2 table entries and genus:G by its 4G word
    letters: past the cap the run ends in a report with exit 3, not in a
    MemoryError, and names the refused builtin without building it."""
    args = {"--presentation": "point", "--complex": "z2", flag: name}
    started = time.process_time()
    code, report, _ = run_cli("count", *[x for kv in args.items() for x in kv])
    assert time.process_time() - started < 1.0
    assert code == 3
    assert report["result"] == {
        "error": f"builtin '{name}' holds {entries} entries, more than the cap 1000000"}
    assert flag.lstrip("-") not in report["inputs"]


def test_builtin_sizes_meet_the_cap_inclusively(capsys):
    from xcomplex import cli

    for flag, name, entries in (("--complex", "z4", 16), ("--presentation", "sphere:3", 4),
                                ("--presentation", "disk:3", 4),
                                ("--presentation", "genus:2", 8)):
        assert cli.main(["validate", flag, name, "--cap", str(entries)]) == 0
        assert cli.main(["validate", flag, name, "--cap", str(entries - 1)]) == 3
    capsys.readouterr()


def test_a_name_too_long_for_a_file_is_a_builtin_name(capsys):
    """A ref too long to be a file name names no regular file, so it
    resolves as a builtin: sphere with a 300-digit size is refused on its
    entries (exit 3), and 300 x's are an unknown builtin (exit 1)."""
    from xcomplex import cli

    name = "sphere:" + "9" * 300
    assert cli.main(["count", "--presentation", name, "--complex", "z2"]) == 3
    assert json.loads(capsys.readouterr().out)["result"] == {
        "error": f"builtin '{name}' holds {10 ** 300} entries, more than the cap 1000000"}
    ref = "x" * 300
    assert cli.main(["validate", "--presentation", ref]) == 1
    assert json.loads(capsys.readouterr().out)["result"] == {
        "error": f"unknown builtin space '{ref}'"}


def test_negative_cap_is_input_error():
    code, report, _ = run_cli("count", "--presentation", "torus", "--complex",
                              "s3", "--enumerate", "--cap", "-5")
    assert code == 1
    assert report["result"]["error"] == "--cap -5 is negative"
    code, report, _ = run_cli("count", "--presentation", "torus", "--complex",
                              "s3", "--enumerate", "--cap", "x")
    assert code == 1
    assert report["result"]["error"] == "argument --cap: invalid int value: 'x'"


@pytest.mark.parametrize("command", ["count", "invariant"])
def test_negative_cap_is_input_error_without_enumeration(command):
    """The cap is read up front, also when nothing enumerates."""
    code, report, _ = run_cli(command, "--presentation", "torus", "--complex",
                              "s3", "--cap", "-5")
    assert code == 1
    assert "--cap -5" in report["result"]["error"]
    assert "count" not in report["result"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "xcomplex", "count", "--presentation",
                           "torus", "--complex", "s3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["count"] == 18


def test_usage_error_is_input_error():
    code, report, stderr = run_cli("count", "--presentation", "torus",
                                   "--complex", "s3", "--threads", "2")
    assert code == 1
    assert report["command"] is None
    assert "--threads" in report["result"]["error"]
    assert "usage:" in stderr
    code, report, stderr = run_cli("invariant", "--presentation", "rp2",
                                   "--complex", "cm-z2-z3-flip", "--euler")
    assert code == 1
    assert "--euler" in report["result"]["error"]
    for command in ("library", "selfcheck"):  # neither reads a cap
        code, report, _ = run_cli(command, "--cap", "3")
        assert code == 1
        assert "--cap" in report["result"]["error"]
    shown = subprocess.run([sys.executable, "-m", "xcomplex.cli", "count", "--help"],
                           capture_output=True, text=True)
    assert shown.returncode == 0
    assert "--presentation" in shown.stdout


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    from xcomplex import cli

    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "count_homs", broken)
    code = cli.main(["count", "--presentation", "torus", "--complex", "s3"])
    out, err = capsys.readouterr()
    assert code == 4
    assert json.loads(out)["result"]["error"] == "internal error: RuntimeError: planted"
    assert "Traceback" in err


def test_oracle_disagreeing_count_is_internal_error(monkeypatch, capsys):
    """count --oracle fails the run when the brute-force sweep differs."""
    from xcomplex import cli

    real = cli.count_homs
    monkeypatch.setattr(cli, "count_homs", lambda p, cx, plan=None: real(p, cx, plan) + 1)
    code = cli.main(["count", "--presentation", "torus", "--complex", "s3", "--oracle"])
    out, _ = capsys.readouterr()
    assert code == 4
    assert json.loads(out)["result"]["error"] == \
        "internal check failed: oracle disagrees: fast 19, brute 18"


def test_enumerate_disagreeing_count_is_internal_error(monkeypatch, capsys):
    """count --enumerate lists through enumerate_homs, which checks the
    listing's length against its own count."""
    from xcomplex import cli, enumeration

    real = enumeration.count_homs
    monkeypatch.setattr(enumeration, "count_homs",
                        lambda p, cx, plan=None: real(p, cx, plan) + 1)
    code = cli.main(["count", "--presentation", "genus:2", "--complex", "z2",
                     "--enumerate"])
    out, _ = capsys.readouterr()
    assert code == 4
    assert "listing disagrees" in json.loads(out)["result"]["error"]


def test_reports_are_deterministic():
    """Equal reports apart from timing, naming the engine that counted and
    its estimate."""
    for command, space, coeff, engine, estimate in (
            # over the abelian Z/4 the torus word vanishes
            ("invariant", "torus", "cm-z4-z2-incl", "diagonal", 0),
            # a 3-cell below the kill dimension; one layer-1 colouring
            ("invariant", "disk:3", "cm-z2-z2-zero", "backtrack", 1),
            ("invariant", "genus:2", "s3", "elimination", 618),
            ("count", "disk:3", "l3-z2", "backtrack", 1),
            ("count", "genus:3", "z3", "diagonal", 0)):
        _, a, _ = run_cli(command, "--presentation", space, "--complex", coeff)
        _, b, _ = run_cli(command, "--presentation", space, "--complex", coeff)
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b
        assert (a["result"]["engine"], a["result"]["estimate"]) == (engine, estimate), \
            (command, space, coeff)


def test_library_lists_builtins():
    code, report, stderr = run_cli("library")
    assert code == 0
    assert "torus (1,2,1)" in stderr
    names = [s["name"] for s in report["result"]["spaces"]]
    assert "torus" in names and "sphere2-two-cells" in names
    coeffs = {c["name"]: c for c in report["result"]["coefficients"]}
    assert coeffs["l3-z2"]["orders"] == [2, 2, 2]


def test_library_names_resolve():
    """Every name `library` lists resolves to that member of the standard suites."""
    _, report, _ = run_cli("library")
    result = report["result"]
    for listed, resolve, suite in (
            (result["spaces"], resolve_space, standard_spaces()),
            (result["coefficients"], resolve_coefficients, standard_coefficients())):
        assert len(listed) == len(suite)
        for entry, member in zip(listed, suite):
            obj = resolve(entry["name"])
            assert obj == member and obj.name == member.name, entry["name"]


def defect_documents(tmp_path):
    """Tower with d3 = id plus a 4-cell whose data escapes ker d3."""
    from xcomplex.complexes import FiniteCrossedComplex
    from xcomplex.groups import GroupHom, cyclic_group, trivial_action, zero_hom
    from xcomplex.presentations import CWPresentation
    z2 = cyclic_group(2)
    cx = FiniteCrossedComplex(
        (z2, z2, z2),
        (zero_hom(z2, z2), GroupHom(z2, z2, (0, 1))),
        (trivial_action(z2, z2), trivial_action(z2, z2)),
    )
    p = CWPresentation(
        (1, 0, 1, 1, 1),
        attach2=((),),
        attach_terms=(((((), 0, 1),),), ((((), 0, 1),),)),
    )
    pf = tmp_path / "presentation.json"
    cf = tmp_path / "complex.json"
    pf.write_text(json.dumps(dump_presentation(p)))
    cf.write_text(json.dumps(dump_complex(cx)))
    return pf, cf


def test_check_boundaries_clean():
    code, report, _ = run_cli("validate", "--presentation", "disk:4",
                              "--complex", "l3-z2", "--check-boundaries")
    assert code == 0
    assert report["result"]["reports"]["boundary-defects"] == []


def test_check_boundaries_planted(tmp_path):
    pf, cf = defect_documents(tmp_path)
    code, report, _ = run_cli("validate", "--presentation", str(pf),
                              "--complex", str(cf), "--check-boundaries")
    assert code == 2
    defects = report["result"]["reports"]["boundary-defects"]
    assert defects == [{"dimension": 4, "cell": 0,
                        "colours": [[], [1], [1]], "value": 1}]


def test_selfcheck_passes():
    code, report, stderr = run_cli("selfcheck")
    assert code == 0
    criteria = report["result"]["criteria"]
    assert len(criteria) == 9
    assert all(c["ok"] for c in criteria)
    assert stderr.count("[PASS]") == 9
    assert report["result"]["ok"] is True


@pytest.mark.parametrize("bad", [("presentation",), ("complex",),
                                 ("presentation", "complex")], ids="+".join)
@pytest.mark.parametrize("command", ["count", "invariant", "classes"])
def test_computing_command_reports_only_failing_inputs(tmp_path, capsys, command, bad):
    """An invalid --presentation or --complex ends in exit 2, before any
    count, with the violations of exactly the inputs that fail."""
    from xcomplex import cli
    broken = dump_complex(resolve_coefficients("cm-z4-z2-incl"))
    broken["boundaries"] = [[0, 1]]
    documents = {
        "presentation": ({"cells": [1, 1, 1], "attach": {"2": [[[5, 1]]]}},
                         [["generator-range", [2, 0, 0, 5]]]),
        "complex": (broken, [["boundary-hom", [2, 1, 1]]]),
    }
    argv = [command, "--presentation", "sphere:2", "--complex", "cm-z4-z2-incl"]
    for kind in bad:
        f = tmp_path / f"{kind}.json"
        f.write_text(json.dumps(documents[kind][0]))
        argv[argv.index(f"--{kind}") + 1] = str(f)
    assert cli.main(argv) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["validation"] == {kind: documents[kind][1] for kind in bad}
    assert "count" not in result
