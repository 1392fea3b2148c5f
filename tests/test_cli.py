"""End-to-end command tests through the installed entry point."""

import json
import os
import subprocess
import sys

import pytest

from xcomplex.documents import dump_complex, dump_group, dump_presentation
from xcomplex.library import resolve_coefficients, resolve_space


def run_cli(*args, env_extra=None):
    """Run the CLI in a subprocess; returns (exit code, report dict, stderr)."""
    env = dict(os.environ)
    env.pop("XCOMPLEX_CAP", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "xcomplex.cli", *args],
        capture_output=True, text=True, env=env)
    report = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, report, proc.stderr


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


def test_validate_needs_an_input():
    code, report, stderr = run_cli("validate")
    assert code == 1
    assert "error" in report["result"]


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


def test_env_cap_and_flag_precedence():
    code, report, _ = run_cli(
        "classes", "--presentation", "torus", "--complex", "cm-z4-z2-incl",
        env_extra={"XCOMPLEX_CAP": "8"})
    assert code == 3
    code, report, _ = run_cli(
        "classes", "--presentation", "torus", "--complex", "cm-z4-z2-incl",
        "--cap", "1000000", env_extra={"XCOMPLEX_CAP": "8"})
    assert code == 0
    assert report["result"]["count"] == 4


def test_bad_env_cap_is_input_error():
    code, report, _ = run_cli(
        "count", "--presentation", "torus", "--complex", "s3",
        "--enumerate", env_extra={"XCOMPLEX_CAP": "many"})
    assert code == 1
    assert "XCOMPLEX_CAP" in report["result"]["error"]


def test_env_cap_past_digit_limit_is_input_error():
    """The cap is parsed under CPython's int/str digit limit, before main
    lifts it for the command."""
    code, report, _ = run_cli(
        "count", "--presentation", "torus", "--complex", "s3",
        env_extra={"XCOMPLEX_CAP": "9" * 5000})
    assert code == 1
    assert "XCOMPLEX_CAP" in report["result"]["error"]


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


def test_main_restores_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    from xcomplex import cli
    assert cli.main(["count", "--presentation", "torus", "--complex", "s3"]) == 0
    assert cli.main(["count", "--presentation", "no-such-space", "--complex", "s3"]) == 1
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    capsys.readouterr()


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


def test_negative_cap_is_input_error():
    code, report, _ = run_cli("count", "--presentation", "torus", "--complex",
                              "s3", "--enumerate", "--cap", "-5")
    assert code == 1
    assert "--cap -5" in report["result"]["error"]
    code, report, _ = run_cli("count", "--presentation", "torus", "--complex",
                              "s3", "--enumerate", env_extra={"XCOMPLEX_CAP": "-1"})
    assert code == 1
    assert "XCOMPLEX_CAP -1" in report["result"]["error"]


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


def test_enumerate_disagreeing_count_is_internal_error(monkeypatch, capsys):
    """count --enumerate checks the listing's length against the count."""
    from xcomplex import cli

    real = cli.count_homs
    monkeypatch.setattr(cli, "count_homs", lambda p, cx: real(p, cx) + 1)
    code = cli.main(["count", "--presentation", "genus:2", "--complex", "z2",
                     "--enumerate"])
    out, _ = capsys.readouterr()
    assert code == 4
    assert "listing disagrees" in json.loads(out)["result"]["error"]


def test_reports_are_deterministic():
    """Equal reports apart from timing, naming the engine that counted."""
    for command, space, coeff, engine in (
            ("invariant", "torus", "cm-z4-z2-incl", "backtrack"),
            ("invariant", "genus:2", "s3", "elimination"),
            ("count", "disk:3", "l3-z2", "backtrack"),
            ("count", "genus:3", "z3", "elimination")):
        _, a, _ = run_cli(command, "--presentation", space, "--complex", coeff)
        _, b, _ = run_cli(command, "--presentation", space, "--complex", coeff)
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b
        assert a["result"]["engine"] == engine, (command, space, coeff)


def test_library_lists_builtins():
    code, report, stderr = run_cli("library")
    assert code == 0
    assert "torus (1,2,1)" in stderr
    names = [s["name"] for s in report["result"]["spaces"]]
    assert "torus" in names and "sphere2-two-cells" in names
    coeffs = {c["name"]: c for c in report["result"]["coefficients"]}
    assert coeffs["l3-z2"]["orders"] == [2, 2, 2]


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
        attach3=(((((), 0, 1)),),),
        attach_high=((((1, (), 0),),),),
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
