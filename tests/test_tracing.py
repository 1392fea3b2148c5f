"""The benchmark's tracer sees every layer entry point the CLI calls.

perfbench/tracing.py wraps names in the namespaces of `xcomplex.cli` and
`xcomplex.homotopies`, and a traced benchmark run aborts when one of them
never fires; a command that bypasses a wrapped name fails here first.
"""

import importlib.util
import json
from pathlib import Path

from xcomplex import cli, homotopies
from xcomplex.documents import dump_complex, dump_presentation
from xcomplex.library import resolve_coefficients, resolve_space

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_records_a_span(tmp_path, capsys):
    tracing = load_tracing()
    pf = tmp_path / "presentation.json"
    cf = tmp_path / "complex.json"
    pf.write_text(json.dumps(dump_presentation(resolve_space("torus"))))
    cf.write_text(json.dumps(dump_complex(resolve_coefficients("cm-z4-z2-incl"))))
    inputs = ["--presentation", str(pf), "--complex", str(cf)]
    modules = {"xcomplex.cli": cli, "xcomplex.homotopies": homotopies}
    originals = {(m, a): getattr(modules[m], a) for m, a in tracing.TRACED}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        for argv in (["count", *inputs, "--enumerate"], ["invariant", *inputs],
                     ["classes", *inputs]):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    fired = {name for name, _, _, _ in tracer.take()}
    expected = {f"{module.rsplit('.', 1)[-1]}.{attr}" for module, attr in tracing.TRACED}
    assert expected - fired == set()
    assert {(m, a): getattr(modules[m], a) for m, a in tracing.TRACED} == originals
