import importlib
import importlib.util
import types
from pathlib import Path

import coapprox


def test_public_names_resolve_and_exclude_submodules():
    assert len(coapprox.__all__) == len(set(coapprox.__all__))
    for name in coapprox.__all__:
        assert not isinstance(getattr(coapprox, name), types.ModuleType), name
    namespace = {}
    exec("from coapprox import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(coapprox.__all__)


ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_names_resolve():
    # perfbench/tracer.py wraps program functions by (module, attribute);
    # a name the program drops would break `perfbench/run.py --trace 1`.
    tracer = _load_tracer()
    assert tracer.SPANS and tracer.COUNTERS
    for module, attr, name in tracer.SPANS + tracer.COUNTERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, name)


def test_traced_cli_runs_bind_every_lp_call(capsys):
    # The tracer binds each LP call's arguments to size it; a call shape
    # it cannot bind raises inside `perfbench/run.py --trace 1`.
    tracer = _load_tracer()
    cli = importlib.import_module("coapprox.cli")
    tr = tracer.Tracer()
    tr.install()
    try:
        for command, name in (("solve", "line_l12_polytope.json"),
                              ("solve", "pair_l17_coproximinal.json"),
                              ("norming-set", "span3_l16.json"),
                              ("threshold", "span3_l17_threshold.json")):
            code = cli.main([command, "--input", str(ROOT / "problems" / name)])
            assert code == 0, (command, name, capsys.readouterr().err)
    finally:
        tr.uninstall()
    assert tr.calls["lp.lex"] == tr.calls["solver.lex_extreme_alpha"] > 0
    assert tr.counts["lp.tableau_entries"] > 0
    assert tr.counts["oracle.bj_checks"] > 0  # the oracle's tope test is the counted name
    # main looks each command up per call, so the tracer's cmd_* spans see it.
    assert (tr.calls["cli.cmd_solve"], tr.calls["cli.cmd_norming_set"]) == (2, 1)
