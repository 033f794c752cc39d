import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
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


def _readme_example() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


def _segment_face_problem(tmp_path) -> Path:
    # The sample problems' fibers all certify a one-point optimal face;
    # this target's face at delta0 is a segment (mass 2/3 on the zero
    # row), so solving it brings the lex searches in.
    segment = tmp_path / "segment_face.json"
    segment.write_text(json.dumps({
        "n": 5,
        "basis": [["1", "0", "0", "0", "-1"], ["-1", "-1", "0", "1", "-1"],
                  ["0", "0", "0", "-1", "-1"]],
        "targets": [["0", "-1", "2/3", "1", "0"]],
    }), encoding="utf-8")
    return segment


def test_readme_library_example_runs_on_the_package_alone(tmp_path):
    # README's one python block, run outside the checkout with only the
    # package's source on the path: it may import nothing but coapprox.
    block = _readme_example()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ClassificationReport(coproximinal=True"), proc.stdout


def test_cli_import_builds_no_dataclass_machinery():
    # Records are NamedTuples: `dataclasses`, and the `inspect` it pulls
    # in, cost a CLI process more start-up than the solve it runs.  -S
    # keeps site's own imports out of the check.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import coapprox.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stdout


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


def test_traced_cli_runs_bind_every_lp_call(capsys, tmp_path):
    # The tracer binds each LP call's arguments to size it; a call shape
    # it cannot bind raises inside `perfbench/run.py --trace 1`.  The
    # segment-face target brings the lex searches in.
    segment = _segment_face_problem(tmp_path)
    tracer = _load_tracer()
    cli = importlib.import_module("coapprox.cli")
    tr = tracer.Tracer()
    tr.install()
    try:
        for command, path in (("solve", ROOT / "problems" / "line_l12_polytope.json"),
                              ("solve", ROOT / "problems" / "pair_l17_coproximinal.json"),
                              ("solve", segment),
                              ("norming-set", ROOT / "problems" / "span3_l16.json"),
                              ("threshold", ROOT / "problems" / "span3_l17_threshold.json")):
            code = cli.main([command, "--input", str(path)])
            assert code == 0, (command, path, capsys.readouterr().err)
    finally:
        tr.uninstall()
    assert tr.calls["lp.lex"] == tr.calls["solver.lex_extreme_alpha"] > 0
    assert tr.counts["lp.tableau_entries"] > 0
    assert tr.counts["oracle.bj_checks"] > 0  # the oracle's tope test is the counted name
    # main looks each command up per call, so the tracer's cmd_* spans see it.
    assert (tr.calls["cli.cmd_solve"], tr.calls["cli.cmd_norming_set"]) == (3, 1)


# The functions in src/coapprox that no caller path below runs, each
# with the reason it stays in the package.
UNREACHED = {
    "coapprox.oracle._refute_from_bj_failure": "refutation path: only a wrong answer reaches it",
    "coapprox.exact.minimize_1d_l1": "refutation path",
    "coapprox.exact.l1_norm": "refutation path",
    "coapprox.exact.vec_sub": "refutation path",
    "coapprox.exact.Interval.__contains__": "refutation path: minimize_1d_l1's minimizer set",
    "coapprox.exact._AllReals.__contains__": "refutation path: minimize_1d_l1's minimizer set",
    "coapprox.exact._AllReals.__repr__": "refutation path: minimize_1d_l1's minimizer set",
    "coapprox.instances.random_basis": "perfbench draws its criterion-5 corpus with it",
    "coapprox.instances.random_vector": "perfbench draws its criterion-5 corpus with it",
}


def _library_functions() -> dict:
    """name -> code of every function whose code lives in src/coapprox:
    module functions and the methods, properties and cached properties
    of its classes.  A NamedTuple's generated methods have no file there."""
    src = Path(coapprox.__file__).resolve().parent
    out = {}
    for info in pkgutil.iter_modules([str(src)]):
        for obj in vars(importlib.import_module(f"coapprox.{info.name}")).values():
            for member in vars(obj).values() if inspect.isclass(obj) else (obj,):
                for f in (member, *(getattr(member, a, None) for a in ("func", "fget", "__wrapped__"))):
                    code = getattr(f, "__code__", None)
                    if code is not None and Path(code.co_filename).resolve().parent == src:
                        out[f"{f.__module__}.{f.__qualname__}"] = code
    return out


def test_every_library_function_runs_on_a_caller_path(tmp_path, capsys):
    # The five commands on every sample problem, solve with the grid on
    # each, the segment-face problem and README's example, under
    # sys.setprofile.  A function none of them runs serves tests alone:
    # it belongs in tests/reference.py, or in UNREACHED with its reason.
    functions = _library_functions()
    segment = _segment_face_problem(tmp_path)
    cli = importlib.import_module("coapprox.cli")
    cli.build_parser.cache_clear()  # so that its body runs here
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for path in sorted((ROOT / "problems").glob("*.json")):
            for command in ("analyze", "norming-set", "solve", "classify", "threshold"):
                cli.main([command, "--input", str(path)])
            cli.main(["solve", "--input", str(path), "--grid-radius", "5", "--grid-step", "1/2"])
        cli.main(["solve", "--input", str(segment)])
        exec(_readme_example(), {})
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    missed, allowed = {name for name, code in functions.items() if code not in ran}, set(UNREACHED)
    assert not missed - allowed, f"run by no caller path: {sorted(missed - allowed)}"
    assert missed == allowed, f"in UNREACHED but run or gone: {sorted(allowed - missed)}"
