import ast
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

import pytest

import coapprox


def test_public_names_resolve_and_exclude_submodules():
    assert len(coapprox.__all__) == len(set(coapprox.__all__))
    for name in coapprox.__all__:
        assert not isinstance(getattr(coapprox, name), types.ModuleType), name
    namespace = {}
    exec("from coapprox import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(coapprox.__all__)


# The public surface, by group: the entry functions on one PreparedBasis,
# their results, the errors, the exact literal helpers and the oracle's
# checks.  A name joins it by a reviewed change to this list.
SURFACE = [
    "validate_basis", "SubspaceBasis", "prepare", "PreparedBasis", "solve_general",
    "existence_threshold", "classify",
    "CoapproxOutcome", "OutcomeKind", "PolytopeConstraints", "ExistenceThreshold",
    "ClassificationReport", "VerificationVerdict",
    "CapacityError", "CoapproxError", "DimensionError", "EmptyZeroSetError",
    "InternalInconsistencyError", "NoCoapproximationError", "PreconditionError",
    "RankDeficientError", "ValidationError", "ZeroSubspaceError",
    "vec", "mat", "parse_rational", "format_rational",
    "verify_best_coapprox", "bj_orthogonal_l1", "certify_not_exists", "check_certificate",
]
# Names the package once exported, each importable from its own module.
INTERNAL = {
    "exact": ("Q", "LinearSystemResult", "SystemStatus", "l1_norm", "solve_linear"),
    "lp": ("solve_minimax_lp",),
    "norming": ("Arrangement", "NormingSet", "SignCell", "build_arrangement", "enumerate_cells",
                "margin_witness", "minimal_norming_set"),
    "oracle": ("BruteForceResult", "brute_force_existence"),
    "solver": ("Projection", "projection_map", "solve_empty_zero_set"),
    "subspace": ("ComponentProfile", "ReducedInstance", "build_profile", "reduce_sigma"),
}


def test_the_public_surface_is_what_callers_use():
    assert coapprox.__all__ == SURFACE and len(SURFACE) == 31
    for module, names in INTERNAL.items():
        for name in names:
            assert hasattr(importlib.import_module(f"coapprox.{module}"), name), name
    # classify is an entry function of solver, and its old module is gone.
    assert coapprox.classify is coapprox.solver.classify
    assert coapprox.ClassificationReport is coapprox.solver.ClassificationReport
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("coapprox.classify")


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
    "coapprox.exact.l1_norm": "refutation path",
    "coapprox.exact.vec_sub": "refutation path",
    "coapprox.instances.random_basis": "perfbench draws its criterion-5 corpus with it",
    "coapprox.instances.random_vector": "perfbench draws its criterion-5 corpus with it",
    "coapprox.lp.lp_max": "perfbench/tracer.py wraps it as norming.lp_max, its lp.margin span; "
                          "tests/reference.py poses the row-form margin LP on it",
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


# The true divisions src/coapprox holds, by (module, function, source
# text), each with the reason both of its operands are exact.
EXACT_DIVISIONS = {
    ("oracle", "_refute_from_bj_failure", "-yi / (s * zi)"):
        "y = A.beta and z = b - A.alpha are Fraction vectors (combine, vec_sub); s is +-1",
    ("oracle", "_refute_from_bj_failure", "s * bb / u"):
        "u is one of the Fraction breakpoints above, beta's entries are Fractions",
    ("oracle", "brute_force_existence", "2 * radius / step"):
        "radius and step have just come through vec, so both are Fractions",
}
# The floor divisions src/coapprox holds, keyed as EXACT_DIVISIONS, each
# with the reason both operands are ints: a `//` on a Fraction floors it
# silently (the minimax circuits once did, on rational rows and rhs).
INT_DIVISIONS = {
    ("exact", "scaled_ints", "d // x.denominator"):
        "d is the int lcm of the entries' int denominators, so each divides it",
    ("exact", "primitive_ints", "k // g"):
        "k are scaled_ints' ints and g their int gcd, so each divides exactly",
    ("exact", "bareiss_pivot", "(p * a - f * b) // den"):
        "int rows: every caller passes scaled or primitive ints, an LP's int columns, or "
        "minimax_circuits' rows, which it checks are ints; den divides a minor (Bareiss)",
    ("exact", "bareiss_pivot", "p * a // den"):
        "the same int rows; p * a / den is a minor of the starting rows",
    ("norming", "half_cells", "x // g"):
        "v is a list of int products of int normals and g its signed int gcd",
}
# The stdlib modules and package modules ("." the package itself) that
# each module imports, anywhere in it: a new dependency is a reviewed change.
IMPORTS = {
    "__init__": {".errors", ".exact", ".oracle", ".solver", ".subspace"},
    "cli": {"__future__", "argparse", "functools", "json", "os", "sys", "typing", ".",
            ".errors", ".exact", ".norming", ".oracle", ".solver", ".subspace"},
    "errors": set(),
    "exact": {"__future__", "collections", "enum", "fractions", "math", "numbers", "re",
              "typing", ".errors"},
    "instances": {"__future__", "random", ".errors", ".exact", ".subspace"},
    "lp": {"__future__", "enum", "itertools", "math", "operator", "typing", ".errors", ".exact"},
    "norming": {"__future__", "functools", "math", "operator", "typing", ".errors", ".exact",
                ".lp", ".subspace"},
    "oracle": {"__future__", "math", "operator", "typing", ".errors", ".exact", ".lp",
               ".norming", ".subspace"},
    "solver": {"__future__", "enum", "functools", "operator", "typing", ".errors", ".exact",
               ".lp", ".norming", ".subspace"},
    "subspace": {"__future__", "functools", "operator", "typing", ".errors", ".exact"},
}
# math functions whose value is a float whatever their argument.
FLOAT_MATH = {"sqrt", "exp", "log", "log2", "log10", "pow", "fsum", "hypot", "fmod", "ldexp"}


def _inexact_nodes(source: str, module: str, divisions: set) -> list[str]:
    """'module.function:line: text' for each float literal, call to
    float, round or a FLOAT_MATH function, `/` or `/=` not in
    EXACT_DIVISIONS and `//` or `//=` not in INT_DIVISIONS in `source`;
    every division's key goes to `divisions`."""
    faults = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        func = getattr(node, "func", None)
        if isinstance(node, ast.Constant):
            bad = isinstance(node.value, (float, complex))
        elif isinstance(node, ast.Call):
            bad = (isinstance(func, ast.Name) and func.id in ("float", "round")
                   or isinstance(func, ast.Attribute) and func.attr in FLOAT_MATH
                   and isinstance(func.value, ast.Name) and func.value.id == "math")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            divisions.add(key := (module, scope, ast.get_source_segment(source, node)))
            bad = key not in EXACT_DIVISIONS
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv):
            divisions.add(key := (module, scope, ast.get_source_segment(source, node)))
            bad = key not in INT_DIVISIONS
        else:
            bad = False
        if bad:
            faults.append(f"{module}.{scope}:{node.lineno}: {ast.get_source_segment(source, node)}")
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(source), "<module>")
    return faults


def test_no_float_can_enter_the_package_source():
    # Exactness by construction, not only on the values the tests feed:
    # an int / int is a float, and so is every float literal or call.
    divisions, faults = set(), []
    for path in sorted((ROOT / "src" / "coapprox").glob("*.py")):
        faults += _inexact_nodes(path.read_text(encoding="utf-8"), path.stem, divisions)
    assert faults == []
    assert divisions == set(EXACT_DIVISIONS) | set(INT_DIVISIONS), "an allowed division is gone"
    # The scan rejects a class constant taken as int / int (build_profile
    # once gave the float 1e+17 so) and a float in a report path.
    assert _inexact_nodes("def build_profile(row, rep, j0):\n    return row[j0] / rep[j0]\n",
                          "subspace", set()) == ["subspace.build_profile:2: row[j0] / rep[j0]"]
    assert _inexact_nodes("def cmd_threshold(th):\n    return {'delta0': float(th.delta0)}\n",
                          "cli", set()) == ["cli.cmd_threshold:2: float(th.delta0)"]
    # A floor division on a value that may be a Fraction: minimax_circuits'
    # elimination once floored rational rows so.
    assert _inexact_nodes("def solve(w, t, v):\n    return (t * w - v) // t\n", "lp", set()) == [
        "lp.solve:2: (t * w - v) // t"]
    assert _inexact_nodes("def f(x, g):\n    x //= g\n", "lp", set()) == ["lp.f:2: x //= g"]


def _imports(source: str) -> set[str]:
    """The top-level names of the modules `source` imports, anywhere in
    it, and its relative imports as "." plus the module name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or "") if node.level
                      else node.module.split(".")[0])
    return names


def _private_imports(source: str) -> list[str]:
    """".module.name" for each `_`-prefixed name, other than a dunder,
    that `source` imports from a package module."""
    return [f"{'.' * node.level}{node.module or ''}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_every_package_import_is_the_stdlib_or_the_package_on_its_list():
    # No third-party dependency, and no new import unreviewed: each
    # module's imports are exactly its IMPORTS entry, every entry of
    # which is a stdlib module or a module of the package.  No module
    # imports another's private name; a dunder such as __version__ is public.
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "coapprox").glob("*.py"))}
    modules = {stem: _imports(source) for stem, source in sources.items()}
    assert modules == IMPORTS
    assert [name for source in sources.values() for name in _private_imports(source)] == []
    assert _private_imports("from .exact import Q, _gauss_jordan\nfrom . import __version__\n") == [
        ".exact._gauss_jordan"]
    package = {"."} | {"." + name for name in IMPORTS if name != "__init__"}
    assert all(name in sys.stdlib_module_names or name in package
               for names in IMPORTS.values() for name in names)
    # A third-party import, even inside a function, is off every list.
    mutant = "import math\ndef solve(rows):\n    import numpy.linalg\n    return rows\n"
    assert _imports(mutant) - IMPORTS["lp"] == {"numpy"} and "numpy" not in sys.stdlib_module_names
