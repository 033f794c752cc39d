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


def test_benchmark_tracer_names_resolve():
    # perfbench/tracer.py wraps program functions by (module, attribute);
    # a name the program drops would break `perfbench/run.py --trace 1`.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS and tracer.COUNTERS
    for module, attr, name in tracer.SPANS + tracer.COUNTERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, name)
