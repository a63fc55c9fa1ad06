"""The benchmark's tracer wraps program functions by name; a rename or a
deletion would break `perfbench/run.py --trace 1` without failing any other
test, since pytest does not collect `perfbench/selftest.py`."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # by path: perfbench is not a package, and tracer.py imports only the
    # standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for span, module_name, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span
    for span, module_name, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, span
