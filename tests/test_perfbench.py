"""The names the benchmark's tracer wraps exist in the library."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_bound_in_its_module():
    # only the module's attributes are read: no wrapper is installed
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, functions in tracer.TRACED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"prtradeoff.{module}"), name, None))
    ]
    assert not missing
