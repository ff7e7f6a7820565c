"""The benchmark's tracer names stabkit functions; every name must resolve.

The tier-1 suite does not collect ``perfbench/``, so a change that removes a
traced function would pass here and still break ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import stabkit
import stabkit.cli  # noqa: F401  (the tracer wraps stabkit.cli.run_bench)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = load_spans()
    assert spans.TRACED
    for span, (home, functions, _) in spans.TRACED.items():
        module = importlib.import_module(f"stabkit.{home}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{span}: no stabkit.{home}.{name}"
    # the tracer resolves the same names when it is built
    assert spans.Tracer(stabkit)._patches
