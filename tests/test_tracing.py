import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # perfbench/tracing.py rebinds these module attributes; a name deleted from
    # the package would fail only there, with AttributeError
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS]
    assert names
    for module, attr in names:
        assert callable(getattr(importlib.import_module(f"intertwinor.{module}"), attr)), (module, attr)
    assert issubclass(importlib.import_module("intertwinor.closedform").PoleAtKType, ArithmeticError)
