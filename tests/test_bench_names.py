"""The traced benchmark run (`bench/run.py --trace 1`) wraps program
functions by module and attribute name; renaming one breaks that run.
These tests read the benchmark's layer list and check every name still
resolves."""
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_names_resolve_to_callables():
    names = [(module, attr) for module, attr, _ in _layers()]
    # the epsilon search is traced through the realizers' module global
    names.append(("ordembed.constructions", "choose_epsilon"))
    for module, attr in names:
        value = getattr(importlib.import_module(module), attr, None)
        assert callable(value), f"{module}.{attr} is not a callable"


def test_descend_keeps_iters_parameter():
    from ordembed import counterexamples
    assert "iters" in inspect.signature(counterexamples._descend).parameters
