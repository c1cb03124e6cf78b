"""The benchmark tracer wraps ctqkd functions and methods by name; every name
it lists must still exist where it looks, so a refactor that moves or removes
one fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists():
    spans = _load_spans()
    assert spans.SPANS
    for owner, attr, name in spans.SPANS:
        if isinstance(owner, type):
            # The tracer reads owner.__dict__[attr]: an inherited hook is missed.
            assert attr in owner.__dict__, (owner.__name__, attr, name)
        else:
            assert hasattr(owner, attr), (owner.__name__, attr, name)

