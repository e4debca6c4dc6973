"""The benchmark's span tracer, ``bench/spans.py``, finds ringflow's layers by
name: it wraps each (module, attribute) of its ``_boundaries()``.  These
tests read that file as it is and check that every name it looks up still
exists in ``src/``, so that a removal there cannot silently break a traced
benchmark run (``bench/run.py --trace 1``)."""
import importlib.util
from pathlib import Path

import pytest

import ringflow.pauli

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves_to_a_callable(spans):
    boundaries = spans._boundaries()
    assert boundaries
    for module, attr, name, _ in boundaries:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        assert name in spans.SELF_TIME_METRICS


def bound_attributes(spans) -> list:
    """(module, attribute, its value now) for every traced call site."""
    return [(module, attr, getattr(module, attr)) for module, attr, _, _ in spans._boundaries()]


def test_installed_swaps_wrappers_in_and_restores_the_originals(spans):
    originals = bound_attributes(spans)
    tracer = spans.Tracer()
    with tracer.installed():
        for module, attr, original in originals:
            wrapper = getattr(module, attr)
            assert wrapper is not original, f"{module.__name__}.{attr}"
            assert wrapper.__wrapped__ is original
        with tracer.operation(0):
            ringflow.pauli.current_decomposition(2)
        summary = tracer.op_summary()
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    assert [span[0] for span in tracer.spans] == ["op", "pauli.decompose"]
    assert summary["pauli.words"] == 7.0


def test_installed_restores_the_originals_after_an_error(spans):
    originals = bound_attributes(spans)
    with pytest.raises(RuntimeError, match="inside"):
        with spans.Tracer().installed():
            raise RuntimeError("inside")
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
