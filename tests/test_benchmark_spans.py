"""The benchmark's tracer (perfbench/tracing.py) still reaches every span it
declares: while it is installed, each traced name, looked up on its module
as the tracer names it, is the tracer's wrapper, and uninstalling restores
the original."""
import importlib.util
from pathlib import Path

import quatmotion

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_objects(traced):
    """(span name, object) for each TRACED entry, resolved through
    ``getattr(quatmotion.<module>, name)``; a Class.method entry yields the
    class's method."""
    for span, module, attr in traced:
        obj = getattr(quatmotion, module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        yield span, obj


def test_tracer_wraps_every_span_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = dict(_traced_objects(tracing.TRACED))
    tracer = tracing.Tracer("spans")
    tracer.install()
    try:
        # a decorated original has a __wrapped__ of its own: check identity
        unwrapped = [span for span, obj in _traced_objects(tracing.TRACED)
                     if getattr(obj, "__wrapped__", None) is not originals[span]]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert dict(_traced_objects(tracing.TRACED)) == originals
