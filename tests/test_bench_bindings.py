"""The benchmark's tracer wraps flowlab functions by module attribute.

``perfbench/tracer.py`` replaces each attribute in its ``WRAPPED`` table
with a timing wrapper. A renamed or removed function would only show when a
traced benchmark run fails, so the bindings are checked here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_wrapped_attribute_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [
        f"{module.__name__}.{attr}"
        for _, module, attr, _ in tracer.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
