"""The benchmark's span tracer still finds every function it wraps.

perfbench/spans.py checks, when a Tracer is built, that each name in its
layer table is bound to the original function at every listed module.
Building, installing and uninstalling one here catches a renamed or
re-bound function without a traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    bindings = tracer._bindings
    assert {attr for _, attr, _, _ in bindings} == {
        layer[2] for layer in spans.LAYERS}
    tracer.install()
    try:
        for module, attr, _, wrapper in bindings:
            assert getattr(module, attr) is wrapper
    finally:
        tracer.uninstall()
    for module, attr, original, _ in bindings:
        assert getattr(module, attr) is original
