"""The benchmark's span tracer still finds every function it wraps.

perfbench/spans.py checks, when a Tracer is built, that each name in its
layer table is bound to the original function at every listed module.
Building, installing and uninstalling one here catches a renamed or
re-bound function without a traced benchmark run. The tracer's counters also
read the passes' results: a forward pass's output and a backward pass's
input gradient must have one row per input row.
"""

import importlib
from pathlib import Path

import numpy as np

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


def _tiny_runs():
    """One not_train outer iteration (a potential step and a map step) and one
    fm_train iteration."""
    from otconvert.flow import FlowConfig, fm_train
    from otconvert.neural import NotConfig, dataset_from_arrays, not_train
    from otconvert.rng import make_rng

    rng = make_rng(3)
    dataset = dataset_from_arrays([("c", [1.0, 0.0], rng.normal(size=(40, 2)),
                                    rng.normal(size=(40, 2)) + 1.0)])
    not_train(dataset, NotConfig(hidden_dims=(8, 8), batch_size=16, inner_steps=1,
                                 total_outer_iterations=1, eval_samples=8),
              make_rng(3, "train"))

    def pairs(count, rng):
        x0 = rng.normal(size=(count, 2))
        return x0, x0 + 1.0

    fm_train(pairs, FlowConfig(hidden_dims=(8,), batch_size=12, iterations=1),
             make_rng(3, "train"))


def test_training_passes_return_one_row_per_input_row(monkeypatch):
    from otconvert import flow, neural

    seen = []

    def rows_checked(fn, result_index):
        def wrapper(model, x, *args, **kwargs):
            result = fn(model, x, *args, **kwargs)
            assert result[result_index].shape[0] == np.shape(x)[0]
            seen.append(fn.__name__)
            return result
        return wrapper

    for module in (flow, neural):
        monkeypatch.setattr(module, "_forward_cached",
                            rows_checked(module._forward_cached, 0))
        monkeypatch.setattr(module, "mlp_backward", rows_checked(module.mlp_backward, 1))
    _tiny_runs()
    assert {"_forward_cached", "mlp_backward"} <= set(seen)


def test_traced_training_runs_record_their_gemm_work(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        _tiny_runs()
    finally:
        tracer.uninstall()
    done = {(span[0], span[5]["gflop"] > 0) for span in tracer.spans
            if span[0] in ("nn.forward", "nn.backward")}
    assert done == {("nn.forward", True), ("nn.backward", True)}
