"""Span tracing installed around the program from outside it.

Each layer's public function is wrapped once, and the wrapper is bound at
every place the program looks it up: the defining module when the module
calls its own function, and each module that imported the name with
``from .x import y``. A span records name, start, end, parent span and
operation id; spans stay in memory until the run ends.

Every binding site is checked to hold the original function before it is
replaced, so a renamed or re-bound function stops the traced run instead of
silently going untraced.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from otconvert import cli, convert, discrete, fileio, flow, linalg, metrics, neural, nn


def _path_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _cost_entries(args, kwargs, result):
    return {"entries": result.values.size}


def _sinkhorn_counts(args, kwargs, result):
    return {"iterations": result.iterations_used,
            "entry_iters": result.iterations_used * result.coupling.size}


def _logsumexp_gb(args, kwargs, result):
    return {"gb_computed": args[0].nbytes / 1e9}


def _fm_train_iterations(args, kwargs, result):
    return {"iterations": len(result.training_loss_trace)}


def _fm_apply_steps(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"steps": cfg.ode_steps}


def _gemm_flop(model, rows):
    return 2.0 * rows * sum(w.shape[0] * w.shape[1] for w in model.weights)


def _forward_gflop(args, kwargs, result):
    return {"gflop": _gemm_flop(args[0], result[0].shape[0]) / 1e9}


def _backward_gflop(args, kwargs, result):
    # per layer: the weight gradient and the input gradient, one GEMM each
    return {"gflop": 2.0 * _gemm_flop(args[0], result[1].shape[0]) / 1e9}


def _outer_iterations(args, kwargs, result):
    return {"outer_iterations": len(result[1].map_losses)}


_COST_SPANS = ("discrete.cost_matrix.cosine", "discrete.cost_matrix.sqeuclid")


def _cost_span(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "squared_euclidean")
    return _COST_SPANS[0] if kind == "cosine_distance" else _COST_SPANS[1]


# (span name, defining module, function, binding sites, counter)
LAYERS = (
    ("cli.entry", cli, "entry", (cli,), None),
    ("fileio.read", fileio, "read_feature_file", (cli,), _path_mb),
    ("fileio.write", fileio, "write_feature_file", (cli,), _path_mb),
    ("fileio.write", fileio, "write_velocity_field", (cli,), _path_mb),
    ("fileio.write", fileio, "write_not_pair", (cli,), _path_mb),
    ("fileio.write", fileio, "atomic_write_text", (cli,), _path_mb),
    ("convert.sinkvc", convert, "sinkvc_convert", (cli,), None),
    ("convert.knn", convert, "knn_convert", (cli,), None),
    (_cost_span, discrete, "cost_matrix",
     (cli, convert, flow, metrics), _cost_entries),
    ("discrete.sinkhorn", discrete, "sinkhorn",
     (cli, convert, flow, metrics), _sinkhorn_counts),
    ("linalg.logsumexp", linalg, "logsumexp", (discrete,), _logsumexp_gb),
    ("discrete.plan_top_k_map", discrete, "plan_top_k_map", (convert,), None),
    ("discrete.project_to_marginals", discrete, "project_to_marginals",
     (metrics,), None),
    ("discrete.sample_index_pairs", discrete, "sample_index_pairs",
     (discrete,), None),
    ("discrete.exact_ot", discrete, "exact_ot", (metrics,), None),
    ("flow.fm_train", flow, "fm_train", (cli, flow), _fm_train_iterations),
    ("flow.fm_apply", flow, "fm_apply", (flow,), _fm_apply_steps),
    ("nn.forward", nn, "_forward_cached", (nn, flow, neural), _forward_gflop),
    ("nn.backward", nn, "mlp_backward", (flow, neural), _backward_gflop),
    ("nn.adam_step", nn, "adam_step", (flow, neural), None),
    ("neural.not_train", neural, "not_train", (cli,), _outer_iterations),
    ("neural.loss_potential", neural, "not_loss_potential", (neural,), None),
    ("neural.loss_map", neural, "not_loss_map", (neural,), None),
    ("neural.checkpoint", neural, "_checkpoint", (neural,), None),
    ("metrics.w2_empirical", metrics, "w2_squared_empirical",
     (cli, metrics, neural), None),
    ("metrics.frechet", metrics, "frechet_distance", (cli, metrics, neural), None),
    ("metrics.theorem1", metrics, "theorem1_check", (cli,), None),
)

SPAN_NAMES = tuple(dict.fromkeys(
    name for layer in LAYERS
    for name in (_COST_SPANS if callable(layer[0]) else (layer[0],))))

# counters summed over spans, reported as <metric name>
COUNTERS = (
    ("fileio.read", "mb", "fileio.read.mb"),
    ("fileio.write", "mb", "fileio.write.mb"),
    ("discrete.cost_matrix.cosine", "entries", "discrete.cost_matrix.entries"),
    ("discrete.cost_matrix.sqeuclid", "entries", "discrete.cost_matrix.entries"),
    ("discrete.sinkhorn", "iterations", "discrete.sinkhorn.iterations"),
    ("linalg.logsumexp", "gb_computed", "linalg.logsumexp.gb_computed"),
    ("flow.fm_train", "iterations", "flow.fm_train.iterations"),
    ("flow.fm_apply", "steps", "flow.fm_apply.steps"),
    ("neural.not_train", "outer_iterations", "neural.outer_iterations"),
    ("nn.forward", "gflop", "nn.gflop"),
    ("nn.backward", "gflop", "nn.gflop"),
)


class Tracer:
    """Records spans while installed; install and uninstall swap bindings."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op, counts]
        self.op = None
        self._stack: list[int] = []
        self._bindings = []  # (module, attribute, original, wrapper)
        for name, home, attr, sites, counter in LAYERS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counter)
            for module in sites:
                if getattr(module, attr, None) is not original:
                    raise RuntimeError(
                        f"{module.__name__}.{attr} is not {home.__name__}.{attr};"
                        " the layer table no longer matches the program")
                self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, counts in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op,
                                         "counts": counts}) + "\n")


def layer_metrics(spans, rounds: set) -> dict:
    """Per-layer totals over the spans of the given rounds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the worker runs one operation at
    a time on one thread.
    """
    chosen = [i for i, span in enumerate(spans) if span[4] is not None
              and span[4][0] in rounds]
    child_time = {}
    for i in chosen:
        name, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for _, _, metric in COUNTERS:
        out[metric] = 0
    entry_iters = 0
    for i in chosen:
        name, start, end, _, _, counts = spans[i]
        duration = end - start
        out[f"{name}.s"] += duration
        out[f"{name}.self_s"] += duration - child_time.get(i, 0.0)
        out[f"{name}.calls"] += 1
        if counts:
            entry_iters += counts.get("entry_iters", 0)
            for span_name, key, metric in COUNTERS:
                if span_name == name and key in counts:
                    out[metric] += counts[key]
    sink_s = out["discrete.sinkhorn.s"]
    out["discrete.sinkhorn.entry_iters_per_s"] = entry_iters / sink_s if sink_s else 0.0
    gemm_s = out["nn.forward.s"] + out["nn.backward.self_s"]
    out["nn.gflop_per_s"] = out["nn.gflop"] / gemm_s if gemm_s else 0.0
    return out
