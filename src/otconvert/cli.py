"""Command line surface: convert, train-fm, train-not, eval, synth.

Every run resolves its settings from defaults, then an optional config file,
then explicit flags, and writes the fully resolved config next to its
outputs; re-running from that file reproduces the outputs byte for byte.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 training divergence.
"""

from __future__ import annotations

import os


def _configure_threads():
    # must happen before numpy first loads its BLAS; one thread unless asked,
    # since the thread count can change training bytes
    value = os.environ.get("OT_CONVERT_THREADS") or "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = value


_configure_threads()

import argparse
import json
import sys
import warnings
from dataclasses import asdict, fields

import numpy as np

from .convert import knn_convert, sinkvc_convert
from .discrete import COST_KINDS, SinkhornConfig, cost_matrix, sinkhorn
from .errors import (CapacityError, ConvergenceWarning, DivergenceError,
                     NumericalError, SettingError, ValidationError)
from .fileio import (REQUIRED, FeatureData, _format_value, atomic_write_text,
                     format_kv_text, parse_kv_text, read_feature_file,
                     read_text_file, resolve_config, write_feature_file,
                     write_not_pair, write_velocity_field)
from .flow import FlowConfig, fm_pipeline, fm_train, plan_pair_sampler
from .metrics import (W2_MODES, frechet_distance, theorem1_check,
                      w2_squared_empirical)
from .neural import (LR_DECAYS, ConditionalDataset, NotConfig, dataset_from_arrays,
                     not_train)
from .rng import make_rng
from . import synth as synth_tasks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGENCE = 4

METHODS = ("sinkvc", "knn", "fmvc")

# config kind of a settings dataclass field, by the type of its default
_KINDS = {bool: "bool", int: "int", float: "float", str: "str",
          tuple: "int_tuple", type(None): "optional_float"}


def _keys_of(cls, prefix: str = "") -> dict:
    """Config key of each field of a settings dataclass: prefix + field name."""
    return {f.name: prefix + f.name for f in fields(cls)}


# the settings dataclasses behind config keys, as field -> config key
_SINKHORN_FIELDS = {**_keys_of(SinkhornConfig, "sinkhorn_"), "epsilon": "epsilon"}
_FLOW_FIELDS = _keys_of(FlowConfig, "fm_")
_NOT_FIELDS = _keys_of(NotConfig)


def _schema_of(cls, keys: dict) -> dict:
    """Schema entries of a settings dataclass: config key -> (kind, default)."""
    return {keys[f.name]: (_KINDS[type(f.default)], f.default) for f in fields(cls)}


def _config_of(cls, resolved: dict, keys: dict):
    """Build a settings dataclass from resolved keys; errors name the config key."""
    try:
        return cls(**{field: resolved[key] for field, key in keys.items()})
    except SettingError as err:
        raise ValidationError(f"{keys[err.field]} {err.problem}") from None


_SINKHORN_KEYS = _schema_of(SinkhornConfig, _SINKHORN_FIELDS)
_FLOW_KEYS = {
    **_schema_of(FlowConfig, _FLOW_FIELDS),
    "cost": (COST_KINDS, "cosine_distance"),
}

SCHEMAS = {
    "convert": {
        "command": ("str", "convert"),
        "seed": ("int", 0),
        "source": ("str", REQUIRED),
        "reference": ("str", REQUIRED),
        "method": (METHODS, "sinkvc"),
        "k": ("int", 4),
        "model": ("str", ""),
        "out": ("str", REQUIRED),
        "report": ("str", ""),
        **_SINKHORN_KEYS,
        **_FLOW_KEYS,
    },
    "train-fm": {
        "command": ("str", "train-fm"),
        "seed": ("int", 0),
        "source": ("str", REQUIRED),
        "reference": ("str", REQUIRED),
        "out_model": ("str", REQUIRED),
        "loss_trace": ("str", ""),
        **_SINKHORN_KEYS,
        **_FLOW_KEYS,
    },
    "train-not": {
        "command": ("str", "train-not"),
        "seed": ("int", 0),
        "dataset_spec": ("str", REQUIRED),
        "out_model": ("str", REQUIRED),
        "loss_trace": ("str", ""),
        **_schema_of(NotConfig, _NOT_FIELDS),
        "lr_decay": (LR_DECAYS, NotConfig.lr_decay),
    },
    "eval": {
        "command": ("str", "eval"),
        "a": ("str", REQUIRED),
        "b": ("str", REQUIRED),
        "metrics": ("str", "w2,fd"),
        "w2_mode": (("auto", *W2_MODES), "auto"),
        "epsilon": ("float", 0.01),
        "report": ("str", ""),
    },
    "synth": {
        "command": ("str", "synth"),
        "task": (synth_tasks.TASK_NAMES, REQUIRED),
        "n": ("int", 500),
        "dim": ("int", 2),
        "seed": ("int", 0),
        "out_dir": ("str", REQUIRED),
    },
}


# each subcommand's help line and its flags' config keys, in --help order
_FLAGS = {
    "convert": ("convert source frames toward a reference",
                ("source", "reference", "method", "epsilon", "k", "model", "out",
                 "report", "seed", "cost")),
    "train-fm": ("train a velocity field on plan pairs",
                 ("source", "reference", "out_model", "seed", "epsilon", "cost")),
    "train-not": ("train a conditional transport pair",
                  ("dataset_spec", "out_model", "extremal", "w", "lr_decay", "seed")),
    "eval": ("compare two feature files",
             ("a", "b", "metrics", "w2_mode", "epsilon", "report")),
    "synth": ("generate a synthetic dataset with ground truth",
              ("task", "n", "dim", "seed", "out_dir")),
}


def build_parser() -> argparse.ArgumentParser:
    """One flag per listed config key; values stay strings until _resolve."""
    parser = argparse.ArgumentParser(
        prog="otconvert",
        description="Optimal-transport feature conversion toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (help_text, keys) in _FLAGS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config")
        for key in keys:
            flag = "--" + key.replace("_", "-")
            kind = SCHEMAS[command][key][0]
            if kind == "bool":
                cmd.add_argument(flag, dest=key, default=None,
                                 action=argparse.BooleanOptionalAction)
            elif isinstance(kind, tuple):
                cmd.add_argument(flag, dest=key, metavar="{" + ",".join(kind) + "}")
            else:
                cmd.add_argument(flag, dest=key)
    return parser


def _resolve(args, command: str) -> dict:
    schema = SCHEMAS[command]
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(parse_kv_text(read_text_file(args.config)))
    if raw.get("command", command) != command:
        raise ValidationError(
            f"config is for {raw['command']!r}, but the"
            f" {command!r} subcommand was invoked"
        )
    for key in schema:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = _format_value(value)
    return resolve_config(raw, schema)


def _emit_config(path: str, resolved: dict):
    atomic_write_text(path, _config_text(resolved))


def _config_text(resolved: dict) -> str:
    return format_kv_text(resolved,
                          header=f"otconvert {resolved['command']}: resolved run settings")


def _write_json(path: str, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _print_json(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_features(path: str, key: str = "") -> FeatureData:
    """A feature file as float64; a missing, empty or non-finite one is an error naming it."""
    where = f"'{key}' ({path})" if key else path
    try:
        data = read_feature_file(path)
    except OSError as err:
        raise ValidationError(f"{where}: {err.strerror or err}") from None
    data.values = data.values.astype(np.float64, copy=False)
    if not data.values.size:
        raise ValidationError(f"{where}: holds no feature values (shape {data.values.shape})")
    finite = np.isfinite(data.values).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{where}: row {np.argmin(finite)} holds a non-finite value")
    return data


def _read_pair(resolved: dict, first: str, second: str) -> tuple[FeatureData, FeatureData]:
    """The feature files named by two keys; widths that differ are an error naming
    both, and under the cosine cost so is a zero-norm row, naming its file."""
    one, two = _read_features(resolved[first]), _read_features(resolved[second])
    if one.values.shape[1] != two.values.shape[1]:
        raise ValidationError(
            f"'{first}' ({resolved[first]}) has {one.values.shape[1]} features per row,"
            f" '{second}' ({resolved[second]}) has {two.values.shape[1]}")
    if resolved.get("cost") == "cosine_distance":
        for key, data in ((first, one), (second, two)):
            zero = np.flatnonzero(np.einsum("ij,ij->i", data.values, data.values) == 0.0)
            if zero.size:
                raise ValidationError(f"'{key}' ({resolved[key]}): row {zero[0]} has"
                                      " zero norm, so its cosine cost is undefined")
    return one, two


def cmd_convert(resolved: dict) -> int:
    source, reference = _read_pair(resolved, "source", "reference")
    src, ref = source.values, reference.values
    method = resolved["method"]
    if method != "fmvc" and resolved["cost"] != "cosine_distance":
        raise ValidationError(f"--cost applies only to --method fmvc; {method}"
                              " always uses cosine_distance")

    report_extra = {}
    if method == "sinkvc":
        converted, report = sinkvc_convert(
            src, ref, cfg=_config_of(SinkhornConfig, resolved, _SINKHORN_FIELDS),
            k=resolved["k"])
    elif method == "knn":
        converted, report = knn_convert(src, ref, k=resolved["k"])
    else:
        field, converted, report = fm_pipeline(
            src, ref, _config_of(SinkhornConfig, resolved, _SINKHORN_FIELDS),
            _config_of(FlowConfig, resolved, _FLOW_FIELDS),
            make_rng(resolved["seed"], "train"), cost_kind=resolved["cost"])
        if resolved["model"]:
            write_velocity_field(resolved["model"], field,
                                 config_text=_config_text(resolved))
            report_extra["model"] = resolved["model"]

    write_feature_file(resolved["out"], converted, tag=source.tag)
    report_payload = asdict(report)
    report_payload.update(report_extra)
    report_payload.update({
        "source": resolved["source"],
        "reference": resolved["reference"],
        "out": resolved["out"],
        "frames": int(converted.shape[0]),
    })
    report_path = resolved["report"] or resolved["out"] + ".report.json"
    _write_json(report_path, report_payload)
    _emit_config(resolved["out"] + ".run.cfg", resolved)
    _print_json(report_payload)
    return EXIT_OK


def _loss_csv(path: str, header: str, rows):
    lines = [header]
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _train_with_loss_csv(resolved: dict, train, header: str, rows_of):
    """Run train() -> (model, trace); write its loss CSV, on divergence too."""
    trace_path = resolved["loss_trace"] or resolved["out_model"] + ".loss.csv"
    try:
        model, trace = train()
    except DivergenceError as err:
        if err.trace:
            _loss_csv(trace_path, header, rows_of(err.trace))
            err.args = (f"{err.args[0]} (trace written to {trace_path})",)
        raise
    _loss_csv(trace_path, header, rows_of(trace))
    return model, trace, trace_path


def cmd_train_fm(resolved: dict) -> int:
    source, reference = (data.values for data in _read_pair(resolved, "source", "reference"))
    plan = sinkhorn(cost_matrix(source, reference, resolved["cost"]),
                    cfg=_config_of(SinkhornConfig, resolved, _SINKHORN_FIELDS))

    def train():
        field = fm_train(plan_pair_sampler(plan, source, reference),
                         _config_of(FlowConfig, resolved, _FLOW_FIELDS),
                         make_rng(resolved["seed"], "train"))
        return field, field.training_loss_trace

    field, _, trace_path = _train_with_loss_csv(resolved, train, "iteration,loss",
                                                enumerate)
    write_velocity_field(resolved["out_model"], field,
                         config_text=_config_text(resolved))
    _emit_config(resolved["out_model"] + ".run.cfg", resolved)
    _print_json({
        "out_model": resolved["out_model"],
        "loss_trace": trace_path,
        "iterations": len(field.training_loss_trace),
        "final_loss": field.training_loss_trace[-1],
        "plan_iterations": plan.iterations_used,
        "plan_marginal_error": plan.marginal_error,
    })
    return EXIT_OK


def parse_dataset_spec(path: str) -> ConditionalDataset:
    """Read a condition listing: labels plus per-label vector/source/target.

    Format (flat key-value text):

        conditions = plus,minus
        plus.vector = 1,0
        plus.source = plus_source.otf
        plus.target = plus_target.otf
        ...

    Paths are resolved relative to the spec file's directory. Every error
    names the spec file, and the key when one is at fault.
    """
    raw = parse_kv_text(read_text_file(path))
    if "conditions" not in raw:
        raise ValidationError(f"{path}: missing required config key 'conditions'")
    labels = [part.strip() for part in raw.pop("conditions").split(",") if part.strip()]
    if not labels:
        raise ValidationError(f"{path}: 'conditions' names no labels")
    base = os.path.dirname(os.path.abspath(path))
    schema = {f"{label}.{field}": ("str", REQUIRED)
              for label in labels for field in ("vector", "source", "target")}
    conditions = []
    try:
        raw = resolve_config(raw, schema)
        for label in labels:
            try:
                vector = np.array([float(part) for part in raw[f"{label}.vector"].split(",")])
            except ValueError:
                raise ValidationError(f"'{label}.vector' must be comma-separated numbers,"
                                      f" got {raw[f'{label}.vector']!r}") from None
            source, target = (_read_features(os.path.join(base, raw[key]), key).values
                              for key in (f"{label}.source", f"{label}.target"))
            conditions.append((label, vector, source, target))
        return dataset_from_arrays(conditions)
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from None


def _not_trace_rows(trace):
    return [(i, f, t) for i, (f, t) in
            enumerate(zip(trace.potential_losses, trace.map_losses), start=1)]


def cmd_train_not(resolved: dict) -> int:
    dataset = parse_dataset_spec(resolved["dataset_spec"])
    cfg = _config_of(NotConfig, resolved, _NOT_FIELDS)
    pair, trace, trace_path = _train_with_loss_csv(
        resolved, lambda: not_train(dataset, cfg, make_rng(resolved["seed"], "train")),
        "iteration,potential_loss,map_loss", _not_trace_rows)
    write_not_pair(resolved["out_model"], pair, config_text=_config_text(resolved))
    _emit_config(resolved["out_model"] + ".run.cfg", resolved)
    last = trace.checkpoints[-1]
    _print_json({
        "out_model": resolved["out_model"],
        "loss_trace": trace_path,
        "outer_iterations": len(trace.map_losses),
        "final_potential_loss": trace.potential_losses[-1],
        "final_map_loss": trace.map_losses[-1],
        "checkpoint": {
            "iteration": last.iteration,
            "conditions": [asdict(ev) for ev in last.conditions],
        },
    })
    return EXIT_OK


def cmd_eval(resolved: dict) -> int:
    a, b = (data.values for data in _read_pair(resolved, "a", "b"))
    wanted = [part.strip() for part in resolved["metrics"].split(",") if part.strip()]
    allowed = ("w2", "fd", "theorem1")
    for name in wanted:
        if name not in allowed:
            raise ValidationError(
                f"unknown metric {name!r}; choose from {', '.join(allowed)}"
            )
    if not wanted:
        raise ValidationError("no metrics requested")
    mode = None if resolved["w2_mode"] == "auto" else resolved["w2_mode"]
    cfg = SinkhornConfig(epsilon=resolved["epsilon"])
    payload: dict = {"a": resolved["a"], "b": resolved["b"],
                     "n_a": int(a.shape[0]), "n_b": int(b.shape[0])}
    try:
        # w2 is reported in the unit convention (2x the half-squared-cost
        # optimum), so it is directly comparable to fd and theorem1.two_w2sq;
        # when theorem1 is asked for, its two sides are those same values
        if "theorem1" in wanted:
            fd, w2_squared, holds = theorem1_check(a, b, mode=mode, cfg=cfg)
            payload["theorem1"] = {"fd": fd, "two_w2sq": w2_squared,
                                   "holds": bool(holds)}
        else:
            w2_squared = (2.0 * w2_squared_empirical(a, b, mode=mode, cfg=cfg)
                          if "w2" in wanted else None)
            fd = frechet_distance(a, b) if "fd" in wanted else None
        if "w2" in wanted:
            payload["w2_squared"] = w2_squared
        if "fd" in wanted:
            payload["frechet"] = fd
    except CapacityError as err:
        raise ValidationError(
            f"{err}; rerun with --w2-mode sinkhorn"
        ) from err
    _print_json(payload)
    if resolved["report"]:
        _write_json(resolved["report"], payload)
        _emit_config(resolved["report"] + ".run.cfg", resolved)
    return EXIT_OK


def _spec_lines(conditions) -> str:
    lines = [f"conditions = {','.join(label for label, *_ in conditions)}"]
    for label, vector, source_name, target_name in conditions:
        lines.append(f"{label}.vector = {','.join(repr(float(v)) for v in vector)}")
        lines.append(f"{label}.source = {source_name}")
        lines.append(f"{label}.target = {target_name}")
    return "\n".join(lines) + "\n"


def cmd_synth(resolved: dict) -> int:
    task_name = resolved["task"]
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    rng = make_rng(resolved["seed"], "synth")
    n, dim = resolved["n"], resolved["dim"]
    files = []

    def put_features(name, values, tag):
        path = os.path.join(out_dir, name)
        write_feature_file(path, values, tag=tag)
        files.append(name)

    if task_name == "two_conditions":
        task = synth_tasks.two_conditions(n, dim, rng)
        spec_conditions = []
        for label, vector, source, target in task.entries:
            put_features(f"{label}_source.otf", source, f"{label}-source")
            put_features(f"{label}_target.otf", target, f"{label}-target")
            spec_conditions.append((label, vector,
                                    f"{label}_source.otf", f"{label}_target.otf"))
        truth = task.truth
    else:
        task = getattr(synth_tasks, task_name)(n, dim, rng)
        put_features("source.otf", task.source, "source")
        put_features("target.otf", task.target, "target")
        truth = dict(task.truth)
        if task.target_labels is not None:
            truth["target_labels"] = task.target_labels.tolist()
        if task.source_labels is not None:
            truth["source_labels"] = task.source_labels.tolist()
        spec_conditions = [("only", np.array([1.0]), "source.otf", "target.otf")]

    _write_json(os.path.join(out_dir, "truth.json"), truth)
    files.append("truth.json")
    atomic_write_text(os.path.join(out_dir, "dataset.spec"),
                      _spec_lines(spec_conditions))
    files.append("dataset.spec")
    _emit_config(os.path.join(out_dir, "run.cfg"), resolved)
    files.append("run.cfg")
    _print_json({"out_dir": out_dir, "task": task_name, "files": sorted(files)})
    return EXIT_OK


_COMMANDS = {
    "convert": cmd_convert,
    "train-fm": cmd_train_fm,
    "train-not": cmd_train_not,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def entry(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    hint = ("raise --epsilon" if args.subcommand == "eval"
            else "raise epsilon or sinkhorn_max_iterations")
    show_other = warnings.showwarning

    def show(message, category, *where):
        # an unconverged plan is one stderr line, printed as it is found
        if issubclass(category, ConvergenceWarning):
            print(f"warning: {message}; {hint}", file=sys.stderr)
        else:
            show_other(message, category, *where)

    with warnings.catch_warnings():
        warnings.simplefilter("always", ConvergenceWarning)
        warnings.showwarning = show
        try:
            resolved = _resolve(args, args.subcommand)
            return _COMMANDS[args.subcommand](resolved)
        except ValidationError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        except NumericalError as err:
            print(f"numerical failure: {err}", file=sys.stderr)
            return EXIT_NUMERICAL
        except DivergenceError as err:
            print(f"training diverged: {err}", file=sys.stderr)
            return EXIT_DIVERGENCE
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_VALIDATION


def main():  # console-script shim
    raise SystemExit(entry())
