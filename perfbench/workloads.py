"""The four workloads: inputs from a seed, one round of CLI operations, checks.

``ROUNDS[name](seed, inputs)`` writes the inputs of one run under
``inputs`` and returns the round as a list of ``Op``. An argument ``{out}`` stands for
the round's own output directory. Each ``Op.check`` reads what the operation
printed and wrote and returns its problems; references it needs are
computed on first use, after the timed rounds, so they are not part of
set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from otconvert.fileio import read_not_pair, read_velocity_field, write_feature_file
from otconvert.rng import make_rng
from otconvert.synth import conversion_clusters, two_conditions

DIM = 16
CLUSTERS = 8
# at 0.2 both converters put at least 98% of frames in the right cluster;
# at 0.35 even knn manages only about 84%
SPREAD = 0.2
REFERENCE_FRAMES = 4000
UTTERANCE_FRAMES = (250, 1000)
TOP_K = 4
# the CLI defaults, which every sinkvc operation keeps
SINKHORN_EPSILON = 0.1
SINKHORN_TOLERANCE = 1e-6
EVAL_PAIRS = 3
EVAL_FRAMES = 300
FM_SOURCE_FRAMES = 1000
FM_ITERATIONS = 25
FM_ODE_STEPS = 100  # the CLI default
FM_REPLAY_ROWS = 64
NOT_DIM = 2
NOT_SAMPLES = 1000
NOT_OUTER_ITERATIONS = 500
NOT_CHECKPOINT_EVERY = 100
NOT_HELD_OUT = 2000


@dataclass
class Clusters:
    """conversion_clusters frames with everything the checks need."""

    source: np.ndarray
    labels: np.ndarray
    reference: np.ndarray
    directions: np.ndarray
    shifted: np.ndarray

    @property
    def oracle(self):
        """Each source frame moved from its direction to the shifted one."""
        return self.source - self.directions[self.labels] + self.shifted[self.labels]


def rotated_clusters(rng, instance: int, source_blocks: tuple,
                     n_reference: int) -> Clusters:
    """A fixed conversion_clusters instance, rotated and reordered by rng.

    The rotation is a random orthogonal map (it may include a reflection).
    Source frames are reordered only within consecutive blocks of the given
    sizes, so each block (an utterance) keeps the same frames. Cosine and
    squared-Euclidean costs are invariant under the rotation and under a
    reordering of the frames, so the solvers face the same problem, with the
    same Sinkhorn iteration counts, for every seed. Between freshly drawn
    instances those counts differ by tens of percent (17 to 31 iterations at
    eps=0.1 for 1,000 x 4,000 frames, 3,300 to 4,200 at eps=0.01 for
    300 x 300), and between random 1,000-frame subsets of one instance by
    20 to 28, which would otherwise show as run-to-run spread in wall_s.
    """
    n_source = sum(source_blocks)
    task = conversion_clusters(n_source, n_reference, DIM, make_rng(instance),
                               n_clusters=CLUSTERS, angular_spread=SPREAD)
    rotation, _ = np.linalg.qr(rng.normal(size=(DIM, DIM)))
    offsets = np.cumsum((0, *source_blocks))[:-1]
    src = np.concatenate([offset + rng.permutation(size)
                          for offset, size in zip(offsets, source_blocks)])
    ref = rng.permutation(n_reference)
    return Clusters(source=(task.source @ rotation)[src],
                    labels=task.source_labels[src],
                    reference=(task.target @ rotation)[ref],
                    directions=np.array(task.truth["directions"]) @ rotation,
                    shifted=np.array(task.truth["shifted_directions"]) @ rotation)


@dataclass
class Op:
    argv: list
    check: Callable  # (op result, round directory) -> list of problems


def _stdout_json(result) -> dict:
    return json.loads(result["stdout"])


def _read(path):
    return checks.read_feature_bytes(Path(path).read_bytes())


class _Utterance:
    def __init__(self, source, labels, reference, shifted, tag):
        self.source, self.labels, self.reference = source, labels, reference
        self.shifted, self.tag = shifted, tag

    @cached_property
    def knn(self):
        return checks.knn_reference(self.source, self.reference, TOP_K)

    @cached_property
    def lower_bound(self):
        return checks.transport_lower_bound(self.source, self.reference)

    @cached_property
    def plan(self):
        return checks.entropic_plan(self.source, self.reference, SINKHORN_EPSILON)

    def frames(self, path):
        values, tag = _read(path)
        return values, checks.frame_problems(values, tag, self.source.shape[0], self.tag)

    def check_sinkvc(self, result, out):
        values, problems = self.frames(out / f"{self.tag}.sinkvc.otf")
        plan, plan_cost = self.plan
        problems += checks.sinkvc_report_problems(_stdout_json(result), self.lower_bound,
                                                  plan_cost, SINKHORN_TOLERANCE)
        problems += checks.top_k_map_problems(values, plan, self.reference, TOP_K)
        return problems + checks.cluster_problems(values, self.shifted, self.labels)

    def check_knn(self, result, out):
        values, problems = self.frames(out / f"{self.tag}.knn.otf")
        problems += checks.close_problems(values, self.knn, checks.TOP_K_MEAN_TOLERANCE, "knn")
        return problems + checks.cluster_problems(values, self.shifted, self.labels)


def convert_discrete(seed: int, inputs: Path) -> list:
    task = rotated_clusters(make_rng(seed, "synth"), 0, UTTERANCE_FRAMES,
                            REFERENCE_FRAMES)
    reference = inputs / "reference.otf"
    write_feature_file(reference, task.reference, tag="reference")
    ops = []
    start = 0
    for i, frames in enumerate(UTTERANCE_FRAMES):
        tag = f"utt{i}"
        rows = slice(start, start + frames)
        start += frames
        source = inputs / f"{tag}.otf"
        write_feature_file(source, task.source[rows], tag=tag)
        utterance = _Utterance(task.source[rows], task.labels[rows], task.reference,
                               task.shifted, tag)
        for method, check in (("sinkvc", utterance.check_sinkvc),
                              ("knn", utterance.check_knn)):
            ops.append(Op(["convert", "--source", str(source), "--reference",
                           str(reference), "--method", method, "--k", str(TOP_K),
                           "--out", f"{{out}}/{tag}.{method}.otf"], check))
    return ops


class _EvalPair:
    def __init__(self, converted, held_out):
        self.converted, self.held_out = converted, held_out

    @cached_property
    def exact(self):
        return checks.exact_w2_unit(self.converted, self.held_out)

    @cached_property
    def frechet(self):
        return checks.frechet_reference(self.converted, self.held_out)

    def check(self, result, out):
        a, b = self.converted, self.held_out
        scale = 1.0 + np.var(a, axis=0).sum() + np.var(b, axis=0).sum()
        return checks.eval_problems(_stdout_json(result), self.exact, self.frechet, scale)


def eval_w2(seed: int, inputs: Path) -> list:
    """Oracle-converted frames scored against held-out reference frames."""
    rng = make_rng(seed, "synth")
    ops = []
    for p in range(EVAL_PAIRS):
        task = rotated_clusters(rng, 1 + p, (EVAL_FRAMES,), EVAL_FRAMES)
        a, b = inputs / f"converted{p}.otf", inputs / f"held_out{p}.otf"
        write_feature_file(a, task.oracle, tag=f"converted{p}")
        write_feature_file(b, task.reference, tag=f"held_out{p}")
        ops.append(Op(["eval", "--a", str(a), "--b", str(b),
                       "--metrics", "w2,fd,theorem1"],
                      _EvalPair(task.oracle, task.reference).check))
    return ops


class _FlowRun:
    def __init__(self, task: Clusters):
        self.task = task

    def check_convert(self, result, out):
        values, tag = _read(out / "fmvc.otf")
        problems = checks.frame_problems(values, tag, FM_SOURCE_FRAMES, "source")
        if problems:
            return problems
        problems += checks.fidelity_problems(values, self.task.oracle)
        field, _ = read_velocity_field(out / "field.otm")
        rows = np.linspace(0, FM_SOURCE_FRAMES - 1, FM_REPLAY_ROWS).astype(int)
        replay = checks.euler_integrate(field.model.weights, field.model.biases,
                                        self.task.source[rows], FM_ODE_STEPS)
        return problems + checks.close_problems(replay, values[rows],
                                                checks.REPLAY_TOLERANCE, "replayed field")

    def check_train(self, result, out):
        lines = (out / "trained.otm.loss.csv").read_text().split()[1:]
        problems = checks.loss_problems([float(line.split(",")[1]) for line in lines])
        trained, _ = read_velocity_field(out / "trained.otm")
        used, _ = read_velocity_field(out / "field.otm")
        same = all(np.array_equal(x, y) for x, y in
                   zip(trained.model.parameters(), used.model.parameters()))
        if not same:
            problems.append("train-fm and convert trained different fields")
        return problems


def convert_fmvc(seed: int, inputs: Path) -> list:
    task = rotated_clusters(make_rng(seed, "synth"), 4, (FM_SOURCE_FRAMES,),
                            REFERENCE_FRAMES)
    source, reference = inputs / "source.otf", inputs / "reference.otf"
    write_feature_file(source, task.source, tag="source")
    write_feature_file(reference, task.reference, tag="reference")
    run = _FlowRun(task)
    ops = []
    for command, extra, check in (
            ("convert", ["--method", "fmvc", "--model", "{out}/field.otm",
                         "--out", "{out}/fmvc.otf"], run.check_convert),
            ("train-fm", ["--out-model", "{out}/trained.otm"], run.check_train)):
        config = inputs / f"{command}.cfg"
        config.write_text(f"command = {command}\nfm_iterations = {FM_ITERATIONS}\n")
        ops.append(Op([command, "--config", str(config), "--source", str(source),
                       "--reference", str(reference), "--seed", str(seed), *extra],
                      check))
    return ops


class _NotRun:
    def __init__(self, seed, task):
        self.seed, self.task = seed, task

    def check(self, result, out):
        payload = _stdout_json(result)
        problems = checks.bound_problems(payload)
        if payload["outer_iterations"] != NOT_OUTER_ITERATIONS:
            problems.append(f"{payload['outer_iterations']} outer iterations")
        pair, _ = read_not_pair(out / "not.otm")
        model = pair.map_model
        held_out = make_rng(self.seed, "eval").normal(size=(NOT_HELD_OUT, NOT_DIM))
        for label, vector, _, _ in self.task.entries:
            shift = np.array(self.task.truth["shifts"][label])
            problems += [f"{label}: {p}" for p in checks.shift_problems(
                model.weights, model.biases, held_out, vector, shift)]
        return problems


def train_not(seed: int, inputs: Path) -> list:
    task = two_conditions(NOT_SAMPLES, NOT_DIM, make_rng(seed, "synth"))
    spec = []
    for label, vector, source, target in task.entries:
        write_feature_file(inputs / f"{label}_source.otf", source, tag=f"{label}-source")
        write_feature_file(inputs / f"{label}_target.otf", target, tag=f"{label}-target")
        spec += [f"{label}.vector = {','.join(repr(float(v)) for v in vector)}",
                 f"{label}.source = {label}_source.otf",
                 f"{label}.target = {label}_target.otf"]
    labels = ",".join(label for label, *_ in task.entries)
    (inputs / "dataset.spec").write_text("\n".join([f"conditions = {labels}", *spec]) + "\n")
    config = inputs / "train-not.cfg"
    config.write_text(f"command = train-not\n"
                      f"total_outer_iterations = {NOT_OUTER_ITERATIONS}\n"
                      f"checkpoint_every = {NOT_CHECKPOINT_EVERY}\n")
    return [Op(["train-not", "--config", str(config), "--dataset-spec",
                str(inputs / "dataset.spec"), "--out-model", "{out}/not.otm",
                "--seed", str(seed)], _NotRun(seed, task).check)]


ROUNDS = {
    "convert-discrete": convert_discrete,
    "eval-w2": eval_w2,
    "convert-fmvc": convert_fmvc,
    "train-not": train_not,
}
