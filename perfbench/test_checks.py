"""Each benchmark check accepts a correct output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

Correct outputs come from the program at small sizes; wrong ones are made
from them: shuffled frames, a W2 below the exact optimum, a map with its
shift flipped, and so on.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from otconvert.convert import knn_convert, sinkvc_convert  # noqa: E402
from otconvert.fileio import write_feature_file  # noqa: E402
from otconvert.metrics import frechet_distance, theorem1_check  # noqa: E402
from otconvert.rng import make_rng  # noqa: E402
from otconvert.synth import conversion_clusters  # noqa: E402


@pytest.fixture(scope="module")
def task():
    return conversion_clusters(80, 320, 8, make_rng(7), n_clusters=4, angular_spread=0.2)


def _oracle(task):
    directions = np.array(task.truth["directions"])
    shifted = np.array(task.truth["shifted_directions"])
    return task.source - directions[task.source_labels] + shifted[task.source_labels]


def _shuffled(frames):
    return frames[make_rng(1).permutation(frames.shape[0])]


def test_feature_file_parser_reads_what_the_program_writes(tmp_path):
    values = make_rng(2).normal(size=(5, 3))
    write_feature_file(tmp_path / "x.otf", values, tag="utt")
    got, tag = checks.read_feature_bytes((tmp_path / "x.otf").read_bytes())
    assert tag == "utt" and np.array_equal(got, values)


def test_frame_count_and_tag(task):
    frames = task.source
    assert checks.frame_problems(frames, "utt0", 80, "utt0") == []
    assert checks.frame_problems(frames[:-1], "utt0", 80, "utt0")
    assert checks.frame_problems(frames, "source", 80, "utt0")


def test_knn_reference_matches_the_program_and_rejects_shuffled_frames(task):
    converted, _ = knn_convert(task.source, task.target, k=4)
    want = checks.knn_reference(task.source, task.target, 4)
    assert checks.close_problems(converted, want, checks.TOP_K_MEAN_TOLERANCE, "knn") == []
    assert checks.close_problems(_shuffled(converted), want, checks.TOP_K_MEAN_TOLERANCE, "knn")


def test_knn_reference_breaks_ties_toward_the_lower_index():
    source = np.array([[1.0, 0.0]])
    reference = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    got = checks.knn_reference(source, reference, 2)
    assert np.array_equal(got, [[1.5, 0.0]])


def test_cluster_rate_rejects_frames_from_other_clusters(task):
    shifted = np.array(task.truth["shifted_directions"])
    converted, _ = sinkvc_convert(task.source, task.target)
    assert checks.cluster_problems(converted, shifted, task.source_labels) == []
    assert checks.cluster_problems(_shuffled(converted), shifted, task.source_labels)


@pytest.fixture(scope="module")
def sinkvc_case(task):
    converted, report = sinkvc_convert(task.source, task.target)
    payload = {"mean_transport_cost": report.mean_transport_cost,
               "plan_stats": {"marginal_error": report.plan_stats.marginal_error}}
    plan, plan_cost = checks.entropic_plan(task.source, task.target, 0.1)
    return converted, payload, plan, plan_cost


def test_sinkvc_report_rejects_a_wrong_cost_and_a_loose_plan(task, sinkvc_case):
    _, payload, _, plan_cost = sinkvc_case
    bound = checks.transport_lower_bound(task.source, task.target)
    assert checks.sinkvc_report_problems(payload, bound, plan_cost, 1e-6) == []
    low = dict(payload, mean_transport_cost=0.5 * bound)
    assert checks.sinkvc_report_problems(low, bound, plan_cost, 1e-6)
    high = dict(payload, mean_transport_cost=1.01 * plan_cost)
    assert checks.sinkvc_report_problems(high, bound, plan_cost, 1e-6)
    loose = dict(payload, plan_stats={"marginal_error": 5.2e-5})
    assert checks.sinkvc_report_problems(loose, bound, plan_cost, 1e-6)


def test_reference_plan_has_uniform_marginals(sinkvc_case):
    plan = sinkvc_case[2]
    m, n = plan.shape
    assert np.abs(plan.sum(axis=1) - 1.0 / m).max() < 1e-12
    assert np.abs(plan.sum(axis=0) - 1.0 / n).max() < 1e-12


def test_top_k_map_accepts_the_program_and_rejects_the_source(task, sinkvc_case):
    converted, _, plan, _ = sinkvc_case
    assert checks.top_k_map_problems(converted, plan, task.target, 4) == []
    assert checks.top_k_map_problems(task.source, plan, task.target, 4)


def test_top_k_map_rejects_neighbours_permuted_within_their_cluster(task, sinkvc_case):
    converted, _, plan, _ = sinkvc_case
    permuted = converted.copy()
    rng = make_rng(8)
    for label in np.unique(task.source_labels):
        rows = np.flatnonzero(task.source_labels == label)
        permuted[rows] = converted[rng.permutation(rows)]
    shifted = np.array(task.truth["shifted_directions"])
    # the cluster check cannot tell these frames apart; the plan check can
    assert checks.cluster_problems(permuted, shifted, task.source_labels) == []
    assert checks.top_k_map_problems(permuted, plan, task.target, 4)


def test_top_k_map_lets_tied_columns_stand_in_for_each_other():
    reference = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [-3.0, 2.0]])
    plan = np.array([[0.5, 0.3, 0.3 * (1.0 + 1e-3), 0.01]])
    lower = reference[[0, 1]].mean(axis=0, keepdims=True)
    assert checks.top_k_map_problems(lower, plan, reference, 2) == []
    outside = reference[[0, 3]].mean(axis=0, keepdims=True)
    assert checks.top_k_map_problems(outside, plan, reference, 2)


@pytest.fixture(scope="module")
def eval_case():
    # the benchmark's size: at 100 frames the entropic bias alone exceeds 1%
    sets = conversion_clusters(300, 300, 16, make_rng(3), n_clusters=8, angular_spread=0.2)
    a, b = _oracle(sets), sets.target
    fd, two_w2sq, holds = theorem1_check(a, b)
    payload = {"w2_squared": two_w2sq,  # the same solve the CLI runs for w2
               "frechet": frechet_distance(a, b),
               "theorem1": {"fd": fd, "two_w2sq": two_w2sq, "holds": holds}}
    scale = 1.0 + np.var(a, axis=0).sum() + np.var(b, axis=0).sum()
    return payload, checks.exact_w2_unit(a, b), checks.frechet_reference(a, b), scale


def test_eval_accepts_the_program_output(eval_case):
    payload, exact, frechet, scale = eval_case
    assert checks.eval_problems(payload, exact, frechet, scale) == []


def _below_exact(payload, exact, frechet):
    payload["w2_squared"] = 0.99 * exact


def _over_one_percent(payload, exact, frechet):
    payload["w2_squared"] = 1.02 * exact


def _frechet_off(payload, exact, frechet):
    payload["frechet"] = frechet * (1.0 + 1e-4)


def _bound_not_held(payload, exact, frechet):
    payload["theorem1"]["holds"] = False


def _fd_over_transport(payload, exact, frechet):
    payload["theorem1"]["fd"] = 2.0 * payload["theorem1"]["two_w2sq"]


@pytest.mark.parametrize("corrupt", [_below_exact, _over_one_percent, _frechet_off,
                                     _bound_not_held, _fd_over_transport])
def test_eval_rejects_a_wrong_value(eval_case, corrupt):
    payload, exact, frechet, scale = eval_case
    wrong = copy.deepcopy(payload)
    corrupt(wrong, exact, frechet)
    assert checks.eval_problems(wrong, exact, frechet, scale)


def test_fidelity_rejects_shuffled_frames_and_cluster_centres(task):
    oracle = _oracle(task)
    noisy = oracle + 0.02 * make_rng(4).normal(size=oracle.shape)
    assert checks.fidelity_problems(noisy, oracle) == []
    assert checks.fidelity_problems(_shuffled(noisy), oracle)
    centres = np.array(task.truth["shifted_directions"])[task.source_labels]
    assert checks.fidelity_problems(centres, oracle)


def test_replay_rejects_a_field_that_did_not_produce_the_frames():
    rng = make_rng(5)
    weights = [rng.normal(size=(4, 8)) * 0.3, rng.normal(size=(8, 3)) * 0.3]
    biases = [np.zeros(8), np.zeros(3)]
    x = rng.normal(size=(6, 3))
    frames = checks.euler_integrate(weights, biases, x, 10)
    assert checks.close_problems(frames, checks.euler_integrate(weights, biases, x, 10),
                                 checks.REPLAY_TOLERANCE, "replay") == []
    weights[1] = weights[1] * 1.01
    assert checks.close_problems(frames, checks.euler_integrate(weights, biases, x, 10),
                                 checks.REPLAY_TOLERANCE, "replay")


def test_loss_check_rejects_a_flat_trace():
    assert checks.loss_problems(np.linspace(2.3, 1.0, 25)) == []
    assert checks.loss_problems(np.full(25, 2.3))
    assert checks.loss_problems([2.3, np.nan] * 10)


def test_shift_check_rejects_a_map_with_a_flipped_shift():
    shift = np.array([3.0, -1.0])
    condition = np.array([1.0, 0.0])
    # T(x, s) = x + (s . (shift, -shift)): identity weights plus a shift per condition
    weights = [np.vstack([np.eye(2), shift, -shift])]
    biases = [np.zeros(2)]
    x = make_rng(6).normal(size=(200, 2))
    assert checks.shift_problems(weights, biases, x, condition, shift) == []
    assert checks.shift_problems(weights, biases, x, condition[::-1].copy(), shift)


def test_bound_check_rejects_a_condition_that_breaks_the_bound():
    good = {"checkpoint": {"conditions": [{"label": "plus", "bound_holds": True},
                                          {"label": "minus", "bound_holds": True}]}}
    assert checks.bound_problems(good) == []
    bad = {"checkpoint": {"conditions": [{"label": "plus", "bound_holds": True},
                                         {"label": "minus", "bound_holds": False}]}}
    assert checks.bound_problems(bad)
