"""Output checks computed outside the program.

Each check takes the program's output and an independent reference (or a
property the method must have) and returns a list of problems; an empty
list means the output passed. Nothing here calls the program's numerical
code: feature files are parsed by hand, distances and maps are recomputed
with numpy and scipy, and trained networks are evaluated by a separate
forward pass over the weights read back from the model file.
"""

from __future__ import annotations

import struct
from itertools import combinations

import numpy as np
from scipy.linalg import sqrtm
from scipy.optimize import linear_sum_assignment

# sinkvc / knn: share of frames whose nearest shifted direction is the
# source's own cluster (acceptance criterion 10 uses the same threshold)
CLUSTER_RATE_MIN = 0.95
# knn and sinkvc frames against the mean of the reference rows they should
# average: the same float64 means, summed in another order
TOP_K_MEAN_TOLERANCE = 1e-12
# sinkvc: the reference plan is iterated until its row sums are this close
# to uniform (the program stops at 1e-6)
REFERENCE_PLAN_TOLERANCE = 1e-13
REFERENCE_PLAN_MAX_ITERATIONS = 10_000
# sinkvc: reported mean_transport_cost against <C, P> of the reference plan,
# relative; measured 1e-5 to 1e-4 at the program's 1e-6 marginal tolerance
SINKVC_COST_RELATIVE_TOLERANCE = 1e-3
# sinkvc: couplings within this factor of a row's k-th largest count as tied
# with it; within a row the program's plan deviates from the reference by up
# to 0.5% (1,000 x 4,000 frames)
TOP_K_TIE_SLACK = 0.02
# eval: entropic W2 may exceed the exact optimum by this share (criterion 02)
W2_EXCESS_MAX = 0.01
# eval: Frechet distance against the scipy.linalg.sqrtm formula, relative to
# the scale of the traces involved
FRECHET_RELATIVE_TOLERANCE = 1e-8
# fmvc: cosine to the oracle conversion, see README "Check tolerances"
FIDELITY_MEAN_MIN = 0.95
FIDELITY_FRAME_MIN = 0.9
FIDELITY_FRAME_SHARE = 0.99
# fmvc: the saved field, integrated here, against the converted frames
REPLAY_TOLERANCE = 1e-9
# fmvc: mean of the last losses over mean of the first ones
LOSS_WINDOW = 5
LOSS_DROP_MAX = 0.75
# train-not: distance of the mean displacement from the true shift, as a
# share of the shift's length
SHIFT_ERROR_MAX = 0.5


def read_feature_bytes(blob: bytes):
    """Parse an .otf file: (float64 matrix, tag)."""
    if blob[:8] != b"OTFEAT01":
        raise ValueError("not a feature file")
    code, rows, cols, tag_len = struct.unpack_from("<BQQH", blob, 8)
    offset = 27 + tag_len
    dtype = {0: "<f8", 1: "<f4"}[code]
    values = np.frombuffer(blob, dtype=dtype, count=rows * cols, offset=offset)
    return values.reshape(rows, cols).astype(np.float64), blob[27:offset].decode("utf-8")


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def frame_problems(values, tag, rows: int, want_tag: str) -> list[str]:
    problems = []
    if values.shape[0] != rows:
        problems.append(f"{values.shape[0]} frames, source has {rows}")
    if tag != want_tag:
        problems.append(f"tag {tag!r}, source tag {want_tag!r}")
    if not np.all(np.isfinite(values)):
        problems.append("non-finite frames")
    return problems


def knn_reference(source, reference, k: int):
    """Mean of the k most cosine-similar reference rows, ties to the lower index."""
    similarity = _unit_rows(source) @ _unit_rows(reference).T
    columns = np.broadcast_to(np.arange(reference.shape[0]), similarity.shape)
    order = np.lexsort((columns, -similarity), axis=1)[:, :k]
    return reference[order].mean(axis=1)


def close_problems(got, want, tolerance: float, what: str) -> list[str]:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    worst = float(np.max(np.abs(got - want)))
    if not worst <= tolerance:
        return [f"{what}: max deviation {worst:.3e} > {tolerance:.0e}"]
    return []


def transport_lower_bound(source, reference) -> float:
    """sum_i a_i min_j C_ij for uniform a and the cosine cost."""
    cost = 1.0 - _unit_rows(source) @ _unit_rows(reference).T
    return float(cost.min(axis=1).mean())


def entropic_plan(source, reference, epsilon: float):
    """Uniform-marginal entropic plan for the cosine cost, by matrix scaling.

    Returns (plan, <C, plan>). Plain scaling iterations, not the program's
    log-domain ones: the kernel exp(-C / epsilon) must not underflow, which
    holds for the cosine cost (C <= 2) at epsilon 0.1.
    """
    cost = 1.0 - _unit_rows(source) @ _unit_rows(reference).T
    kernel = np.exp(-cost / epsilon)
    if not kernel.min() > 0.0:
        raise ValueError(f"kernel underflows at epsilon {epsilon}")
    m, n = kernel.shape
    a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    u = np.ones(m)
    for _ in range(REFERENCE_PLAN_MAX_ITERATIONS):
        v = b / (kernel.T @ u)  # column sums exact
        row = kernel @ v
        if np.abs(u * row - a).max() < REFERENCE_PLAN_TOLERANCE:
            plan = u[:, None] * kernel * v[None, :]
            return plan, float(np.sum(cost * plan))
        u = a / row
    raise ArithmeticError("reference plan did not converge")


def sinkvc_report_problems(report: dict, lower_bound: float, plan_cost: float,
                           tolerance: float) -> list[str]:
    """The reported cost against the bound and the reference plan's cost."""
    problems = []
    cost = report["mean_transport_cost"]
    if not cost >= lower_bound - 1e-12:
        problems.append(f"mean_transport_cost {cost!r} below the bound {lower_bound!r}")
    if not abs(cost - plan_cost) <= SINKVC_COST_RELATIVE_TOLERANCE * plan_cost:
        problems.append(f"mean_transport_cost {cost!r} differs from the reference"
                        f" plan's {plan_cost!r}")
    error = report["plan_stats"]["marginal_error"]
    if not error <= tolerance:
        problems.append(f"marginal_error {error:.3e} above tolerance {tolerance:.0e}")
    return problems


def top_k_map_problems(frames, plan, reference, k: int) -> list[str]:
    """Each frame must be the mean of the k reference rows of most coupling.

    Columns whose coupling is within TOP_K_TIE_SLACK of the row's k-th
    largest may stand in for one another; every column above that band must
    be among the k.
    """
    order = np.argsort(-plan, axis=1, kind="stable")
    want = reference[order[:, :k]].mean(axis=1)
    if frames.shape != want.shape:
        return [f"top-{k} map: shape {frames.shape}, expected {want.shape}"]
    off = np.flatnonzero(np.abs(frames - want).max(axis=1) > TOP_K_MEAN_TOLERANCE)
    wrong = [i for i in off if not _tied_choice_matches(frames[i], plan[i],
                                                       order[i, k - 1], reference, k)]
    if wrong:
        return [f"{len(wrong)} frames are not the mean of their top-{k} reference"
                f" rows in the plan (first: frame {wrong[0]})"]
    return []


def _tied_choice_matches(frame, row, kth, reference, k: int) -> bool:
    top = row[kth]
    sure = np.flatnonzero(row > top * (1.0 + TOP_K_TIE_SLACK))
    tied = np.flatnonzero((row >= top / (1.0 + TOP_K_TIE_SLACK))
                          & (row <= top * (1.0 + TOP_K_TIE_SLACK)))
    for choice in combinations(tied, k - sure.size):
        mean = reference[np.concatenate([sure, choice])].mean(axis=0)
        if np.abs(frame - mean).max() <= TOP_K_MEAN_TOLERANCE:
            return True
    return False


def cluster_problems(frames, directions, labels) -> list[str]:
    nearest = np.argmax(_unit_rows(frames) @ _unit_rows(directions).T, axis=1)
    rate = float(np.mean(nearest == labels))
    if not rate >= CLUSTER_RATE_MIN:
        return [f"correct-cluster rate {rate:.4f} < {CLUSTER_RATE_MIN}"]
    return []


def exact_w2_unit(a, b) -> float:
    """Exact W2^2 under the unit cost |x - y|^2 for equal-size uniform sets."""
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def frechet_reference(a, b) -> float:
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False, ddof=0)
    cov_b = np.cov(b, rowvar=False, ddof=0)
    cross = np.real(sqrtm(cov_a @ cov_b))
    return float(np.sum((mean_a - mean_b) ** 2)
                 + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross))


def eval_problems(payload: dict, exact: float, frechet: float, scale: float) -> list[str]:
    problems = []
    w2 = payload["w2_squared"]
    if not w2 >= exact * (1.0 - 1e-12):
        problems.append(f"w2_squared {w2!r} below the exact optimum {exact!r}")
    if not w2 <= exact * (1.0 + W2_EXCESS_MAX):
        problems.append(f"w2_squared {w2!r} more than {W2_EXCESS_MAX:.0%}"
                        f" above the exact optimum {exact!r}")
    fd = payload["frechet"]
    if not abs(fd - frechet) <= FRECHET_RELATIVE_TOLERANCE * scale:
        problems.append(f"frechet {fd!r} differs from the reference {frechet!r}")
    theorem = payload["theorem1"]
    if theorem["holds"] is not True:
        problems.append("theorem1.holds is not true")
    if not theorem["fd"] <= theorem["two_w2sq"]:
        problems.append(f"theorem1 fd {theorem['fd']!r} > two_w2sq {theorem['two_w2sq']!r}")
    return problems


def cosine_rows(x, y):
    return np.sum(_unit_rows(x) * _unit_rows(y), axis=1)


def fidelity_problems(converted, oracle) -> list[str]:
    cosines = cosine_rows(converted, oracle)
    problems = []
    if not cosines.mean() >= FIDELITY_MEAN_MIN:
        problems.append(f"mean cosine to the oracle {cosines.mean():.4f}"
                        f" < {FIDELITY_MEAN_MIN}")
    share = float(np.mean(cosines >= FIDELITY_FRAME_MIN))
    if not share >= FIDELITY_FRAME_SHARE:
        problems.append(f"only {share:.4f} of frames reach cosine {FIDELITY_FRAME_MIN}")
    return problems


def mlp_apply(weights, biases, inputs):
    """ReLU hidden layers, linear readout."""
    h = inputs
    for layer, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if layer < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def euler_integrate(weights, biases, x, steps: int):
    """Integrate dx/dt = v(t, x) from 0 to 1, the time column after x."""
    state = np.array(x, dtype=np.float64)
    h = 1.0 / steps
    for step in range(steps):
        t = np.full((state.shape[0], 1), step * h)
        state = state + h * mlp_apply(weights, biases, np.hstack([state, t]))
    return state


def loss_problems(losses) -> list[str]:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 2 * LOSS_WINDOW or not np.all(np.isfinite(losses)):
        return [f"loss trace of {losses.size} entries is short or non-finite"]
    first = losses[:LOSS_WINDOW].mean()
    last = losses[-LOSS_WINDOW:].mean()
    if not last <= LOSS_DROP_MAX * first:
        return [f"loss fell only from {first:.4g} to {last:.4g}"]
    return []


def shift_problems(weights, biases, x, condition, shift) -> list[str]:
    """Mean displacement of held-out points under T(x, s) against the true shift."""
    inputs = np.hstack([x, np.broadcast_to(condition, (x.shape[0], condition.size))])
    displacement = (mlp_apply(weights, biases, inputs) - x).mean(axis=0)
    error = float(np.linalg.norm(displacement - shift) / np.linalg.norm(shift))
    if not error <= SHIFT_ERROR_MAX:
        return [f"mean displacement misses the shift by {error:.3f} of its length"]
    return []


def bound_problems(payload: dict) -> list[str]:
    conditions = payload["checkpoint"]["conditions"]
    if not conditions:
        return ["checkpoint reports no conditions"]
    return [f"condition {c['label']!r}: bound_holds is {c['bound_holds']!r}"
            for c in conditions if c["bound_holds"] is not True]
