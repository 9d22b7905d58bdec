import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, linprog
from scipy.special import logsumexp

from otconvert import discrete
from otconvert.discrete import (
    COST_KINDS,
    SinkhornConfig,
    TransportPlan,
    cost_matrix,
    exact_ot,
    k_smallest_columns,
    plan_top_k_map,
    project_to_marginals,
    sample_index_pairs,
    sample_pairs_from_plan,
    sinkhorn,
    uniform_marginal,
)
from otconvert.errors import CapacityError, ConvergenceWarning, DomainError, ValidationError
from otconvert.rng import make_rng
from otconvert.synth import conversion_clusters

from _helpers import round_to_feasible


# ---------------------------------------------------------------- costs


def test_cost_single_identical_row_is_zero():
    x = np.array([[1.0, 2.0, 3.0]])
    c = cost_matrix(x, x, "squared_euclidean")
    assert c.values.shape == (1, 1)
    assert c.values[0, 0] == 0.0


def test_cost_orthogonal_unit_vectors():
    x = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 1.0]])
    assert cost_matrix(x, y, "squared_euclidean").values[0, 0] == pytest.approx(1.0)
    assert cost_matrix(x, y, "cosine_distance").values[0, 0] == pytest.approx(1.0)


def test_cost_matches_naive_double_loop():
    rng = make_rng(3, "root")
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(4, 3))
    sq = cost_matrix(x, y, "squared_euclidean").values
    cos = cost_matrix(x, y, "cosine_distance").values
    for i in range(5):
        for j in range(4):
            d = x[i] - y[j]
            want_sq = 0.5 * sum(v * v for v in d)
            dot = sum(p * q for p, q in zip(x[i], y[j]))
            want_cos = 1.0 - dot / (np.linalg.norm(x[i]) * np.linalg.norm(y[j]))
            assert abs(sq[i, j] - want_sq) < 1e-12
            assert abs(cos[i, j] - want_cos) < 1e-12


def test_cost_invariant_ranges():
    rng = make_rng(4, "root")
    x = rng.normal(size=(20, 6))
    y = rng.normal(size=(15, 6))
    assert np.all(cost_matrix(x, y, "squared_euclidean").values >= 0.0)
    cos = cost_matrix(x, y, "cosine_distance").values
    assert np.all(cos >= 0.0) and np.all(cos <= 2.0)


def test_cost_zero_norm_row_under_cosine_names_row():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    y = np.array([[1.0, 1.0]])
    with pytest.raises(DomainError, match="row 1"):
        cost_matrix(x, y, "cosine_distance")
    with pytest.raises(DomainError, match="y row 0"):
        cost_matrix(y, np.array([[0.0, 0.0]]), "cosine_distance")


def test_cost_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        cost_matrix(np.array([[np.inf, 0.0]]), np.array([[0.0, 0.0]]))
    from otconvert.errors import ShapeError

    with pytest.raises(ShapeError):
        cost_matrix(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        cost_matrix(np.zeros((2, 3)), np.zeros((2, 3)), kind="manhattan")


@pytest.mark.parametrize("x_shift, y_shift", [(0.0, 0.0), (1e4, 1e4), (0.0, 1e4)],
                         ids=["random", "co-offset", "far-apart"])
def test_squared_euclidean_cost_matches_difference_formula(x_shift, y_shift):
    rng = make_rng(16, "root")
    x = rng.normal(size=(40, 7)) + x_shift
    y = rng.normal(size=(55, 7)) + y_shift
    diff = x[:, None, :] - y[None, :, :]
    want = 0.5 * np.einsum("ijk,ijk->ij", diff, diff)
    got = cost_matrix(x, y, "squared_euclidean").values
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    assert got.min() >= 0.0


def test_squared_euclidean_cost_of_a_copy_has_a_near_zero_diagonal():
    rng = make_rng(17, "root")
    x = rng.normal(size=(80, 16)) * 12.0  # row norms about 50
    c = cost_matrix(x, x.copy(), "squared_euclidean").values
    assert c.min() >= 0.0
    assert np.abs(np.diag(c)).max() <= 1e-12 * c.max()


def test_squared_euclidean_cost_holds_about_one_array():
    """The cost is one GEMM written into the returned array; the centred
    copies and row norms add a few per cent at d=4."""
    rng = make_rng(18, "root")
    x, y = rng.normal(size=(1000, 4)), rng.normal(size=(1000, 4))
    tracemalloc.start()
    try:
        cost_matrix(x, y, "squared_euclidean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (1000 * 1000 * 8) <= 1.25


# ---------------------------------------------------------------- sinkhorn


def test_sinkhorn_concentrates_on_zero_cost_matching():
    # one zero-cost column per row, everything else expensive
    n = 6
    perm = np.array([2, 0, 5, 1, 4, 3])
    c = np.ones((n, n))
    c[np.arange(n), perm] = 0.0
    plan = sinkhorn(c, cfg=SinkhornConfig(epsilon=0.01))
    row_best = plan.coupling[np.arange(n), perm]
    assert np.all(row_best >= 0.99 / n)
    assert np.all(row_best / plan.coupling.sum(axis=1) >= 0.99)


def test_sinkhorn_self_transport_is_near_free():
    rng = make_rng(5, "root")
    x = rng.normal(size=(12, 16))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    c = cost_matrix(x, x, "squared_euclidean")
    plan = sinkhorn(c, cfg=SinkhornConfig(epsilon=0.01))
    assert plan.transport_cost(c) < 1e-3 * c.values.mean()


def test_sinkhorn_within_one_percent_of_exact():
    for seed in range(4):
        rng = make_rng(seed, "root")
        m = int(rng.integers(2, 9))
        x = rng.normal(size=(m, 3))
        y = rng.normal(size=(m, 3))
        c = cost_matrix(x, y, "squared_euclidean")
        _, best = exact_ot(c)
        plan = sinkhorn(c, cfg=SinkhornConfig(epsilon=0.005, tolerance=1e-8,
                                              max_iterations=200_000))
        # compare an exactly feasible version: at 1e-8 marginal slack the raw
        # linear cost can sit a hair under the optimum
        feasible = round_to_feasible(plan.coupling, plan.row_marginal,
                                     plan.col_marginal)
        got = float((feasible * c.values).sum())
        assert got <= best * 1.01 + 1e-12
        assert got >= best - 1e-9


def _assert_budget_run_out(c, cfg):
    """The plan of a solve that runs out its budget reports its coupling's
    own float64-summed marginal deviation, and warns."""
    with pytest.warns(ConvergenceWarning, match="above the tolerance"):
        plan = sinkhorn(c, cfg=cfg)
    assert plan.iterations_used == cfg.max_iterations
    widened = plan.coupling.astype(np.float64)
    deviation = max(np.abs(widened.sum(axis=1) - plan.row_marginal).max(),
                    np.abs(widened.sum(axis=0) - plan.col_marginal).max())
    assert plan.marginal_error == pytest.approx(deviation, rel=1e-12)
    assert plan.marginal_error >= cfg.tolerance
    return plan


def test_sinkhorn_reports_marginal_error_on_budget_exhaustion():
    rng = make_rng(6, "root")
    c = rng.uniform(size=(10, 10))
    plan = _assert_budget_run_out(c, SinkhornConfig(epsilon=0.005, max_iterations=3))
    assert plan.coupling.dtype == np.float64


def test_sinkhorn_on_a_float32_kernel_reports_marginal_error_on_budget_exhaustion():
    rng = make_rng(6, "root")
    c = cost_matrix(rng.normal(size=(30, 4)), rng.normal(size=(40, 4)), "cosine_distance")
    cfg = SinkhornConfig(epsilon=0.1, max_iterations=2, tolerance=1e-4)
    plan = _assert_budget_run_out(c, cfg)
    assert plan.coupling.dtype == np.float32


def _gated_instance(span, m=32, n=64):
    """A cost spanning exactly span with uniform marginals whose largest
    entry is 1/32, so the float32 gate's tolerance reach is 2^-18."""
    c = make_rng(41, "root").uniform(0.25, 0.75, size=(m, n)) * span
    c[0, 0], c[1, 1] = 0.0, span
    return c


@pytest.mark.parametrize("span, tolerance, single", [
    (5.0, 2.0 ** -18, True),
    (np.nextafter(5.0, np.inf), 2.0 ** -18, False),
    (5.0, np.nextafter(2.0 ** -18, 0.0), False),
], ids=["at-both-edges", "span-above", "tolerance-below"])
def test_sinkhorn_kernel_precision_gate(span, tolerance, single):
    """ε = 1/8, so the widest span on a float32 kernel is 40ε = 5."""
    assert discrete._SINGLE_SPAN * 0.125 == 5.0
    assert discrete._SINGLE_ULPS * np.finfo(np.float32).eps / 32 == 2.0 ** -18
    cfg = SinkhornConfig(epsilon=0.125, tolerance=tolerance)
    plan = sinkhorn(_gated_instance(span), cfg=cfg)
    assert plan.coupling.dtype == (np.float32 if single else np.float64)
    assert plan.marginal_error < cfg.tolerance


@pytest.mark.parametrize("fallback", ["logsumexp", "absorb"])
def test_float32_kernel_through_its_fallbacks_tracks_the_float64_path(fallback,
                                                                      monkeypatch):
    """Every half step through logsumexp, or an absorption and a kernel
    rebuild after every iteration: the float32 solve keeps the float64
    solve's iterations and plan."""
    rng = make_rng(43, "root")
    c = cost_matrix(rng.normal(size=(150, 6)), rng.normal(size=(200, 6)),
                    "cosine_distance")
    cfg = SinkhornConfig(epsilon=0.05, tolerance=1e-5)
    counts = _count_kernel_builds_and_logsumexps(monkeypatch)
    if fallback == "logsumexp":
        monkeypatch.setattr(discrete, "_USABLE", (np.inf, np.inf))
        monkeypatch.setattr(discrete, "_relax_scaling", lambda *args: False)
    else:
        monkeypatch.setattr(discrete, "_KEPT", (1.0, 1.0))
    single = sinkhorn(c, cfg=cfg)
    fallbacks = counts["logsumexp" if fallback == "logsumexp" else "kernel"]
    assert fallbacks >= single.iterations_used - 1
    monkeypatch.setattr(discrete, "_SINGLE_SPAN", 0.0)
    double = sinkhorn(c, cfg=cfg)
    assert single.coupling.dtype == np.float32
    assert single.iterations_used == double.iterations_used
    assert single.marginal_error < cfg.tolerance
    gap = np.abs(single.coupling - double.coupling).max()
    assert gap <= 1e-5 * double.coupling.max()


def test_float32_kernel_logsumexp_fallback_holds_no_more_than_a_float64_kernel(monkeypatch):
    """Every half step through logsumexp: each fallback works in the float32
    kernel's own buffer, so the solve peaks no higher than on a float64
    kernel, which is twice the size."""
    rng = make_rng(44, "root")
    c = cost_matrix(rng.normal(size=(200, 16)), rng.normal(size=(3000, 16)),
                    "cosine_distance")
    monkeypatch.setattr(discrete, "_USABLE", (np.inf, np.inf))

    def traced_solve():
        tracemalloc.start()
        try:
            plan = sinkhorn(c)
            return plan, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single, single_peak = traced_solve()
    monkeypatch.setattr(discrete, "_SINGLE_SPAN", 0.0)
    double, double_peak = traced_solve()
    assert single.coupling.dtype == np.float32
    assert double.coupling.dtype == np.float64
    assert single.marginal_error < 1e-6
    assert single_peak <= double_peak


def test_transport_cost_of_a_float32_plan_builds_no_plan_sized_array():
    rng = make_rng(42, "root")
    c = cost_matrix(rng.normal(size=(600, 8)), rng.normal(size=(800, 8)), "cosine_distance")
    plan = sinkhorn(c)
    assert plan.coupling.dtype == np.float32
    tracemalloc.start()
    try:
        got = plan.transport_cost(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * plan.coupling.nbytes
    assert got == pytest.approx(np.vdot(c.values, plan.coupling.astype(np.float64)),
                                rel=1e-12)


def test_sinkhorn_total_mass_is_one():
    rng = make_rng(7, "root")
    c = rng.uniform(size=(9, 5))
    a = rng.uniform(0.5, 1.5, size=9)
    a /= a.sum()
    b = rng.uniform(0.5, 1.5, size=5)
    b /= b.sum()
    plan = sinkhorn(c, a, b)
    assert abs(plan.coupling.sum() - 1.0) < 1e-12
    assert np.all(plan.coupling >= 0.0)


def test_sinkhorn_marginal_feasibility_at_convergence():
    rng = make_rng(8, "root")
    c = rng.uniform(size=(14, 11))
    cfg = SinkhornConfig(epsilon=0.05, tolerance=1e-8)
    plan = sinkhorn(c, cfg=cfg)
    assert plan.marginal_error < cfg.tolerance
    assert np.abs(plan.coupling.sum(axis=1) - plan.row_marginal).max() < cfg.tolerance
    assert np.abs(plan.coupling.sum(axis=0) - plan.col_marginal).max() < cfg.tolerance


def test_sinkhorn_transpose_symmetry():
    rng = make_rng(9, "root")
    c = rng.uniform(size=(7, 5))
    a = uniform_marginal(7)
    b = rng.uniform(0.5, 1.5, size=5)
    b /= b.sum()
    cfg = SinkhornConfig(epsilon=0.08, tolerance=1e-13, max_iterations=100_000)
    fwd = sinkhorn(c, a, b, cfg)
    rev = sinkhorn(c.T, b, a, cfg)
    np.testing.assert_allclose(rev.coupling, fwd.coupling.T, atol=1e-10)


def test_sinkhorn_permutation_equivariance():
    rng = make_rng(10, "root")
    x = rng.normal(size=(8, 4))
    y = rng.normal(size=(6, 4))
    perm = rng.permutation(8)
    cfg = SinkhornConfig(epsilon=0.1, tolerance=1e-10)
    plan = sinkhorn(cost_matrix(x, y), cfg=cfg)
    plan_p = sinkhorn(cost_matrix(x[perm], y), cfg=cfg)
    np.testing.assert_allclose(plan_p.coupling, plan.coupling[perm], atol=1e-12)


def test_sinkhorn_epsilon_consistency_cost_never_increases():
    rng = make_rng(11, "root")
    for _ in range(3):
        c = rng.uniform(size=(10, 10))
        costs = []
        for eps in (0.5, 0.1, 0.02):
            plan = sinkhorn(c, cfg=SinkhornConfig(epsilon=eps, tolerance=1e-9,
                                                  max_iterations=100_000))
            costs.append(plan.transport_cost(c))
        assert costs[1] <= costs[0] + 1e-9
        assert costs[2] <= costs[1] + 1e-9


def test_sinkhorn_validation_errors():
    c = np.ones((3, 3))
    with pytest.raises(ValidationError):
        sinkhorn(c, a=np.array([0.5, 0.5, 0.5]))  # does not sum to 1
    with pytest.raises(ValidationError):
        sinkhorn(c, a=np.array([1.0, 0.0, 0.0]))  # not strictly positive
    with pytest.raises(ValidationError):
        sinkhorn(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValidationError):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(ValidationError):
        SinkhornConfig(tolerance=-1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7), st.integers(2, 7))
def test_sinkhorn_feasibility_property(seed, m, n):
    rng = np.random.default_rng(seed)
    c = rng.uniform(size=(m, n))
    plan = sinkhorn(c, cfg=SinkhornConfig(epsilon=0.2, tolerance=1e-7))
    assert plan.marginal_error < 1e-7
    assert np.all(plan.coupling >= 0.0)
    assert abs(plan.coupling.sum() - 1.0) < 1e-12


def _log_domain_sinkhorn(values, cfg, a=None, b=None, relax=True):
    """Reference: the same iteration with every half step one logsumexp.

    Runs that end inside the warm-up, and every run with relax off, are the
    plain iteration; later ones follow the same over-relaxation rule: every
    _TEST_SPACING-th iteration and the last one plain and tested; a half
    step relaxed only when every entry of plain − current lies within
    ±_ascent_bound(ω); from the warm-up's end, at each spaced test after a
    block with no refused relaxed half step, the block's contraction ρ gives
    the plain rate r = (ρ+ω−1)²/(ω²ρ) when ω−1 < ρ < 1, and ω is raised to
    min(2/(1+√(1−r)), _OMEGA_MAX) if that is larger.
    """
    m, n = values.shape
    a = uniform_marginal(m) if a is None else a
    b = uniform_marginal(n) if b is None else b
    log_a, log_b = np.log(a), np.log(b)
    scaled = -values / cfg.epsilon
    warmup, spacing = discrete._WARMUP_ITERATIONS, discrete._TEST_SPACING
    refused = []

    def update(current, plain, step):
        if step == 1.0:
            return plain
        if np.abs(plain - current).max() > bound:
            refused.append(True)
            return plain
        return current + step * (plain - current)

    f = log_a - logsumexp(scaled, axis=1)
    g = np.zeros(n)
    omega = 1.0
    for iterations in range(1, cfg.max_iterations + 1):
        tested = iterations % spacing == 0
        step = 1.0 if tested or iterations == cfg.max_iterations else omega
        g = update(g, log_b - logsumexp(scaled + f[:, None], axis=0), step)
        log_row = logsumexp(scaled + g[None, :], axis=1)
        if step == 1.0:
            error = np.abs(np.exp(f + log_row) - a).max()
            if error < cfg.tolerance:
                break
            if relax and tested and iterations >= warmup and not refused:
                rho = (error / previous) ** (1.0 / spacing)
                if omega - 1.0 < rho < 1.0:
                    rate = rho * ((rho + (omega - 1.0)) / (omega * rho)) ** 2
                    raised = min(2.0 / (1.0 + np.sqrt(1.0 - rate)), discrete._OMEGA_MAX)
                    if raised > omega:
                        omega, bound = raised, discrete._ascent_bound(raised)
            if tested:
                previous = error
                refused.clear()
        f = update(f, log_a - log_row, step)
    return np.exp(scaled + f[:, None] + g[None, :]), iterations


def _count_relaxed_half_steps(monkeypatch):
    """Count the half steps sinkhorn takes with ω ≠ 1."""
    counts = {"scaling": 0}
    relax_scaling = discrete._relax_scaling

    def scaling(*args):
        relaxed = relax_scaling(*args)
        counts["scaling"] += relaxed
        return relaxed

    monkeypatch.setattr(discrete, "_relax_scaling", scaling)
    return counts


def _count_kernel_builds_and_logsumexps(monkeypatch):
    counts = {"kernel": 0, "logsumexp": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(discrete, "_scaling_kernel",
                        counted("kernel", discrete._scaling_kernel))
    monkeypatch.setattr(discrete, "logsumexp", counted("logsumexp", discrete.logsumexp))
    return counts


# ε=1 ends inside the plain warm-up; at 0.1 and 0.01 the run goes on
# relaxed; at 1e-3 and 1e-4 the warm-up stalls, so ω is capped, and no half
# step's ratios come close enough to 1 to relax; at 1e-4 products also
# underflow. "0.01-log" marks every kernel product unusable, so each half
# step goes through the logsumexp fallback, which is always a plain step
@pytest.mark.parametrize("epsilon, log_only", [
    (1.0, False), (0.1, False), (0.01, False), (1e-3, False), (1e-4, False),
    (0.01, True)], ids=["1.0", "0.1", "0.01", "0.001", "0.0001", "0.01-log"])
def test_sinkhorn_matches_log_domain_iteration(epsilon, log_only, monkeypatch):
    rng = make_rng(12, "root")
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(40, 4)) + 1.5
    c = cost_matrix(x, y, "squared_euclidean")
    cfg = SinkhornConfig(epsilon=epsilon, max_iterations=1500)
    counts = _count_kernel_builds_and_logsumexps(monkeypatch)
    relaxed = _count_relaxed_half_steps(monkeypatch)
    if log_only:
        # no product is usable, and so none is relaxable on the scaling path
        monkeypatch.setattr(discrete, "_USABLE", (np.inf, np.inf))
        monkeypatch.setattr(discrete, "_relax_scaling", lambda *args: False)
    plan = sinkhorn(c, cfg=cfg)
    want, iterations = _log_domain_sinkhorn(c.values, cfg, relax=not log_only)
    assert plan.iterations_used == iterations
    assert np.all(np.isfinite(plan.coupling))
    assert np.abs(plan.coupling - want).max() <= 1e-10 * want.max()
    if epsilon < 1.0:
        assert plan.iterations_used > discrete._WARMUP_ITERATIONS
    if epsilon in (0.1, 0.01) and not log_only:
        assert relaxed["scaling"] > 0
    if log_only:
        assert counts["logsumexp"] == 2 * plan.iterations_used + 1
    if epsilon == 1e-4:
        # an underflowed product took the log-domain half step, and every
        # kernel build beyond the start and the fallbacks is an absorption
        assert counts["logsumexp"] >= 2
        assert counts["kernel"] > counts["logsumexp"]


def test_sinkhorn_relaxed_at_sharp_epsilon_matches_log_domain_iteration(monkeypatch):
    # instance 29 of the random family: ε=1e-3, cosine cost, 47x153 points
    # with uneven marginals; relaxed half steps carry it to convergence
    c, a, b, cfg = list(_random_family())[29]
    assert cfg.epsilon == 1e-3
    relaxed = _count_relaxed_half_steps(monkeypatch)
    plan = sinkhorn(c, a, b, cfg)
    want, iterations = _log_domain_sinkhorn(c.values, cfg, a, b)
    assert relaxed["scaling"] > 0
    assert plan.marginal_error < cfg.tolerance
    assert plan.iterations_used == iterations
    assert np.abs(plan.coupling - want).max() <= 1e-10 * want.max()


@pytest.mark.parametrize("omega", [1.3, 1.667, 1.9])
def test_relaxed_update_inside_ascent_bound_raises_the_dual(omega):
    rng = make_rng(16, "root")
    kernel = rng.uniform(0.1, 1.0, size=(5, 6))
    u, b = rng.uniform(0.5, 2.0, size=5), uniform_marginal(6)
    bound = discrete._ascent_bound(omega)

    def dual(v):
        return float(b @ np.log(v) - u @ kernel @ v)

    def relaxed(log_ratios, bound):
        # the v whose ratios b/(v∘Kᵀu) are exp(log_ratios), and its update
        v = b / (kernel.T @ u) / np.exp(log_ratios)
        new = v.copy()
        assert discrete._relax_scaling(new, b, kernel.T @ u, omega, bound)
        return dual(v), dual(new)

    spread = np.array([-0.999, -0.5, 0.0, 0.3, 0.8, 0.999])
    before, after = relaxed(spread * bound, bound)
    assert after > before
    # every ratio on the side where relaxing can lose, just inside the bound
    before, after = relaxed(np.full(6, 0.99 * bound), bound)
    assert after > before
    # one ratio just past the bound: relaxing it anyway lowers the dual, and
    # the solver's own bound declines the relaxed step there
    past = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.05 * bound])
    before, after = relaxed(past, 2.0 * bound)
    assert after < before
    v = b / (kernel.T @ u) / np.exp(past)
    assert not discrete._relax_scaling(v.copy(), b, kernel.T @ u, omega, bound)


def test_ascent_bound_matches_brentq_from_below():
    cap = math.log(discrete._SCALING_BOUND)
    for omega in np.linspace(1.0, discrete._OMEGA_MAX, 181)[1:]:
        def gain(d):
            return omega * d - math.exp((omega - 1.0) * d) + math.exp(-d)

        want = cap if gain(cap) > 0.0 else brentq(gain, 1e-3, cap)
        got = discrete._ascent_bound(omega)
        assert abs(got - want) <= 1e-12, omega
        assert gain(got) >= 0.0, omega


def test_sinkhorn_does_not_relax_near_underflowing_targets(monkeypatch):
    # a target of 1e-195 leaves no room between _SUM_FLOOR and the products
    # a relaxed step could meet, so every step is plain
    rng = make_rng(17, "root")
    c = cost_matrix(rng.normal(size=(20, 3)), rng.normal(size=(30, 3)))
    b = uniform_marginal(30)
    b[7] = 1e-195
    b /= b.sum()
    cfg = SinkhornConfig(epsilon=0.05, max_iterations=400)
    plan = sinkhorn(c, None, b, cfg)
    monkeypatch.setattr(discrete, "_over_relaxation", lambda rate: 1.0)
    plain = sinkhorn(c, None, b, cfg)
    assert plan.iterations_used == plain.iterations_used > discrete._WARMUP_ITERATIONS
    assert np.array_equal(plan.coupling, plain.coupling)


@pytest.mark.parametrize("budget", [199, 250, 1234])
def test_sinkhorn_ends_on_a_plain_iteration(budget, monkeypatch):
    rng = make_rng(12, "root")
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(40, 4)) + 1.5
    c = cost_matrix(x, y, "squared_euclidean")
    cfg = SinkhornConfig(epsilon=0.01, max_iterations=budget)
    relaxed = _count_relaxed_half_steps(monkeypatch)
    plan = sinkhorn(c, cfg=cfg)
    assert relaxed["scaling"] > 0
    assert plan.iterations_used == budget
    # the last update is a plain f step, so the rows are exact
    assert np.abs(plan.coupling.sum(axis=1) - plan.row_marginal).max() < 1e-14
    monkeypatch.setattr(discrete, "_over_relaxation", lambda rate: 1.0)
    assert plan.marginal_error <= sinkhorn(c, cfg=cfg).marginal_error


def _plain_scaling_sinkhorn(values, cfg):
    """The scaling iteration without over-relaxation, step for step.

    It uses the solver's own logsumexp, not scipy's, so its plans match to the bit.
    """
    m, n = values.shape
    a, b = uniform_marginal(m), uniform_marginal(n)
    log_a, log_b = np.log(a), np.log(b)
    scaled = -values / cfg.epsilon
    f = log_a - discrete.logsumexp(scaled, axis=1)
    g = np.zeros(n)
    kernel = discrete._scaling_kernel(scaled, f, g)
    u, v = np.ones(m), np.ones(n)
    for iterations in range(1, cfg.max_iterations + 1):
        col = kernel.T @ u
        if discrete._within(col, discrete._USABLE):
            v = b / col
        else:
            f, u = f + np.log(u), np.ones(m)
            g, v = log_b - discrete.logsumexp(scaled + f[:, None], axis=0), np.ones(n)
            discrete._scaling_kernel(scaled, f, g, out=kernel)
        row = kernel @ v
        if discrete._within(row, discrete._USABLE):
            log_row = None
            row_mass = u * row
        else:
            f, g, u, v = f + np.log(u), g + np.log(v), np.ones(m), np.ones(n)
            log_row = discrete.logsumexp(scaled + g[None, :], axis=1)
            row_mass = np.exp(f + log_row)
        if np.abs(row_mass - a).max() < cfg.tolerance:
            break
        if log_row is not None:
            f = log_a - log_row
        else:
            u = a / row
            if discrete._within(u, discrete._KEPT) and discrete._within(v, discrete._KEPT):
                continue
            f, g, u, v = f + np.log(u), g + np.log(v), np.ones(m), np.ones(n)
        discrete._scaling_kernel(scaled, f, g, out=kernel)
    return discrete._gibbs_kernel(scaled, f + np.log(u), g + np.log(v)), iterations


@pytest.mark.parametrize("kind, epsilon, shift", [
    ("cosine_distance", 0.1, 0.0),
    ("cosine_distance", 0.02, 1.0),
    ("squared_euclidean", 1.0, 0.5),
    ("squared_euclidean", 1e-4, 0.0),  # ends on the budget, in the log domain
])
def test_sinkhorn_inside_warmup_is_bit_identical_to_plain_iteration(kind, epsilon, shift):
    rng = make_rng(15, "root")
    x = rng.normal(size=(60, 5))
    y = rng.normal(size=(80, 5)) + shift
    c = cost_matrix(x, y, kind)
    cfg = SinkhornConfig(epsilon=epsilon, max_iterations=discrete._WARMUP_ITERATIONS)
    plan = sinkhorn(c, cfg=cfg)
    want, iterations = _plain_scaling_sinkhorn(c.values, cfg)
    assert plan.iterations_used == iterations <= discrete._WARMUP_ITERATIONS
    assert np.array_equal(plan.coupling, want)


def _pinned_instance(seed, m, n, d, kind, shift, uneven=False):
    rng = make_rng(seed, "root")
    x = rng.normal(size=(m, d))
    c = cost_matrix(x, rng.normal(size=(n, d)) + shift, kind)
    if not uneven:
        return c, None, None
    rng = make_rng(seed + 1, "root")
    a, b = rng.uniform(0.5, 1.5, size=m), rng.uniform(0.5, 1.5, size=n)
    return c, a / a.sum(), b / b.sum()


# sha256 of the coupling's bytes and the iteration count of solves that run
# past the warm-up: relaxed half steps with absorptions (ends on its budget,
# ends converged, uneven marginals), and at ε=1e-4 a logsumexp fallback among
# absorptions. Recorded with OpenBLAS on x86-64; the same with 1 or 2 threads.
_PINNED_PLANS = {
    "sq-0.01": ((12, 30, 40, 4, "squared_euclidean", 1.5), 0.01, 1234, 1234,
                "b89ff6410093fff5f6ee46cf5c7ac59a0fb60470828d3fa6e7816f9b250d9da8"),
    "sq-1e-4": ((12, 30, 40, 4, "squared_euclidean", 1.5), 1e-4, 300, 300,
                "ba8d4d9059a10f2d36b3fe8a7dde8cee51572432a9a178952f77236d399620cd"),
    "cos-1e-3": ((15, 60, 80, 5, "cosine_distance", 1.0), 1e-3, 10_000, 800,
                 "88cf683e127a396ac7d7bf65378104a5088f2ab7229d5a5bcca8618e52b49906"),
    "sq-uneven-0.01": ((18, 25, 35, 3, "squared_euclidean", 0.5, True), 0.01, 10_000, 400,
                       "5b12644f59e1bf5dbd92454a6620a8a85fd5bf187d5451616d9204b1e3524d75"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_PLANS))
def test_sinkhorn_plan_bytes_are_pinned(case, monkeypatch):
    instance, epsilon, budget, iterations, digest = _PINNED_PLANS[case]
    c, a, b = _pinned_instance(*instance)
    counts = _count_kernel_builds_and_logsumexps(monkeypatch)
    relaxed = _count_relaxed_half_steps(monkeypatch)
    plan = sinkhorn(c, a, b, SinkhornConfig(epsilon=epsilon, max_iterations=budget))
    assert plan.iterations_used == iterations > discrete._WARMUP_ITERATIONS
    assert hashlib.sha256(plan.coupling.tobytes()).hexdigest() == digest
    # every kernel build past the first that no fallback made is an absorption
    assert counts["kernel"] > counts["logsumexp"]
    if epsilon == 1e-4:
        assert counts["logsumexp"] >= 2
    else:
        assert relaxed["scaling"] > 0


def _random_family():
    """Twelve 20-200-point instances, each at ε = 0.1, 0.01 and 1e-3."""
    rng = make_rng(2024, "root")
    for i in range(12):
        m, n = (int(k) for k in rng.integers(20, 201, size=2))
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(m, d))
        y = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0) + rng.uniform(0.0, 2.0)
        a = rng.uniform(0.5, 1.5, size=m)
        b = rng.uniform(0.5, 1.5, size=n)
        c = cost_matrix(x, y, COST_KINDS[i % 2])
        for epsilon in (0.1, 0.01, 1e-3):
            yield c, a / a.sum(), b / b.sum(), SinkhornConfig(epsilon=epsilon)


def _criterion_02_family():
    """The 50 instances and settings of acceptance criterion 02."""
    rng = make_rng(123)
    cfg = SinkhornConfig(epsilon=0.005, max_iterations=10_000, tolerance=1e-6)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        yield rng.uniform(size=(n, n)), None, None, cfg


# the iterations the plain iteration (ω held at 1) takes on each instance of
# a family that it solves within its budget, found by solving them with
# discrete._over_relaxation patched to return 1
_PLAIN_ITERATIONS = {
    "random": {0: 159, 1: 2545, 3: 10, 4: 243, 5: 5953, 6: 526, 7: 9121, 9: 86,
               10: 930, 11: 9799, 12: 673, 15: 19, 16: 332, 17: 3396, 18: 80,
               19: 1141, 21: 16, 22: 453, 24: 622, 25: 5727, 27: 29, 28: 267,
               29: 3154, 30: 302, 33: 25, 34: 285, 35: 2774},
    "criterion_02": {1: 6, 8: 4713, 12: 2142, 17: 1, 18: 1, 23: 930, 29: 67,
                     39: 1, 45: 2866, 46: 46},
}


_FAMILIES = {"random": _random_family, "criterion_02": _criterion_02_family}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_over_relaxation_keeps_every_plain_solve(family):
    """Every plan is finite, and every instance the plain iteration solves
    is solved, by the test after the plain count's checkpoint at the latest."""
    warmup = discrete._WARMUP_ITERATIONS
    plain = _PLAIN_ITERATIONS[family]
    for index, (c, a, b, cfg) in enumerate(_FAMILIES[family]()):
        plan = sinkhorn(c, a, b, cfg)
        assert np.all(np.isfinite(plan.coupling)), index
        if index in plain:
            assert plan.marginal_error < cfg.tolerance, index
            assert plan.iterations_used <= -(-plain[index] // warmup) * warmup, index


# the iterations the over-relaxation schedule takes on eval's 300-frame W2
# solve of each conversion_clusters instance (oracle-converted source against
# the reference, d=16, 8 clusters, spread 0.2, ε=0.01); with ω set once
# from the warm-up it took 600 on each
_W2_ITERATIONS = {1: 300, 2: 350, 3: 300}


@pytest.mark.parametrize("instance", sorted(_W2_ITERATIONS))
def test_sinkhorn_solves_eval_w2_within_its_iteration_count(instance):
    task = conversion_clusters(300, 300, 16, make_rng(instance), n_clusters=8,
                               angular_spread=0.2)
    moved = (task.source - np.array(task.truth["directions"])[task.source_labels]
             + np.array(task.truth["shifted_directions"])[task.source_labels])
    cfg = SinkhornConfig(epsilon=0.01)
    plan = sinkhorn(cost_matrix(moved, task.target), cfg=cfg)
    assert plan.marginal_error < cfg.tolerance
    assert plan.iterations_used <= _W2_ITERATIONS[instance]


def test_sinkhorn_converges_on_49_of_criterion_02s_50_instances():
    """Each solve that stops short warns; with ω set once from the warm-up
    12 of the 50 converged."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        stopped = sum(sinkhorn(c, a, b, cfg).marginal_error >= cfg.tolerance
                      for c, a, b, cfg in _criterion_02_family())
    assert stopped <= 1
    assert [w.category for w in caught] == [ConvergenceWarning] * stopped


# ----------------------------------------------------------- projection


@pytest.mark.parametrize("seed", range(4))
def test_project_to_marginals_is_feasible_and_moves_no_more_than_the_violation(seed):
    rng = make_rng(seed + 50, "root")
    m, n = (int(k) for k in rng.integers(5, 60, size=2))
    a = rng.uniform(0.5, 1.5, size=m)
    b = rng.uniform(0.5, 1.5, size=n)
    a, b = a / a.sum(), b / b.sum()
    # up to ±5% per entry leaves rows and columns both over- and under-full
    coupling = np.outer(a, b) * rng.uniform(0.95, 1.05, size=(m, n))
    rows, cols = coupling.sum(axis=1), coupling.sum(axis=0)
    assert (rows > a).any() and (rows < a).any()
    assert (cols > b).any() and (cols < b).any()
    # rows and columns scaled down by at most their excess, then the rank-one
    # fill: at most the summed L1 violation of both marginals, plus the gap
    # in total mass
    violation = (np.abs(rows - a).sum() + np.abs(cols - b).sum()
                 + abs(coupling.sum() - 1.0))
    for given in (coupling, coupling.astype(np.float32)):
        before = given.copy()
        p = project_to_marginals(given, a, b)
        assert p.dtype == np.float64
        assert np.array_equal(given, before)
        assert np.abs(p.sum(axis=1) - a).max() <= 1e-15
        assert np.abs(p.sum(axis=0) - b).max() <= 1e-15
        assert p.min() >= 0.0
        assert np.abs(p - given).sum() <= violation + 1e-12
    in_place = project_to_marginals(before, a, b, overwrite_input=True)
    assert np.array_equal(in_place, project_to_marginals(before.astype(np.float64), a, b))
    own = coupling.copy()
    assert project_to_marginals(own, a, b, overwrite_input=True) is own
    assert np.array_equal(own, project_to_marginals(coupling, a, b))


# ---------------------------------------------------------------- exact


def test_exact_ot_singleton():
    plan, cost = exact_ot(np.array([[3.5]]))
    np.testing.assert_array_equal(plan.coupling, [[1.0]])
    assert cost == pytest.approx(3.5)
    assert plan.epsilon == 0.0


def test_exact_ot_identity_matching_on_line():
    x = np.array([[0.0], [1.0]])
    c = cost_matrix(x, x, "squared_euclidean")
    plan, cost = exact_ot(c)
    # enumerate both couplings by hand: identity costs 0, swap costs 1
    assert cost == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(plan.coupling, np.eye(2) / 2)


def test_exact_ot_matches_brute_force_permutations():
    rng = make_rng(12, "root")
    c = rng.uniform(size=(3, 3))
    _, cost = exact_ot(c)
    best = min(
        sum(c[i, p[i]] for i in range(3)) / 3.0
        for p in itertools.permutations(range(3))
    )
    assert cost == pytest.approx(best, rel=1e-12)


def _transportation_lp(c, a, b):
    """Oracle: the exact plan and cost of the transportation LP, by HiGHS."""
    m, n = c.shape
    # row sums, then all column sums but the last, which the others imply
    a_eq = np.zeros((m + n - 1, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n - 1):
        a_eq[m + j, j::n] = 1.0
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b[:-1]]),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    plan = np.maximum(res.x.reshape(m, n), 0.0)
    return plan, float(np.vdot(plan, c))


def test_exact_ot_lp_path_matches_assignment_on_uniform_square():
    rng = make_rng(13, "root")
    c = rng.uniform(size=(5, 5))
    _, cost_fast = exact_ot(c)
    c2 = rng.uniform(size=(2, 3))
    a = np.array([0.4, 0.6])
    b = np.array([0.3, 0.3, 0.4])
    plan, cost_lp = _transportation_lp(c2, a, b)
    assert max(np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max()) < 1e-9
    # LP lower-bounds every feasible coupling, including entropic ones
    for eps in (0.5, 0.05):
        ent = sinkhorn(c2, a, b, SinkhornConfig(epsilon=eps, max_iterations=100_000))
        assert cost_lp <= ent.transport_cost(c2) + 1e-9
    # the assignment agrees with the LP on the uniform square instance
    _, cost_lp_sq = _transportation_lp(c, uniform_marginal(5), uniform_marginal(5))
    assert cost_lp_sq == pytest.approx(cost_fast, rel=1e-9)
    # and the exact solver takes only square instances
    with pytest.raises(CapacityError):
        exact_ot(c2)


def test_exact_ot_size_cap():
    with pytest.raises(CapacityError):
        exact_ot(np.ones((65, 3)))
    with pytest.raises(CapacityError):
        exact_ot(np.ones((3, 65)))


def test_exact_ot_sandwich_under_sinkhorn():
    rng = make_rng(14, "root")
    c = rng.uniform(size=(8, 8))
    _, best = exact_ot(c)
    for eps in (0.5, 0.1, 0.02):
        plan = sinkhorn(c, cfg=SinkhornConfig(epsilon=eps, max_iterations=100_000))
        assert best <= plan.transport_cost(c) + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_exact_le_entropic_property(seed, n):
    rng = np.random.default_rng(seed)
    c = rng.uniform(size=(n, n))
    _, best = exact_ot(c)
    plan = sinkhorn(c, cfg=SinkhornConfig(epsilon=0.1))
    assert best <= plan.transport_cost(c) + 1e-9


# ---------------------------------------------------------------- maps


def _plan_from(coupling):
    coupling = np.asarray(coupling, dtype=np.float64)
    return TransportPlan(
        coupling=coupling,
        row_marginal=coupling.sum(axis=1),
        col_marginal=coupling.sum(axis=0),
        epsilon=0.0,
        iterations_used=0,
        marginal_error=0.0,
    )


def test_top_k_permutation_plan_k1():
    y = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    perm_plan = _plan_from(np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) / 3.0)
    out = plan_top_k_map(perm_plan, y, k=1)
    np.testing.assert_array_equal(out, y[[2, 0, 1]])


def test_top_k_full_average():
    rng = make_rng(15, "root")
    y = rng.normal(size=(5, 3))
    plan = _plan_from(rng.uniform(size=(4, 5)))
    out = plan_top_k_map(plan, y, k=5)
    np.testing.assert_allclose(out, np.tile(y.mean(axis=0), (4, 1)))


def test_top_k_hand_computed_top_four():
    y = np.arange(12.0).reshape(6, 2)
    plan = _plan_from([[0.3, 0.25, 0.2, 0.15, 0.07, 0.03]])
    out = plan_top_k_map(plan, y, k=4)
    np.testing.assert_allclose(out, y[:4].mean(axis=0, keepdims=True))


def test_top_k_ties_broken_by_lower_column():
    y = np.array([[0.0], [1.0], [2.0], [3.0]])
    plan = _plan_from([[0.25, 0.25, 0.25, 0.25]])
    out = plan_top_k_map(plan, y, k=2)
    # all couplings tie; columns 0 and 1 win
    np.testing.assert_allclose(out, [[0.5]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 30),
       st.integers(0, 4), st.data())
def test_k_smallest_columns_matches_stable_argsort(seed, m, n, levels, data):
    # few distinct integer keys, so most rows carry ties across the cut
    keys = np.random.default_rng(seed).integers(-levels, levels + 1,
                                                size=(m, n)).astype(np.float64)
    k = data.draw(st.integers(1, n))
    want = np.argsort(keys, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(k_smallest_columns(keys, k), want)


@pytest.mark.parametrize("negate", [False, True])
def test_k_smallest_columns_across_many_blocks(negate, monkeypatch):
    # 3 rows of 7 keys per block: 40 rows make 13 full blocks and a last
    # one of a single row; few levels give ties at every cut
    monkeypatch.setattr(discrete, "_TOP_K_BLOCK_ELEMS", 21)
    keys = np.random.default_rng(5).integers(-2, 3, size=(40, 7)).astype(np.float64)
    for k in (1, 3, 7):
        want = np.argsort(-keys if negate else keys, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(k_smallest_columns(keys, k, negate=negate), want)


# keys that tie (−0.0 with 0.0 included) and sit at both infinities
_TOP_K_KEY_POOL = (-np.inf, -1.5, -0.0, 0.0, 0.25, 1.5, np.inf)


@pytest.mark.parametrize("side", ["passes", "partition"])
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 12),
       dtype=st.sampled_from(["float32", "float64"]), negate=st.booleans(),
       fortran=st.booleans(), data=st.data())
def test_k_smallest_columns_is_the_stable_argsort_prefix(side, seed, m, dtype, negate,
                                                         fortran, data):
    limit = discrete._TOP_K_PASSES
    n = data.draw(st.integers(1, 40) if side == "passes" else st.integers(limit + 1, 40))
    k = data.draw(st.integers(1, min(n, limit)) if side == "passes"
                  else st.integers(limit + 1, n))
    levels = sorted(data.draw(st.sets(st.integers(0, len(_TOP_K_KEY_POOL) - 1), min_size=1)))
    rng = np.random.default_rng(seed)
    keys = np.asarray(_TOP_K_KEY_POOL, dtype=dtype)[rng.choice(levels, size=(m, n))]
    if fortran:
        keys = np.asfortranarray(keys)
    keys.flags.writeable = False
    before = keys.copy()
    want = np.argsort(-keys if negate else keys, axis=1, kind="stable")[:, :k]
    # from one row per block to every row in one block
    block_elems = data.draw(st.integers(1, m * n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrete, "_TOP_K_BLOCK_ELEMS", block_elems)
        got = k_smallest_columns(keys, k, negate=negate)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(keys, before)
    assert np.array_equal(np.signbit(keys), np.signbit(before))


@pytest.mark.parametrize("k", [2, discrete._TOP_K_PASSES + 4], ids=["passes", "partition"])
@pytest.mark.parametrize("negate", [False, True])
def test_k_smallest_columns_nan_key_names_its_row(k, negate, monkeypatch):
    # 2 rows of 30 keys per block, so row 7 sits in the fourth block
    monkeypatch.setattr(discrete, "_TOP_K_BLOCK_ELEMS", 60)
    keys = np.random.default_rng(8).random((10, 30))
    keys[7, 29] = np.nan
    with pytest.raises(ValidationError, match="row 7 holds NaN"):
        k_smallest_columns(keys, k, negate=negate)
    keys[7, 29] = 0.5
    keys[3, 0] = np.nan
    keys[3, 1:] = np.inf
    with pytest.raises(ValidationError, match="row 3 holds NaN"):
        k_smallest_columns(keys.astype(np.float32), k, negate=negate)


def test_top_k_validates_k():
    plan = _plan_from(np.ones((2, 3)) / 6)
    y = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        plan_top_k_map(plan, y, k=0)
    with pytest.raises(ValidationError):
        plan_top_k_map(plan, y, k=4)


# ---------------------------------------------------------------- sampling


def test_sampling_respects_permutation_plan():
    perm = np.array([1, 2, 0])
    coupling = np.zeros((3, 3))
    coupling[np.arange(3), perm] = 1 / 3
    x = np.arange(6.0).reshape(3, 2)
    y = 100 + np.arange(6.0).reshape(3, 2)
    x0, x1 = sample_pairs_from_plan(_plan_from(coupling), x, y, 200, make_rng(0, "pairs"))
    assert x0.shape == x1.shape == (200, 2)
    for a, b in zip(x0, x1):
        i = int(a[0] // 2)
        assert np.array_equal(b, y[perm[i]])


def test_sampling_uniform_frequencies():
    coupling = np.full((2, 2), 0.25)
    i_idx, j_idx = sample_index_pairs(_plan_from(coupling), 100_000, make_rng(1, "pairs"))
    for i in range(2):
        for j in range(2):
            freq = np.mean((i_idx == i) & (j_idx == j))
            assert abs(freq - 0.25) < 0.01


def test_sampling_never_draws_zero_cell():
    coupling = np.array([[0.5, 0.0], [0.25, 0.25]])
    i_idx, j_idx = sample_index_pairs(_plan_from(coupling), 50_000, make_rng(2, "pairs"))
    assert not np.any((i_idx == 0) & (j_idx == 1))


def test_sampling_is_seed_deterministic():
    coupling = np.full((3, 4), 1 / 12)
    a1 = sample_index_pairs(_plan_from(coupling), 64, make_rng(5, "pairs"))
    a2 = sample_index_pairs(_plan_from(coupling), 64, make_rng(5, "pairs"))
    np.testing.assert_array_equal(a1[0], a2[0])
    np.testing.assert_array_equal(a1[1], a2[1])


def test_sampling_a_float32_plan_draws_from_its_widened_coupling():
    coupling = (make_rng(3, "root").uniform(size=(40, 50)) ** 4).astype(np.float32)
    coupling /= coupling.sum()
    widened = coupling.astype(np.float64)
    plan = TransportPlan(coupling, widened.sum(axis=1), widened.sum(axis=0),
                         0.1, 1, 0.0)
    assert plan.sampling_cdf.dtype == np.float64
    rng, ref = make_rng(3, "pairs"), make_rng(3, "pairs")
    i_idx, j_idx = sample_index_pairs(plan, 1000, rng)
    want = ref.choice(widened.size, size=1000, p=widened.ravel() / widened.sum())
    np.testing.assert_array_equal(i_idx * 50 + j_idx, want)


def test_sampling_equals_the_unsorted_cdf_search_on_a_plan_with_zero_entries():
    coupling = make_rng(9, "root").uniform(size=(30, 40)) ** 4
    coupling[5] = 0.0
    coupling[:, [0, 7, 39]] = 0.0
    coupling /= coupling.sum()
    plan = _plan_from(coupling)
    rng, ref = make_rng(9, "pairs"), make_rng(9, "pairs")
    for count in (1, 2, 3000):
        i_idx, j_idx = sample_index_pairs(plan, count, rng)
        want = plan.sampling_cdf.searchsorted(ref.random(count), side="right")
        np.testing.assert_array_equal(i_idx * 40 + j_idx, want)
        assert np.all(coupling[i_idx, j_idx] > 0.0)


@pytest.mark.parametrize("seed", [0, 7])
def test_sampling_draws_equal_generator_choice(seed):
    coupling = make_rng(seed, "root").uniform(size=(20, 30)) ** 4
    coupling[3] = 0.0
    coupling /= coupling.sum()
    plan = _plan_from(coupling)
    rng, ref = make_rng(seed, "pairs"), make_rng(seed, "pairs")
    for count in (1, 17, 500):
        i_idx, j_idx = sample_index_pairs(plan, count, rng)
        want = ref.choice(coupling.size, size=count,
                          p=coupling.ravel() / coupling.sum())
        np.testing.assert_array_equal(i_idx * 30 + j_idx, want)
