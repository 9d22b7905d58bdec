import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from otconvert.discrete import SinkhornConfig
from otconvert.errors import CapacityError, DomainError, ValidationError
from otconvert.metrics import (
    GaussianStats,
    frechet_distance,
    gaussian_fit,
    theorem1_check,
    w2_squared_empirical,
    w2_squared_gaussian,
)
from otconvert.rng import make_rng


# ------------------------------------------------------------- empirical W2


def test_w2_exact_identical_sets_is_zero():
    rng = make_rng(20, "root")
    x = rng.normal(size=(10, 3))
    assert w2_squared_empirical(x, x, mode="exact_small") == pytest.approx(0.0, abs=1e-12)


def test_w2_exact_single_pair_half_convention():
    assert w2_squared_empirical([[0.0]], [[3.0]], mode="exact_small") == pytest.approx(4.5)


def test_w2_exact_matches_brute_force_over_permutations():
    rng = make_rng(21, "root")
    x = rng.normal(size=(6, 2))
    y = rng.normal(size=(6, 2))
    got = w2_squared_empirical(x, y, mode="exact_small")
    best = min(
        sum(0.5 * np.sum((x[i] - y[p[i]]) ** 2) for i in range(6)) / 6.0
        for p in itertools.permutations(range(6))
    )
    assert got == pytest.approx(best, rel=1e-12)


def test_w2_exact_metric_properties():
    rng = make_rng(22, "root")
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 3))
    z = rng.normal(size=(8, 3))
    dxy = w2_squared_empirical(x, y, mode="exact_small")
    dyx = w2_squared_empirical(y, x, mode="exact_small")
    assert dxy == pytest.approx(dyx, rel=1e-12)
    assert w2_squared_empirical(x, x, mode="exact_small") < 1e-12
    # triangle inequality holds for the unit-cost W2 metric sqrt(2 * value)
    w = lambda a, b: np.sqrt(2.0 * w2_squared_empirical(a, b, mode="exact_small"))
    assert w(x, z) <= w(x, y) + w(y, z) + 1e-9


def test_w2_sinkhorn_never_undercuts_exact():
    rng = make_rng(23, "root")
    for _ in range(3):
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 3)) + 0.5
        exact = w2_squared_empirical(x, y, mode="exact_small")
        est = w2_squared_empirical(x, y, mode="sinkhorn")
        assert est >= exact - 1e-9


def _w2_peak_arrays(tolerance):
    """Peak traced allocation of a 1000×1000 W2 solve at ε = 1, in m×n
    float64 arrays. The cost spans under 40ε, so the tolerance picks the
    kernel's precision."""
    rng = make_rng(26, "root")
    x, y = rng.normal(size=(1000, 4)), rng.normal(size=(1000, 4))
    tracemalloc.start()
    try:
        w2_squared_empirical(x, y, mode="sinkhorn",
                             cfg=SinkhornConfig(epsilon=1.0, tolerance=tolerance))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (1000 * 1000 * 8)


def test_w2_sinkhorn_holds_about_four_arrays():
    """The cost, the float32 plan, its widened copy, projected in its own
    buffer, and the projection's rank-one correction: ⟨C, P⟩ itself builds
    no m×n temporary."""
    assert _w2_peak_arrays(1e-6) <= 3.75


def test_w2_sinkhorn_on_a_float64_kernel_holds_about_three_arrays():
    """The cost, the plan, projected in its own buffer, and the rank-one
    correction."""
    assert _w2_peak_arrays(1e-9) <= 3.25


def test_w2_mode_selection_and_errors():
    rng = make_rng(24, "root")
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(7, 2))
    with pytest.raises(ValidationError):
        w2_squared_empirical(x, y, mode="exact_small")
    with pytest.raises(CapacityError):
        w2_squared_empirical(np.zeros((65, 2)), np.zeros((65, 2)), mode="exact_small")
    with pytest.raises(ValidationError):
        w2_squared_empirical(x, y, mode="nearest")
    # auto mode: small equal sizes take the exact route (exact zero), larger
    # or unequal take the entropic route (strictly positive on X=Y)
    assert w2_squared_empirical(x, x) == pytest.approx(0.0, abs=1e-12)
    assert w2_squared_empirical(x, np.vstack([x, x[:1]])) > 0.0


# ------------------------------------------------------------- Gaussian W2


def _stats(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    return GaussianStats(mean=mean, covariance=cov, sample_count=0)


def test_w2_gaussian_identical_is_zero():
    g = _stats([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
    assert w2_squared_gaussian(g, g) == pytest.approx(0.0, abs=1e-10)


def test_w2_gaussian_mean_only_term():
    g1 = _stats([0.0], [[1.0]])
    g2 = _stats([3.0], [[1.0]])
    assert w2_squared_gaussian(g1, g2) == pytest.approx(9.0)


def test_w2_gaussian_diagonal_swap():
    g1 = _stats([0.0, 0.0], np.diag([1.0, 4.0]))
    g2 = _stats([0.0, 0.0], np.diag([4.0, 1.0]))
    # trace term: (1+4+4+1) - 2*(2+2) = 2
    assert w2_squared_gaussian(g1, g2) == pytest.approx(2.0, rel=1e-12)


def test_w2_gaussian_matches_1d_closed_form():
    rng = make_rng(25, "root")
    for _ in range(10):
        m1, m2 = rng.normal(size=2)
        s1, s2 = rng.uniform(0.2, 3.0, size=2)
        got = w2_squared_gaussian(_stats([m1], [[s1**2]]), _stats([m2], [[s2**2]]))
        assert got == pytest.approx((m1 - m2) ** 2 + (s1 - s2) ** 2, rel=1e-10)


def test_w2_gaussian_rejects_bad_covariances():
    good = _stats([0.0, 0.0], np.eye(2))
    with pytest.raises(DomainError):
        w2_squared_gaussian(good, _stats([0.0, 0.0], np.diag([1.0, -0.5])))
    with pytest.raises(DomainError):
        w2_squared_gaussian(good, _stats([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]))


def test_w2_gaussian_full_covariances_match_sqrtm_reference():
    # non-commuting covariances; the reference takes Tr((Σ1 Σ2)^{1/2}) from
    # scipy's general matrix root of the unsymmetrized product
    rng = make_rng(27, "root")
    for _ in range(5):
        q1, q2 = rng.normal(size=(2, 3, 3))
        g1 = _stats(rng.normal(size=3), q1 @ q1.T + 0.2 * np.eye(3))
        g2 = _stats(rng.normal(size=3), q2 @ q2.T + 0.2 * np.eye(3))
        cross = np.real(scipy.linalg.sqrtm(g1.covariance @ g2.covariance))
        want = (float(np.sum((g1.mean - g2.mean) ** 2))
                + np.trace(g1.covariance + g2.covariance) - 2.0 * np.trace(cross))
        assert w2_squared_gaussian(g1, g2) == pytest.approx(want, rel=1e-8)


# ------------------------------------------------------------- fits and FD


def test_gaussian_fit_matches_loop_moments():
    rng = make_rng(28, "root")
    x = rng.normal(size=(40, 3))
    g = gaussian_fit(x)
    mean = sum(x[i] for i in range(40)) / 40
    cov = sum(np.outer(x[i] - mean, x[i] - mean) for i in range(40)) / 40
    np.testing.assert_allclose(g.mean, mean, rtol=1e-12)
    np.testing.assert_allclose(g.covariance, cov, atol=1e-12)
    assert g.sample_count == 40


def test_gaussian_fit_shrinks_when_underdetermined():
    rng = make_rng(29, "root")
    x = rng.normal(size=(3, 5))
    g = gaussian_fit(x)
    vals = np.linalg.eigvalsh(g.covariance)
    assert vals.min() > 0.0  # ridge keeps the fit usable


def test_frechet_identical_sets():
    rng = make_rng(30, "root")
    x = rng.normal(size=(50, 4))
    assert frechet_distance(x, x) == pytest.approx(0.0, abs=1e-10)


def test_frechet_approximates_mean_shift():
    rng = make_rng(31, "root")
    m = np.array([1.0, -2.0, 2.0])
    x = rng.normal(size=(10_000, 3))
    y = rng.normal(size=(10_000, 3)) + m
    want = float(m @ m)
    assert frechet_distance(x, y) == pytest.approx(want, rel=0.05)


def test_frechet_symmetry():
    rng = make_rng(32, "root")
    x = rng.normal(size=(30, 3))
    y = 2.0 * rng.normal(size=(45, 3)) + 1.0
    assert frechet_distance(x, y) == pytest.approx(frechet_distance(y, x), rel=1e-10)


# ------------------------------------------------------------- theorem 1


def test_theorem1_identical_sets():
    rng = make_rng(33, "root")
    x = rng.normal(size=(20, 3))
    fd, two_w2, holds = theorem1_check(x, x.copy())
    assert holds
    assert fd == pytest.approx(0.0, abs=1e-10)
    assert two_w2 == pytest.approx(0.0, abs=1e-10)


def test_theorem1_holds_on_random_gaussian_pairs():
    for seed in range(8):
        rng = make_rng(40 + seed, "root")
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(60, d)) @ np.diag(rng.uniform(0.5, 2.0, size=d))
        y = rng.normal(size=(60, d)) + rng.normal(size=d)
        fd, two_w2, holds = theorem1_check(x, y)
        assert holds, (seed, fd, two_w2)
        assert fd <= two_w2 + 1e-8


def test_frechet_equals_twice_exact_w2_under_a_monotone_affine_map():
    """Y = X·A + c with A symmetric positive definite is the gradient of a
    convex function, so matching row i to row i is optimal, and the ddof-0
    fits hold the empirical second moments exactly: the Gaussian formula
    then gives the empirical cost, and FD <= 2·W2² is an equality."""
    rng = make_rng(28, "root")
    n, d = 40, 3
    x = rng.normal(size=(n, d))
    root = rng.normal(size=(d, d))
    y = x @ (root @ root.T + 0.5 * np.eye(d)) + rng.normal(size=d)
    two_w2 = 2.0 * w2_squared_empirical(x, y, mode="exact_small")
    assert two_w2 == pytest.approx(np.mean(np.sum((x - y) ** 2, axis=1)), rel=1e-12)
    assert frechet_distance(x, y) == pytest.approx(two_w2, rel=1e-12)
    assert theorem1_check(x, y, mode="exact_small").holds


def test_theorem1_holds_on_bimodal_vs_unimodal():
    rng = make_rng(50, "root")
    half = rng.normal(scale=0.3, size=(100, 2))
    x = np.vstack([half - 4.0, half + 4.0])  # bimodal, Gaussian fit is blind to it
    y = rng.normal(size=(200, 2))
    fd, two_w2, holds = theorem1_check(x, y)
    assert holds
    assert fd <= two_w2 + 1e-8


def test_theorem1_sinkhorn_route():
    rng = make_rng(51, "root")
    x = rng.normal(size=(90, 3))
    y = rng.normal(size=(110, 3)) + 1.0
    fd, two_w2, holds = theorem1_check(x, y)  # unequal sizes force sinkhorn
    assert holds


# ------------------------------------------------------------- auto mode


def test_w2_default_mode_is_exact_for_equal_small_sets_else_sinkhorn():
    rng = make_rng(52, "root")
    x = rng.normal(size=(16, 3))
    y = rng.normal(size=(16, 3)) + 0.5
    assert w2_squared_empirical(x, y) == w2_squared_empirical(
        x, y, mode="exact_small")
    assert w2_squared_empirical(x, y[:10]) == w2_squared_empirical(
        x, y[:10], mode="sinkhorn")
