"""Frame conversion: transport-weighted and plain nearest-neighbor averaging."""

import tracemalloc
import warnings

import numpy as np
import pytest

from otconvert import discrete
from otconvert.convert import DEFAULT_TOP_K, knn_convert, sinkvc_convert
from otconvert.discrete import (SinkhornConfig, cost_matrix, exact_ot, k_smallest_columns,
                                sinkhorn)
from otconvert.errors import ConvergenceWarning, ShapeError, ValidationError
from otconvert.rng import make_rng
from otconvert.synth import conversion_clusters, nearest_direction

SHARP = SinkhornConfig(epsilon=0.005, max_iterations=20_000, tolerance=1e-9)


def _frames(rng, n, d, scale=1.0):
    x = rng.normal(size=(n, d))
    return scale * x / np.linalg.norm(x, axis=1, keepdims=True)


class TestSinkvcIdentity:
    def test_self_reference_returns_own_frames(self):
        rng = make_rng(11)
        x = _frames(rng, 16, 6)
        out, report = sinkvc_convert(x, x, cfg=SHARP, k=1)
        assert np.allclose(out, x, atol=1e-9)
        assert report.mean_transport_cost < 1e-3

    def test_permuted_reference_recovers_frames(self):
        rng = make_rng(12)
        x = _frames(rng, 20, 5)
        perm = rng.permutation(20)
        out, _ = sinkvc_convert(x, x[perm], cfg=SHARP, k=1)
        assert np.max(np.abs(out - x)) < 1e-6

    def test_report_fields(self):
        rng = make_rng(13)
        x = _frames(rng, 10, 4)
        y = _frames(rng, 14, 4)
        out, report = sinkvc_convert(x, y, cfg=SHARP, k=3)
        assert out.shape == (10, 4)
        assert report.method == "sinkvc"
        assert report.k == 3
        assert report.plan_stats is not None
        assert report.plan_stats.epsilon == SHARP.epsilon
        assert report.plan_stats.marginal_error < SHARP.tolerance
        assert report.plan_stats.iterations_used >= 1

    def test_budget_run_out_warns(self):
        rng = make_rng(14)
        x = _frames(rng, 10, 4)
        y = _frames(rng, 14, 4)
        cfg = SinkhornConfig(epsilon=1e-4, max_iterations=5)
        with pytest.warns(ConvergenceWarning, match="Sinkhorn stopped after 5 iterations"):
            _, report = sinkvc_convert(x, y, cfg=cfg)
        assert report.plan_stats.marginal_error >= cfg.tolerance

    def test_converged_plan_does_not_warn(self):
        rng = make_rng(13)
        x = _frames(rng, 10, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            _, report = sinkvc_convert(x, _frames(rng, 14, 4), cfg=SHARP)
        assert report.plan_stats.marginal_error < SHARP.tolerance


class TestSinkvcMatchesExactAssignment:
    def test_sharp_plan_agrees_with_assignment(self):
        # aggregate match rate across several random problems
        total = 0
        agree = 0
        for seed in range(10):
            rng = make_rng(100 + seed)
            x = _frames(rng, 16, 4)
            y = _frames(rng, 16, 4)
            cost = cost_matrix(x, y, kind="cosine_distance")
            plan, _ = exact_ot(cost)
            assign = np.argmax(plan.coupling, axis=1)
            out, _ = sinkvc_convert(x, y, cfg=SHARP, k=1)
            matched = np.all(np.isclose(out, y[assign], atol=1e-12), axis=1)
            agree += int(matched.sum())
            total += 16
        assert agree / total >= 0.95


class TestSinkvcClusters:
    def test_default_settings_keep_frames_in_their_cluster(self):
        rng = make_rng(21)
        task = conversion_clusters(120, 480, dim=6, rng=rng, n_clusters=3)
        out, report = sinkvc_convert(task.source, task.target)
        assert report.k == DEFAULT_TOP_K
        got = nearest_direction(out, np.array(task.truth["shifted_directions"]))
        rate = np.mean(got == task.source_labels)
        assert rate >= 0.95

    def test_outputs_move_toward_reference_centroids(self):
        # noise on single frames swamps the offset, so score per-cluster means
        rng = make_rng(22)
        task = conversion_clusters(150, 450, dim=5, rng=rng, n_clusters=3,
                                   offset=0.2)
        out, _ = sinkvc_convert(task.source, task.target)
        shifted = np.array(task.truth["shifted_directions"])
        base = np.array(task.truth["directions"])
        for c in range(3):
            centroid = out[task.source_labels == c].mean(axis=0)
            centroid /= np.linalg.norm(centroid)
            assert centroid @ shifted[c] > centroid @ base[c]

    def test_reference_order_invariance(self):
        rng = make_rng(23)
        x = _frames(rng, 12, 4)
        y = _frames(rng, 18, 4)
        perm = rng.permutation(18)
        out_a, _ = sinkvc_convert(x, y, cfg=SHARP, k=1)
        out_b, _ = sinkvc_convert(x, y[perm], cfg=SHARP, k=1)
        assert np.allclose(out_a, out_b, atol=1e-6)


class TestKnn:
    def test_k1_self_is_identity(self):
        rng = make_rng(31)
        x = _frames(rng, 15, 5)
        out, report = knn_convert(x, x, k=1)
        assert np.allclose(out, x, atol=1e-12)
        assert report.method == "knn"
        assert report.plan_stats is None
        assert report.mean_transport_cost < 1e-12

    def test_k_equals_m_averages_everything(self):
        rng = make_rng(32)
        x = _frames(rng, 7, 3)
        y = _frames(rng, 9, 3)
        out, _ = knn_convert(x, y, k=9)
        expected = np.tile(y.mean(axis=0), (7, 1))
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_naive_double_loop(self):
        rng = make_rng(33)
        x = _frames(rng, 10, 4)
        y = _frames(rng, 13, 4)
        k = 3
        out, report = knn_convert(x, y, k=k)
        cost = cost_matrix(x, y, kind="cosine_distance")
        costs_seen = []
        for i in range(10):
            order = sorted(range(13), key=lambda j: (cost.values[i, j], j))[:k]
            assert np.allclose(out[i], y[order].mean(axis=0), atol=1e-12)
            costs_seen.extend(cost.values[i, j] for j in order)
        assert np.isclose(report.mean_transport_cost, np.mean(costs_seen), atol=1e-12)


class TestFloat32Kernel:
    """sinkvc's default solve runs on a float32 kernel; forced onto the
    float64 path, the same instance gives the same iterations and frames."""

    def test_matches_the_float64_path(self, monkeypatch):
        task = conversion_clusters(200, 3000, 16, make_rng(36), n_clusters=8,
                                   angular_spread=0.2)
        cost = cost_matrix(task.source, task.target, "cosine_distance")
        single = sinkhorn(cost)
        frames, _ = sinkvc_convert(task.source, task.target)
        monkeypatch.setattr(discrete, "_SINGLE_SPAN", 0.0)
        double = sinkhorn(cost)
        want, _ = sinkvc_convert(task.source, task.target)
        assert single.coupling.dtype == np.float32
        assert double.coupling.dtype == np.float64
        assert single.iterations_used == double.iterations_used
        gap = np.abs(single.coupling - double.coupling).max()
        assert gap <= 1e-5 * double.coupling.max()
        assert np.array_equal(k_smallest_columns(single.coupling, 4, negate=True),
                              k_smallest_columns(double.coupling, 4, negate=True))
        assert np.array_equal(frames, want)


def test_frames_are_means_of_the_stable_argsort_top_four():
    # benchmark-like size: a float32 plan's top-k and the cosine cost's
    # bottom-k give the frames bit for bit
    task = conversion_clusters(200, 3000, 16, make_rng(37), n_clusters=8,
                               angular_spread=0.2)
    cost = cost_matrix(task.source, task.target, "cosine_distance")
    plan = sinkhorn(cost)
    assert plan.coupling.dtype == np.float32
    top = np.argsort(-plan.coupling, axis=1, kind="stable")[:, :4]
    nearest = np.argsort(cost.values, axis=1, kind="stable")[:, :4]
    sinkvc_frames, _ = sinkvc_convert(task.source, task.target)
    knn_frames, _ = knn_convert(task.source, task.target)
    assert np.array_equal(sinkvc_frames, task.target[top].mean(axis=1))
    assert np.array_equal(knn_frames, task.target[nearest].mean(axis=1))


class TestMemory:
    """Peak traced allocation of a conversion, in m×n float64 arrays.

    sinkvc holds the cost and the float32 kernel that becomes the plan, and
    knn the cost alone; the rest (the top-k blocks, vectors) stays under a
    quarter of an array at this size.
    """

    @staticmethod
    def _peak_arrays(convert, m=200, n=3000):
        rng = make_rng(35)
        source, reference = _frames(rng, m, 16), _frames(rng, n, 16)
        tracemalloc.start()
        try:
            convert(source, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (m * n * 8)

    def test_sinkvc_holds_two_arrays(self):
        assert self._peak_arrays(sinkvc_convert) <= 1.75

    def test_knn_holds_one_array(self):
        assert self._peak_arrays(knn_convert) <= 1.25


class TestValidation:
    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            sinkvc_convert(np.zeros((3, 2)), np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            knn_convert(np.zeros((3, 2)), np.zeros((4, 3)))

    def test_bad_k(self):
        x = np.eye(3)
        with pytest.raises(ValidationError):
            sinkvc_convert(x, x, k=0)
        with pytest.raises(ValidationError):
            knn_convert(x, x, k=4)

    def test_frame_count_preserved(self):
        rng = make_rng(41)
        x = _frames(rng, 23, 4)
        y = _frames(rng, 31, 4)
        out, _ = sinkvc_convert(x, y, cfg=SinkhornConfig(epsilon=0.1), k=2)
        assert out.shape == (23, 4)
