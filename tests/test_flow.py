"""Velocity-field training and ODE integration.

Integration tests use hand-built networks whose exact flow is known in
closed form; training tests use tasks whose optimal field is known.
"""

import numpy as np
import pytest

from otconvert.discrete import SinkhornConfig
from otconvert.errors import (DivergenceError, NumericalError, ShapeError,
                              ValidationError)
from otconvert.flow import (FlowConfig, VelocityField, fm_apply, fm_pipeline,
                            fm_train, plan_pair_sampler,
                            straight_path_deviation)
from otconvert.metrics import w2_squared_empirical
from otconvert.nn import MlpModel
from otconvert.rng import make_rng

SMALL = FlowConfig(hidden_dims=(32, 32), batch_size=128, iterations=400)
MID = FlowConfig(hidden_dims=(64, 64), batch_size=256, iterations=800)


def _constant_field(c):
    """Network that outputs the constant vector c regardless of input."""
    d = len(c)
    model = MlpModel(layer_dims=(d, 4, d), activation="relu", time_conditioned=True)
    model.biases[1][...] = c  # all weights stay zero
    return VelocityField(model=model, dim=d)


def _linear_field_1d():
    """Network computing v(t, x) = relu(x) - relu(-x) = x (1-d)."""
    model = MlpModel(layer_dims=(1, 2, 1), activation="relu", time_conditioned=True)
    model.weights[0][...] = [[1.0, -1.0], [0.0, 0.0]]  # second row: time input, unused
    model.weights[1][...] = [[1.0], [-1.0]]
    return VelocityField(model=model, dim=1)


class TestIntegration:
    def test_zero_field_is_identity(self):
        field = _constant_field([0.0, 0.0])
        x = make_rng(1).normal(size=(20, 2))
        assert np.array_equal(fm_apply(field, x, SMALL), x)

    def test_constant_field_euler_is_exact(self):
        c = [2.0, -3.0]
        field = _constant_field(c)
        x = make_rng(2).normal(size=(15, 2))
        out = fm_apply(field, x, FlowConfig(ode_steps=7, ode_method="euler"))
        assert np.allclose(out, x + np.array(c), atol=1e-12)

    def test_linear_field_euler_converges_to_e(self):
        # dx/dt = x from x0 has x(1) = e * x0
        field = _linear_field_1d()
        x = np.array([[1.0], [-2.0], [0.5]])
        out = fm_apply(field, x, FlowConfig(ode_steps=100, ode_method="euler"))
        assert np.allclose(out, np.e * x, rtol=0.01)

    def test_linear_field_rk4_is_tight(self):
        field = _linear_field_1d()
        x = np.array([[1.0], [-2.0], [0.5]])
        out = fm_apply(field, x, FlowConfig(ode_steps=100, ode_method="rk4"))
        assert np.allclose(out, np.e * x, rtol=1e-8)

    def test_euler_error_halves_with_step(self):
        field = _linear_field_1d()
        x = np.array([[1.0]])
        errs = []
        for steps in (50, 100):
            out = fm_apply(field, x, FlowConfig(ode_steps=steps))
            errs.append(abs(out[0, 0] - np.e))
        ratio = errs[0] / errs[1]
        assert 1.8 < ratio < 2.2

    def test_nonfinite_state_raises(self):
        field = _constant_field([1.0])
        field.model.biases[1][0] = np.nan
        with pytest.raises(NumericalError, match="step 0"):
            fm_apply(field, np.zeros((3, 1)), SMALL)

    def test_dim_mismatch(self):
        field = _constant_field([1.0, 2.0])
        with pytest.raises(ShapeError):
            fm_apply(field, np.zeros((3, 5)), SMALL)


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValidationError):
            FlowConfig(ode_method="heun")

    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            FlowConfig(iterations=0)
        with pytest.raises(ValidationError):
            FlowConfig(ode_steps=0)
        with pytest.raises(ValidationError):
            FlowConfig(batch_size=0)


def _shift_sampler(c):
    def sampler(count, rng):
        x = rng.normal(size=(count, len(c)))
        return x, x + c
    return sampler


class TestTraining:
    def test_constant_shift_field_learns_the_shift(self):
        c = np.array([2.0, -1.0, 1.5])
        field = fm_train(_shift_sampler(c), MID, make_rng(1, "train"))
        ev = make_rng(99, "eval")
        x0 = ev.normal(size=(200, 3))
        t = ev.uniform(size=200)
        xt = x0 + t[:, None] * c
        verr = np.linalg.norm(field.velocity(t, xt) - c, axis=1).mean()
        assert verr < 0.05 * np.linalg.norm(c)
        end = fm_apply(field, x0, MID)
        eerr = np.linalg.norm(end - (x0 + c), axis=1).mean()
        assert eerr < 0.05 * np.linalg.norm(c)

    def test_identical_measures_train_to_no_motion(self):
        def sampler(count, rng):
            x = rng.normal(size=(count, 2))
            return x, x
        field = fm_train(sampler, SMALL, make_rng(4, "train"))
        x = make_rng(5).normal(size=(200, 2))
        disp = np.linalg.norm(fm_apply(field, x, SMALL) - x, axis=1).mean()
        assert disp < 0.1

    def test_loss_trace_decreases(self):
        c = np.array([3.0, 0.0])
        field = fm_train(_shift_sampler(c), SMALL, make_rng(6, "train"))
        trace = np.array(field.training_loss_trace)
        assert len(trace) == SMALL.iterations
        assert trace[-50:].mean() < 0.2 * trace[:50].mean()

    def test_training_is_deterministic_per_seed(self):
        c = np.array([1.0, 2.0])
        cfg = FlowConfig(hidden_dims=(16,), batch_size=64, iterations=50)
        f1 = fm_train(_shift_sampler(c), cfg, make_rng(7, "train"))
        f2 = fm_train(_shift_sampler(c), cfg, make_rng(7, "train"))
        assert f1.training_loss_trace == f2.training_loss_trace
        for a, b in zip(f1.model.parameters(), f2.model.parameters()):
            assert np.array_equal(a, b)

    def test_nonfinite_loss_raises_divergence(self):
        def sampler(count, rng):
            x = rng.normal(size=(count, 2))
            return x, np.full_like(x, np.nan)
        with pytest.raises(DivergenceError, match="iteration 0"):
            fm_train(sampler, SMALL, make_rng(8, "train"))

    def test_mismatched_sampler_shapes(self):
        def sampler(count, rng):
            return np.zeros((count, 2)), np.zeros((count, 3))
        with pytest.raises(ShapeError):
            fm_train(sampler, SMALL, make_rng(9, "train"))


class TestPipeline:
    def test_gauss_shift_pipeline_converts_held_out_frames(self):
        rng = make_rng(1)
        shift = np.array([3.0, 0.0])
        src = rng.normal(size=(400, 2))
        ref = rng.normal(size=(400, 2)) + shift
        field, conv, report = fm_pipeline(
            src, ref, SinkhornConfig(epsilon=0.1), SMALL,
            make_rng(1, "train"), cost_kind="squared_euclidean")
        assert conv.shape == src.shape
        assert report.method == "fmvc"
        assert report.plan_stats is not None
        held = make_rng(77).normal(size=(200, 2))
        out = fm_apply(field, held, SMALL)
        err = np.linalg.norm(out - (held + shift), axis=1).mean()
        assert err < 0.12 * np.linalg.norm(shift)

    def test_pipeline_reduces_distance_to_reference(self):
        rng = make_rng(2)
        shift = np.array([0.0, 4.0])
        src = rng.normal(size=(300, 2))
        ref = rng.normal(size=(300, 2)) + shift
        _, conv, _ = fm_pipeline(src, ref, SinkhornConfig(epsilon=0.1), SMALL,
                                 make_rng(2, "train"),
                                 cost_kind="squared_euclidean")
        before = w2_squared_empirical(src[:64], ref[:64])
        after = w2_squared_empirical(conv[:64], ref[:64])
        assert after < 0.1 * before

    def test_single_reference_frame_contracts_everything(self):
        rng = make_rng(6)
        src = rng.normal(size=(60, 2))
        ref = np.array([[4.0, 4.0]])
        _, conv, _ = fm_pipeline(src, ref, SinkhornConfig(epsilon=0.1), SMALL,
                                 make_rng(6, "train"),
                                 cost_kind="squared_euclidean")
        before = np.linalg.norm(src - ref, axis=1).mean()
        after = np.linalg.norm(conv - ref, axis=1).mean()
        assert after < 0.3 * before

    def test_plan_pair_sampler_draws_coupled_rows(self):
        # diagonal plan => sampler must return matched (x_i, y_i) pairs
        from otconvert.discrete import TransportPlan
        n = 5
        plan = TransportPlan(coupling=np.eye(n) / n,
                             row_marginal=np.full(n, 1 / n),
                             col_marginal=np.full(n, 1 / n),
                             epsilon=0.1, iterations_used=1, marginal_error=0.0)
        x = np.arange(10.0).reshape(5, 2)
        y = x + 100.0
        sampler = plan_pair_sampler(plan, x, y)
        x0, x1 = sampler(40, make_rng(11, "pairs"))
        assert np.allclose(x1 - x0, 100.0)

    def test_straight_paths_for_shift_field(self):
        c = np.array([2.0, -1.0, 1.5])
        field = fm_train(_shift_sampler(c), MID, make_rng(1, "train"))
        ev = make_rng(12)
        x0 = ev.normal(size=(50, 3))
        dev = straight_path_deviation(field, x0, x0 + c, MID)
        assert dev < 0.15

    def test_straight_path_rejects_zero_chord(self):
        field = _constant_field([1.0, 0.0])
        x = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            straight_path_deviation(field, x, x, SMALL)

    def test_straight_path_nonfinite_state_raises(self):
        field = _constant_field([1.0])
        field.model.biases[1][0] = np.nan
        x0 = np.zeros((3, 1))
        with pytest.raises(NumericalError, match="step 0"):
            straight_path_deviation(field, x0, x0 + 1.0, SMALL)
