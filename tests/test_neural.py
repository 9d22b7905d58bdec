"""Maximin transport training: loss values, gradients, and recovery tasks.

Loss-value tests pin exact numbers computed by hand on single-layer nets.
Gradient tests use smooth (tanh) networks so central differences are
well-posed everywhere.
"""

import numpy as np
import pytest

from otconvert.discrete import SinkhornConfig
from otconvert.errors import DivergenceError, ValidationError
from otconvert.flow import FlowConfig
from otconvert.neural import (
    ConditionalDataset,
    ConditionSpec,
    NotConfig,
    NotModelPair,
    apply_map,
    dataset_from_arrays,
    draw_rows,
    duality_gap_estimate,
    not_loss_map,
    not_loss_potential,
    not_train,
    potential_value,
)
from otconvert.nn import (MlpModel, _forward_cached, adam_init, adam_step,
                          init_mlp, mlp_backward)
from otconvert.rng import make_rng
from otconvert.synth import clusters_outlier, gauss_shift, two_conditions

S0 = np.array([0.0])  # single zeroed condition slot


def _linear_net(weight_rows, bias, condition_dim=1):
    """Single linear layer: out = x @ w + b, condition columns welded in."""
    w = np.array(weight_rows, dtype=np.float64)
    in_dim = w.shape[0] - condition_dim
    return MlpModel(layer_dims=(in_dim, w.shape[1]),
                    params=np.concatenate([w.ravel(), np.array(bias, dtype=np.float64)]),
                    condition_dim=condition_dim)


def _pair(map_model, pot_model, transform=False):
    return NotModelPair(map_model=map_model, potential_model=pot_model,
                        nonpositivity_transform=transform)


def _hand_setup():
    # T(x) = 3x + 0.5, u(y) = 2y, one zeroed condition input each
    map_model = _linear_net([[3.0], [0.0]], [0.5])
    pot_model = _linear_net([[2.0], [0.0]], [0.0])
    x = np.array([[1.0], [2.0]])
    y = np.array([[0.5], [1.5]])
    return map_model, pot_model, x, y


class TestLossValues:
    def test_plain_potential_loss_by_hand(self):
        map_model, pot_model, x, y = _hand_setup()
        pair = _pair(map_model, pot_model)
        loss, grads = not_loss_potential(pair, x, y, S0, NotConfig())
        # mean f(y) = 2*1.0 = 2 ; T(x) = [3.5, 6.5], mean f(Tx) = 10
        assert loss == pytest.approx(-8.0, abs=1e-12)
        assert grads.shape == pot_model.params.shape

    def test_plain_map_loss_by_hand(self):
        map_model, pot_model, x, y = _hand_setup()
        pair = _pair(map_model, pot_model)
        loss, grads = not_loss_map(pair, x, S0, NotConfig())
        # half mean (Tx-x)^2 = (6.25+20.25)/4 = 6.625 ; mean f(Tx) = 10
        assert loss == pytest.approx(6.625 - 10.0, abs=1e-12)
        assert grads.shape == map_model.params.shape

    def test_extremal_losses_by_hand(self):
        map_model, pot_model, x, y = _hand_setup()
        pair = _pair(map_model, pot_model, transform=True)
        cfg = NotConfig(extremal=True, w=3.0)
        sp = lambda u: np.logaddexp(0.0, u)
        f_y = -sp(2.0 * y[:, 0])
        f_tx = -sp(2.0 * np.array([3.5, 6.5]))
        loss_f, _ = not_loss_potential(pair, x, y, S0, cfg)
        assert loss_f == pytest.approx(3.0 * f_y.mean() - f_tx.mean(), abs=1e-12)
        loss_t, _ = not_loss_map(pair, x, S0, cfg)
        assert loss_t == pytest.approx(6.625 - f_tx.mean(), abs=1e-12)

    def test_w_scales_target_term_only(self):
        map_model, pot_model, x, y = _hand_setup()
        pair = _pair(map_model, pot_model, transform=True)
        l1, _ = not_loss_potential(pair, x, y, S0, NotConfig(extremal=True, w=1.0))
        l5, _ = not_loss_potential(pair, x, y, S0, NotConfig(extremal=True, w=5.0))
        f_y_mean = potential_value(pair, y, S0).mean()
        assert l5 - l1 == pytest.approx(4.0 * f_y_mean, abs=1e-12)

    def test_identity_map_on_shared_batch_gives_zero_potential_loss(self):
        # T(x) = relu(x) - relu(-x) = x, condition row zeroed
        w0 = np.array([[1.0, -1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, -1.0],
                       [0.0, 0.0, 0.0, 0.0]])
        w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ident = MlpModel(layer_dims=(2, 4, 2), condition_dim=1)
        ident.weights[0][...] = w0
        ident.weights[1][...] = w1
        pot = init_mlp((2, 8, 1), make_rng(3, "init"), activation="tanh",
                       condition_dim=1)
        pair = _pair(ident, pot)
        x = make_rng(4).normal(size=(12, 2))
        loss, grads = not_loss_potential(pair, x, x, S0, NotConfig())
        assert loss == 0.0
        assert np.allclose(grads, 0.0, atol=1e-15)


FD_STEP = 1e-5


@pytest.mark.parametrize("extremal", [False, True])
def test_map_step_without_potential_parameter_gradient_is_bit_identical(extremal):
    # the map loss and gradient as computed when the potential's backward
    # pass also formed its (unused) parameter gradient
    rng = make_rng(21, "init")
    pair = NotModelPair(
        map_model=init_mlp((3, 16, 16, 3), rng, activation="relu", condition_dim=2),
        potential_model=init_mlp((3, 16, 16, 1), rng, activation="relu", condition_dim=2),
        nonpositivity_transform=extremal)
    x = make_rng(22).normal(size=(32, 3))
    s = np.array([1.0, -0.5])
    cfg = NotConfig(extremal=extremal)

    tx, cache = _forward_cached(pair.map_model, x, s=s)
    u, pot_cache = _forward_cached(pair.potential_model, tx, s=s)
    upstream = np.full(32, -1.0 / 32)
    if extremal:
        f_tx = -np.logaddexp(0.0, u[:, 0])
        up_u = (upstream * np.expm1(f_tx))[:, None]
    else:
        f_tx, up_u = u[:, 0], upstream[:, None]
    pot_grads, f_y_grad = mlp_backward(pair.potential_model, tx, s=s, upstream=up_u,
                                       cache=pot_cache)
    assert pot_grads.shape == pair.potential_model.params.shape
    diff = tx - x
    want_loss = float(0.5 * np.mean(np.sum(diff * diff, axis=1)) - f_tx.mean())
    want_grads, _ = mlp_backward(pair.map_model, x, s=s, upstream=diff / 32 + f_y_grad,
                                 cache=cache)

    loss, grads = not_loss_map(pair, x, s, cfg)
    assert loss == want_loss
    assert np.array_equal(grads, want_grads)


def _fd_check(loss_fn, params, grads, rtol=1e-4, atol=1e-8):
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            keep = flat_p[idx]
            flat_p[idx] = keep + FD_STEP
            up = loss_fn()
            flat_p[idx] = keep - FD_STEP
            down = loss_fn()
            flat_p[idx] = keep
            fd = (up - down) / (2.0 * FD_STEP)
            assert np.isclose(flat_g[idx], fd, rtol=rtol, atol=atol), (
                f"analytic {flat_g[idx]} vs fd {fd} at index {idx}"
            )


def _tanh_pair(rng, transform):
    map_model = init_mlp((2, 5, 2), rng, activation="tanh", condition_dim=2)
    pot_model = init_mlp((2, 5, 1), rng, activation="tanh", condition_dim=2)
    return _pair(map_model, pot_model, transform=transform)


class TestGradients:
    @pytest.mark.parametrize("extremal", [False, True])
    def test_potential_loss_gradients(self, extremal):
        cfg = NotConfig(extremal=extremal)
        for seed in range(5):
            rng = make_rng(200 + seed, "init")
            pair = _tanh_pair(rng, extremal)
            x = rng.normal(size=(4, 2))
            y = rng.normal(size=(3, 2))
            s = rng.normal(size=2)
            _, grads = not_loss_potential(pair, x, y, s, cfg)
            _fd_check(lambda: not_loss_potential(pair, x, y, s, cfg)[0],
                      [pair.potential_model.params], [grads])

    @pytest.mark.parametrize("extremal", [False, True])
    def test_map_loss_gradients(self, extremal):
        cfg = NotConfig(extremal=extremal)
        for seed in range(5):
            rng = make_rng(300 + seed, "init")
            pair = _tanh_pair(rng, extremal)
            x = rng.normal(size=(4, 2))
            s = rng.normal(size=2)
            _, grads = not_loss_map(pair, x, s, cfg)
            _fd_check(lambda: not_loss_map(pair, x, s, cfg)[0],
                      [pair.map_model.params], [grads])


class TestStructure:
    def test_transform_forces_nonpositive_values(self):
        rng = make_rng(5, "init")
        pot = init_mlp((3, 8, 1), rng, condition_dim=1)
        pot.biases[-1][:] = 50.0  # push raw outputs far positive
        pair = _pair(init_mlp((3, 4, 3), rng, condition_dim=1), pot,
                     transform=True)
        vals = potential_value(pair, rng.normal(size=(40, 3)), S0)
        assert np.all(vals <= 0.0)

    def test_mode_mismatch_rejected(self):
        rng = make_rng(6, "init")
        pair = _tanh_pair(rng, transform=True)
        with pytest.raises(ValidationError):
            not_loss_map(pair, np.zeros((2, 2)), np.zeros(2), NotConfig())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            NotConfig(w=0.5)
        with pytest.raises(ValidationError):
            NotConfig(inner_steps=0)
        with pytest.raises(ValidationError):
            NotConfig(checkpoint_every=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cls, name", [
        (SinkhornConfig, "epsilon"), (SinkhornConfig, "tolerance"),
        (FlowConfig, "learning_rate"), (NotConfig, "w"),
        (NotConfig, "map_lr"), (NotConfig, "divergence_guard"),
    ])
    def test_config_rejects_non_finite_floats(self, cls, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            cls(**{name: value})

    def test_w_effective_defaults(self):
        assert NotConfig().w_effective == 1.0
        assert NotConfig(extremal=True).w_effective == 12.0
        assert NotConfig(extremal=True, w=3.0).w_effective == 3.0
        assert NotConfig(w=3.0).w_effective == 1.0

    def test_dataset_validation(self):
        rows = np.zeros((4, 2))

        def spec(label, vector, source=rows, target=rows):
            return ConditionSpec(label, np.array(vector), source, target)

        with pytest.raises(ValidationError, match="at least one condition"):
            ConditionalDataset([])
        ds = ConditionalDataset([spec("a", [1.0, 0.0]), spec("b", [0.0, 1.0])])
        assert (ds.dim, ds.condition_dim) == (2, 2)
        for bad, key in [(spec("b", [0.0, 1.0, 2.0]), "b.vector"),
                         (spec("b", [np.nan, 1.0]), "b.vector"),
                         (spec("b", [0.0, 1.0], target=np.zeros((4, 3))), "b.target"),
                         (spec("b", [0.0, 1.0], source=np.zeros((0, 2))), "b.source")]:
            with pytest.raises(ValidationError, match=f"^{key} "):
                ConditionalDataset([spec("a", [1.0, 0.0]), bad])

    def test_dataset_from_arrays_resamples_rows(self):
        rows = np.arange(8.0).reshape(4, 2)
        ds = dataset_from_arrays([("c", [1.0], rows, rows + 100.0)])
        assert ds.conditions[0].source.dtype == np.float64
        batch = draw_rows(ds.conditions[0].source, 64, make_rng(7))
        # the draw the trained bytes rest on: one integers() call per batch
        np.testing.assert_array_equal(
            batch, rows[make_rng(7).integers(0, 4, size=64)])
        # every drawn row must literally be one of the four inputs
        matches = (batch[:, None, :] == rows[None, :, :]).all(axis=2)
        assert matches.any(axis=1).all()


def _train_map_only(pair, x_rows, steps, lr=1e-2):
    cfg = NotConfig()
    params = pair.map_model.params
    opt = adam_init(params, lr)
    rng = make_rng(13, "train")
    for _ in range(steps):
        batch = x_rows[rng.integers(0, len(x_rows), size=64)]
        _, grads = not_loss_map(pair, batch, S0, cfg)
        adam_step(opt, params, grads)


class TestFrozenPotentialBestResponse:
    def test_zero_potential_pulls_map_to_identity(self):
        rng = make_rng(8, "init")
        map_model = init_mlp((2, 32, 32, 2), rng, condition_dim=1)
        zero_pot = _linear_net([[0.0], [0.0], [0.0]], [0.0])
        pair = _pair(map_model, zero_pot)
        x = make_rng(9).normal(size=(500, 2))
        _train_map_only(pair, x, steps=400)
        tx = apply_map(pair, x, S0)
        assert np.linalg.norm(tx - x, axis=1).mean() < 0.1

    def test_linear_potential_shifts_map_by_its_gradient(self):
        # f(y) = g . y  =>  argmin_T  half|x-T|^2 - f(T) is T = x + g
        g = np.array([2.0, -1.0])
        rng = make_rng(10, "init")
        map_model = init_mlp((2, 32, 32, 2), rng, condition_dim=1)
        pot = _linear_net([[2.0], [-1.0], [0.0]], [0.0])
        pair = _pair(map_model, pot)
        x = make_rng(11).normal(size=(500, 2))
        _train_map_only(pair, x, steps=600)
        tx = apply_map(pair, x, S0)
        err = np.linalg.norm(tx - (x + g), axis=1).mean()
        assert err < 0.05 * np.linalg.norm(g)


class TestTraining:
    def test_gaussian_shift_recovery(self):
        task = gauss_shift(2000, 2, make_rng(1))
        shift = np.array(task.truth["shift"])
        ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
        cfg = NotConfig(hidden_dims=(32, 32), batch_size=64,
                        total_outer_iterations=300, checkpoint_every=100)
        pair, trace = not_train(ds, cfg, make_rng(1, "train"))
        held = make_rng(99).normal(size=(400, 2))
        tx = apply_map(pair, held, np.array([1.0]))
        err = np.linalg.norm(tx - (held + shift), axis=1).mean()
        assert err < 0.25
        assert len(trace.potential_losses) == 300
        assert len(trace.map_losses) == 300
        assert [c.iteration for c in trace.checkpoints] == [100, 200, 300]

    def test_two_conditions_learn_their_own_shifts(self):
        task = two_conditions(1500, 2, make_rng(2))
        ds = dataset_from_arrays(task.entries)
        cfg = NotConfig(hidden_dims=(32, 32), batch_size=64,
                        total_outer_iterations=600, checkpoint_every=300)
        pair, _ = not_train(ds, cfg, make_rng(2, "train"))
        held = make_rng(98).normal(size=(300, 2))
        for label, vec, _, _ in task.entries:
            shift = np.array(task.truth["shifts"][label])
            tx = apply_map(pair, held, np.asarray(vec))
            err = np.linalg.norm(tx - (held + shift), axis=1).mean()
            assert err < 0.2 * np.linalg.norm(shift)

    def test_equal_measures_keep_map_near_identity(self):
        rows = make_rng(3).normal(size=(1500, 2))
        ds = dataset_from_arrays([("c", [1.0], rows, rows)])
        cfg = NotConfig(hidden_dims=(32, 32), batch_size=64,
                        total_outer_iterations=400, checkpoint_every=200)
        pair, _ = not_train(ds, cfg, make_rng(3, "train"))
        held = make_rng(97).normal(size=(300, 2))
        disp = np.linalg.norm(apply_map(pair, held, np.array([1.0])) - held,
                              axis=1).mean()
        assert disp < 0.25

    def test_checkpoint_reports_bound_fields(self):
        task = gauss_shift(500, 2, make_rng(4))
        ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
        cfg = NotConfig(hidden_dims=(16,), batch_size=32,
                        total_outer_iterations=50, checkpoint_every=25)
        _, trace = not_train(ds, cfg, make_rng(4, "train"))
        ev = trace.checkpoints[-1].conditions[0]
        assert ev.label == "c"
        assert ev.w2sq_map >= 0.0 and ev.w2sq_source >= 0.0
        assert ev.fd_map >= 0.0
        assert isinstance(ev.bound_holds, bool)

    def test_training_is_deterministic_per_seed(self):
        task = gauss_shift(500, 2, make_rng(6))
        ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
        cfg = NotConfig(hidden_dims=(16,), batch_size=32,
                        total_outer_iterations=40, checkpoint_every=20)
        pair_a, _ = not_train(ds, cfg, make_rng(6, "train"))
        pair_b, _ = not_train(ds, cfg, make_rng(6, "train"))
        for p, q in zip(pair_a.map_model.parameters(),
                        pair_b.map_model.parameters()):
            assert np.array_equal(p, q)

    def test_divergence_guard_raises_with_trace(self):
        task = gauss_shift(500, 2, make_rng(7))
        ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
        cfg = NotConfig(hidden_dims=(16,), batch_size=32,
                        total_outer_iterations=50, checkpoint_every=50,
                        divergence_guard=1e-6)
        with pytest.raises(DivergenceError) as err:
            not_train(ds, cfg, make_rng(7, "train"))
        assert err.value.trace is not None


class TestOutlierRejection:
    def test_large_w_ignores_far_cluster(self):
        task = clusters_outlier(1500, 2, make_rng(1))
        near = np.array(task.truth["near_center"])
        far = np.array(task.truth["outlier_center"])
        ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
        cfg = NotConfig(hidden_dims=(32, 32), batch_size=64,
                        total_outer_iterations=400, extremal=True,
                        checkpoint_every=200)
        pair, _ = not_train(ds, cfg, make_rng(1, "train"))
        held = make_rng(96).normal(size=(400, 2)) * task.truth["spread"]
        tx = apply_map(pair, held, np.array([1.0]))
        frac_near = np.mean(np.linalg.norm(tx - near, axis=1)
                            < np.linalg.norm(tx - far, axis=1))
        assert frac_near >= 0.9

    def test_w1_matches_plain_training_on_reachable_target(self):
        task = gauss_shift(1500, 2, make_rng(7))
        ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
        held = make_rng(95).normal(size=(400, 2))
        costs = {}
        for name, extremal in (("constrained", True), ("plain", False)):
            cfg = NotConfig(hidden_dims=(32, 32), batch_size=64,
                            total_outer_iterations=800, extremal=extremal,
                            w=1.0 if extremal else None, checkpoint_every=400)
            pair, _ = not_train(ds, cfg, make_rng(7, "train"))
            tx = apply_map(pair, held, np.array([1.0]))
            costs[name] = np.mean(0.5 * np.sum((held - tx) ** 2, axis=1))
        assert abs(costs["constrained"] - costs["plain"]) < 0.1 * costs["plain"]


class TestDualityGap:
    def test_converged_pair_has_small_inner_gap(self):
        task = gauss_shift(2000, 2, make_rng(8))
        ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
        cfg = NotConfig(hidden_dims=(32, 32), batch_size=64,
                        total_outer_iterations=600, checkpoint_every=300)
        pair, _ = not_train(ds, cfg, make_rng(8, "train"))
        report = duality_gap_estimate(pair, ds, cfg, make_rng(8, "eval"),
                                      probe_iterations=300)
        barely, _ = not_train(ds, NotConfig(hidden_dims=(32, 32), batch_size=64,
                                            total_outer_iterations=1,
                                            checkpoint_every=1),
                              make_rng(8, "train"))
        report_barely = duality_gap_estimate(barely, ds, cfg,
                                             make_rng(8, "eval"),
                                             probe_iterations=300)
        assert report.epsilon1_estimate < report_barely.epsilon1_estimate
        assert abs(report.epsilon1_estimate) < 0.5
        assert report.beta_note
        assert report.lipschitz_note
