import numpy as np
import pytest

from otconvert.errors import NumericalError, ShapeError, ValidationError
from otconvert.fileio import (read_not_pair, read_velocity_field, write_not_pair,
                              write_velocity_field)
from otconvert import flow, neural
from otconvert.flow import FlowConfig, fm_train
from otconvert.neural import NotConfig, dataset_from_arrays, not_train
from otconvert.nn import (
    COMPUTE_DTYPE,
    MlpModel,
    adam_init,
    adam_step,
    as_dtype,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from otconvert.rng import make_rng

FD_STEP = 1e-5
FD_RTOL = 1e-4


def _reference_forward(model, x, t=None, s=None):
    """Row-by-row, column-by-column forward pass, independent of the library."""
    rows = []
    for i in range(x.shape[0]):
        a = list(x[i])
        if model.time_conditioned:
            a.append(float(t[i]))
        if model.condition_dim:
            a.extend(s[i])
        a = np.array(a, dtype=np.float64)
        last = len(model.weights) - 1
        for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = np.array(
                [sum(a[k] * w[k, j] for k in range(w.shape[0])) + b[j]
                 for j in range(w.shape[1])]
            )
            if layer < last:
                a = np.maximum(z, 0.0) if model.activation == "relu" else np.tanh(z)
            else:
                a = z
        rows.append(a)
    return np.stack(rows)


def _scalar_loss(model, x, t, s, upstream):
    return float(np.sum(upstream * mlp_forward(model, x, t=t, s=s)))


def _fd_grad(model, x, t, s, upstream, array):
    """Central finite differences of the weighted output sum w.r.t. `array`."""
    g = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + FD_STEP
        up = _scalar_loss(model, x, t, s, upstream)
        array[idx] = orig - FD_STEP
        down = _scalar_loss(model, x, t, s, upstream)
        array[idx] = orig
        g[idx] = (up - down) / (2.0 * FD_STEP)
        it.iternext()
    return g


def _build(activation, time_conditioned, condition_dim, seed=11):
    rng = make_rng(seed, "init")
    model = init_mlp(
        (3, 5, 2),
        rng,
        activation=activation,
        time_conditioned=time_conditioned,
        condition_dim=condition_dim,
    )
    data = make_rng(seed, "train")
    x = data.normal(size=(6, 3))
    t = data.uniform(size=6) if time_conditioned else None
    s = data.normal(size=(6, condition_dim)) if condition_dim else None
    upstream = data.normal(size=(6, 2))
    return model, x, t, s, upstream


def _relu_margin(model, x, t, s):
    """Smallest |pre-activation| over hidden layers, to keep FD off the kink."""
    a = np.concatenate(
        [x]
        + ([t[:, None]] if model.time_conditioned else [])
        + ([s] if model.condition_dim else []),
        axis=1,
    ) if (model.time_conditioned or model.condition_dim) else x
    margins = []
    for layer in range(len(model.weights) - 1):
        z = a @ model.weights[layer] + model.biases[layer]
        margins.append(np.abs(z).min())
        a = np.maximum(z, 0.0)
    return min(margins)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("time_conditioned,condition_dim", [(False, 0), (True, 2)])
def test_forward_matches_reference(activation, time_conditioned, condition_dim):
    model, x, t, s, _ = _build(activation, time_conditioned, condition_dim)
    got = mlp_forward(model, x, t=t, s=s)
    want = _reference_forward(model, x, t=t, s=s)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("time_conditioned,condition_dim", [(False, 0), (True, 2)])
def test_backward_matches_finite_differences(activation, time_conditioned, condition_dim):
    model, x, t, s, upstream = _build(activation, time_conditioned, condition_dim)
    if activation == "relu":
        # a pre-activation within the FD step of zero would invalidate the check
        assert _relu_margin(model, x, t, s) > 100 * FD_STEP
    grad, x_grad = mlp_backward(model, x, t=t, s=s, upstream=upstream)
    assert grad.shape == model.params.shape
    fd = _fd_grad(model, x, t, s, upstream, model.params)
    np.testing.assert_allclose(grad, fd, rtol=FD_RTOL, atol=1e-7)
    fd_x = _fd_grad(model, x, t, s, upstream, x)
    np.testing.assert_allclose(x_grad, fd_x, rtol=FD_RTOL, atol=1e-7)


# float32 passes against float64 ones, relative to the largest magnitude
# compared: a few float32 roundings for these two-layer nets
F32_TOL = 8 * np.finfo(np.float32).eps


def _assert_f32_close(got, want):
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=0, atol=F32_TOL * np.abs(want).max())


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("time_conditioned,condition_dim", [(False, 0), (True, 2)])
def test_working_copy_passes_match_float64_to_float32_rounding(
        activation, time_conditioned, condition_dim):
    model, x, t, s, upstream = _build(activation, time_conditioned, condition_dim)
    if activation == "relu":
        # float32 rounding must not flip a unit's side of the kink
        assert _relu_margin(model, x, t, s) > 1e-3
    work = as_dtype(model, COMPUTE_DTYPE)
    assert work.params.dtype == np.float32
    assert model.params.dtype == np.float64
    _assert_f32_close(mlp_forward(work, x, t=t, s=s), mlp_forward(model, x, t=t, s=s))
    grad32, x_grad32 = mlp_backward(work, x, t=t, s=s, upstream=upstream)
    grad64, x_grad64 = mlp_backward(model, x, t=t, s=s, upstream=upstream)
    _assert_f32_close(grad32, grad64)
    _assert_f32_close(x_grad32, x_grad64)


def test_backward_accepts_precomputed_cache():
    model, x, t, s, upstream = _build("tanh", True, 2)
    from otconvert.nn import _forward_cached

    out, cache = _forward_cached(model, x, t=t, s=s)
    grad_a, xg_a = mlp_backward(model, x, t=t, s=s, upstream=upstream, cache=cache)
    grad_b, xg_b = mlp_backward(model, x, t=t, s=s, upstream=upstream)
    np.testing.assert_array_equal(grad_a, grad_b)
    np.testing.assert_array_equal(xg_a, xg_b)


def test_init_is_seed_deterministic_with_zero_biases():
    a = init_mlp((4, 8, 3), make_rng(7, "init"))
    b = init_mlp((4, 8, 3), make_rng(7, "init"))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for bias in a.biases:
        np.testing.assert_array_equal(bias, np.zeros_like(bias))
    c = init_mlp((4, 8, 3), make_rng(8, "init"))
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_scale_tracks_fan_in():
    model = init_mlp((400, 300, 10), make_rng(0, "init"), activation="relu")
    std0 = model.weights[0].std()
    want0 = np.sqrt(2.0 / 400)
    assert abs(std0 - want0) / want0 < 0.1
    std_last = model.weights[-1].std()
    want_last = np.sqrt(1.0 / 300)
    assert abs(std_last - want_last) / want_last < 0.1


def test_init_time_and_condition_widen_first_layer_only():
    model = init_mlp((3, 5, 2), make_rng(0, "init"), time_conditioned=True,
                     condition_dim=4)
    assert model.weights[0].shape == (3 + 1 + 4, 5)
    assert model.weights[1].shape == (5, 2)


def test_forward_shape_validation():
    model = init_mlp((3, 4, 2), make_rng(0, "init"))
    with pytest.raises(ShapeError):
        mlp_forward(model, np.zeros((5, 7)))
    with pytest.raises(ShapeError):
        mlp_forward(model, np.zeros(3))
    with pytest.raises(ShapeError):
        mlp_forward(model, np.zeros((5, 3)), t=np.zeros(5))  # not time-conditioned
    cond = init_mlp((3, 4, 2), make_rng(0, "init"), condition_dim=2)
    with pytest.raises(ShapeError):
        mlp_forward(cond, np.zeros((5, 3)))  # missing s


def test_adam_matches_scalar_recurrence():
    """Independent elementwise Adam recurrence, no weight decay."""
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    params = np.array([2.0])
    state = adam_init(params, lr)

    x = 2.0
    m = v = 0.0
    for step in range(1, 26):
        g = np.array([np.sin(step) + x])
        adam_step(state, params, g.copy())
        gs = float(g[0])
        m = b1 * m + (1 - b1) * gs
        v = b2 * v + (1 - b2) * gs * gs
        mhat = m / (1 - b1**step)
        vhat = v / (1 - b2**step)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(params[0], x, rtol=1e-14)


def test_adam_matches_scalar_recurrence_with_float32_gradients():
    """Independent elementwise Adam recurrence, float32 gradients."""
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    params = np.array([2.0, -1.5])
    state = adam_init(params, lr)
    x = params.tolist()
    m, v = [0.0, 0.0], [0.0, 0.0]
    for step in range(1, 41):
        g32 = np.array([np.sin(step) + x[0], np.cos(3 * step) - x[1]], dtype=np.float32)
        adam_step(state, params, g32)
        for i, gs in enumerate(g32.tolist()):
            m[i] = b1 * m[i] + (1 - b1) * gs
            v[i] = b2 * v[i] + (1 - b2) * gs * gs
            mhat = m[i] / (1 - b1**step)
            vhat = v[i] / (1 - b2**step)
            x[i] -= lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(params, x, rtol=1e-13)


def test_adam_converges_on_quadratic():
    params = np.array([0.0])
    state = adam_init(params, 0.1)
    for _ in range(500):
        adam_step(state, params, 2.0 * (params - 3.0))
    assert abs(params[0] - 3.0) < 1e-2


def test_adam_rejects_non_finite_gradient_with_index():
    params = np.zeros(5)
    state = adam_init(params, 0.01)
    bad = np.array([0.0, 0.0, 0.0, np.nan, np.inf])
    with pytest.raises(NumericalError, match="flat index 3"):
        adam_step(state, params, bad)
    # a rejected step leaves parameters and state untouched
    assert state.step == 0
    np.testing.assert_array_equal(params, np.zeros(5))


def test_adam_accepts_finite_float32_gradients_whose_float32_sum_overflows():
    params = np.zeros(4)
    state = adam_init(params, 0.01)
    grads = np.array([3e38, 3e38, -1.0, 2.0], dtype=np.float32)
    with np.errstate(over="ignore"):
        assert np.isinf(grads.sum())
    adam_step(state, params, grads)
    assert state.step == 1
    assert np.all(np.isfinite(params)) and np.all(params != 0.0)


@pytest.mark.parametrize("index", [0, 6, 9])
def test_adam_rejects_a_float32_nan_naming_its_index_and_changes_nothing(index):
    params = make_rng(4).normal(size=10)
    state = adam_init(params, 0.01)
    adam_step(state, params, np.ones(10, dtype=np.float32))
    before = params.copy(), [buf.copy() for buf in state.buffers[:2]]
    bad = np.ones(10, dtype=np.float32)
    bad[index] = np.nan
    with pytest.raises(NumericalError, match=f"flat index {index}$"):
        adam_step(state, params, bad)
    assert state.step == 1
    np.testing.assert_array_equal(params, before[0])
    for buf, kept in zip(state.buffers[:2], before[1]):
        np.testing.assert_array_equal(buf, kept)


def test_adam_init_gives_the_moments_the_dtype_of_the_params():
    for dtype in (np.float32, np.float64):
        state = adam_init(np.zeros(6, dtype), 0.01)
        assert state.buffers.dtype == dtype
        assert state.buffers[0].shape == state.buffers[1].shape == (6,)


def test_float32_moments_never_go_subnormal_after_the_gradient_stops():
    # a dead unit: one unit gradient, then zeros; b1**t passes float32's
    # smallest normal near step 830 and its smallest subnormal near 990
    params = np.ones(4, np.float32)
    state = adam_init(params, 0.001)
    adam_step(state, params, np.ones(4, np.float32))
    tiny = np.finfo(np.float32).tiny
    for _ in range(1000):
        adam_step(state, params, np.zeros(4, np.float32))
        for moment in state.buffers[:2]:
            assert moment.dtype == np.float32
            assert not np.any((moment != 0.0) & (np.abs(moment) < tiny)), state.step
    assert np.all(state.buffers[1] > 0.0)  # v decays by b2 and stays normal


def test_trained_models_are_the_exact_float64_widening_of_their_float32_copies(
        monkeypatch):
    widened = []

    def recording(model, dtype):
        out = as_dtype(model, dtype)
        if dtype == np.float64:
            widened.append((model.params.copy(), out))
        return out

    monkeypatch.setattr(flow, "as_dtype", recording)
    monkeypatch.setattr(neural, "as_dtype", recording)
    rng = make_rng(2)
    shift = np.array([1.0, -0.5])

    def pairs(count, rng):
        x0 = rng.normal(size=(count, 2))
        return x0, x0 + shift

    field = fm_train(pairs, FlowConfig(hidden_dims=(8,), batch_size=16, iterations=5),
                     make_rng(3, "train"))
    dataset = dataset_from_arrays([("c", [1.0], rng.normal(size=(50, 2)),
                                    rng.normal(size=(50, 2)) + shift)])
    pair, _ = not_train(dataset, NotConfig(hidden_dims=(8,), batch_size=16,
                                           inner_steps=2, total_outer_iterations=3,
                                           eval_samples=8),
                        make_rng(4, "train"))
    # fm_train widens its field once; not_train its map and potential once
    # at its one checkpoint, the last iteration, and returns that pair
    returned = [field.model, pair.map_model, pair.potential_model]
    assert len(widened) == len(returned)
    for (trained, out), model in zip(widened, returned):
        assert out is model
        assert trained.dtype == np.float32
        assert out.params.dtype == np.float64
        assert np.array_equal(out.params, trained.astype(np.float64))
        assert np.array_equal(out.params.astype(np.float32), trained)


def test_trained_params_stay_float64_through_model_files(tmp_path):
    rng = make_rng(2)
    shift = np.array([1.0, -0.5])

    def pairs(count, rng):
        x0 = rng.normal(size=(count, 2))
        return x0, x0 + shift

    field = fm_train(pairs, FlowConfig(hidden_dims=(8,), batch_size=16, iterations=5),
                     make_rng(3, "train"))
    dataset = dataset_from_arrays([("c", [1.0], rng.normal(size=(50, 2)),
                                    rng.normal(size=(50, 2)) + shift)])
    pair, _ = not_train(dataset, NotConfig(hidden_dims=(8,), batch_size=16,
                                           inner_steps=2, total_outer_iterations=3,
                                           eval_samples=8),
                        make_rng(4, "train"))
    write_velocity_field(tmp_path / "field.otm", field)
    write_not_pair(tmp_path / "pair.otm", pair)
    loaded_field, _ = read_velocity_field(tmp_path / "field.otm")
    loaded_pair, _ = read_not_pair(tmp_path / "pair.otm")
    for trained, loaded in ((field.model, loaded_field.model),
                            (pair.map_model, loaded_pair.map_model),
                            (pair.potential_model, loaded_pair.potential_model)):
        assert trained.params.dtype == np.float64
        assert loaded.params.dtype == np.float64
        assert np.array_equal(loaded.params, trained.params)


def test_adam_rejects_mismatched_shapes():
    params = np.zeros(3)
    state = adam_init(params, 0.01)
    with pytest.raises(ShapeError):
        adam_step(state, params, np.zeros(4))
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(4), np.zeros(4))


def test_params_size_counts_every_weight_and_bias():
    model = init_mlp((3, 5, 2), make_rng(0, "init"))
    assert model.params.size == 3 * 5 + 5 + 5 * 2 + 2


def test_layers_are_views_into_params_and_adam_moves_them():
    model = init_mlp((3, 5, 2), make_rng(0, "init"), time_conditioned=True)
    for layer in model.weights + model.biases:
        assert np.shares_memory(layer, model.params)
    before = [layer.copy() for layer in model.weights + model.biases]
    # the first Adam step moves every entry by lr against the gradient's sign
    adam_step(adam_init(model.params, 0.1), model.params, np.ones(model.params.size))
    for old, new in zip(before, model.weights + model.biases):
        np.testing.assert_allclose(new, old - 0.1, rtol=0, atol=1e-8)


def test_params_layout_and_validation():
    model = init_mlp((3, 5, 2), make_rng(0, "init"), condition_dim=2)
    w0, b0, w1, b1 = model.parameters()
    np.testing.assert_array_equal(model.params[:25], w0.ravel())
    np.testing.assert_array_equal(model.params[25:30], b0)
    assert [p.shape for p in model.parameters()] == [(5, 5), (5,), (5, 2), (2,)]
    with pytest.raises(ShapeError):
        MlpModel(layer_dims=(3, 2), params=np.zeros(7))
    for dims, activation in [((3,), "relu"), ((3, 0, 2), "relu"), ((3, 2), "gelu")]:
        with pytest.raises(ValidationError):
            MlpModel(layer_dims=dims, activation=activation)
