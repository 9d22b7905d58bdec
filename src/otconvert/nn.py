"""Small fully connected networks with hand-derived gradients, plus Adam.

Networks here are at most a few layers, so explicit backprop keeps the
dependency surface at zero and lets every gradient be checked against
central finite differences. Hidden layers apply the activation; the final
layer is always a linear readout. The first layer's input may be augmented
with a scalar time column (``time_conditioned``) and/or a condition vector
(``condition_dim`` > 0); those extras widen the first weight matrix only.
Each network keeps all its parameters in one flat vector, and gradients and
Adam updates work on vectors in that same layout.

Precision: a forward or backward pass computes in the dtype of the model it
is given. Training holds each network as one ``COMPUTE_DTYPE`` (float32)
copy, about twice the one-core GEMM rate of float64, and ``as_dtype`` widens
it exactly to float64 for checkpoints, saved models and inference.
``adam_step`` is plain Adam at the fixed ``ADAM_BETAS`` and ``ADAM_EPSILON``
(Kingma & Ba, 2015), with no weight decay: the NOT setup's decoupled decay of
1e-10 scales float32 parameters by 1 - lr * 1e-10, which rounds to exactly 1
for any lr below 298 (2**-25 / 1e-10). It stores the moments as m/(1 - b1)
and v/(1 - b2), so its bias corrections and eps fold into two scalars per
step (§2).
Every ``FLUSH_EVERY`` steps it zeroes moment entries below ``FLUSH_BOUND``
times the dtype's ``tiny``: a dead unit's first moment decays by b1 a step
and would otherwise go subnormal, which slows every pass over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError

ACTIVATIONS = ("relu", "tanh")
COMPUTE_DTYPE = np.float32  # the dtype networks train in
ADAM_BETAS = (0.9, 0.999)
ADAM_EPSILON = 1e-8
# adam_step's subnormal flush; 0.9**64 > 2**-10, so a kept entry stays normal
FLUSH_EVERY = 64
FLUSH_BOUND = 2.0 ** 10


def param_layout(layer_dims, activation="relu", time_conditioned=False,
                 condition_dim=0) -> list[tuple[int, ...]]:
    """Check an architecture; return its parameter shapes [W0, b0, W1, b1, ...].

    This is the ``params`` layout. The time and condition columns widen W0 only.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValidationError("layer_dims needs at least input and output sizes")
    if any(d < 1 for d in dims):
        raise ValidationError(f"layer dims must be positive, got {dims}")
    if activation not in ACTIVATIONS:
        raise ValidationError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    fan_in = dims[0] + (1 if time_conditioned else 0) + int(condition_dim)
    shapes = []
    for fan_out in dims[1:]:
        shapes += [(fan_in, fan_out), (fan_out,)]
        fan_in = fan_out
    return shapes


@dataclass
class MlpModel:
    """Feedforward network: layer_dims = (input, hidden..., output).

    All parameters live in one vector ``params`` (float64 zeros if not
    given; float32 while the network trains, see ``as_dtype``);
    ``weights[i]`` and ``biases[i]`` are views into it.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray | None = None
    activation: str = "relu"
    time_conditioned: bool = False
    condition_dim: int = 0
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        self.condition_dim = int(self.condition_dim)
        self._slices, size = [], 0  # (start, stop, shape) per array of ``params``
        for shape in param_layout(self.layer_dims, self.activation,
                                  self.time_conditioned, self.condition_dim):
            start, size = size, size + math.prod(shape)
            self._slices.append((start, size, shape))
        if self.params is None:
            self.params = np.zeros(size)
        if (self.params.dtype not in (np.float64, COMPUTE_DTYPE)
                or self.params.shape != (size,)):
            raise ShapeError(f"params must be {size} float64 or float32 values,"
                             f" got {self.params.shape} {self.params.dtype}")
        views = self.split(self.params)
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views into a vector in ``params`` layout, interleaved [W0, b0, ...]."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._slices]

    def parameters(self) -> list[np.ndarray]:
        """Per-layer views into ``params``, interleaved [W0, b0, W1, b1, ...]."""
        return self.split(self.params)


def init_mlp(layer_dims, rng: np.random.Generator, activation: str = "relu",
             time_conditioned: bool = False, condition_dim: int = 0) -> MlpModel:
    """He-style initialisation: std = gain / sqrt(fan_in), zero biases.

    gain is sqrt(2) for relu hidden layers, 1 for tanh and for the linear
    readout.
    """
    model = MlpModel(layer_dims, activation=activation,
                     time_conditioned=time_conditioned, condition_dim=condition_dim)
    hidden_gain = np.sqrt(2.0) if activation == "relu" else 1.0
    last = len(model.weights) - 1
    for layer, w in enumerate(model.weights):
        gain = hidden_gain if layer < last else 1.0
        w[...] = rng.normal(0.0, gain / np.sqrt(w.shape[0]), size=w.shape)
    return model


def as_dtype(model: MlpModel, dtype) -> MlpModel:
    """A copy of model with its params in dtype.

    Training converts to ``COMPUTE_DTYPE`` when it starts and back to
    float64, which is exact, for checkpoints and the model it returns.
    """
    return MlpModel(model.layer_dims, model.params.astype(dtype),
                    model.activation, model.time_conditioned, model.condition_dim)


def _augment_input(model: MlpModel, x, t, s) -> np.ndarray:
    """x in the model's dtype, with the time and condition columns appended.

    A 1-d s is one condition vector for every row. With extra columns the
    result is one new array; without, x itself when it has the dtype.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"expected 2-d input, got shape {x.shape}")
    rows, dim = x.shape
    if dim != model.input_dim:
        raise ShapeError(
            f"input layer expects {model.input_dim} columns, got {dim}"
        )
    if model.time_conditioned:
        if t is None:
            raise ShapeError("model is time-conditioned but t was not given")
        t = np.asarray(t).reshape(-1)
        if t.shape[0] != rows:
            raise ShapeError(f"t has {t.shape[0]} entries for {rows} rows")
    elif t is not None:
        raise ShapeError("t given but model is not time-conditioned")
    if model.condition_dim > 0:
        if s is None:
            raise ShapeError("model has condition input but s was not given")
        s = np.asarray(s)
        shape = (rows, s.shape[0]) if s.ndim == 1 else s.shape
        if shape != (rows, model.condition_dim):
            raise ShapeError(
                f"condition input expects shape ({rows}, {model.condition_dim}),"
                f" got {shape}"
            )
    elif s is not None:
        raise ShapeError("s given but model has condition_dim 0")
    if t is None and s is None:
        return x.astype(model.params.dtype, copy=False)
    out = np.empty((rows, model.weights[0].shape[0]), model.params.dtype)
    out[:, :dim] = x
    if t is not None:
        out[:, dim] = t
    if s is not None:
        out[:, -model.condition_dim:] = s
    return out


def _forward_cached(model: MlpModel, x, t=None, s=None):
    """Forward pass returning (output, cache) for reuse by the backward pass.

    Computes in the model's dtype. The cache lists each layer's input, then
    the output. Bias and activation are applied in place, so each layer
    allocates one array.
    """
    post = [_augment_input(model, x, t, s)]
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = post[-1] @ w
        z += b
        if layer < last:
            if model.activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.tanh(z, out=z)
        post.append(z)
    return post[-1], post


def mlp_forward(model: MlpModel, x, t=None, s=None) -> np.ndarray:
    """Evaluate the network on a batch of rows."""
    out, _ = _forward_cached(model, x, t, s)
    return out


def mlp_backward(model: MlpModel, x, t=None, s=None, upstream=None, cache=None,
                 params=True):
    """Gradients of <upstream, forward(x)> w.r.t. ``model.params`` and x.

    Returns (grad, x_grad), both in the model's dtype: grad is a flat vector
    in the ``params`` layout, or None when params is false and only x_grad
    is wanted; x_grad covers the x columns only, not the time/condition
    columns.
    """
    if upstream is None:
        raise ShapeError("upstream gradient is required")
    if cache is None:
        _, cache = _forward_cached(model, x, t, s)
    post = cache
    upstream = np.asarray(upstream, dtype=model.params.dtype)
    if upstream.shape != post[-1].shape:
        raise ShapeError(
            f"upstream gradient shape {upstream.shape} != output shape {post[-1].shape}"
        )
    grad = np.empty_like(model.params) if params else None
    views = model.split(grad) if params else None  # [W0, b0, W1, b1, ...]
    g = upstream
    # bias gradients as one GEMV each, a few times faster than an axis-0 sum
    ones = np.ones(g.shape[0], g.dtype) if params else None
    for layer in range(len(model.weights) - 1, -1, -1):
        if params:
            np.matmul(post[layer].T, g, out=views[2 * layer])
            np.matmul(ones, g, out=views[2 * layer + 1])
        g = g @ model.weights[layer].T
        if layer > 0:
            h = post[layer]  # activation of the layer below
            if model.activation == "relu":
                np.multiply(g, h > 0.0, out=g)
            else:
                g *= 1.0 - h ** 2
    return grad, g[:, : model.input_dim]


@dataclass
class AdamState:
    """Adam state for one flat parameter vector.

    ``buffers`` is one (3, n) block in the dtype of the parameters: the
    moments rescaled as m / (1 - beta1) and v / (1 - beta2), and a scratch
    row, so a step allocates nothing.
    """

    learning_rate: float
    buffers: np.ndarray
    step: int = 0


def adam_init(params, learning_rate) -> AdamState:
    """Zeroed Adam state for the flat vector ``params``, in its dtype."""
    return AdamState(learning_rate=float(learning_rate),
                     buffers=np.zeros((3, params.size), params.dtype))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray):
    """One Adam update of the flat vector params from the flat vector grads.

    The update computes in the dtype of params; grads of a narrower dtype
    enter widened. Mutates params and state in place and returns both. A
    non-finite gradient raises NumericalError naming its flat index and
    changes nothing.
    """
    m, v, g = state.buffers
    if params.shape != m.shape or grads.shape != m.shape:
        raise ShapeError(f"params {params.shape} and grads {grads.shape} do not"
                         f" match the optimizer state {m.shape}")
    # the sum, in the dtype of params, is non-finite past a non-finite entry
    # or when finite entries overflow it, so the scan decides
    if not np.isfinite(grads.sum(dtype=m.dtype)):
        bad = np.flatnonzero(~np.isfinite(grads))
        if bad.size:
            raise NumericalError(f"non-finite gradient at flat index {bad[0]}")
    b1, b2 = ADAM_BETAS
    state.step += 1
    # with m' = m/(1-b1) and v' = v/(1-b2), Adam's bias-corrected step
    # lr * m_hat / (sqrt(v_hat) + eps) is c * m' / (sqrt(v') + eps * r)
    r = math.sqrt((1.0 - b2 ** state.step) / (1.0 - b2))
    c = state.learning_rate * (1.0 - b1) / (1.0 - b1 ** state.step) * r
    m *= b1
    m += grads
    v *= b2
    np.square(grads, out=g, dtype=g.dtype)
    v += g
    np.sqrt(v, out=g)
    g += ADAM_EPSILON * r
    np.divide(m, g, out=g)
    g *= c
    params -= g
    if state.step % FLUSH_EVERY == 0:
        floor = FLUSH_BOUND * np.finfo(m.dtype).tiny
        for moment in (m, v):
            moment[np.abs(moment, out=g) < floor] = 0.0
    return params, state
