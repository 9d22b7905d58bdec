"""Velocity-field training on transport-plan pairs, and ODE application.

The field v(t, x) is regressed so that straight-line interpolants between
coupled pairs (x0, x1) move with velocity (x1 - x0): integrating
dx/dt = v(t, x) from t=0 then carries a source sample to its target. The
sign convention (target minus source) is chosen so that t=0 is the source
side; see the README for why this is stated explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convert import plan_report
from .discrete import SinkhornConfig, cost_matrix, sample_pairs_from_plan, sinkhorn
from .errors import (DivergenceError, NumericalError, SettingError, ShapeError,
                     ValidationError, reject_non_finite)
from .nn import (
    COMPUTE_DTYPE,
    MlpModel,
    _forward_cached,
    adam_init,
    adam_step,
    as_dtype,
    init_mlp,
    mlp_backward,
    mlp_forward,
)

ODE_METHODS = ("euler", "rk4")

# fm_train diverges once a finite loss passes this multiple of the first one
_BLOW_UP = 1e8


@dataclass
class FlowConfig:
    hidden_dims: tuple[int, ...] = (512, 512, 512)
    batch_size: int = 1000
    iterations: int = 1000
    learning_rate: float = 0.001
    ode_steps: int = 100
    ode_method: str = "euler"

    def __post_init__(self):
        reject_non_finite(self)
        for key in ("iterations", "ode_steps", "batch_size"):
            if getattr(self, key) < 1:
                raise SettingError(key, "must be >= 1")
        if self.learning_rate <= 0:
            raise SettingError("learning_rate", f"must be > 0, got {self.learning_rate}")
        if any(d < 1 for d in self.hidden_dims):
            raise SettingError("hidden_dims", f"must all be >= 1, got {self.hidden_dims}")
        if self.ode_method not in ODE_METHODS:
            raise SettingError("ode_method",
                               f"must be one of {ODE_METHODS}, got {self.ode_method!r}")


@dataclass
class VelocityField:
    """A trained time-conditioned network v(t, x) with its loss history."""

    model: MlpModel
    dim: int
    training_loss_trace: list = field(default_factory=list)

    def velocity(self, t, x) -> np.ndarray:
        """Evaluate v(t, x) on a batch; t may be a scalar or per-row vector."""
        x = np.asarray(x, dtype=np.float64)
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],))
        return mlp_forward(self.model, x, t=t_arr)


def fm_train(pair_sampler, cfg: FlowConfig, rng: np.random.Generator) -> VelocityField:
    """Fit a velocity field to coupled pairs by interpolant regression.

    pair_sampler(count, rng) must return two (count, d) arrays (x0, x1).
    Each iteration draws a batch, samples t uniformly per element, forms
    x_t = (1-t) x0 + t x1, and takes one Adam step on
    mean ‖v(t, x_t) − (x1 − x0)‖². The network trains as one float32 copy
    and is returned widened to float64. The per-iteration loss lands in
    training_loss_trace.

    Raises DivergenceError naming the iteration if the loss goes non-finite
    or past _BLOW_UP times the first iteration's.
    """
    x0, x1 = pair_sampler(2, rng)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2:
        raise ShapeError(f"pair sampler must yield 2-d batches, got shape {x0.shape}")
    dim = x0.shape[1]
    if np.asarray(x1).shape != x0.shape:
        raise ShapeError("pair sampler returned mismatched x0/x1 shapes")

    model = as_dtype(init_mlp((dim, *cfg.hidden_dims, dim), rng, activation="relu",
                              time_conditioned=True), COMPUTE_DTYPE)
    opt = adam_init(model.params, cfg.learning_rate)
    trace: list[float] = []
    # the loss check and adam_step turn float32 overflow into errors
    with np.errstate(all="ignore"):
        for iteration in range(cfg.iterations):
            x0, x1 = pair_sampler(cfg.batch_size, rng)
            x0 = np.asarray(x0, dtype=np.float64)
            x1 = np.asarray(x1, dtype=np.float64)
            t = rng.uniform(size=cfg.batch_size)
            xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
            target = x1 - x0
            pred, cache = _forward_cached(model, xt, t=t)
            diff = pred - target
            loss = float(np.mean(np.sum(diff * diff, axis=1)))
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"training loss became non-finite at iteration {iteration}",
                    trace=trace,
                )
            trace.append(loss)
            if loss > _BLOW_UP * trace[0] > 0.0:
                raise DivergenceError(f"training loss {loss:g} passed {_BLOW_UP:g} times"
                                      f" the first at iteration {iteration}", trace=trace)
            grads, _ = mlp_backward(model, xt, t=t, upstream=2.0 * diff / cfg.batch_size,
                                    cache=cache)
            adam_step(opt, model.params, grads)
    return VelocityField(as_dtype(model, np.float64), dim, trace)


def _ode_states(field: VelocityField, x: np.ndarray, cfg: FlowConfig):
    """Yield the state after each fixed step of dx/dt = v(t, x) from t=0 to 1.

    Raises NumericalError naming the step if the state stops being finite.
    """
    state = x
    h = 1.0 / cfg.ode_steps
    for step in range(cfg.ode_steps):
        t = step * h
        if cfg.ode_method == "euler":
            state = state + h * field.velocity(t, state)
        else:
            k1 = field.velocity(t, state)
            k2 = field.velocity(t + 0.5 * h, state + 0.5 * h * k1)
            k3 = field.velocity(t + 0.5 * h, state + 0.5 * h * k2)
            k4 = field.velocity(t + h, state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise NumericalError(f"integration state became non-finite at step {step}")
        yield state


def fm_apply(field: VelocityField, x, cfg: FlowConfig | None = None) -> np.ndarray:
    """Integrate dx/dt = v(t, x) from t=0 to t=1 for each row of x.

    Fixed-step euler or rk4 per cfg; deterministic. Raises NumericalError
    naming the step if the state stops being finite.
    """
    cfg = cfg or FlowConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != field.dim:
        raise ShapeError(
            f"expected shape (n, {field.dim}), got {x.shape}"
        )
    for state in _ode_states(field, x, cfg):
        pass
    return state


def plan_pair_sampler(plan, source, reference):
    """Close over a transport plan so fm_train can draw coupled batches."""
    source = np.asarray(source, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)

    def sampler(count, rng):
        return sample_pairs_from_plan(plan, source, reference, count, rng)

    return sampler


def fm_pipeline(source, reference, sink_cfg: SinkhornConfig | None,
                flow_cfg: FlowConfig, rng: np.random.Generator,
                cost_kind: str = "cosine_distance"):
    """Solve one plan, train a field on its pairs, convert the source.

    Returns (field, converted, ConversionReport). Unlike the plan-based
    converter the trained field extends to frames that were never part of
    the matching problem.
    """
    source = np.asarray(source, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    sink_cfg = sink_cfg or SinkhornConfig()
    cost = cost_matrix(source, reference, cost_kind)
    plan = sinkhorn(cost, cfg=sink_cfg)
    report = plan_report("fmvc", 0, plan, cost)
    del cost  # training holds the plan and its sampling CDF, not the cost
    field = fm_train(plan_pair_sampler(plan, source, reference), flow_cfg, rng)
    converted = fm_apply(field, source, flow_cfg)
    return field, converted, report


def straight_path_deviation(field: VelocityField, x0, x1,
                            cfg: FlowConfig | None = None) -> float:
    """Mean relative deviation of integrated trajectories from their chords.

    For each pair, integrates from x0 recording every intermediate state and
    measures the largest distance to the segment x0→x1, divided by the chord
    length. Values near 0 mean the field moves mass along straight lines.
    Raises NumericalError naming the step if the state stops being finite.
    """
    cfg = cfg or FlowConfig()
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape or x0.ndim != 2:
        raise ShapeError("x0 and x1 must be matching 2-d arrays")
    chord = x1 - x0
    length = np.linalg.norm(chord, axis=1)
    if np.any(length == 0.0):
        raise ValidationError("zero-length chord; deviation is undefined")
    worst = np.zeros(x0.shape[0])
    for state in _ode_states(field, x0, cfg):
        # distance to the segment x0 + u * chord, u clamped to [0, 1]
        u = np.clip(np.sum((state - x0) * chord, axis=1) / length**2, 0.0, 1.0)
        foot = x0 + u[:, None] * chord
        worst = np.maximum(worst, np.linalg.norm(state - foot, axis=1))
    return float(np.mean(worst / length))
