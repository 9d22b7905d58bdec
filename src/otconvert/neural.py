"""Conditional neural optimal transport trained as a maximin game.

A map network T(x, s) and a potential network f(y, s) share a condition
vector s. The potential ascends

    L_f = w_eff * mean f(y, s) - mean f(T(x, s), s)

and the map descends

    L_T = mean [ c(x, T(x, s)) - f(T(x, s), s) ],    c = half squared distance,

alternating one potential step with inner_steps map steps. The extremal
variant forces f <= 0 structurally (output through negated softplus) and
scales the target term by w >= 1, which is what lets the map ignore far
outliers in the target at large w.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DivergenceError, SettingError, ShapeError, ValidationError,
                     reject_non_finite)
from .metrics import THEOREM1_SLACK, frechet_distance, w2_squared_empirical
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

LR_DECAYS = ("none", "cosine")
GAP_EVAL_SAMPLES = 512  # rows per condition in duality_gap_estimate's batches


@dataclass
class ConditionSpec:
    """One conversion direction: condition vector, source and target rows, all float64."""

    label: str
    vector: np.ndarray
    source: np.ndarray
    target: np.ndarray


def draw_rows(rows: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` rows drawn from ``rows`` uniformly with replacement."""
    return rows[rng.integers(0, rows.shape[0], size=count)]


@dataclass
class ConditionalDataset:
    """Conditions whose vectors and rows are as wide as the first condition's.

    Vectors must be finite and sources and targets nonempty; errors name the
    offending ``<label>.<vector|source|target>``.
    """

    conditions: list
    dim: int = field(init=False)
    condition_dim: int = field(init=False)

    def __post_init__(self):
        if not self.conditions:
            raise ValidationError("dataset needs at least one condition")
        first = self.conditions[0]
        self.condition_dim = first.vector.shape[0] if first.vector.ndim == 1 else 0
        self.dim = first.source.shape[1] if first.source.ndim == 2 else 0
        for spec in self.conditions:
            vec = spec.vector
            if not (self.condition_dim and vec.shape == (self.condition_dim,)
                    and np.isfinite(vec).all()):
                raise ValidationError(f"{spec.label}.vector {vec.tolist()} is not a nonempty"
                                      f" finite vector as wide as {first.label}.vector")
            for side, rows in (("source", spec.source), ("target", spec.target)):
                if rows.ndim != 2 or not rows.size or rows.shape[1] != self.dim:
                    raise ShapeError(f"{spec.label}.{side} has shape {rows.shape}, not a"
                                     f" nonempty matrix as wide as {first.label}.source")


def dataset_from_arrays(entries) -> ConditionalDataset:
    """A dataset from (label, condition_vector, source_rows, target_rows) entries."""
    return ConditionalDataset([
        ConditionSpec(str(label), *(np.asarray(a, dtype=np.float64) for a in arrays))
        for label, *arrays in entries])


@dataclass
class NotConfig:
    """Training settings for the maximin game.

    w defaults to 12 in extremal mode and 1 otherwise; it must be >= 1 and
    only scales anything when extremal is on. Only the half-squared
    Euclidean cost exists.
    """

    inner_steps: int = 10
    batch_size: int = 128
    map_lr: float = 1e-3
    potential_lr: float = 1e-3
    lr_decay: str = "none"
    total_outer_iterations: int = 3000
    extremal: bool = False
    w: float | None = None
    hidden_dims: tuple[int, ...] = (128, 128, 128)
    divergence_guard: float = 1e8
    checkpoint_every: int = 250
    eval_samples: int = 64

    def __post_init__(self):
        reject_non_finite(self)
        for key in ("inner_steps", "batch_size", "total_outer_iterations",
                    "checkpoint_every", "eval_samples"):
            if getattr(self, key) < 1:
                raise SettingError(key, "must be >= 1")
        for key in ("map_lr", "potential_lr", "divergence_guard"):
            if getattr(self, key) <= 0:
                raise SettingError(key, f"must be > 0, got {getattr(self, key)}")
        if any(d < 1 for d in self.hidden_dims):
            raise SettingError("hidden_dims", f"must all be >= 1, got {self.hidden_dims}")
        if self.w is not None and self.w < 1.0:
            raise SettingError("w", f"must be >= 1, got {self.w}")
        if self.lr_decay not in LR_DECAYS:
            raise SettingError("lr_decay", f"must be 'none' or 'cosine', got {self.lr_decay!r}")

    def lr_scale(self, iteration: int) -> float:
        """Step-size multiplier for outer iteration `iteration` (1-based)."""
        if self.lr_decay == "none":
            return 1.0
        # cosine anneal to zero; damps the endpoint lottery of the game
        frac = (iteration - 1) / max(self.total_outer_iterations - 1, 1)
        return 0.5 * (1.0 + math.cos(math.pi * frac))

    @property
    def w_effective(self) -> float:
        if not self.extremal:
            return 1.0
        return 12.0 if self.w is None else float(self.w)


@dataclass
class NotModelPair:
    map_model: MlpModel
    potential_model: MlpModel
    nonpositivity_transform: bool


def apply_map(pair: NotModelPair, x, s) -> np.ndarray:
    """T(x, s) for a batch of rows under one condition vector."""
    return mlp_forward(pair.map_model, x, s=s)


def potential_value(pair: NotModelPair, y, s) -> np.ndarray:
    """f(y, s) as a length-n vector, after the nonpositivity transform."""
    u = mlp_forward(pair.potential_model, y, s=s)
    if pair.nonpositivity_transform:
        return -np.logaddexp(0.0, u)[:, 0]
    return u[:, 0]


def _potential_with_grads(pair, y, s, upstream_f, params=True):
    """f values plus parameter/input grads of sum(upstream_f * f).

    With params false the parameter gradient is skipped and returned as None.
    """
    u, cache = _forward_cached(pair.potential_model, y, s=s)
    if pair.nonpositivity_transform:
        f = -np.logaddexp(0.0, u[:, 0])
        # df/du = -sigmoid(u) = e^f - 1 for f = -softplus(u); expm1 never overflows
        up_u = (upstream_f * np.expm1(f))[:, None]
    else:
        f = u[:, 0]
        up_u = upstream_f[:, None]
    grads, y_grad = mlp_backward(pair.potential_model, y, s=s, upstream=up_u,
                                 cache=cache, params=params)
    return f, grads, y_grad


def _check_mode(pair: NotModelPair, cfg: NotConfig):
    if pair.nonpositivity_transform != cfg.extremal:
        raise ValidationError(
            "extremal flag and the pair's nonpositivity transform disagree"
        )


def not_loss_potential(pair: NotModelPair, x, y, s, cfg: NotConfig):
    """Potential objective and its gradients w.r.t. potential parameters.

    Returns (loss, grads), grads flat in the ``potential_model.params``
    layout. The potential ascends this loss; callers feed the negated
    gradients to a minimizer. y and T(x) go through the potential as one
    stacked batch, so each layer forms its parameter gradient in one GEMM.
    """
    _check_mode(pair, cfg)
    y = np.asarray(y, dtype=np.float64)
    tx = apply_map(pair, x, s)
    n_y, n_x = y.shape[0], tx.shape[0]
    w_eff = cfg.w_effective
    upstream = np.concatenate([np.full(n_y, w_eff / n_y), np.full(n_x, -1.0 / n_x)])
    f, grads, _ = _potential_with_grads(pair, np.concatenate([y, tx]), s, upstream)
    loss = float(w_eff * f[:n_y].mean() - f[n_y:].mean())
    if not np.isfinite(loss):
        raise DivergenceError("potential loss became non-finite")
    return loss, grads


def not_loss_map(pair: NotModelPair, x, s, cfg: NotConfig):
    """Map objective and its flat ``map_model.params`` gradient (to descend)."""
    _check_mode(pair, cfg)
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    tx, cache = _forward_cached(pair.map_model, x, s=s)
    diff = tx - x
    # the map step needs the potential's input gradient only
    f_tx, _, f_y_grad = _potential_with_grads(pair, tx, s, np.full(n, -1.0 / n),
                                              params=False)
    loss = float(0.5 * np.mean(np.sum(diff * diff, axis=1)) - f_tx.mean())
    if not np.isfinite(loss):
        raise DivergenceError("map loss became non-finite")
    upstream_tx = diff / n + f_y_grad
    grads, _ = mlp_backward(pair.map_model, x, s=s, upstream=upstream_tx, cache=cache)
    return loss, grads


@dataclass
class ConditionEval:
    label: str
    w2sq_map: float
    w2sq_source: float
    fd_map: float
    bound_holds: bool


@dataclass
class Checkpoint:
    iteration: int
    conditions: list


@dataclass
class TrainTrace:
    potential_losses: list = field(default_factory=list)
    map_losses: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)


def _pair_as(pair: NotModelPair, dtype) -> NotModelPair:
    """A copy of the pair with both networks' params in dtype (``as_dtype``)."""
    return dataclasses.replace(pair, map_model=as_dtype(pair.map_model, dtype),
                               potential_model=as_dtype(pair.potential_model, dtype))


def _map_step(pair: NotModelPair, opt, spec: ConditionSpec, cfg: NotConfig,
              rng) -> float:
    """One Adam step of the map on a fresh source batch; returns its loss."""
    x = draw_rows(spec.source, cfg.batch_size, rng)
    loss, grads = not_loss_map(pair, x, spec.vector, cfg)
    adam_step(opt, pair.map_model.params, grads)
    return loss


def _init_net(dataset, output_dim, cfg, rng) -> MlpModel:
    return init_mlp((dataset.dim, *cfg.hidden_dims, output_dim), rng,
                    activation="relu", condition_dim=dataset.condition_dim)


def _init_pair(dataset, cfg, rng) -> NotModelPair:
    return NotModelPair(map_model=_init_net(dataset, dataset.dim, cfg, rng),
                        potential_model=_init_net(dataset, 1, cfg, rng),
                        nonpositivity_transform=cfg.extremal)


def _checkpoint(pair, dataset, cfg, rng, iteration) -> Checkpoint:
    evals = []
    for spec in dataset.conditions:
        xs = draw_rows(spec.source, cfg.eval_samples, rng)
        ys = draw_rows(spec.target, cfg.eval_samples, rng)
        tx = apply_map(pair, xs, spec.vector)
        w2_map = w2_squared_empirical(tx, ys, mode="exact_small")
        w2_src = w2_squared_empirical(xs, ys, mode="exact_small")
        fd = frechet_distance(tx, ys)
        evals.append(
            ConditionEval(
                label=spec.label,
                w2sq_map=w2_map,
                w2sq_source=w2_src,
                fd_map=fd,
                bound_holds=bool(fd <= 2.0 * w2_map + THEOREM1_SLACK),
            )
        )
    return Checkpoint(iteration=iteration, conditions=evals)


def not_train(dataset: ConditionalDataset, cfg: NotConfig, rng: np.random.Generator):
    """Train the maximin pair. Returns (NotModelPair, TrainTrace).

    cfg.extremal selects the extremal objective (nonpositive potential,
    target term scaled by cfg.w); otherwise the plain game is trained.
    Each network trains as one float32 copy; the checkpoints and the
    returned pair use its exact float64 widening.
    """
    pair = _pair_as(_init_pair(dataset, cfg, rng), COMPUTE_DTYPE)
    pot_params = pair.potential_model.params
    pot_opt = adam_init(pot_params, cfg.potential_lr)
    map_opt = adam_init(pair.map_model.params, cfg.map_lr)
    trace = TrainTrace()
    n_cond = len(dataset.conditions)
    for iteration in range(1, cfg.total_outer_iterations + 1):
        scale = cfg.lr_scale(iteration)
        pot_opt.learning_rate = scale * cfg.potential_lr
        map_opt.learning_rate = scale * cfg.map_lr
        spec = dataset.conditions[int(rng.integers(n_cond))]
        x = draw_rows(spec.source, cfg.batch_size, rng)
        y = draw_rows(spec.target, cfg.batch_size, rng)
        # the losses and adam_step turn float32 overflow into errors
        with np.errstate(all="ignore"):
            try:
                loss_f, pot_grads = not_loss_potential(pair, x, y, spec.vector, cfg)
                np.negative(pot_grads, out=pot_grads)  # the potential ascends
                adam_step(pot_opt, pot_params, pot_grads)
                for _ in range(cfg.inner_steps):
                    loss_t = _map_step(pair, map_opt, spec, cfg, rng)
            except DivergenceError as err:
                err.trace = trace  # the iterations finished before this one
                raise
        trace.potential_losses.append(loss_f)
        trace.map_losses.append(loss_t)
        if max(abs(loss_f), abs(loss_t)) > cfg.divergence_guard:
            raise DivergenceError(
                f"training diverged at outer iteration {iteration}"
                f" (|loss| > {cfg.divergence_guard:g})",
                trace=trace,
            )
        if iteration % cfg.checkpoint_every == 0 or iteration == cfg.total_outer_iterations:
            trained = _pair_as(pair, np.float64)
            trace.checkpoints.append(_checkpoint(trained, dataset, cfg, rng, iteration))
    return trained, trace


@dataclass
class DualityGapReport:
    epsilon1_estimate: float
    epsilon2_estimate: float
    beta_note: str
    lipschitz_note: str


def _pair_value(pair, dataset, cfg, eval_batches) -> float:
    """Objective value of a pair: map loss plus the weighted target term."""
    w_eff = cfg.w_effective
    total = 0.0
    for spec, (xs, ys) in zip(dataset.conditions, eval_batches):
        loss_t, _ = not_loss_map(pair, xs, spec.vector, cfg)
        total += loss_t + w_eff * float(potential_value(pair, ys, spec.vector).mean())
    return total / len(dataset.conditions)


def _map_only_loss(pair, dataset, cfg, eval_batches) -> float:
    total = 0.0
    for spec, (xs, _) in zip(dataset.conditions, eval_batches):
        loss_t, _ = not_loss_map(pair, xs, spec.vector, cfg)
        total += loss_t
    return total / len(dataset.conditions)


def duality_gap_estimate(pair: NotModelPair, dataset: ConditionalDataset,
                         cfg: NotConfig, rng: np.random.Generator,
                         probe_iterations: int = 500) -> DualityGapReport:
    """Diagnostic suboptimality probes for a trained pair.

    epsilon1: the pair's map loss minus the loss of a fresh map retrained
    against the frozen potential — how far the inner problem is from its
    best response. epsilon2 is reported as a proxy only: the objective value
    of a freshly retrained pair minus the current pair's value. Neither is a
    certified bound; both are estimated on fixed evaluation batches of
    ``GAP_EVAL_SAMPLES`` rows per condition.
    """
    _check_mode(pair, cfg)
    eval_batches = [
        (draw_rows(spec.source, GAP_EVAL_SAMPLES, rng),
         draw_rows(spec.target, GAP_EVAL_SAMPLES, rng))
        for spec in dataset.conditions
    ]
    current_map_loss = _map_only_loss(pair, dataset, cfg, eval_batches)

    # best-response probe: fresh map, frozen potential
    probe = _pair_as(dataclasses.replace(
        pair, map_model=_init_net(dataset, dataset.dim, cfg, rng)), COMPUTE_DTYPE)
    opt = adam_init(probe.map_model.params, cfg.map_lr)
    n_cond = len(dataset.conditions)
    for _ in range(probe_iterations):
        spec = dataset.conditions[int(rng.integers(n_cond))]
        _map_step(probe, opt, spec, cfg, rng)
    fresh_map_loss = _map_only_loss(_pair_as(probe, np.float64), dataset, cfg, eval_batches)
    epsilon1 = current_map_loss - fresh_map_loss

    # saddle-value proxy: fresh pair retrained from scratch
    n = max(1, probe_iterations)
    retrain_cfg = dataclasses.replace(cfg, total_outer_iterations=n,
                                      checkpoint_every=n, lr_decay="none")
    fresh_pair, _ = not_train(dataset, retrain_cfg, rng)
    epsilon2 = _pair_value(fresh_pair, dataset, cfg, eval_batches) - _pair_value(
        pair, dataset, cfg, eval_batches
    )
    return DualityGapReport(
        epsilon1_estimate=float(epsilon1),
        epsilon2_estimate=float(epsilon2),
        beta_note=(
            "beta (strong convexity of the potential) is not estimated;"
            " neural potentials need not be strongly convex"
        ),
        lipschitz_note=(
            "L (feature-extractor Lipschitz constant) is out of scope;"
            " features here are the identity"
        ),
    )
