"""Distribution distances and the map-quality bound built on them.

Wasserstein-2 conventions: w2_squared_empirical works on the half cost
½‖x−y‖², matching the transport solvers. w2_squared_gaussian and
frechet_distance use the unit cost ‖x−y‖², the usual form of the Gaussian
closed formula. The two differ by exactly a factor of 2, which is what the
bound checked by theorem1_check rests on:

    frechet_distance(X, Y) <= 2 * w2_squared_empirical(X, Y)

holds for moment fits of the same samples, with equality approached when
both samples are Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discrete import (
    EXACT_SIZE_LIMIT,
    SinkhornConfig,
    _as_rows,
    cost_matrix,
    exact_ot,
    project_to_marginals,
    sinkhorn,
)
from .errors import DomainError, ShapeError, ValidationError
from .linalg import matrix_sqrt_psd, symmetrize

W2_MODES = ("exact_small", "sinkhorn")

# float roundoff absorbed by theorem1_check (and neural OT checkpoints)
THEOREM1_SLACK = 1e-8

# shrinkage strength applied to covariance fits with n <= d samples
SHRINKAGE_SCALE = 1e-6


@dataclass
class GaussianStats:
    """First two moments of a sample set."""

    mean: np.ndarray
    covariance: np.ndarray
    sample_count: int


class Theorem1Result(NamedTuple):
    fd: float
    two_w2sq: float
    holds: bool


def gaussian_fit(x) -> GaussianStats:
    """Fit mean and population covariance (ddof 0) to rows of x.

    When n <= d the fit is rank-deficient, so a ridge of
    1e-6 * trace / d is added to the diagonal. The ddof choice is load
    bearing: the fitted covariance is then exactly the second moment of the
    empirical distribution, which keeps frechet_distance a true lower bound
    for the empirical transport cost instead of a statistical one.
    """
    x = _as_rows(x, "x")
    n, d = x.shape
    mean = x.mean(axis=0)
    centered = x - mean
    cov = symmetrize(centered.T @ centered / n)
    if n <= d:
        cov = cov + (SHRINKAGE_SCALE * np.trace(cov) / d) * np.eye(d)
    return GaussianStats(mean=mean, covariance=cov, sample_count=n)


def _check_stats(g: GaussianStats, name: str):
    mean = np.asarray(g.mean, dtype=np.float64)
    cov = np.asarray(g.covariance, dtype=np.float64)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ShapeError(
            f"{name}: mean {mean.shape} and covariance {cov.shape} are inconsistent"
        )
    if np.abs(cov - cov.T).max() > 1e-10:
        raise DomainError(f"{name}: covariance is not symmetric within 1e-10")
    return mean, symmetrize(cov)


def w2_squared_gaussian(g1: GaussianStats, g2: GaussianStats) -> float:
    """Closed-form squared Wasserstein-2 between two Gaussians (unit cost).

    ‖m1−m2‖² + Tr(Σ1 + Σ2 − 2(Σ2^{1/2} Σ1 Σ2^{1/2})^{1/2}). Divide by 2 to
    compare against the ½-cost empirical estimators.
    """
    m1, c1 = _check_stats(g1, "g1")
    m2, c2 = _check_stats(g2, "g2")
    if m1.shape != m2.shape:
        raise ShapeError(f"dimension mismatch: {m1.shape} vs {m2.shape}")
    root2 = matrix_sqrt_psd(c2)
    cross = matrix_sqrt_psd(symmetrize(root2 @ c1 @ root2))
    value = float(np.sum((m1 - m2) ** 2) + np.trace(c1 + c2) - 2.0 * np.trace(cross))
    # exact zero is reachable only symbolically
    return max(value, 0.0)


def w2_squared_empirical(x, y, mode: str | None = None,
                         cfg: SinkhornConfig | None = None) -> float:
    """Squared Wasserstein-2 between two sample sets under the ½ cost.

    mode "exact_small" solves the assignment problem, so it needs equal
    sample counts up to EXACT_SIZE_LIMIT (exact_ot raises CapacityError
    otherwise). mode "sinkhorn" reports the transport cost of an entropic
    plan at epsilon 0.01 after projecting it onto exact marginals; the value
    carries an upward entropic bias and never undercuts the exact optimum,
    and a plan that stops above its tolerance issues a ConvergenceWarning.
    Default picks exact_small when it applies.
    """
    if mode not in (None, *W2_MODES):
        raise ValidationError(f"mode must be one of {W2_MODES}, got {mode!r}")
    c = cost_matrix(x, y, "squared_euclidean")
    m, n = c.values.shape
    if mode is None:
        mode = "exact_small" if m == n <= EXACT_SIZE_LIMIT else "sinkhorn"
    if mode == "exact_small":
        _, value = exact_ot(c)
        return value
    cfg = cfg or SinkhornConfig(epsilon=0.01)
    plan = sinkhorn(c, cfg=cfg)
    feasible = project_to_marginals(plan.coupling, plan.row_marginal,
                                    plan.col_marginal, overwrite_input=True)
    return float(np.vdot(c.values, feasible))


def frechet_distance(x, y) -> float:
    """Wasserstein-2 squared between Gaussian fits of x and y (unit cost).

    The desk-scale form of the usual embedding-space Fréchet score, with the
    identity as the feature map.
    """
    x = _as_rows(x, "x")
    y = _as_rows(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    try:
        return w2_squared_gaussian(gaussian_fit(x), gaussian_fit(y))
    except DomainError as exc:
        raise DomainError(
            f"degenerate Gaussian fit ({exc}); use more samples or add shrinkage"
        ) from exc


def theorem1_check(x_generated, y_target, mode: str | None = None,
                   cfg: SinkhornConfig | None = None) -> Theorem1Result:
    """Check frechet_distance(X, Y) <= 2 * w2_squared_empirical(X, Y) + THEOREM1_SLACK.

    The factor 2 converts between the unit-cost Gaussian form and the ½-cost
    empirical form. With ddof-0 moment fits the inequality is a theorem, not
    a statistic, so the slack only needs to absorb float roundoff. Returns
    both sides and the verdict.
    """
    fd = frechet_distance(x_generated, y_target)
    two_w2 = 2.0 * w2_squared_empirical(x_generated, y_target, mode=mode, cfg=cfg)
    return Theorem1Result(fd=fd, two_w2sq=two_w2,
                          holds=bool(fd <= two_w2 + THEOREM1_SLACK))

