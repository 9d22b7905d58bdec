"""Discrete optimal transport on point clouds.

Covers cost-matrix construction, an entropic solver that keeps its dual
potentials in the log domain and iterates on scalings of a cached kernel,
an exact small-instance solver used as a reference, and the
post-processing steps that turn a coupling into a frame mapping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CapacityError, ConvergenceWarning, DomainError, SettingError,
                     ShapeError, ValidationError, reject_non_finite)
from .linalg import logsumexp

COST_KINDS = ("squared_euclidean", "cosine_distance")

EXACT_SIZE_LIMIT = 64

# keys per block of rows in k_smallest_columns, whose temporaries are a copy
# of the block or two; 128 KiB ones stay in cache
_TOP_K_BLOCK_ELEMS = 1 << 14
# the largest k that k_smallest_columns finds by k argmin passes over a block;
# each pass costs O(n) per row, and past about 16–24 (float64 to float32 rows
# of 4,000 keys) a partition and a sort of its candidates is faster
_TOP_K_PASSES = 16

# sinkhorn absorbs its scalings into the log potentials and rebuilds the
# kernel once one leaves [1/_SCALING_BOUND, _SCALING_BOUND]. Kernel entries
# below _SCALING_BOUND times the kernel dtype's smallest normal number are
# flushed to 0, so no product with a scaling is subnormal; a kernel product
# below _SUM_FLOOR counts as underflowed and its half step goes through
# logsumexp, so the flushed entries sit far below the rounding error of
# every sum that is used.
_SCALING_BOUND = 1e10
_SUM_FLOOR = 1e-200

# sinkhorn iterates on a float32 kernel when the cost spans at most
# _SINGLE_SPAN·ε, so every exp(−(C − row min)/ε) is a normal float32, and
# cfg.tolerance is at least _SINGLE_ULPS float32 ulps of the largest
# marginal entry, far above the rounding of a float32 plan's sums
_SINGLE_SPAN = 40.0
_SINGLE_ULPS = 1024

# the length of sinkhorn's plain warm-up; the residual's rate over its last
# _TEST_SPACING iterations sets the first ω
_WARMUP_ITERATIONS = 100
# the spacing of sinkhorn's plain, tested iterations; after the warm-up the
# residual's rate over each block between two of them re-estimates ω
_TEST_SPACING = 50
# the largest ω sinkhorn relaxes with; past the optimal ω relaxed Sinkhorn
# contracts by ω−1 per iteration, so an ω at the cap still converges
_OMEGA_MAX = 1.95


@dataclass
class CostMatrix:
    """Pairwise transport costs between two row sets.

    values[i, j] is the cost of moving row i of the first set onto row j of
    the second. squared_euclidean is ½‖x−y‖²; cosine_distance is
    1 − cos(x, y), which lives in [0, 2].
    """

    values: np.ndarray
    kind: str


@dataclass
class SinkhornConfig:
    """Entropic solver settings.

    tolerance bounds the max L∞ marginal deviation at convergence.
    """

    epsilon: float = 0.1
    max_iterations: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self):
        reject_non_finite(self)
        if not (self.epsilon > 0):
            raise SettingError("epsilon", f"must be > 0, got {self.epsilon}")
        if not (self.tolerance > 0):
            raise SettingError("tolerance", f"must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise SettingError("max_iterations", "must be >= 1")


@dataclass
class TransportPlan:
    """A coupling between two discrete distributions.

    epsilon is the entropic regularization it was solved at (0 = exact).
    marginal_error is the max L∞ deviation of the realized marginals, summed
    in float64. coupling is float64, or float32 when sinkhorn solved it on a
    float32 kernel.
    """

    coupling: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    epsilon: float
    iterations_used: int
    marginal_error: float

    @cached_property
    def sampling_cdf(self) -> np.ndarray:
        """Cumulative normalized coupling in row-major order, built once.

        Built as ``Generator.choice`` builds it from ``p``, so searchsorted
        on it reproduces choice's draws; the coupling must not change after
        the first use.
        """
        widened = self.coupling.astype(np.float64)
        total = widened.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValidationError("plan mass must be positive and finite")
        if widened.min() < 0:
            raise ValidationError("plan has negative entries")
        cdf = widened.ravel()
        cdf /= total
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        return cdf

    def transport_cost(self, cost) -> float:
        """<C, coupling> for a cost matrix of matching shape."""
        values = cost.values if isinstance(cost, CostMatrix) else np.asarray(cost)
        if values.shape != self.coupling.shape:
            raise ShapeError(
                f"cost shape {values.shape} != plan shape {self.coupling.shape}"
            )
        if values.dtype == self.coupling.dtype:
            return float(np.vdot(values, self.coupling))
        # a mixed-dtype vdot would widen the plan into an m×n copy
        return float(np.einsum("ij,ij->", values, self.coupling))


def _as_rows(x, name) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"{name} must be a nonempty 2-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite entries")
    return x


def cost_matrix(x, y, kind: str = "squared_euclidean") -> CostMatrix:
    """Pairwise cost between rows of x and rows of y.

    Parameters
    ----------
    x, y : arrays of shape (m, d) and (n, d)
    kind : "squared_euclidean" (½‖x−y‖²) or "cosine_distance" (1 − cos)

    Raises
    ------
    DomainError
        if kind is "cosine_distance" and either input has a zero-norm row;
        the message names the offending row.
    """
    if kind not in COST_KINDS:
        raise ValidationError(f"kind must be one of {COST_KINDS}, got {kind!r}")
    x = _as_rows(x, "x")
    y = _as_rows(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    if kind == "cosine_distance":
        units = []
        for name, arr in (("x", x), ("y", y)):
            norms = np.linalg.norm(arr, axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise DomainError(
                    f"cosine cost undefined: {name} row {zero[0]} has zero norm"
                )
            units.append(arr / norms[:, None])
        gram = units[0] @ units[1].T
        values = np.subtract(1.0, gram.clip(-1.0, 1.0, out=gram), out=gram)
    else:
        # ½‖x−μ‖² + ½‖y−μ‖² − (x−μ)·(y−μ) for any μ: one GEMM, and μ = the mean
        # of y centres both sets, which limits the cancellation; rounding can
        # still leave an entry a hair below 0
        mu = y.mean(axis=0)
        xc, yc = x - mu, y - mu
        values = xc @ yc.T
        np.subtract(0.5 * np.einsum("ij,ij->i", xc, xc)[:, None], values, out=values)
        values += 0.5 * np.einsum("ij,ij->i", yc, yc)
        np.maximum(values, 0.0, out=values)
    return CostMatrix(values=values, kind=kind)


def uniform_marginal(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _check_marginal(v, n, name) -> np.ndarray:
    """v checked as a marginal on n points; None is the uniform one."""
    if v is None:
        return uniform_marginal(n)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ShapeError(f"{name} must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ValidationError(f"{name} must be strictly positive and finite")
    if abs(v.sum() - 1.0) > 1e-9:
        raise ValidationError(f"{name} must sum to 1, got {v.sum()!r}")
    return v


def _transport_plan(coupling, a, b, epsilon, iterations) -> TransportPlan:
    """The plan of a coupling with marginals (a, b), and its marginal error."""
    error = max(np.abs(coupling.sum(axis=1, dtype=np.float64) - a).max(),
                np.abs(coupling.sum(axis=0, dtype=np.float64) - b).max())
    return TransportPlan(coupling=coupling, row_marginal=a, col_marginal=b,
                         epsilon=epsilon, iterations_used=iterations,
                         marginal_error=float(error))


def _cost_values(cost) -> np.ndarray:
    values = cost.values if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"cost must be 2-d, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError("cost matrix contains non-finite entries")
    return values


def _gibbs_kernel(scaled, f, g, out=None) -> np.ndarray:
    """exp(scaled + f ⊕ g): the plan of the potentials (f, g), in scaled's dtype."""
    out = np.add(scaled, f.astype(scaled.dtype, copy=False)[:, None], out=out)
    out += g.astype(scaled.dtype, copy=False)[None, :]
    return np.exp(out, out=out)


def _scaling_kernel(scaled, f, g, out=None) -> np.ndarray:
    """The Gibbs kernel with entries below tiny·_SCALING_BOUND flushed to 0.

    Subnormal operands slow a matrix-vector product many times over.
    """
    out = _gibbs_kernel(scaled, f, g, out=out)
    out[out < np.finfo(out.dtype).tiny * _SCALING_BOUND] = 0.0
    return out


def _within(sums, band) -> bool:
    return bool(sums.min() >= band[0] and sums.max() <= band[1])


# a kernel product in this band is finite and has not underflowed toward 0
_USABLE = (_SUM_FLOOR, np.finfo(np.float64).max)
# scalings in this band are left unabsorbed
_KEPT = (1.0 / _SCALING_BOUND, _SCALING_BOUND)


def _absorb(potentials, scalings):
    """Fold the scalings into the log potentials and reset them to 1."""
    potentials += np.log(scalings)
    scalings.fill(1.0)


def _over_relaxation(rate) -> float:
    """ω = min(2/(1+√(1−r)), _OMEGA_MAX) for plain iterations' residual rate r.

    1 unless r < 1.
    """
    if not rate < 1.0:
        return 1.0
    return min(2.0 / (1.0 + math.sqrt(1.0 - rate)), _OMEGA_MAX)


def _ascent_bound(omega) -> float:
    """The largest |log ratio| at which an update relaxed by ω is safe.

    Relaxing one entry of a scaling whose plain update multiplies it by e^d
    changes the dual objective by its target times
    h(d) = ωd − e^((ω−1)d) + e^(−d) (the plain update's change is h at ω=1,
    never negative). For 1 < ω < 2, h is positive for every d < 0 and for
    0 < d < d*, its one positive root, so a half step whose log ratios all
    lie within ±d* raises the objective entry by entry. d* is capped at
    log(_SCALING_BOUND).
    """
    def gain(d):
        return omega * d - math.exp((omega - 1.0) * d) + math.exp(-d)

    low, high = 1e-3, math.log(_SCALING_BOUND)
    if gain(high) > 0.0:
        return high
    # bisect on gain(low) > 0 >= gain(high) down to adjacent floats; low
    # stays below the root
    while low < (mid := 0.5 * (low + high)) < high:
        low, high = (mid, high) if gain(mid) > 0.0 else (low, mid)
    return low


def _relax_scaling(scaling, target, sums, omega, bound) -> bool:
    """scaling ← scaling·ratio^ω in place, ratio = target/(scaling·sums).

    Returns whether it did: unless every ratio lies within
    [e^−bound, e^bound], scaling is left as it is.
    """
    inverse = sums * scaling
    inverse /= target
    if not _within(inverse, (math.exp(-bound), math.exp(bound))):
        return False
    scaling *= np.power(inverse, -omega, out=inverse)
    return True


def sinkhorn(cost, a=None, b=None, cfg: SinkhornConfig | None = None) -> TransportPlan:
    """Entropic optimal transport via stabilized, over-relaxed scaling iterations.

    Alternates coordinate updates of the dual potentials f, g of the
    regularized problem. Each potential is an absorbed part, kept in the
    log domain, plus the log of a scaling (u or v) on the cached Gibbs
    kernel K = exp(−C/ε + f ⊕ g), so an update costs one matrix-vector
    product. A scaling that leaves [1/_SCALING_BOUND, _SCALING_BOUND] is
    absorbed into its potential and K rebuilt; a half step whose product
    underflows or is not finite is taken through logsumexp instead, so small
    epsilon neither under- nor overflows.

    The first _WARMUP_ITERATIONS iterations are plain (exact) updates, the
    iterates of the log-domain iteration up to rounding: after a g update the
    column sums match b exactly, and convergence is declared when the row
    sums also match a within cfg.tolerance. After it the updates become
    v ← v·(b/(v∘Kᵀu))^ω and u ← u·(a/(u∘Kv))^ω, still one product per half
    step, with ω = min(2/(1+√(1−r)), _OMEGA_MAX) for the plain iterations'
    residual rate r. A relaxed update overshoots, so neither marginal of its
    plan is exact; instead every _TEST_SPACING-th iteration and the last one
    stay plain and are tested as above, which checks both marginals. From
    the warm-up's end on, each test re-estimates r from the residual's rate
    ρ per iteration since the last one: r = ρ over the plain warm-up, and
    after a block relaxed by ω, r = (ρ+ω−1)²/(ω²ρ) for ω−1 < ρ < 1, the
    local rate of relaxed Sinkhorn solved for r; ω is only ever raised. A
    half step relaxes only while every ratio b/(v∘Kᵀu) or a/(u∘Kv) lies in
    the band where the relaxed update raises the dual objective in every
    entry (_ascent_bound); otherwise it is plain, and its block re-estimates
    nothing. So the dual objective never falls, even where the warm-up has
    not reached its asymptotic rate (a stalled residual reads r near 1) and
    ω overshoots; a logsumexp half step is always plain. If the iteration budget
    runs out first the plan is still returned and carries the achieved
    marginal_error, and a ConvergenceWarning says where it stopped.

    Besides the cost it holds one m×n array, the kernel, which becomes the
    plan: −C/ε is never kept but rewritten into it before each rebuild of K
    and each logsumexp half step.

    A well-conditioned solve (see _SINGLE_SPAN) runs on a float32 kernel
    that holds −(C − row min)/ε, its potentials shifted to match: the
    products and the plan u·K·v are float32, the potentials, scalings and
    marginal tests float64. Every other solve is float64 throughout.

    Marginals default to uniform.
    """
    values = _cost_values(cost)
    m, n = values.shape
    a = _check_marginal(a, m, "a")
    b = _check_marginal(b, n, "b")
    cfg = cfg or SinkhornConfig()

    log_a = np.log(a)
    log_b = np.log(b)
    low = values.min(axis=1)
    single = (values.max() - low.min() <= _SINGLE_SPAN * cfg.epsilon
              and cfg.tolerance >= _SINGLE_ULPS * np.finfo(np.float32).eps
              * max(a.max(), b.max()))
    kernel = np.empty(values.shape, np.float32 if single else np.float64)

    def scaled():
        """−C/ε (bit for bit −values/ε) in the kernel buffer, −(C − row min)/ε
        in a float32 one; K is rebuilt after."""
        if not single:
            return np.divide(values, -cfg.epsilon, out=kernel)
        np.subtract(low[:, None], values, out=kernel)
        return np.divide(kernel, cfg.epsilon, out=kernel)

    # the dual is (f + log u, g + log v) and its plan u_i K_ij v_j; after a
    # plain g update the column sums are exact, so convergence reduces to the
    # row-sum residual, and the product that measures it is the one the next
    # f update needs
    potentials = np.zeros(m + n)
    f, g = potentials[:m], potentials[m:]
    if single:
        # each row of exp(−(C − row min)/ε) lies in [e^−_SINGLE_SPAN, 1] and
        # sums to at least 1; scaling it to mass a_i is the first f update
        sums = np.exp(scaled(), out=kernel).sum(axis=1, dtype=np.float64)
        np.subtract(log_a, np.log(sums), out=f)
        kernel *= (a / sums).astype(np.float32)[:, None]
    else:
        np.subtract(log_a, logsumexp(scaled(), axis=1, overwrite_input=True), out=f)
        _scaling_kernel(scaled(), f, g, out=kernel)
    scalings = np.ones(m + n)
    u, v = scalings[:m], scalings[m:]
    omega, refused = 1.0, False
    for iterations in range(1, cfg.max_iterations + 1):
        tested = iterations % _TEST_SPACING == 0
        step = 1.0 if tested or iterations == cfg.max_iterations else omega
        relax = step != 1.0
        # a float64 scaling would widen a float32 kernel in the product
        col = kernel.T @ u.astype(kernel.dtype, copy=False)
        if not (relax and _relax_scaling(v, b, col, step, bound)):
            refused |= relax
            if _within(col, _USABLE):
                np.divide(b, col, out=v)
            else:
                _absorb(potentials, scalings)
                np.subtract(log_b, logsumexp(np.add(scaled(), f[:, None], out=kernel),
                                             axis=0, overwrite_input=True), out=g)
                _scaling_kernel(scaled(), f, g, out=kernel)
        row = kernel @ v.astype(kernel.dtype, copy=False)
        relaxed = relax and _relax_scaling(u, a, row, step, bound)
        refused |= relax and not relaxed
        if relaxed or _within(row, _USABLE):
            log_row = None
        else:
            _absorb(potentials, scalings)
            log_row = logsumexp(np.add(scaled(), g[None, :], out=kernel),
                                axis=1, overwrite_input=True)
        if step == 1.0:
            row_mass = u * row if log_row is None else np.exp(f + log_row)
            error = np.abs(row_mass - a).max()
            if error < cfg.tolerance:
                break
            if tested and iterations >= _WARMUP_ITERATIONS and not refused:
                # the block's contraction ρ under ω implies the plain rate
                # r = (ρ+ω−1)²/(ω²ρ), in a form that gives ρ to the bit at
                # ω = 1; a block in which the band refused a relaxed step did
                # not run at ω
                rho = (error / previous) ** (1.0 / _TEST_SPACING)
                if omega - 1.0 < rho < 1.0:
                    raised = _over_relaxation(rho * ((rho + (omega - 1.0)) / (omega * rho)) ** 2)
                    if raised > omega:
                        omega = raised
                        # a product whose ratio lies within ±bound is then at
                        # least target·e^−bound/_SCALING_BOUND ≥ _SUM_FLOOR,
                        # and finite
                        bound = min(_ascent_bound(omega), math.log(
                            min(a.min(), b.min()) / (_SUM_FLOOR * _SCALING_BOUND)))
            if tested:
                previous, refused = error, False
        if log_row is not None:
            np.subtract(log_a, log_row, out=f)
        else:
            if not relaxed:
                np.divide(a, row, out=u)
            if _within(scalings, _KEPT):
                continue
            _absorb(potentials, scalings)
        _scaling_kernel(scaled(), f, g, out=kernel)
    if single and log_row is None:
        # the buffer holds K, so u·K·v is the plan
        kernel *= u.astype(np.float32)[:, None]
        kernel *= v.astype(np.float32)
    else:
        _absorb(potentials, scalings)
        _gibbs_kernel(scaled(), f, g, out=kernel)
    plan = _transport_plan(kernel, a, b, cfg.epsilon, iterations)
    if plan.marginal_error >= cfg.tolerance:
        warnings.warn(f"Sinkhorn stopped after {iterations} iterations at marginal"
                      f" error {plan.marginal_error:.3g}, above the tolerance"
                      f" {cfg.tolerance:g}", ConvergenceWarning, stacklevel=2)
    return plan


def exact_ot(cost):
    """Exact (unregularized) optimal transport between two equal uniform point sets.

    Returns (TransportPlan, optimal_cost). The cost must be n x n with n up
    to EXACT_SIZE_LIMIT; any other shape raises CapacityError. With equal
    uniform marginals an optimal plan is a permutation (Birkhoff–von
    Neumann), so the transportation LP reduces to the assignment problem.
    """
    from scipy.optimize import linear_sum_assignment

    values = _cost_values(cost)
    m, n = values.shape
    if m != n or n > EXACT_SIZE_LIMIT:
        raise CapacityError(
            f"exact solver needs a square cost of at most {EXACT_SIZE_LIMIT}x"
            f"{EXACT_SIZE_LIMIT}, got {m}x{n}"
        )
    rows, cols = linear_sum_assignment(values)
    plan = np.zeros((n, n))
    plan[rows, cols] = 1.0 / n
    out = _transport_plan(plan, uniform_marginal(n), uniform_marginal(n), 0.0, 0)
    return out, out.transport_cost(values)


def project_to_marginals(coupling, a, b, overwrite_input=False) -> np.ndarray:
    """Repair a nearly feasible coupling so its marginals are exactly (a, b).

    Overfull rows, then overfull columns, are scaled down; the leftover
    deficit is spread as a rank-one correction. Total mass moved is bounded
    by the original marginal violation, so the repaired plan's cost stays
    within max|C| times that violation of the original. Turns a
    tolerance-limited Sinkhorn plan into a certified member of the
    transportation polytope, whose cost therefore cannot undercut the exact
    optimum. The result is float64; with overwrite_input a float64 coupling
    is repaired in its own buffer, which is returned.
    """
    p = (np.asarray if overwrite_input else np.array)(coupling, dtype=np.float64)
    row = p.sum(axis=1)
    np.multiply(p, np.minimum(1.0, np.divide(a, row, out=np.ones_like(a),
                                             where=row > 0))[:, None], out=p)
    col = p.sum(axis=0)
    np.multiply(p, np.minimum(1.0, np.divide(b, col, out=np.ones_like(b),
                                             where=col > 0))[None, :], out=p)
    deficit_a = a - p.sum(axis=1)
    deficit_b = b - p.sum(axis=0)
    missing = deficit_a.sum()
    if missing > 0:
        p += np.outer(deficit_a, deficit_b) / missing
    return p


def plan_top_k_map(plan: TransportPlan, y, k: int):
    """Map each source row to the mean of its k strongest targets.

    For source row i, the k columns with the largest coupling are averaged
    (unweighted). Ties go to the lower column index.
    """
    y = _as_rows(y, "y")
    coupling = plan.coupling
    m, n = coupling.shape
    if y.shape[0] != n:
        raise ShapeError(f"plan has {n} columns but y has {y.shape[0]} rows")
    k = int(k)
    if k < 1 or k > n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    return y[k_smallest_columns(coupling, k, negate=True)].mean(axis=1)


def k_smallest_columns(keys, k: int, negate: bool = False) -> np.ndarray:
    """Column indices of the k smallest keys of each row, smallest first.

    Equal keys go to the lower column index, and −0.0 equals 0.0, so the
    result equals ``np.argsort(keys, axis=1, kind="stable")[:, :k]``, of
    ``-keys`` with negate. keys is a float array, left unchanged. Blocks of
    rows of about _TOP_K_BLOCK_ELEMS keys bound the temporaries. Up to
    k = _TOP_K_PASSES a block takes k argmin passes over its copy; a block
    whose passes reach a key not below +inf, and every block at larger k, is
    partitioned at each row's k-th smallest key, and only the keys at or
    below it are sorted. A NaN key raises ValidationError naming its row.
    """
    m, n = keys.shape
    out = np.empty((m, k), dtype=np.intp)
    block = max(1, _TOP_K_BLOCK_ELEMS // n)
    for start in range(0, m, block):
        rows = keys[start:start + block]
        if k <= _TOP_K_PASSES and _top_k_by_passes(rows, k, negate, out[start:start + block]):
            continue
        part = -rows if negate else rows
        nan = np.flatnonzero(np.isnan(part).any(axis=1))
        if nan.size:
            raise ValidationError(f"top-k keys row {start + nan[0]} holds NaN")
        kth = np.partition(part, k - 1, axis=1)[:, k - 1]
        at, cols = np.nonzero(part <= kth[:, None])
        # nonzero lists each row's candidates by ascending column, and
        # lexsort is stable, so equal keys keep that order
        order = np.lexsort((part[at, cols], at))
        counts = np.bincount(at, minlength=part.shape[0])
        starts = np.cumsum(counts) - counts
        out[start:start + block] = cols[order][starts[:, None] + np.arange(k)]
    return out


def _top_k_by_passes(rows, k, negate, out) -> bool:
    """k argmin passes over a copy of rows into out, each writing +inf over
    the key it picked; argmin returns the first of equal keys, so ties go to
    the lower column. False if a pass picked a key not below +inf (or NaN),
    which leaves out to be filled again.
    """
    # C order, so flat is a view of part
    part = np.negative(rows, order="C") if negate else rows.copy(order="C")
    flat = part.reshape(-1)
    offsets = np.arange(0, flat.size, part.shape[1])
    picked = np.empty((part.shape[0], k), dtype=part.dtype)
    for j in range(k):
        at = part.argmin(axis=1)
        out[:, j] = at
        at += offsets
        picked[:, j] = flat[at]
        flat[at] = np.inf
    return bool((picked < np.inf).all())


def sample_index_pairs(plan: TransportPlan, count: int, rng: np.random.Generator):
    """Draw i.i.d. index pairs (i, j) with probability coupling[i, j].

    Draws are those of ``rng.choice(m * n, count, p=coupling / mass)``, from
    the plan's cached CDF. The uniforms are searched in sorted order, which
    walks the CDF once instead of jumping across it, and each result is
    scattered back to its uniform's place, so the draws are unchanged.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    uniforms = rng.random(int(count))
    order = np.argsort(uniforms)
    drawn = np.empty(order.size, np.intp)
    drawn[order] = plan.sampling_cdf.searchsorted(uniforms[order], side="right")
    return np.unravel_index(drawn, plan.coupling.shape)


def sample_pairs_from_plan(plan: TransportPlan, x, y, count: int,
                           rng: np.random.Generator):
    """Sample feature-row pairs (x₀, x₁) from the coupling.

    Returns two arrays of shape (count, d): the source rows and the target
    rows of the sampled index pairs.
    """
    x = _as_rows(x, "x")
    y = _as_rows(y, "y")
    m, n = plan.coupling.shape
    if x.shape[0] != m or y.shape[0] != n:
        raise ShapeError(
            f"plan shape {(m, n)} does not match row counts {(x.shape[0], y.shape[0])}"
        )
    i_idx, j_idx = sample_index_pairs(plan, count, rng)
    return x[i_idx], y[j_idx]
