"""Frame-wise sequence conversion against a reference bag of vectors.

Both converters replace every source frame with a combination of reference
frames and keep the frame count (and hence timing) of the source. The
transport-based converter solves one entropic plan per call over the whole
sequence; the nearest-neighbor converter is the frame-local baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import (
    SinkhornConfig,
    cost_matrix,
    k_smallest_columns,
    plan_top_k_map,
    sinkhorn,
)
from .errors import ShapeError, ValidationError

DEFAULT_TOP_K = 4


@dataclass
class PlanStats:
    epsilon: float
    iterations_used: int
    marginal_error: float


@dataclass
class ConversionReport:
    """What a conversion did: solver footprint and realized matching cost."""

    method: str
    k: int
    mean_transport_cost: float
    plan_stats: PlanStats | None = None


def plan_report(method: str, k: int, plan, cost) -> ConversionReport:
    """Report of a plan-based conversion: the plan's cost and solver footprint."""
    return ConversionReport(
        method=method,
        k=k,
        mean_transport_cost=plan.transport_cost(cost),
        plan_stats=PlanStats(
            epsilon=plan.epsilon,
            iterations_used=plan.iterations_used,
            marginal_error=plan.marginal_error,
        ),
    )


def _conversion_inputs(source, reference, k):
    source = np.asarray(source, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if source.ndim != 2 or reference.ndim != 2:
        raise ShapeError("source and reference must be 2-d arrays of frames")
    if source.shape[1] != reference.shape[1]:
        raise ShapeError(
            f"feature dims differ: source {source.shape[1]}, reference {reference.shape[1]}"
        )
    k = int(k)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k > reference.shape[0]:
        raise ValidationError(
            f"k={k} exceeds the {reference.shape[0]} reference frames"
        )
    return source, reference, k


def sinkvc_convert(source, reference, cfg: SinkhornConfig | None = None,
                   k: int = DEFAULT_TOP_K):
    """Convert source frames through an entropic transport plan.

    Builds the cosine cost between source and reference frames, solves the
    plan with uniform marginals, and replaces each source frame by the
    unweighted mean of the k reference frames holding the most coupling
    mass for it. Defaults: epsilon 0.1, k 4.

    Returns (converted_frames, ConversionReport); converted_frames has
    exactly the source's frame count.
    """
    source, reference, k = _conversion_inputs(source, reference, k)
    cfg = cfg or SinkhornConfig()
    cost = cost_matrix(source, reference, "cosine_distance")
    plan = sinkhorn(cost, cfg=cfg)
    converted = plan_top_k_map(plan, reference, k)
    return converted, plan_report("sinkvc", k, plan, cost)


def knn_convert(source, reference, k: int = DEFAULT_TOP_K):
    """Convert each source frame to the mean of its k nearest reference frames.

    Nearest is by cosine similarity; ties go to the lower reference index.
    No plan is solved, so every frame chooses independently.
    """
    source, reference, k = _conversion_inputs(source, reference, k)
    cost = cost_matrix(source, reference, "cosine_distance").values
    # smallest cosine distance = highest similarity
    order = k_smallest_columns(cost, k)
    converted = reference[order].mean(axis=1)
    matched = np.take_along_axis(cost, order, axis=1)
    report = ConversionReport(
        method="knn",
        k=k,
        mean_transport_cost=float(matched.mean()),
        plan_stats=None,
    )
    return converted, report
