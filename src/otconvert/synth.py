"""Synthetic datasets with known ground truth.

Every generator returns sample arrays plus a JSON-serializable truth record
(true map parameters, centroids, labels) so tests and reports can score
against an oracle instead of eyeballing. The task generators take only a
size, a width and an rng; their geometry is the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import matrix_sqrt_psd, symmetrize

TASK_NAMES = ("gauss_shift", "gauss_affine", "clusters_outlier", "two_conditions")
SHIFT_NORM = 3.0  # length of the shift m in gauss_shift and two_conditions
# clusters_outlier: centroid distances from the origin, the near cluster's
# share of the target, and every cluster's per-axis standard deviation
NEAR_SHIFT = 1.5
OUTLIER_SHIFT = 8.0
NEAR_FRACTION = 0.7
SPREAD = 0.3


@dataclass
class SynthTask:
    name: str
    source: np.ndarray
    target: np.ndarray
    truth: dict
    source_labels: np.ndarray | None = None
    target_labels: np.ndarray | None = None


@dataclass
class ConditionalSynthTask:
    name: str
    entries: list  # (label, condition_vector, source_rows, target_rows)
    truth: dict


def _unit(v):
    return v / np.linalg.norm(v)


def _check_sizes(n, dim):
    """Reject a task size below 1; the error names the ``n`` or ``dim`` key."""
    for key, value in (("n", n), ("dim", dim)):
        if value < 1:
            raise ValidationError(f"{key} must be >= 1, got {value}")


def gauss_shift(n: int, dim: int, rng: np.random.Generator) -> SynthTask:
    """Standard normal source; target is an independent draw shifted by m.

    m has length ``SHIFT_NORM``. The optimal map is x -> x + m; truth
    records m.
    """
    _check_sizes(n, dim)
    shift = _unit(rng.normal(size=dim)) * SHIFT_NORM
    source = rng.normal(size=(n, dim))
    target = rng.normal(size=(n, dim)) + shift
    return SynthTask(
        name="gauss_shift",
        source=source,
        target=target,
        truth={"kind": "shift", "shift": shift.tolist(),
               "map": "T(x) = x + shift"},
    )


def gauss_affine(n: int, dim: int, rng: np.random.Generator) -> SynthTask:
    """Standard normal source; target N(mean, cov) with a random SPD cov.

    The optimal map from N(0, I) is T(x) = A x + b with A = cov^{1/2},
    b = mean; truth records A, b, mean, cov.
    """
    _check_sizes(n, dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(0.5, 2.0, size=dim)
    cov = symmetrize(q @ np.diag(eigs) @ q.T)
    mean = rng.normal(size=dim)
    a = matrix_sqrt_psd(cov)
    source = rng.normal(size=(n, dim))
    target = rng.normal(size=(n, dim)) @ a + mean
    return SynthTask(
        name="gauss_affine",
        source=source,
        target=target,
        truth={"kind": "affine", "mean": mean.tolist(), "cov": cov.tolist(),
               "a": a.tolist(), "b": mean.tolist(), "map": "T(x) = A x + b"},
    )


def clusters_outlier(n: int, dim: int, rng: np.random.Generator) -> SynthTask:
    """Source cluster at the origin; target = near cluster + far outlier cluster.

    Target labels: 0 = near, 1 = outlier. The near centroid sits
    ``NEAR_SHIFT`` from the origin, the outlier centroid ``OUTLIER_SHIFT``
    away in an orthogonal direction, and about ``NEAR_FRACTION`` of the
    target is near. An extremal map with large w should land (almost)
    everything in the near cluster; a plain transport map must cover both.
    """
    _check_sizes(n, dim)
    if dim < 2:
        raise ValidationError("need dim >= 2 for distinct shift directions")
    u = _unit(rng.normal(size=dim))
    v = rng.normal(size=dim)
    v = _unit(v - (v @ u) * u)  # orthogonal direction for the outlier arm
    near_center = NEAR_SHIFT * u
    outlier_center = OUTLIER_SHIFT * v
    n_near = max(1, min(n - 1, int(round(NEAR_FRACTION * n))))
    n_out = n - n_near
    source = SPREAD * rng.normal(size=(n, dim))
    near = near_center + SPREAD * rng.normal(size=(n_near, dim))
    outlier = outlier_center + SPREAD * rng.normal(size=(n_out, dim))
    target = np.vstack([near, outlier])
    labels = np.concatenate([np.zeros(n_near, dtype=np.int64),
                             np.ones(n_out, dtype=np.int64)])
    order = rng.permutation(n)
    return SynthTask(
        name="clusters_outlier",
        source=source,
        target=target[order],
        target_labels=labels[order],
        truth={
            "kind": "clusters_outlier",
            "near_center": near_center.tolist(),
            "outlier_center": outlier_center.tolist(),
            "near_fraction": n_near / n,
            "spread": SPREAD,
        },
    )


def two_conditions(n: int, dim: int, rng: np.random.Generator) -> ConditionalSynthTask:
    """Two conversion directions: targets shifted by +m and by -m.

    m has length ``SHIFT_NORM``. Condition vectors are the 2-d one-hot
    basis; truth records each shift.
    """
    _check_sizes(n, dim)
    shift = _unit(rng.normal(size=dim)) * SHIFT_NORM
    entries = []
    truth_shifts = {}
    for label, sign, vector in (("plus", 1.0, (1.0, 0.0)), ("minus", -1.0, (0.0, 1.0))):
        source = rng.normal(size=(n, dim))
        target = rng.normal(size=(n, dim)) + sign * shift
        entries.append((label, np.array(vector), source, target))
        truth_shifts[label] = (sign * shift).tolist()
    return ConditionalSynthTask(
        name="two_conditions",
        entries=entries,
        truth={"kind": "two_conditions", "shifts": truth_shifts,
               "map": "T(x, s) = x + shift[s]"},
    )


def conversion_clusters(n_source: int, n_reference: int, dim: int,
                        rng: np.random.Generator, n_clusters: int = 3,
                        angular_spread: float = 0.35,
                        offset: float = 0.12) -> SynthTask:
    """Directional clusters for frame-conversion tests (cosine geometry).

    Source frames scatter around n_clusters orthonormal directions; the
    reference holds fresh frames around the same directions nudged by a
    small tangent offset (the "same speaker content, new voice" stand-in).
    Each side holds the clusters in exact proportions, frame i in cluster
    i mod n_clusters before a shuffle. Labels are returned for both sides;
    truth records both sets of centroid directions.
    """
    if dim < n_clusters:
        raise ValidationError(f"need dim >= n_clusters, got {dim} < {n_clusters}")
    if n_clusters < 2:
        raise ValidationError("need at least 2 clusters")
    q, _ = np.linalg.qr(rng.normal(size=(dim, n_clusters)))
    directions = q.T  # rows are orthonormal
    shifted = np.empty_like(directions)
    for c in range(n_clusters):
        t = rng.normal(size=dim)
        t = _unit(t - (t @ directions[c]) * directions[c])
        shifted[c] = _unit(directions[c] + offset * t)

    src_labels = np.arange(n_source) % n_clusters
    rng.shuffle(src_labels)
    ref_labels = np.arange(n_reference) % n_clusters
    rng.shuffle(ref_labels)
    source = directions[src_labels] + angular_spread * rng.normal(size=(n_source, dim))
    reference = shifted[ref_labels] + angular_spread * rng.normal(size=(n_reference, dim))
    return SynthTask(
        name="conversion_clusters",
        source=source,
        target=reference,
        source_labels=src_labels.astype(np.int64),
        target_labels=ref_labels.astype(np.int64),
        truth={
            "kind": "conversion_clusters",
            "directions": directions.tolist(),
            "shifted_directions": shifted.tolist(),
            "angular_spread": angular_spread,
            "offset": offset,
        },
    )


def nearest_direction(frames, directions) -> np.ndarray:
    """Index of the most cosine-similar direction per frame (cluster scoring)."""
    frames = np.asarray(frames, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    fn = frames / np.linalg.norm(frames, axis=1, keepdims=True)
    dn = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    return np.argmax(fn @ dn.T, axis=1)
