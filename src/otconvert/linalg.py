"""Dense matrix helpers beyond what numpy ships directly.

Everything here is pure and returns float64. Generic primitives (matmul,
transpose, reductions, elementwise ops, cholesky, eigh) are deliberately
left to numpy itself; this module adds the overflow-safe log-sum-exp and
the PSD matrix square root that the metric and solver code lean on.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Eigenvalues of a symmetrized PSD input may dip this far below zero from
# rounding; anything lower is treated as genuinely indefinite.
PSD_EIG_FLOOR = -1e-10


def logsumexp(a: np.ndarray, axis: int, overwrite_input: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis; max-subtraction keeps 1e300-scale inputs finite.

    Rows that are entirely -inf produce -inf, not NaN. One temporary the
    size of a holds exp(a − max); with overwrite_input a float64 or float32
    input is that scratch instead, and is left holding those values. The
    sums are float64 either way.
    """
    a = np.asarray(a)
    if not (overwrite_input and a.dtype == np.float32):
        a = a.astype(np.float64, copy=False)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    shifted = np.subtract(a, amax, out=a if overwrite_input else None)
    with np.errstate(divide="ignore"):
        sums = np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True,
                      dtype=np.float64)
        out = np.log(sums) + amax
    return np.squeeze(out, axis=axis)


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    The input is symmetrized first; eigenvalues in
    [PSD_EIG_FLOOR * max(|largest|, 1), 0) are clamped to zero, anything
    lower raises ``DomainError``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix_sqrt_psd needs a square matrix, got shape {a.shape}")
    sym = symmetrize(a)
    vals, vecs = np.linalg.eigh(sym)
    scale = max(abs(vals[-1]), 1.0)
    if vals[0] < PSD_EIG_FLOOR * scale:
        raise DomainError(
            f"matrix not PSD: smallest eigenvalue {vals[0]:.3e} below tolerance"
        )
    vals = np.clip(vals, 0.0, None)
    return symmetrize((vecs * np.sqrt(vals)) @ vecs.T)
