"""Discrete norms and contraction-rate estimation.

Norm conventions follow the maximum principle analysis: per time level
the space error is measured in the max norm over nodes, and over a run
the space-time error is the max of the per-level values.  Interface
traces over a window are measured the same way (max over levels >= 1).

Contraction of a Schwarz decay curve is estimated from two-iteration
ratios e_{k+2} / e_k, the exponent structure of the two-subdomain
convergence bound (the error provably contracts by
kappa = alpha (1-beta) / (beta (1-alpha)) every two iterations).  The
first two entries (warm-up, still dominated by the arbitrary guess) and
the last entry (polluted by the stopping tolerance or the floor of the
budget) are discarded, and the geometric mean of the remaining ratios
is returned.  Applied to an exact geometric curve r^k this yields r^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ErrorReport", "linf_norms", "estimate_contraction"]


@dataclass(frozen=True)
class ErrorReport:
    """Max-norm errors of a trajectory against a reference.

    linf_space[m] is the max-norm error at level m; linf_spacetime the
    max over levels.  reference_scale is the space-time max magnitude of
    the reference, the scale of a relative error.
    """

    linf_space: np.ndarray
    linf_spacetime: float
    reference_scale: float


def linf_norms(history: np.ndarray, reference: np.ndarray) -> ErrorReport:
    """Per-level and space-time max-norm errors of history vs reference.

    Both arrays carry time on axis 0 and any node layout on the rest, and
    must be finite: a NaN or an infinity raises.
    """
    history = np.asarray(history, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if history.shape != reference.shape:
        raise ValueError(f"shape mismatch: {history.shape} vs {reference.shape}")
    if not (np.isfinite(history).all() and np.isfinite(reference).all()):
        raise ValueError("NaN or infinity in input")
    diff = np.abs(history - reference).reshape(history.shape[0], -1)
    per_level = diff.max(axis=1) if diff.shape[1] else np.zeros(diff.shape[0])
    return ErrorReport(
        linf_space=per_level,
        linf_spacetime=float(per_level.max()),
        reference_scale=float(np.abs(reference).max()),
    )


def estimate_contraction(curve: Sequence[float], skip_head: int = 2, skip_tail: int = 1) -> float:
    """Two-iteration contraction factor of a decay curve.

    Geometric mean of e_{k+2} / e_k with the first skip_head entries and
    the last skip_tail entries of the curve excluded.  Needs at least
    skip_head + skip_tail + 3 strictly positive, finite entries; a NaN or
    an infinity raises.
    """
    c = np.asarray(curve, dtype=float)
    if c.ndim != 1:
        raise ValueError("decay curve must be one-dimensional")
    if c.size < skip_head + skip_tail + 3:
        raise ValueError(f"need at least {skip_head + skip_tail + 3} entries, got {c.size}")
    if not np.isfinite(c).all():
        raise ValueError("decay curve holds a NaN or an infinity")
    if np.any(c <= 0.0):
        raise ValueError("decay curve entries must be positive")
    last = c.size - skip_tail  # exclusive
    ratios = c[skip_head + 2 : last] / c[skip_head : last - 2]
    if ratios.size == 0:
        raise ValueError("no usable two-iteration ratios after trimming")
    return float(np.exp(np.mean(np.log(ratios))))

