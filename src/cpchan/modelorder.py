"""Model-order detection for third-order tensors.

The number of rank-1 components is estimated by applying the classic
information-theoretic MDL rule (Wax & Kailath, 1985) to every mode unfolding
and taking the largest per-mode estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import unfold

__all__ = ["MdlReport", "mdl_rank", "estimate_model_order"]

# Eigenvalues below this fraction of the largest are floored so the geometric
# mean stays defined for exactly rank-deficient inputs.
_EIG_FLOOR = 1e-30


@dataclass
class MdlReport:
    """Per-mode rank estimates and the combined model order."""

    per_mode_estimates: list[int]
    l_hat: int
    eigenvalue_profiles: list[np.ndarray]


def _mdl_from_eigenvalues(lam: np.ndarray, n_obs: int) -> int:
    """argmin_k of the MDL score for eigenvalues lam (descending)."""
    p = lam.size
    lam = np.maximum(lam, _EIG_FLOOR * lam[0])
    log_lam = np.log(lam)
    scores = np.empty(p)
    for k in range(p):
        tail = lam[k:]
        log_gm = float(np.mean(log_lam[k:]))
        log_am = float(np.log(np.mean(tail)))
        scores[k] = -n_obs * (p - k) * (log_gm - log_am) + 0.5 * k * (2 * p - k) * np.log(n_obs)
    return int(np.argmin(scores))


def _mdl_order(m: np.ndarray) -> tuple[int, np.ndarray]:
    """MDL order of a finite matrix and its eigenvalue profile: the squared
    singular values divided by the snapshot count N = max(rows, cols)."""
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite input")
    n_obs = max(m.shape)
    lam = np.linalg.svd(m, compute_uv=False) ** 2 / n_obs
    return (0 if lam[0] == 0 else _mdl_from_eigenvalues(lam, n_obs)), lam


def mdl_rank(m: np.ndarray) -> int:
    """MDL estimate of the signal rank of a complex matrix.

    With p = min(rows, cols), N = max(rows, cols) and lam_i the squared
    singular values divided by N, returns the k in {0, ..., p-1} minimizing

        MDL(k) = -N (p-k) log(GM(lam_{k+1..p}) / AM(lam_{k+1..p}))
                 + 0.5 k (2p - k) log N.

    An all-zero matrix yields 0.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    return _mdl_order(m)[0]


def estimate_model_order(t: np.ndarray) -> MdlReport:
    """Apply :func:`mdl_rank` to all unfoldings of a third-order tensor."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError("expected a third-order tensor")
    estimates, profiles = zip(*(_mdl_order(unfold(t, mode)) for mode in range(3)))
    return MdlReport(list(estimates), max(estimates), list(profiles))
