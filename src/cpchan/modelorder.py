"""Model-order detection for third-order tensors.

The number of rank-1 components is estimated by applying the classic
information-theoretic MDL rule (Wax & Kailath, 1985) to every mode unfolding
and taking the largest per-mode estimate. Each unfolding is decomposed once,
by :func:`~cpchan.tensors.left_svd`; the report keeps its left singular
vectors, which :func:`~cpchan.cpsolver.cp_als` takes as the bases of its SVD
and GEVD inits instead of decomposing the unfoldings again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import left_svd, unfold

__all__ = ["MdlReport", "mdl_rank", "estimate_model_order"]

# Eigenvalues below this fraction of the largest are floored so the geometric
# mean stays defined for exactly rank-deficient inputs.
_EIG_FLOOR = 1e-30


@dataclass
class MdlReport:
    """Per-mode rank estimates, the combined model order, and each
    unfolding's eigenvalue profile and left singular vectors (dominant
    first)."""

    per_mode_estimates: list[int]
    l_hat: int
    eigenvalue_profiles: list[np.ndarray]
    bases: list[np.ndarray]


def _mdl_from_eigenvalues(lam: np.ndarray, n_obs: int) -> int:
    """argmin_k of the MDL score for eigenvalues lam (descending), the first
    on a tie. The tail means of every k come from suffix sums."""
    p = lam.size
    lam = np.maximum(lam, _EIG_FLOOR * lam[0])
    k = np.arange(p)
    tail = p - k
    log_gm = np.cumsum(np.log(lam)[::-1])[::-1] / tail
    log_am = np.log(np.cumsum(lam[::-1])[::-1] / tail)
    scores = -n_obs * tail * (log_gm - log_am) + 0.5 * k * (2 * p - k) * np.log(n_obs)
    return int(np.argmin(scores))


def _mdl_order(s: np.ndarray, shape: tuple[int, int]) -> tuple[int, np.ndarray]:
    """MDL order of a matrix of ``shape`` with singular values ``s`` and its
    eigenvalue profile: the squared singular values divided by the snapshot
    count N = max(rows, cols)."""
    n_obs = max(shape)
    lam = s**2 / n_obs
    return (0 if lam[0] == 0 else _mdl_from_eigenvalues(lam, n_obs)), lam


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")


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
    _check_finite(m)
    return _mdl_order(left_svd(m)[1], m.shape)[0]


def estimate_model_order(t: np.ndarray) -> MdlReport:
    """Apply :func:`mdl_rank` to all unfoldings of a third-order tensor,
    decomposing each unfolding once."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError("expected a third-order tensor")
    _check_finite(t)
    unfoldings = [unfold(t, mode) for mode in range(3)]
    svds = [left_svd(m) for m in unfoldings]
    estimates, profiles = zip(*(_mdl_order(s, m.shape) for m, (_, s) in zip(unfoldings, svds)))
    return MdlReport(list(estimates), max(estimates), list(profiles), [u for u, _ in svds])
