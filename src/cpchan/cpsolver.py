"""Rank-K CP decomposition of third-order complex tensors.

Alternating least squares from a few starts. Restart 0 starts from truncated
SVDs of the three unfoldings (HOSVD-style). Restart 1 starts from the
generalized eigendecomposition (GEVD) of two slices of the tensor compressed
onto the same SVD bases, which is exact for a noiseless tensor; where that
pencil does not exist (rank below 2, rank above the first or the second
dimension, or a single mode-2 slice) it is random. Restarts 2 and up, and
every redraw of a failed attempt, use independent complex-Gaussian factor
draws. The default runs restarts 0 and 1. Every mode update solves the
unfolded normal equations through a pseudoinverse of the Hermitian Gram
Hadamard product, whose eigenvalues are floored at 1e-12 times the largest.

Both algebraic inits start from the left singular vectors of the three
unfoldings (:func:`~cpchan.tensors.left_svd`, which never forms the right
ones). The estimators hand over the vectors that model-order detection
already computed, so each unfolding is decomposed once per estimate.

One sweep forms a single Khatri-Rao product, for the mode-0 MTTKRP (the
matricized-tensor-times-Khatri-Rao product). The mode-1 and mode-2 MTTKRPs
contract ``conj(A)^T`` times the mode-0 unfolding instead. The Gram of each
factor is kept and updated once per mode, and the fit comes from the Grams
and the last MTTKRP; below a fit of 1e-3, where that formula loses digits to
cancellation, it comes from the explicit residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import cp_compose, frobenius, khatri_rao, left_svd, unfold

__all__ = ["CpFactors", "CpSolveConfig", "DegenerateComponentError", "cp_als", "normalize_factors"]

_PINV_FLOOR = 1e-12
_FIT_FLOOR = 1e-14
_EXPLICIT_FIT_BELOW = 1e-3
_ATTEMPTS_PER_RESTART = 3


class DegenerateComponentError(ValueError):
    """A CP component collapsed to a zero column where scale must be carried."""


@dataclass
class CpFactors:
    """Factor-matrix triple of a rank-K CP model.

    After :func:`normalize_factors`, the columns of ``a1`` and ``a3`` have
    unit norm and a real nonnegative leading entry; all component scale and
    phase is carried by ``a2``.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray

    def __post_init__(self):
        shapes = {m.shape[1] for m in (self.a1, self.a2, self.a3)}
        if len(shapes) != 1:
            raise ValueError(f"factor matrices disagree on rank: {sorted(shapes)}")

    @property
    def rank(self) -> int:
        return self.a1.shape[1]

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.a1, self.a2, self.a3

    def component(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectors of the k-th rank-1 term."""
        return self.a1[:, k], self.a2[:, k], self.a3[:, k]

    def compose(self) -> np.ndarray:
        return cp_compose(self.factors)


@dataclass(frozen=True)
class CpSolveConfig:
    """ALS solver knobs."""

    rank: int
    max_iters: int = 500
    rel_tol: float = 1e-8
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol >= 0:
            raise ValueError("rel_tol must be >= 0")


def _floored_pinv(g: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a Hermitian PSD Gram with eigenvalues floored at
    ``_PINV_FLOOR`` times the largest (for a PSD matrix the eigenvalues are
    its singular values)."""
    w, v = np.linalg.eigh(g)
    if not w[-1] > 0:
        raise np.linalg.LinAlgError("zero Gram matrix")
    w = np.maximum(w, _PINV_FLOOR * w[-1])
    return (v / w) @ v.conj().T


def _svd_bases(unfoldings: list[np.ndarray]) -> list[np.ndarray]:
    """Left singular vectors of each unfolding, dominant first; shared by the
    SVD and the GEVD inits."""
    return [left_svd(m)[0] for m in unfoldings]


def _svd_init(bases: list[np.ndarray], rank: int, rng: np.random.Generator) -> list[np.ndarray]:
    factors = []
    for u in bases:
        take = min(rank, u.shape[1])
        f = u[:, :take]
        if take < rank:
            pad = rng.standard_normal((u.shape[0], rank - take)) + 1j * rng.standard_normal((u.shape[0], rank - take))
            f = np.concatenate([f, pad / np.sqrt(2.0)], axis=1)
        factors.append(f.astype(complex))
    return factors


def _gevd_init(t0: np.ndarray, bases: list[np.ndarray], rank: int) -> list[np.ndarray]:
    """Algebraic init from the generalized eigendecomposition of two slices.

    The tensor is compressed onto the dominant ``rank``-dimensional mode-0 and
    mode-1 subspaces and onto its two dominant mode-2 directions, giving the
    slices S1 = A' diag(g1) B'^T and S2 = A' diag(g2) B'^T with square A', B'.
    The eigenvectors of S1 S2^+ are the columns of A' (Sanchez & Kowalski
    1990; Leurgans, Ross & Abel 1993), so a = U0 A'. Each row of a^+ T_(0) is
    then the Kronecker product of one column of c and b, split by a rank-1
    SVD. Exact for a noiseless tensor whose mode-0 and mode-1 factors have
    full column rank and whose slice ratios g1/g2 are distinct.
    """
    n2, n3 = bases[1].shape[0], bases[2].shape[0]
    u0, u1, u2 = bases[0][:, :rank], bases[1][:, :rank], bases[2][:, :2]
    # core[p, k, q] = sum_ij conj(u0[i, p]) t[i, j, k] conj(u1[j, q])
    core = (u0.conj().T @ t0).reshape(rank, n3, n2) @ u1.conj()
    slices = u2.conj().T @ core  # slices[p, m, q] = S_m[p, q]
    a = u0 @ np.linalg.eig(slices[:, 0, :] @ np.linalg.pinv(slices[:, 1, :]))[1]
    rows = (np.linalg.pinv(a) @ t0).reshape(rank, n3, n2)  # rows[r, k, j] = c[k, r] b[j, r]
    u, s, vh = np.linalg.svd(rows)
    return [a, vh[:, 0, :].T, (u[:, :, 0] * s[:, :1]).T]


def _random_init(dims: tuple[int, ...], rank: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [
        (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2.0)
        for d in dims
    ]


def _gram(f: np.ndarray) -> np.ndarray:
    return f.conj().T @ f


def _als_run(
    t0: np.ndarray,
    t_norm: float,
    init: list[np.ndarray],
    cfg: CpSolveConfig,
) -> tuple[list[np.ndarray], list[float]]:
    """ALS sweeps on the mode-0 unfolding ``t0`` from the factors ``init``."""
    _, b, c = init  # the first sweep starts by solving for a
    n2, n3 = b.shape[0], c.shape[0]
    gram_b, gram_c = _gram(b), _gram(c)
    history: list[float] = []
    prev_fit = np.inf
    for _ in range(cfg.max_iters):
        a = t0 @ khatri_rao(c.conj(), b.conj()) @ _floored_pinv((gram_c * gram_b).conj())
        gram_a = _gram(a)
        # w[r, k, j] = sum_i conj(a[i, r]) t[i, j, k]. The mode-1 MTTKRP
        # m1[j, r] = sum_k conj(c[k, r]) w[r, k, j] and the mode-2 one
        # m2[k, r] = sum_j conj(b[j, r]) w[r, k, j] need no Khatri-Rao product.
        w = (a.conj().T @ t0).reshape(-1, n3, n2)
        m1 = (c.conj().T[:, None, :] @ w)[:, 0, :].T
        b = m1 @ _floored_pinv((gram_c * gram_a).conj())
        gram_b = _gram(b)
        m2 = (w @ b.conj().T[:, :, None])[:, :, 0].T
        c = m2 @ _floored_pinv((gram_b * gram_a).conj())
        gram_c = _gram(c)
        # ||T - [[a, b, c]]||^2 = ||T||^2 - 2 Re<c, m2> + sum(G_a * G_b * G_c).
        # Its cancellation error in the fit is about eps / fit, so small fits
        # are recomputed from the explicit residual.
        res2 = t_norm**2 - 2.0 * np.vdot(c, m2).real + np.sum(gram_a * gram_b * gram_c).real
        fit = float(np.sqrt(max(res2, 0.0))) / t_norm
        if fit < _EXPLICIT_FIT_BELOW:
            fit = frobenius(t0 - a @ khatri_rao(c, b).T) / t_norm
        if not np.isfinite(fit):
            raise np.linalg.LinAlgError("non-finite fit")
        history.append(fit)
        if fit < _FIT_FLOOR or abs(prev_fit - fit) <= cfg.rel_tol:
            break
        prev_fit = fit
    return [a, b, c], history


def cp_als(
    t: np.ndarray, cfg: CpSolveConfig, bases: list[np.ndarray] | None = None
) -> tuple[CpFactors, list[float]]:
    """Best-of-restarts rank-``cfg.rank`` CP decomposition of ``t``.

    Restart 0 starts from the SVD init, restart 1 from the GEVD init where it
    applies, and the others at random (see the module docstring). Returns the
    normalized factors of the restart with the smallest relative residual,
    the earliest on a tie, together with that restart's per-iteration
    residual-ratio history. Deterministic for a given ``cfg.seed``. A restart
    whose init or least-squares subproblem degenerates is abandoned and
    redrawn at random; only if every restart fails is an error raised.

    ``bases`` are the left singular vectors of the three unfoldings of ``t``,
    dominant first, as :class:`~cpchan.modelorder.MdlReport` holds them;
    ``None`` computes them here, with the same result.
    """
    t = np.asarray(t, dtype=complex)
    if t.ndim != 3:
        raise ValueError("expected a third-order tensor")
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite input tensor")
    dims = t.shape
    pair_bound = min(dims[0] * dims[1], dims[0] * dims[2], dims[1] * dims[2])
    if cfg.rank > pair_bound:
        raise ValueError(f"rank {cfg.rank} infeasible for dims {dims} (bound {pair_bound})")
    t_norm = frobenius(t)
    if t_norm == 0:
        raise ValueError("zero tensor has no CP decomposition")

    unfoldings = [unfold(t, mode) for mode in range(3)]
    if bases is None:
        bases = _svd_bases(unfoldings)
    elif [u.shape[0] for u in bases] != list(dims):
        raise ValueError(f"bases of {[u.shape[0] for u in bases]} rows do not match dims {dims}")
    # The GEVD pencil needs rank-column mode-0 and mode-1 bases and two mode-2 slices.
    gevd = 2 <= cfg.rank <= min(dims[0], dims[1]) and dims[2] >= 2
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts * _ATTEMPTS_PER_RESTART)

    best: tuple[float, list[np.ndarray], list[float]] | None = None
    for restart in range(cfg.restarts):
        for attempt in range(_ATTEMPTS_PER_RESTART):
            rng = np.random.default_rng(seeds[restart * _ATTEMPTS_PER_RESTART + attempt])
            try:
                if restart == 0 and attempt == 0:
                    init = _svd_init(bases, cfg.rank, rng)
                elif restart == 1 and attempt == 0 and gevd:
                    init = _gevd_init(unfoldings[0], bases, cfg.rank)
                else:
                    init = _random_init(dims, cfg.rank, rng)
                factors, history = _als_run(unfoldings[0], t_norm, init, cfg)
            except np.linalg.LinAlgError:
                continue
            if best is None or history[-1] < best[0]:
                best = (history[-1], factors, history)
            break
    if best is None:
        raise RuntimeError(f"all {cfg.restarts} ALS restarts failed")
    _, factors, history = best
    return normalize_factors(CpFactors(*factors)), history


def normalize_factors(f: CpFactors) -> CpFactors:
    """Push all component scale and phase into ``a2``.

    Columns of ``a1`` and ``a3`` come out unit-norm with a real nonnegative
    leading entry; the composed tensor is unchanged.
    """
    a1, a2, a3 = (m.astype(complex).copy() for m in f.factors)
    for k in range(f.rank):
        for side in (a1, a3):
            nrm = np.linalg.norm(side[:, k])
            if nrm == 0:
                raise DegenerateComponentError(f"component {k} has a zero column")
            side[:, k] /= nrm
            a2[:, k] *= nrm
            phase = np.exp(-1j * np.angle(side[0, k]))
            side[:, k] *= phase
            a2[:, k] /= phase
    return CpFactors(a1, a2, a3)
