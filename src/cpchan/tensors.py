"""Dense complex tensor primitives: unfolding, vectorization, Khatri-Rao,
rank-1 / CP composition and the left SVD of an unfolding.

Conventions, fixed once and used everywhere in this package:

* tensors are plain ``numpy.ndarray`` objects with complex128 entries;
* vectorization is column-major (the first index varies fastest), so
  ``vectorize(t)[i1 + i2*n1 + i3*n1*n2] == t[i1, i2, i3]``;
* the mode-k unfolding puts mode ``k`` on the rows and enumerates the
  remaining modes in ascending order with the lower-numbered mode varying
  fastest (Kolda-style matricization).

With these choices the workhorse identity for a third-order CP model is

    unfold(cp_compose([A, B, C]), 0) == A @ khatri_rao(C, B).T
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "vectorize",
    "permute_modes",
    "khatri_rao",
    "rank1_compose",
    "cp_compose",
    "frobenius",
    "left_svd",
]


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of a tensor into a matrix.

    Rows index the selected mode; columns enumerate the remaining modes in
    ascending order, lower-numbered modes varying fastest.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for an order-{t.ndim} tensor")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def fold(m: np.ndarray, mode: int, dims: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for an order-{len(dims)} tensor")
    m = np.asarray(m)
    rest = tuple(d for k, d in enumerate(dims) if k != mode)
    if m.shape != (dims[mode], int(np.prod(rest, dtype=np.int64))):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} at mode {mode}")
    return np.moveaxis(np.reshape(m, (dims[mode], *rest), order="F"), 0, mode)


def vectorize(t: np.ndarray) -> np.ndarray:
    """Column-major vectorization (first index fastest)."""
    return np.reshape(np.asarray(t), -1, order="F")


def permute_modes(t: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Reorder tensor modes; ``permute_modes(t, (1, 0, 2))[j, i, k] == t[i, j, k]``."""
    return np.transpose(np.asarray(t), tuple(order))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product; column k is ``kron(a[:, k], b[:, k])``.

    ``a``'s row index varies slowest in the output rows.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column count mismatch: {a.shape[1]} vs {b.shape[1]}")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def rank1_compose(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of a list of vectors: element (i1,..,id) = prod_m f[m][i_m]."""
    if len(factors) == 0:
        raise ValueError("factor list is empty")
    out = np.asarray(factors[0], dtype=complex)
    if out.ndim != 1:
        raise ValueError("factors must be vectors")
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        if f.ndim != 1:
            raise ValueError("factors must be vectors")
        out = np.multiply.outer(out, f)
    return out


def cp_compose(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of rank-1 terms defined by factor matrices sharing a column count K,
    as the product of the Khatri-Rao products of the leading and the
    trailing half of the factors."""
    mats = [np.asarray(f, dtype=complex) for f in factors]
    if len(mats) == 0:
        raise ValueError("factor list is empty")
    if any(m.ndim != 2 for m in mats):
        raise ValueError("factors must be matrices")
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"factor matrices disagree on rank: {sorted(ranks)}")
    # The unfolding with the leading half of the modes on the rows is
    # kr(leading) @ kr(trailing).T; neither Khatri-Rao factor is as large
    # as the tensor, and in each the lower-numbered mode varies slowest.
    ones = np.ones((1, ranks.pop()), dtype=complex)
    half = len(mats) // 2
    rows, cols = (reduce(khatri_rao, part, ones) for part in (mats[:half], mats[half:]))
    return (rows @ cols.T).reshape(tuple(m.shape[0] for m in mats))


def frobenius(t: np.ndarray) -> float:
    """Frobenius norm of a tensor of any order."""
    return float(np.linalg.norm(np.ravel(t)))


def left_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and all singular values of a matrix, dominant
    first, without the right singular vectors.

    A wide matrix (rows < cols), such as every mode unfolding at paper dims,
    is first reduced to its triangular QR factor (Chan's R-SVD, ACM TOMS
    1982): with m^H = Q R, m = R^H Q^H, so the SVD of the square R^H has the
    same U and s. A tall or square matrix takes the thin SVD directly.
    """
    m = np.asarray(m)
    if m.shape[0] < m.shape[1]:
        m = np.linalg.qr(m.conj().T, mode="r").conj().T
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u, s
