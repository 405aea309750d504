"""Tensor primitive tests: unfolding conventions, vectorization, composition,
the left SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpchan import tensors as tl


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_unfold_mode0_convention():
    t = np.arange(1, 9, dtype=complex).reshape((2, 2, 2), order="F")
    assert_allclose(tl.unfold(t, 0), [[1, 3, 5, 7], [2, 4, 6, 8]])


def test_unfold_mode2_convention():
    t = np.arange(1, 9, dtype=complex).reshape((2, 2, 2), order="F")
    assert_allclose(tl.unfold(t, 2), [[1, 2, 3, 4], [5, 6, 7, 8]])


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_unfold_fold_roundtrip(mode):
    rng = np.random.default_rng(3)
    t = _crandn(rng, 3, 4, 5)
    assert_allclose(tl.fold(tl.unfold(t, mode), mode, t.shape), t)


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_unfold_fold_roundtrip_order4(mode):
    rng = np.random.default_rng(4)
    t = _crandn(rng, 2, 3, 4, 5)
    assert_allclose(tl.fold(tl.unfold(t, mode), mode, t.shape), t)


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError):
        tl.unfold(np.zeros((2, 2, 2)), 3)


def test_unfold_degenerate_extent():
    rng = np.random.default_rng(5)
    t = _crandn(rng, 4, 1, 3)
    assert tl.unfold(t, 1).shape == (1, 12)
    assert_allclose(tl.fold(tl.unfold(t, 1), 1, t.shape), t)


def test_vectorize_column_major():
    m = np.array([[1, 3], [2, 4]], dtype=complex)
    assert_allclose(tl.vectorize(m), [1, 2, 3, 4])


def test_vectorize_rank1_is_kron_first_mode_fastest():
    rng = np.random.default_rng(6)
    a, b, c = _crandn(rng, 3), _crandn(rng, 4), _crandn(rng, 5)
    t = tl.rank1_compose([a, b, c])
    assert_allclose(tl.vectorize(t), np.kron(c, np.kron(b, a)), atol=1e-14)


def test_vectorize_isometry():
    rng = np.random.default_rng(7)
    t = _crandn(rng, 3, 4, 5)
    u = _crandn(rng, 3, 4, 5)
    assert np.linalg.norm(tl.vectorize(t)) == pytest.approx(tl.frobenius(t))
    assert np.vdot(tl.vectorize(t), tl.vectorize(u)) == pytest.approx(np.vdot(t.ravel(), u.ravel()))


def test_khatri_rao_single_columns():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0]])
    assert_allclose(tl.khatri_rao(a, b), [[3], [4], [6], [8]])


def test_khatri_rao_identities():
    eye = np.eye(2)
    out = tl.khatri_rao(eye, eye)
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0
    expected[3, 1] = 1.0
    assert_allclose(out, expected)


def test_khatri_rao_columns_are_vectorized_outer_products():
    rng = np.random.default_rng(8)
    a, b = _crandn(rng, 3, 2), _crandn(rng, 4, 2)
    out = tl.khatri_rao(a, b)
    for k in range(2):
        assert_allclose(out[:, k], np.kron(a[:, k], b[:, k]))


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        tl.khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


def test_rank1_compose_sign_pattern():
    t = tl.rank1_compose([np.array([1, 1]), np.array([1, -1]), np.array([1, 1])])
    assert_allclose(t[:, 0, :], np.ones((2, 2)))
    assert_allclose(t[:, 1, :], -np.ones((2, 2)))


def test_rank1_compose_norm_separates():
    rng = np.random.default_rng(9)
    factors = [_crandn(rng, n) for n in (3, 4, 5)]
    t = tl.rank1_compose(factors)
    assert tl.frobenius(t) == pytest.approx(np.prod([np.linalg.norm(f) for f in factors]))


def test_rank1_compose_impulse():
    t = tl.rank1_compose([np.array([1, 0]), np.array([1, 0]), np.array([1, 0])])
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert_allclose(t, expected)


def test_cp_compose_k1_equals_rank1():
    rng = np.random.default_rng(10)
    a, b, c = _crandn(rng, 3), _crandn(rng, 4), _crandn(rng, 5)
    assert_allclose(
        tl.cp_compose([a[:, None], b[:, None], c[:, None]]),
        tl.rank1_compose([a, b, c]),
    )


def test_cp_compose_orthogonal_energy_adds():
    a = np.eye(4)[:, :2]
    b = np.eye(5)[:, :2]
    c = np.eye(6)[:, :2]
    t = tl.cp_compose([a, b, c])
    comps = [tl.rank1_compose([a[:, k], b[:, k], c[:, k]]) for k in range(2)]
    assert tl.frobenius(t) ** 2 == pytest.approx(sum(tl.frobenius(x) ** 2 for x in comps))


def test_cp_compose_matches_bruteforce_triple_loop():
    """Elementwise oracle: t[i,j,u] = sum_k a[i,k] b[j,k] c[u,k], and the
    same with a fourth factor: t[i,j,u,v] = sum_k a[i,k] b[j,k] c[u,k] d[v,k]."""
    rng = np.random.default_rng(11)
    a, b, c = _crandn(rng, 4, 3), _crandn(rng, 5, 3), _crandn(rng, 6, 3)
    t = tl.cp_compose([a, b, c])
    brute = np.zeros((4, 5, 6), dtype=complex)
    for i in range(4):
        for j in range(5):
            for u in range(6):
                brute[i, j, u] = sum(a[i, k] * b[j, k] * c[u, k] for k in range(3))
    assert_allclose(t, brute, atol=1e-13)

    d = _crandn(rng, 2, 3)
    t4 = tl.cp_compose([a, b, c, d])
    brute4 = np.zeros((4, 5, 6, 2), dtype=complex)
    for i, j, u, v in np.ndindex(*brute4.shape):
        brute4[i, j, u, v] = sum(a[i, k] * b[j, k] * c[u, k] * d[v, k] for k in range(3))
    assert_allclose(t4, brute4, atol=1e-13)


def test_cp_compose_rank_mismatch():
    with pytest.raises(ValueError):
        tl.cp_compose([np.zeros((3, 2)), np.zeros((4, 3)), np.zeros((5, 2))])


def test_unfold_of_cp_compose_khatri_rao_identity():
    """Workhorse ALS identity with the C-slowest Khatri-Rao ordering."""
    rng = np.random.default_rng(12)
    a, b, c = _crandn(rng, 4, 3), _crandn(rng, 5, 3), _crandn(rng, 6, 3)
    t = tl.cp_compose([a, b, c])
    assert_allclose(tl.unfold(t, 0), a @ tl.khatri_rao(c, b).T, atol=1e-13)
    assert_allclose(tl.unfold(t, 1), b @ tl.khatri_rao(c, a).T, atol=1e-13)
    assert_allclose(tl.unfold(t, 2), c @ tl.khatri_rao(b, a).T, atol=1e-13)


def test_permute_modes():
    rng = np.random.default_rng(13)
    t = _crandn(rng, 3, 4, 5)
    p = tl.permute_modes(t, (1, 0, 2))
    assert p.shape == (4, 3, 5)
    assert p[2, 1, 3] == t[1, 2, 3]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    rank=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_left_svd_matches_the_full_svd(rows, cols, rank, seed):
    """Wide, tall, square and rank-deficient matrices: the singular values of
    the full SVD, and its leading left singular subspaces wherever the
    singular values part."""
    rng = np.random.default_rng(seed)
    m = _crandn(rng, rows, rank) @ _crandn(rng, rank, cols)
    u, s = tl.left_svd(m)
    u_ref, s_ref, _ = np.linalg.svd(m, full_matrices=False)
    assert u.shape == u_ref.shape and s.shape == s_ref.shape
    assert np.all(np.abs(s - s_ref) <= 1e-12 * s_ref[0])
    assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
    for k in range(1, s.size):
        gap = s_ref[k - 1] - s_ref[k]
        if gap > 1e-6 * s_ref[0]:
            proj, proj_ref = u[:, :k] @ u[:, :k].conj().T, u_ref[:, :k] @ u_ref[:, :k].conj().T
            assert np.linalg.norm(proj - proj_ref, 2) <= 1e-12 * s_ref[0] / gap
