"""MDL model-order detection tests, checked against an independent
re-implementation of the criterion."""

import itertools

import numpy as np
import pytest

from cpchan import tensors as tl
from cpchan.modelorder import estimate_model_order, mdl_rank


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mdl_reference(m):
    """Straight transcription of the criterion, kept independent of the
    implementation under test."""
    s = np.linalg.svd(m, compute_uv=False)
    n = max(m.shape)
    p = min(m.shape)
    lam = s**2 / n
    lam = np.maximum(lam, 1e-30 * lam[0])
    best_k, best = 0, np.inf
    for k in range(p):
        tail = lam[k:]
        gm = np.exp(np.mean(np.log(tail)))
        am = np.mean(tail)
        score = -n * (p - k) * np.log(gm / am) + 0.5 * k * (2 * p - k) * np.log(n)
        if score < best:
            best, best_k = score, k
    return best_k


def _lowrank_plus_noise(rng, rows, cols, rank, snr_db):
    u = _crandn(rng, rows, rank)
    v = _crandn(rng, cols, rank)
    sig = u @ v.conj().T
    p_sig = np.mean(np.abs(sig) ** 2)
    n0 = p_sig / 10 ** (snr_db / 10)
    return sig + np.sqrt(n0 / 2) * _crandn(rng, rows, cols)


def test_rank2_at_high_snr():
    rng = np.random.default_rng(0)
    m = _lowrank_plus_noise(rng, 16, 64, 2, 40.0)
    assert mdl_rank(m) == 2
    assert mdl_rank(m) == _mdl_reference(m)


def test_pure_noise_rejects_signal():
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        m = _crandn(rng, 16, 64)
        hits += mdl_rank(m) == 0
    assert hits >= 190


def test_all_ones_matrix_is_rank_one():
    assert mdl_rank(np.ones((8, 32))) == 1


def test_matches_reference_on_random_inputs():
    for (rows, cols), seed in itertools.product([(12, 48), (48, 12), (16, 16)], range(20)):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(0, 5))
        m = (
            _crandn(rng, rows, cols)
            if rank == 0
            else _lowrank_plus_noise(rng, rows, cols, rank, float(rng.uniform(15, 35)))
        )
        assert mdl_rank(m) == _mdl_reference(m), (rows, cols, seed)
    # Exactly rank 2: the tail eigenvalues are rounding, below the floor.
    rng = np.random.default_rng(20)
    m = _crandn(rng, 12, 2) @ _crandn(rng, 2, 48)
    s = np.linalg.svd(m, compute_uv=False)
    assert np.all(s[2:] ** 2 < 1e-30 * s[0] ** 2)
    assert mdl_rank(m) == _mdl_reference(m) == 2


def test_scale_invariance():
    rng = np.random.default_rng(2)
    m = _lowrank_plus_noise(rng, 16, 40, 3, 25.0)
    base = mdl_rank(m)
    for c in (1e-6, 2.0, 1e9, 3.0 - 4.0j):
        assert mdl_rank(c * m) == base


def test_non_finite_rejected():
    m = np.ones((4, 8), dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        mdl_rank(m)


def test_tensor_order_detection():
    rng = np.random.default_rng(3)
    factors = [_crandn(rng, 16, 5) for _ in range(3)]
    t = tl.cp_compose(factors)
    p_sig = np.mean(np.abs(t) ** 2)
    noise = np.sqrt(p_sig / 10**3 / 2) * _crandn(rng, *t.shape)
    report = estimate_model_order(t + noise)
    assert report.l_hat == 5
    assert report.l_hat == max(report.per_mode_estimates)
    assert len(report.eigenvalue_profiles) == 3


def test_zero_tensor_gives_zero():
    report = estimate_model_order(np.zeros((4, 4, 4), dtype=complex))
    assert report.l_hat == 0
    assert report.per_mode_estimates == [0, 0, 0]


def test_order_stays_below_cp_rank_bound():
    # MDL on the mode-k unfolding returns at most min(n_k, n_i n_j) - 1, which
    # is below min(n_1 n_2, n_1 n_3, n_2 n_3) for every shape
    rng = np.random.default_rng(12)
    for shape in itertools.product(range(1, 7), repeat=3):
        n1, n2, n3 = shape
        bound = min(n1 * n2, n1 * n3, n2 * n3)
        rank1 = tl.rank1_compose([_crandn(rng, n) for n in shape])
        for t in (_crandn(rng, *shape), rank1 + 1e-3 * _crandn(rng, *shape)):
            assert estimate_model_order(t).l_hat < bound, shape


def test_rank1_with_tiny_jitter():
    rng = np.random.default_rng(4)
    t = tl.rank1_compose([_crandn(rng, 8), _crandn(rng, 8), _crandn(rng, 8)])
    t = t + 1e-9 * _crandn(rng, 8, 8, 8)
    assert estimate_model_order(t).l_hat == 1


def test_mode_permutation_invariance():
    rng = np.random.default_rng(5)
    factors = [_crandn(rng, 10, 3) for _ in range(3)]
    t = tl.cp_compose(factors)
    t = t + 0.01 * _crandn(rng, *t.shape)
    base = estimate_model_order(t).l_hat
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        assert estimate_model_order(np.transpose(t, perm)).l_hat == base


def test_detection_monotone_in_snr():
    """Detection probability should not decrease as SNR grows."""
    rates = []
    for snr in (5.0, 15.0, 30.0):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(9000 + seed)
            m = _lowrank_plus_noise(rng, 16, 64, 3, snr)
            hits += mdl_rank(m) == 3
        rates.append(hits)
    assert rates[0] <= rates[1] + 2 and rates[1] <= rates[2] + 2
    assert rates[2] >= 38
