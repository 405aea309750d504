"""CP-ALS solver tests: exact recovery, monotone fit, normalization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpchan import cpsolver
from cpchan import simchannel as sc
from cpchan import tensors as tl
from cpchan.cpsolver import CpFactors, CpSolveConfig, DegenerateComponentError, cp_als, normalize_factors
from cpchan.modelorder import estimate_model_order


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _coherent_factors(rng, dims, rank, max_coherence=0.7):
    """Random factor matrices with pairwise column coherence below the bound."""
    while True:
        mats = [_crandn(rng, d, rank) for d in dims]
        ok = True
        for m in mats:
            q = m / np.linalg.norm(m, axis=0)
            coh = np.abs(q.conj().T @ q) - np.eye(rank)
            ok &= np.max(coh) < max_coherence
        if ok:
            return mats


def test_exact_rank1_recovery():
    rng = np.random.default_rng(0)
    a, b, c = _crandn(rng, 8), _crandn(rng, 8), _crandn(rng, 8)
    t = tl.rank1_compose([a, b, c])
    factors, history = cp_als(t, CpSolveConfig(rank=1, seed=1))
    assert history[-1] <= 1e-10
    assert_allclose(factors.compose(), t, atol=1e-8 * tl.frobenius(t))


def test_exact_rank2_recovery():
    rng = np.random.default_rng(1)
    mats = _coherent_factors(rng, (8, 8, 8), 2)
    t = tl.cp_compose(mats)
    _, history = cp_als(t, CpSolveConfig(rank=2, seed=2))
    assert history[-1] <= 1e-8


def test_noise_tensor_rank1_fit_bounded_by_svd_oracle():
    """Best rank-1 CP residual cannot beat the rank-1 SVD truncation of any
    unfolding (each unfolding of a rank-1 tensor is a rank-1 matrix)."""
    rng = np.random.default_rng(2)
    t = _crandn(rng, 4, 4, 4)
    _, history = cp_als(t, CpSolveConfig(rank=1, seed=3))
    fit = history[-1]
    assert fit < 1.0
    t_norm = tl.frobenius(t)
    for mode in range(3):
        s = np.linalg.svd(tl.unfold(t, mode), compute_uv=False)
        oracle = np.sqrt(np.sum(s[1:] ** 2)) / t_norm
        assert fit >= oracle - 1e-9


def test_fit_history_monotone():
    rng = np.random.default_rng(3)
    t = tl.cp_compose(_coherent_factors(rng, (6, 7, 8), 3)) + 0.1 * _crandn(rng, 6, 7, 8)
    _, history = cp_als(t, CpSolveConfig(rank=3, seed=4, max_iters=200))
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12)


def test_deterministic_given_seed():
    rng = np.random.default_rng(4)
    t = tl.cp_compose(_coherent_factors(rng, (6, 6, 6), 2)) + 0.05 * _crandn(rng, 6, 6, 6)
    f1, h1 = cp_als(t, CpSolveConfig(rank=2, seed=7))
    f2, h2 = cp_als(t, CpSolveConfig(rank=2, seed=7))
    assert h1 == h2
    for m1, m2 in zip(f1.factors, f2.factors):
        assert_allclose(m1, m2)


def test_component_recovery_up_to_permutation():
    """Recovered rank-1 terms match the generating terms as unordered sets."""
    rng = np.random.default_rng(5)
    mats = _coherent_factors(rng, (8, 9, 10), 2)
    t = tl.cp_compose(mats)
    factors, _ = cp_als(t, CpSolveConfig(rank=2, seed=8))
    truth = [tl.rank1_compose([m[:, k] for m in mats]) for k in range(2)]
    found = [tl.rank1_compose(list(factors.component(k))) for k in range(2)]
    remaining = list(range(2))
    for term in truth:
        scores = [
            abs(np.vdot(term.ravel(), found[j].ravel()))
            / (tl.frobenius(term) * tl.frobenius(found[j]))
            for j in remaining
        ]
        j = remaining.pop(int(np.argmax(scores)))
        assert tl.frobenius(term - found[j]) / tl.frobenius(term) < 1e-6


def test_rank_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        cp_als(np.ones((2, 2, 2), dtype=complex), CpSolveConfig(rank=5))


def test_non_finite_rejected():
    t = np.ones((3, 3, 3), dtype=complex)
    t[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        cp_als(t, CpSolveConfig(rank=1))


def test_normalize_identity_on_normalized():
    rng = np.random.default_rng(6)
    f = normalize_factors(CpFactors(*[_crandn(rng, 5, 2) for _ in range(3)]))
    g = normalize_factors(f)
    for m1, m2 in zip(f.factors, g.factors):
        assert_allclose(m1, m2, atol=1e-14)


def test_normalize_invariants_and_composition():
    rng = np.random.default_rng(7)
    f = CpFactors(*[_crandn(rng, 5, 3) for _ in range(3)])
    before = f.compose()
    g = normalize_factors(f)
    assert_allclose(g.compose(), before, rtol=1e-12, atol=1e-12 * tl.frobenius(before))
    for side in (g.a1, g.a3):
        assert_allclose(np.linalg.norm(side, axis=0), 1.0, atol=1e-12)
        lead = side[0, :]
        assert np.all(np.abs(lead.imag) <= 1e-12)
        assert np.all(lead.real >= -1e-12)


def test_normalize_absorbs_scaling_into_a2():
    rng = np.random.default_rng(8)
    f = normalize_factors(CpFactors(*[_crandn(rng, 5, 2) for _ in range(3)]))
    scaled = CpFactors(f.a1.copy(), f.a2.copy(), f.a3.copy())
    scale = 2.0 * np.exp(1j * np.pi / 4)
    scaled.a1[:, 0] *= scale
    g = normalize_factors(scaled)
    assert_allclose(g.compose(), scaled.compose(), atol=1e-12)
    assert_allclose(g.a1, f.a1, atol=1e-12)
    assert_allclose(g.a2[:, 0], f.a2[:, 0] * scale, atol=1e-12)


def test_normalize_preserves_column_norm_product():
    rng = np.random.default_rng(9)
    f = CpFactors(*[_crandn(rng, 6, 3) for _ in range(3)])
    products = [
        np.prod([np.linalg.norm(m[:, k]) for m in f.factors]) for k in range(3)
    ]
    g = normalize_factors(f)
    after = [np.prod([np.linalg.norm(m[:, k]) for m in g.factors]) for k in range(3)]
    assert_allclose(after, products, rtol=1e-12)


def test_normalize_zero_column_raises():
    rng = np.random.default_rng(10)
    f = CpFactors(*[_crandn(rng, 5, 2) for _ in range(3)])
    f.a1[:, 1] = 0
    with pytest.raises(DegenerateComponentError):
        normalize_factors(f)


def test_zero_tensor_rejected():
    with pytest.raises(ValueError, match="zero tensor"):
        cp_als(np.zeros((3, 3, 3), dtype=complex), CpSolveConfig(rank=1))


@pytest.mark.parametrize("field, value", [("max_iters", 0), ("rel_tol", -1e-8), ("rank", 0), ("restarts", 0)])
def test_config_rejects_out_of_range(field, value):
    kwargs = {"rank": 1, field: value}
    with pytest.raises(ValueError, match=field):
        CpSolveConfig(**kwargs)


def _svd_floored_pinv(g):
    u, s, vh = np.linalg.svd(g)
    s = np.maximum(s, cpsolver._PINV_FLOOR * s[0])
    return (vh.conj().T * (1.0 / s)) @ u.conj().T


def _reference_als_run(unfoldings, t_norm, init, cfg):
    """The textbook sweep: an explicit Khatri-Rao MTTKRP in every mode, the
    SVD-floored pseudoinverse and the explicit residual for the fit."""
    factors = [f.copy() for f in init]
    history = []
    prev_fit = np.inf
    for _ in range(cfg.max_iters):
        for mode in range(3):
            lo, hi = [k for k in range(3) if k != mode]
            kr = tl.khatri_rao(factors[hi], factors[lo])
            gram = (factors[hi].conj().T @ factors[hi]) * (factors[lo].conj().T @ factors[lo])
            factors[mode] = unfoldings[mode] @ kr.conj() @ _svd_floored_pinv(gram.conj())
        fit = tl.frobenius(unfoldings[0] - factors[0] @ tl.khatri_rao(factors[2], factors[1]).T) / t_norm
        history.append(fit)
        if fit < cpsolver._FIT_FLOOR or abs(prev_fit - fit) <= cfg.rel_tol:
            break
        prev_fit = fit
    return factors, history


@pytest.mark.parametrize(
    "dims, rank, noise",
    [
        ((5, 7, 3), 4, 0.1),  # rank above the smallest dimension
        ((31, 64, 4), 10, 0.05),  # the hybrid receiver's tensor at paper dims
        ((6, 4, 9), 2, 0.0),  # noiseless: small fits take the explicit residual
    ],
)
def test_als_run_matches_reference_sweep(dims, rank, noise):
    rng = np.random.default_rng(11)
    t = tl.cp_compose([_crandn(rng, d, rank) for d in dims]) + noise * _crandn(rng, *dims)
    unfoldings = [tl.unfold(t, mode) for mode in range(3)]
    t_norm = tl.frobenius(t)
    cfg = CpSolveConfig(rank=rank)
    for init in (
        cpsolver._svd_init(cpsolver._svd_bases(unfoldings), rank, np.random.default_rng(12)),
        cpsolver._random_init(dims, rank, np.random.default_rng(13)),
    ):
        want_f, want_h = _reference_als_run(unfoldings, t_norm, init, cfg)
        got_f, got_h = cpsolver._als_run(unfoldings[0], t_norm, init, cfg)
        assert len(got_h) == len(want_h)
        # Leaving a swamp amplifies rounding: the reference run with its pinv
        # taken on the transposed Gram (the same arithmetic, other rounding)
        # moves mid-run fits of these random-init runs by up to 7e-12. The
        # final fit, which picks the winning restart, agrees far closer.
        assert_allclose(got_h, want_h, rtol=0, atol=1e-10)
        assert abs(got_h[-1] - want_h[-1]) <= 1e-12
        for got, want in zip(got_f, want_f):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_floored_pinv_of_zero_gram_raises():
    with pytest.raises(np.linalg.LinAlgError):
        cpsolver._floored_pinv(np.zeros((3, 3), dtype=complex))


def test_floored_pinv_matches_svd_floor_on_ill_conditioned_gram():
    rng = np.random.default_rng(14)
    q = np.linalg.qr(_crandn(rng, 4, 4))[0]
    gram = (q * np.array([2.0, 1.0, 1e-4, 1e-6])) @ q.conj().T
    want = _svd_floored_pinv(gram)
    assert np.linalg.norm(cpsolver._floored_pinv(gram) - want) <= 1e-10 * np.linalg.norm(want)


def test_floored_pinv_floors_the_null_space_of_a_singular_gram():
    """On a singular PSD Gram every null direction gets the floor.

    The SVD formula is no reference here: it pairs the left and right
    singular vectors of the rounding-level singular values with an arbitrary
    phase, so its floored part depends on the rounding.
    """
    rng = np.random.default_rng(15)
    q = np.linalg.qr(_crandn(rng, 4, 4))[0]
    eig = np.array([2.0, 1.0, 0.0, 0.0])
    gram = (q * eig) @ q.conj().T
    want = (q / np.maximum(eig, cpsolver._PINV_FLOOR * eig.max())) @ q.conj().T
    assert np.linalg.norm(cpsolver._floored_pinv(gram) - want) <= 1e-10 * np.linalg.norm(want)


def test_failed_restart_is_redrawn(monkeypatch):
    """A restart whose first attempt degenerates is redrawn from a random init."""
    real_pinv, real_random_init = cpsolver._floored_pinv, cpsolver._random_init
    pinv_calls, random_inits = [], []

    def pinv_failing_first(g):
        pinv_calls.append(1)
        if len(pinv_calls) == 1:
            raise np.linalg.LinAlgError("injected")
        return real_pinv(g)

    def spy_random_init(*args):
        random_inits.append(1)
        return real_random_init(*args)

    monkeypatch.setattr(cpsolver, "_floored_pinv", pinv_failing_first)
    monkeypatch.setattr(cpsolver, "_random_init", spy_random_init)
    rng = np.random.default_rng(16)
    t = tl.cp_compose(_coherent_factors(rng, (6, 7, 8), 2)) + 0.05 * _crandn(rng, 6, 7, 8)
    factors, history = cp_als(t, CpSolveConfig(rank=2, restarts=1, seed=5))
    assert len(random_inits) == 1  # restart 0 began from its SVD init, failed, and was redrawn
    assert len(pinv_calls) > 1
    assert 0 < history[-1] < 0.1
    assert_allclose(factors.compose(), t, atol=0.1 * tl.frobenius(t))


def _attempt_rngs(cfg):
    """The generator of every (restart, attempt) slot, as ``cp_als`` draws them."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts * cpsolver._ATTEMPTS_PER_RESTART)
    return [np.random.default_rng(s) for s in seeds]


def _best_of(t, cfg, inits):
    """``cp_als``'s answer from explicit inits: the first of the lowest final fits."""
    unfoldings = [tl.unfold(t, mode) for mode in range(3)]
    best = None
    for init in inits:
        factors, history = cpsolver._als_run(unfoldings[0], tl.frobenius(t), init, cfg)
        if best is None or history[-1] < best[1][-1]:
            best = (factors, history)
    return normalize_factors(CpFactors(*best[0])), best[1]


def _assert_identical(got, want):
    assert got[1] == want[1]
    for m1, m2 in zip(got[0].factors, want[0].factors):
        assert np.array_equal(m1, m2)


def _noisy_cp(seed, dims, rank, noise=0.05):
    rng = np.random.default_rng(seed)
    return tl.cp_compose([_crandn(rng, d, rank) for d in dims]) + noise * _crandn(rng, *dims)


@pytest.mark.parametrize("dims, rank", [((31, 64, 4), 10), ((8, 9, 3), 5)])
def test_gevd_init_exact_without_noise(dims, rank):
    """The algebraic init alone, before any ALS sweep, recovers a noiseless tensor."""
    rng = np.random.default_rng(17)
    t = tl.cp_compose([_crandn(rng, d, rank) for d in dims])
    unfoldings = [tl.unfold(t, mode) for mode in range(3)]
    init = cpsolver._gevd_init(unfoldings[0], cpsolver._svd_bases(unfoldings), rank)
    assert [f.shape for f in init] == [(d, rank) for d in dims]
    assert tl.frobenius(tl.cp_compose(init) - t) <= 1e-10 * tl.frobenius(t)


def test_single_restart_is_the_svd_run():
    t = _noisy_cp(18, (6, 7, 8), 3)
    cfg = CpSolveConfig(rank=3, restarts=1, seed=3)
    unfoldings = [tl.unfold(t, mode) for mode in range(3)]
    svd = cpsolver._svd_init(cpsolver._svd_bases(unfoldings), 3, _attempt_rngs(cfg)[0])
    _assert_identical(cp_als(t, cfg), _best_of(t, cfg, [svd]))


@pytest.mark.parametrize(
    "dims, rank",
    [
        ((6, 7, 8), 3),  # every mode unfolds wide
        ((40, 3, 4), 2),  # mode 0 unfolds tall
    ],
)
def test_handed_bases_give_the_same_run(dims, rank):
    """The bases model-order detection hands over are those ``cp_als``
    computes itself, bit for bit."""
    t = _noisy_cp(22, dims, rank)
    cfg = CpSolveConfig(rank=rank, seed=8)
    _assert_identical(cp_als(t, cfg, estimate_model_order(t).bases), cp_als(t, cfg))


def test_bases_of_other_dims_rejected():
    t = _noisy_cp(23, (6, 7, 8), 2)
    with pytest.raises(ValueError, match="do not match"):
        cp_als(t, CpSolveConfig(rank=2), estimate_model_order(t).bases[::-1])


def test_second_restart_is_the_gevd_run():
    t = _noisy_cp(19, (6, 7, 8), 3)
    cfg = CpSolveConfig(rank=3, seed=4)
    unfoldings = [tl.unfold(t, mode) for mode in range(3)]
    bases = cpsolver._svd_bases(unfoldings)
    inits = [cpsolver._svd_init(bases, 3, _attempt_rngs(cfg)[0]), cpsolver._gevd_init(unfoldings[0], bases, 3)]
    _assert_identical(cp_als(t, cfg), _best_of(t, cfg, inits))


@pytest.mark.parametrize(
    "dims, rank",
    [
        ((6, 7, 5), 1),  # rank below 2: no pencil
        ((4, 9, 5), 5),  # rank above n1
        ((9, 4, 5), 5),  # rank above n2
        ((6, 7, 1), 3),  # a single mode-2 slice
    ],
)
def test_gevd_skipped_gives_random_second_restart(monkeypatch, dims, rank):
    def no_gevd(*args):
        raise AssertionError("GEVD init called where it does not apply")

    monkeypatch.setattr(cpsolver, "_gevd_init", no_gevd)
    t = _noisy_cp(20, dims, rank)
    cfg = CpSolveConfig(rank=rank, seed=6)
    rngs = _attempt_rngs(cfg)
    bases = cpsolver._svd_bases([tl.unfold(t, mode) for mode in range(3)])
    inits = [
        cpsolver._svd_init(bases, rank, rngs[0]),
        cpsolver._random_init(dims, rank, rngs[cpsolver._ATTEMPTS_PER_RESTART]),
    ]
    _assert_identical(cp_als(t, cfg), _best_of(t, cfg, inits))


def test_failed_gevd_init_is_redrawn(monkeypatch):
    calls = []

    def failing_gevd(*args):
        calls.append(1)
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(cpsolver, "_gevd_init", failing_gevd)
    t = _noisy_cp(21, (6, 7, 8), 2)
    cfg = CpSolveConfig(rank=2, seed=7)
    rngs = _attempt_rngs(cfg)
    bases = cpsolver._svd_bases([tl.unfold(t, mode) for mode in range(3)])
    inits = [
        cpsolver._svd_init(bases, 2, rngs[0]),
        cpsolver._random_init(t.shape, 2, rngs[cpsolver._ATTEMPTS_PER_RESTART + 1]),
    ]
    _assert_identical(cp_als(t, cfg), _best_of(t, cfg, inits))
    assert len(calls) == 1


def test_gevd_restart_beats_a_stalled_svd_restart():
    """Scene 1 of seed 1 of the 20 dB, L = 10 hybrid benchmark workload at
    paper dims (a 31x64x4 observation of rank 10), drawn as the benchmark
    draws it. The SVD restart stalls there at the iteration cap, and so did
    all four random restarts of the former default; the default ``cp_als``
    must fit no worse than that best of five."""
    dims = sc.SystemDims(31, 64, 16, 16, d_t=4, d_r=4)
    pilot = sc.make_pilot_hybrid(dims, 1)
    chan_seed, noise_seed, solver_seed = (int(s) for s in np.random.SeedSequence([1, 1]).generate_state(3))
    h = sc.channel_tensor(sc.draw_channel(sc.ChannelGenConfig(l=10, seed=chan_seed)), dims)
    y = sc.receive_hybrid(h, pilot, sc.snr_to_n0(h, pilot, 20.0), noise_seed)
    _, history = cp_als(y, CpSolveConfig(rank=10, seed=solver_seed))

    former = CpSolveConfig(rank=10, restarts=5, seed=solver_seed)
    rngs = _attempt_rngs(former)
    bases = cpsolver._svd_bases([tl.unfold(y, mode) for mode in range(3)])
    inits = [cpsolver._svd_init(bases, 10, rngs[0])] + [
        cpsolver._random_init(y.shape, 10, rngs[r * cpsolver._ATTEMPTS_PER_RESTART]) for r in range(1, 5)
    ]
    unfoldings = [tl.unfold(y, mode) for mode in range(3)]
    fits = [cpsolver._als_run(unfoldings[0], tl.frobenius(y), init, former)[1][-1] for init in inits]
    assert fits[0] > history[-1] + 1e-3  # the SVD restart stalls on this scene
    assert history[-1] <= min(fits) + 1e-6
