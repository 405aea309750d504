"""Estimation pipeline tests for both receiver architectures."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpchan import pipelines as pl
from cpchan import simchannel as sc
from cpchan import tensors as tl
from cpchan.cpsolver import CpFactors, CpSolveConfig
from cpchan.harmonic import AcdConfig, eval_ratio
from cpchan.simchannel import wrap_angle


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _tight_config(restarts=1, starts=1):
    return pl.EstimatorConfig(
        cp=CpSolveConfig(rank=1, max_iters=2000, rel_tol=1e-13, restarts=restarts),
        acd=AcdConfig(starts=starts),
    )


def _angles(p):
    return np.array([p.omega1, p.omega2, p.psi, p.varsigma])


def _objective(a_hat, x, omega, varsigma):
    """J(omega, varsigma) of the 2-D fit, from the exact slice the descent maximizes."""
    return float(eval_ratio(pl._slices(np.asarray(a_hat, dtype=complex), x)(0, varsigma), omega))


def _matched_filter(a_hat, x, omega, varsigma):
    """|<alpha, a>|^2 / ||alpha||^2 with alpha the steering vector at (omega, varsigma)."""
    alpha = pl._steering(x, omega, varsigma)
    return abs(np.vdot(alpha, a_hat)) ** 2 / np.vdot(alpha, alpha).real


# --- refine_a2 / refine_a1 ----------------------------------------------------


def test_refine_a2_consistent_recovery():
    rng = np.random.default_rng(0)
    a1 = np.exp(1j * 0.4 * np.arange(6))
    a3 = np.exp(1j * -1.2 * np.arange(5))
    a2 = _crandn(rng, 7)
    component = tl.rank1_compose([a1, a2, a3])
    assert_allclose(pl.refine_a2(component, a1, a3), a2, atol=1e-12)


def test_refine_a2_impulse_selection():
    rng = np.random.default_rng(1)
    component = _crandn(rng, 4, 6, 5)
    e0_c = np.eye(4)[0].astype(complex)
    e0_r = np.eye(5)[0].astype(complex)
    assert_allclose(pl.refine_a2(component, e0_c, e0_r), component[0, :, 0], atol=1e-14)


def test_refine_a2_matches_dense_pseudoinverse():
    """Oracle: materialize the structured LS operator and solve with pinv."""
    rng = np.random.default_rng(2)
    n_c, n_s, n_r = 4, 6, 5
    component = _crandn(rng, n_c, n_s, n_r)
    a1 = _crandn(rng, n_c)
    a3 = _crandn(rng, n_r)
    lam = np.kron(tl.vectorize(np.outer(a1, a3)).reshape(-1, 1), np.eye(n_s))
    data = tl.vectorize(tl.permute_modes(component, (1, 0, 2)))
    oracle = np.linalg.pinv(lam) @ data
    assert_allclose(pl.refine_a2(component, a1, a3), oracle, atol=1e-10)


def test_refine_a1_consistent_recovery():
    rng = np.random.default_rng(3)
    a1 = _crandn(rng, 8)
    a2 = np.exp(1j * 0.9 * np.arange(6))
    a3 = _crandn(rng, 4)
    component = tl.rank1_compose([a1, a2, a3])
    assert_allclose(pl.refine_a1(component, a2, a3), a1, atol=1e-12)


def test_refine_a1_impulse_selection():
    rng = np.random.default_rng(4)
    component = _crandn(rng, 7, 6, 4)
    e0_s = np.eye(6)[0].astype(complex)
    e0_m = np.eye(4)[0].astype(complex)
    assert_allclose(pl.refine_a1(component, e0_s, e0_m), component[:, 0, 0], atol=1e-14)


def test_refine_a1_matches_dense_pseudoinverse():
    rng = np.random.default_rng(5)
    n_c, n_s, d_r = 7, 6, 4
    component = _crandn(rng, n_c, n_s, d_r)
    a2 = _crandn(rng, n_s)
    a3 = _crandn(rng, d_r)
    lam = np.kron(tl.vectorize(np.outer(a2, a3)).reshape(-1, 1), np.eye(n_c))
    oracle = np.linalg.pinv(lam) @ tl.vectorize(component)
    assert_allclose(pl.refine_a1(component, a2, a3), oracle, atol=1e-10)


def test_refine_zero_steering_rejected():
    with pytest.raises(ValueError, match="zero steering"):
        pl.refine_a2(np.ones((2, 3, 2), dtype=complex), np.zeros(2), np.ones(2))


# --- jade_digital ---------------------------------------------------------------


def test_jade_digital_forward_synthesis():
    dims = sc.SystemDims(8, 16, 4, 4)
    pilot = sc.make_pilot_digital(dims, seed=0)
    true = (0.8, -1.4, 1.5 - 0.5j)
    alpha = pilot.precoder @ np.exp(1j * true[1] * np.arange(4))
    a2 = true[2] * np.exp(1j * true[0] * np.arange(16)) * alpha
    omega2, varsigma, b, objective = pl.jade_digital(a2, pilot)
    assert omega2 == pytest.approx(true[0], abs=1e-6)
    assert varsigma == pytest.approx(true[1], abs=1e-6)
    assert abs(b - true[2]) / abs(true[2]) < 1e-6
    assert objective == pytest.approx(_matched_filter(a2, pilot.precoder, omega2, varsigma), rel=1e-12)


def test_jade_digital_dc_closed_form():
    """With an all-ones precoder the steering at (0, 0) is the constant n_t,
    so the closed-form gain there is mean(a2)/n_t."""
    n_s, n_t = 8, 4
    pilot = sc.PilotDigital(np.ones((n_s, n_t)), np.ones((16, n_s)))
    rng = np.random.default_rng(6)
    a2 = _crandn(rng, n_s)
    alpha0 = pl._steering(pilot.precoder, 0.0, 0.0)
    assert_allclose(alpha0, n_t * np.ones(n_s))
    b0 = np.vdot(alpha0, a2) / np.vdot(alpha0, alpha0).real
    assert b0 == pytest.approx(np.mean(a2) / n_t)
    assert _objective(a2, pilot.precoder, 0.0, 0.0) == pytest.approx(abs(np.sum(a2)) ** 2 / n_s)
    omega2, varsigma, b, objective = pl.jade_digital(a2, pilot)
    alpha = pl._steering(pilot.precoder, omega2, varsigma)
    assert b == pytest.approx(np.vdot(alpha, a2) / np.vdot(alpha, alpha).real)
    assert objective >= _objective(a2, pilot.precoder, 0.0, 0.0) - 1e-12


def test_jade_digital_dominates_truth_under_noise():
    dims = sc.SystemDims(8, 16, 4, 4)
    pilot = sc.make_pilot_digital(dims, seed=1)
    rng = np.random.default_rng(7)
    true = (0.3, 0.9)
    alpha = np.exp(1j * true[0] * np.arange(16)) * (
        pilot.precoder @ np.exp(1j * true[1] * np.arange(4))
    )
    a2 = 2.0 * alpha + 0.3 * _crandn(rng, 16)
    omega2, varsigma, _, _ = pl.jade_digital(a2, pilot)
    x = pilot.precoder
    assert _objective(a2, x, omega2, varsigma) >= _objective(a2, x, *true) - 1e-9


def test_jade_digital_zero_pilot_rejected():
    pilot = sc.PilotDigital(np.zeros((4, 2)), np.ones((4, 4)))
    with pytest.raises(pl.PilotDesignError):
        pl.jade_digital(np.ones(4, dtype=complex), pilot)


# --- estimate_digital -----------------------------------------------------------


def test_estimate_digital_single_path_exact():
    dims = sc.SystemDims(16, 16, 16, 16)
    pilot = sc.make_pilot_digital(dims, seed=0)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=1, seed=21))
    h = sc.channel_tensor(chan, dims)
    _, a = sc.receive_digital(h, pilot, 0.0)
    res = pl.estimate_digital(a, pilot, _tight_config())
    assert res.l_hat >= 1
    best = res.params.paths[0]
    assert_allclose(_angles(best), _angles(chan.paths[0]), atol=1e-6)
    assert abs(best.b - chan.paths[0].b) / abs(chan.paths[0].b) < 1e-6
    assert tl.frobenius(h - res.h_hat) / tl.frobenius(h) <= 1e-8


def test_estimate_digital_three_paths_noiseless():
    dims = sc.SystemDims(16, 16, 16, 16)
    pilot = sc.make_pilot_digital(dims, seed=0)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=3, min_separation=0.5, seed=33))
    h = sc.channel_tensor(chan, dims)
    _, a = sc.receive_digital(h, pilot, 0.0)
    res = pl.estimate_digital(a, pilot, _tight_config())
    assert tl.frobenius(h - res.h_hat) / tl.frobenius(h) <= 1e-4


def test_estimate_digital_zero_observation():
    dims = sc.SystemDims(8, 8, 4, 4)
    pilot = sc.make_pilot_digital(dims, seed=0)
    res = pl.estimate_digital(np.zeros((8, 8, 4)), pilot)
    assert res.l_hat == 0
    assert res.params.l == 0
    assert_allclose(res.h_hat, 0)


def test_estimate_digital_result_invariants():
    dims = sc.SystemDims(12, 12, 8, 4)
    pilot = sc.make_pilot_digital(dims, seed=2)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=2, min_separation=0.6, seed=40))
    h = sc.channel_tensor(chan, dims)
    n0 = sc.snr_to_n0(h, pilot, 25.0)
    _, a = sc.receive_digital(h, pilot, n0, 41)
    res = pl.estimate_digital(a, pilot, _tight_config(restarts=2))
    assert res.params.l == res.l_hat
    assert_allclose(res.h_hat, sc.channel_tensor(res.params, dims))
    gains = np.abs(res.gains)
    assert np.all(np.diff(gains) <= 1e-12)  # sorted by descending gain
    for p in res.params.paths:
        for a_name in ("omega1", "omega2", "psi", "varsigma"):
            val = getattr(p, a_name)
            assert -np.pi < val <= np.pi
    assert len(res.diagnostics["acd_objectives"]) == res.l_hat
    assert set(res.timings) == {"model_order", "cp", "per_path_total"}


def test_digital_path_stage_scale_ambiguity_invariant():
    """Scaling one factor by c and another by 1/c leaves the estimates alone."""
    dims = sc.SystemDims(12, 12, 8, 4)
    pilot = sc.make_pilot_digital(dims, seed=3)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=2, min_separation=0.8, seed=50))
    h = sc.channel_tensor(chan, dims)
    _, a = sc.receive_digital(h, pilot, 0.0)
    from cpchan.cpsolver import cp_als

    factors, _ = cp_als(a, CpSolveConfig(rank=2, seed=1))
    cfg = _tight_config()
    base = pl._path_estimates(factors, pl._digital_path, pilot, cfg)
    c = 3.0 * np.exp(1j * 1.1)
    scaled = CpFactors(factors.a1.copy(), factors.a2.copy(), factors.a3.copy())
    scaled.a1[:, 0] *= c
    scaled.a2[:, 0] /= c
    alt = pl._path_estimates(scaled, pl._digital_path, pilot, cfg)
    for (p, _), (q, _) in zip(base, alt):
        assert_allclose(_angles(p), _angles(q), atol=1e-9)
        assert abs(p.b - q.b) <= 1e-9 * max(1.0, abs(p.b))


# --- ratio denominators ----------------------------------------------------------

_PAPER_DIMS = sc.SystemDims(31, 64, 16, 16, d_t=4, d_r=4)


@pytest.mark.parametrize(
    "rows",
    [
        lambda: sc.make_pilot_digital(_PAPER_DIMS, seed=1).precoder,
        lambda: sc.pilot_waveform(sc.make_pilot_hybrid(_PAPER_DIMS, seed=1)),
        lambda: sc.make_pilot_hybrid(_PAPER_DIMS, seed=1).combiner,
    ],
    ids=["digital-precoder", "hybrid-waveform", "hybrid-combiner"],
)
def test_dft_pilot_denominator_is_constant(rows):
    """The rows of DFT-built pilots are orthogonal under every shift, so the
    ratio denominator is trimmed to d_0 and every slice takes the certified step."""
    x = rows()
    half = pl._row_autocorr_half(x)
    assert half.shape == (1,)
    assert half[0] == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-12)


def test_non_orthogonal_pilot_denominator_keeps_every_lag():
    x = _crandn(np.random.default_rng(3), 8, 6)
    half = pl._row_autocorr_half(x)
    assert half.shape == (6,)
    assert_allclose(half[2], sum(np.vdot(row[:-2], row[2:]) for row in x))


# --- estimate_psi_hybrid --------------------------------------------------------


def test_psi_identity_combiner_matched_filter():
    combiner = np.eye(6, dtype=complex)
    a3 = np.exp(1j * 0.9 * np.arange(6))
    assert pl.estimate_psi_hybrid(a3, combiner) == pytest.approx(0.9, abs=1e-9)


def test_psi_dft_subpanel_combiner():
    dims = sc.SystemDims(8, 8, 16, 16, d_t=4, d_r=4)
    pilot = sc.make_pilot_hybrid(dims, seed=0)
    a3 = sc.combiner_response(pilot.combiner, 0.9)
    assert pl.estimate_psi_hybrid(a3, pilot.combiner) == pytest.approx(0.9, abs=1e-8)


def test_psi_matches_dense_grid():
    """1e6-point grid oracle on the profiled ratio objective."""
    dims = sc.SystemDims(8, 8, 16, 16, d_t=4, d_r=4)
    pilot = sc.make_pilot_hybrid(dims, seed=1)
    rng = np.random.default_rng(8)
    a3 = sc.combiner_response(pilot.combiner, -1.7) + 0.05 * _crandn(rng, 4)
    psi = pl.estimate_psi_hybrid(a3, pilot.combiner)
    grid = -np.pi + 2 * np.pi * np.arange(1_000_000) / 1_000_000
    resp = sc.combiner_response(pilot.combiner, grid)
    vals = np.abs(resp.conj().T @ a3) ** 2 / np.sum(np.abs(resp) ** 2, axis=0)
    best = grid[int(np.argmax(vals))]
    assert abs(wrap_angle(psi - best)) < 1e-5


def test_psi_zero_combiner_rejected():
    with pytest.raises(pl.PilotDesignError):
        pl.estimate_psi_hybrid(np.ones(3, dtype=complex), np.zeros((3, 6)))


# --- jade_hybrid ---------------------------------------------------------------


def test_jade_hybrid_forward_synthesis():
    dims = sc.SystemDims(31, 8, 16, 16, d_t=4, d_r=4)
    pilot = sc.make_pilot_hybrid(dims, seed=2)
    true = (1.1, -0.7, 0.4 + 0.9j)
    beta = np.exp(1j * true[0] * np.arange(31)) * sc.transmit_response(pilot, true[1])
    a1 = true[2] * beta
    omega1, varsigma, b, objective = pl.jade_hybrid(a1, pilot)
    assert omega1 == pytest.approx(true[0], abs=1e-6)
    assert varsigma == pytest.approx(true[1], abs=1e-6)
    assert abs(b - true[2]) / abs(true[2]) < 1e-6
    x = sc.pilot_waveform(pilot)
    assert objective == pytest.approx(_matched_filter(a1, x, omega1, varsigma), rel=1e-12)


def test_jade_hybrid_uniform_pilot_separable():
    """All-ones pilot waveform: departure is unidentifiable but the delay
    tone is still recovered."""
    n_c, n_t = 16, 4
    pilot = sc.PilotHybrid(np.ones((n_t, 1)), np.ones((n_c, 1)), np.eye(4))
    xs = np.sum(np.exp(1j * 0.6 * np.arange(n_t)))  # constant over subcarriers
    a1 = 1.7 * xs * np.exp(1j * -2.1 * np.arange(n_c))
    omega1, _, _, _ = pl.jade_hybrid(a1, pilot)
    assert omega1 == pytest.approx(-2.1, abs=1e-8)


def test_jade_hybrid_dominates_truth_under_noise():
    dims = sc.SystemDims(16, 8, 16, 16, d_t=4, d_r=4)
    pilot = sc.make_pilot_hybrid(dims, seed=3)
    rng = np.random.default_rng(9)
    true = (-0.4, 1.3)
    beta = np.exp(1j * true[0] * np.arange(16)) * sc.transmit_response(pilot, true[1])
    a1 = beta + 0.2 * _crandn(rng, 16)
    omega1, varsigma, _, _ = pl.jade_hybrid(a1, pilot)
    x = sc.pilot_waveform(pilot)
    assert _objective(a1, x, omega1, varsigma) >= _objective(a1, x, *true) - 1e-9


def test_jade_digital_with_hybrid_waveform_matches_jade_hybrid():
    """Both receivers fit the same 2-D objective: a digital pilot whose
    precoder is the hybrid pilot waveform gives the hybrid fit exactly."""
    pilot_h = sc.make_pilot_hybrid(sc.SystemDims(16, 8, 16, 16, d_t=4, d_r=4), seed=3)
    x = sc.pilot_waveform(pilot_h)
    pilot_d = sc.PilotDigital(x, np.ones((4, x.shape[0])))
    rng = np.random.default_rng(10)
    a = _crandn(rng, x.shape[0])
    assert pl.jade_digital(a, pilot_d) == pl.jade_hybrid(a, pilot_h)


# --- per-path stage (both receivers) ----------------------------------------------


@pytest.mark.parametrize(
    "path_step, make_pilot, n_3, esprit_mode",
    [
        (pl._digital_path, sc.make_pilot_digital, 16, "a1"),
        (pl._digital_path, sc.make_pilot_digital, 16, "a3"),
        (pl._hybrid_path, sc.make_pilot_hybrid, 4, "a2"),
    ],
)
def test_path_stage_failure_names_the_path(path_step, make_pilot, n_3, esprit_mode):
    """A component with a zero ESPRIT column fails with its own index."""
    dims = sc.SystemDims(12, 12, 16, 16, d_t=4, d_r=4)
    pilot = make_pilot(dims, seed=0)
    rng = np.random.default_rng(11)
    factors = CpFactors(_crandn(rng, 12, 2), _crandn(rng, 12, 2), _crandn(rng, n_3, 2))
    getattr(factors, esprit_mode)[:, 1] = 0
    with pytest.raises(pl.EstimationError, match=r"^path 1: zero input vector"):
        pl._path_estimates(factors, path_step, pilot, _tight_config())


# --- estimate_hybrid -------------------------------------------------------------


def _hybrid_dims():
    return sc.SystemDims(31, 16, 16, 16, d_t=4, d_r=4)


def test_estimate_hybrid_single_path():
    dims = _hybrid_dims()
    pilot = sc.make_pilot_hybrid(dims, seed=0)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=1, seed=60))
    h = sc.channel_tensor(chan, dims)
    y = sc.receive_hybrid(h, pilot, 0.0)
    res = pl.estimate_hybrid(y, pilot, _tight_config(starts=4))
    best = res.params.paths[0]
    assert_allclose(_angles(best), _angles(chan.paths[0]), atol=1e-5)
    assert tl.frobenius(h - res.h_hat) / tl.frobenius(h) <= 1e-6


def test_estimate_hybrid_zero_observation():
    dims = _hybrid_dims()
    pilot = sc.make_pilot_hybrid(dims, seed=0)
    res = pl.estimate_hybrid(np.zeros((31, 16, 4)), pilot)
    assert res.l_hat == 0
    assert res.params.l == 0
    assert_allclose(res.h_hat, 0)


def test_estimate_hybrid_stream_column_invariance():
    """Parameter recovery should not depend on which orthogonal DFT columns
    carry the streams (noiseless single path)."""
    dims = _hybrid_dims()
    chan = sc.draw_channel(sc.ChannelGenConfig(l=1, seed=61))
    h = sc.channel_tensor(chan, dims)
    recovered = []
    for cols in ([0, 1, 2, 3], [0, 8, 16, 24], [3, 11, 19, 27]):
        pilot = sc.make_pilot_hybrid(dims, seed=0, stream_cols=cols)
        y = sc.receive_hybrid(h, pilot, 0.0)
        res = pl.estimate_hybrid(y, pilot, _tight_config(starts=4))
        recovered.append(_angles(res.params.paths[0]))
    for angles in recovered[1:]:
        assert_allclose(angles, recovered[0], atol=1e-6)


def test_estimate_hybrid_refinement_improves_noisy_error():
    """Regression toggle: skipping the subcarrier-mode refit degrades the
    median reconstruction error at moderate SNR."""
    dims = sc.SystemDims(16, 16, 16, 16, d_t=4, d_r=4)
    pilot = sc.make_pilot_hybrid(dims, seed=1)
    cfg_on = pl.EstimatorConfig(cp=CpSolveConfig(rank=1, max_iters=300, rel_tol=1e-7, restarts=2))
    cfg_off = pl.EstimatorConfig(
        cp=CpSolveConfig(rank=1, max_iters=300, rel_tol=1e-7, restarts=2), refine=False
    )
    errs_on, errs_off = [], []
    for seed in range(24):
        chan = sc.draw_channel(sc.ChannelGenConfig(l=2, min_separation=0.6, seed=700 + seed))
        h = sc.channel_tensor(chan, dims)
        n0 = sc.snr_to_n0(h, pilot, 10.0)
        y = sc.receive_hybrid(h, pilot, n0, 800 + seed)
        for cfg, sink in ((cfg_on, errs_on), (cfg_off, errs_off)):
            try:
                res = pl.estimate_hybrid(y, pilot, cfg)
                sink.append(tl.frobenius(h - res.h_hat) / tl.frobenius(h))
            except pl.EstimationError:
                sink.append(1.0)
    assert np.median(errs_off) > np.median(errs_on)


def test_estimate_hybrid_result_reconstruction_shared_path():
    dims = _hybrid_dims()
    pilot = sc.make_pilot_hybrid(dims, seed=0)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=2, min_separation=0.7, seed=62))
    h = sc.channel_tensor(chan, dims)
    y = sc.receive_hybrid(h, pilot, 0.0)
    res = pl.estimate_hybrid(y, pilot, _tight_config(starts=4))
    assert_allclose(res.h_hat, sc.channel_tensor(res.params, dims))
