"""Harmonic retrieval tests: ESPRIT, exact line search, 2-D coordinate descent."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpchan.harmonic import (
    AcdConfig,
    TrigPolyRatio,
    _certified_candidates,
    _grid_peaks,
    _grid_values,
    _offset_grid,
    _stationary_candidates,
    acd_2d,
    esprit_tone,
    eval_ratio,
    max_unit_circle,
    vandermonde,
)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_ratio(rng, num_deg, den_deg):
    """Random instance with a denominator kept positive by construction
    (|h(z)|^2 plus a constant)."""
    num = _crandn(rng, num_deg + 1)
    if den_deg == 0:
        return TrigPolyRatio(num)
    h = _crandn(rng, den_deg + 1)
    full = np.convolve(h, np.conj(h)[::-1])
    half = full[den_deg:].copy()
    half[0] += 0.1 * half[0].real + 0.05
    return TrigPolyRatio(num, half)


def _grid_max(r, points):
    omegas = -np.pi + 2 * np.pi * np.arange(points) / points
    return float(np.max(eval_ratio(r, omegas)))


# --- vandermonde ------------------------------------------------------------


def test_vandermonde_zero_frequency():
    assert_allclose(vandermonde(0.0, 4), np.ones(4))


def test_vandermonde_quarter_turn():
    assert_allclose(vandermonde(np.pi / 2, 4), [1, 1j, -1, -1j], atol=1e-15)


def test_vandermonde_norm():
    assert np.linalg.norm(vandermonde(1.234, 7)) == pytest.approx(np.sqrt(7))


# --- esprit_tone ------------------------------------------------------------


def test_esprit_noiseless_tone():
    v = np.exp(1j * 0.7 * np.arange(16))
    assert esprit_tone(v) == pytest.approx(0.7, abs=1e-9)


def test_esprit_gain_invariance():
    v = 2 * np.exp(1j * np.pi / 3) * np.exp(-1j * 1.2 * np.arange(16))
    assert esprit_tone(v) == pytest.approx(-1.2, abs=1e-9)


def test_esprit_scale_invariance():
    rng = np.random.default_rng(0)
    v = np.exp(1j * 0.3 * np.arange(12)) + 0.1 * _crandn(rng, 12)
    base = esprit_tone(v)
    assert esprit_tone(5j * v) == pytest.approx(base, abs=1e-12)


def test_esprit_noisy_rmse():
    """Monte Carlo accuracy at 20 dB per-sample SNR."""
    errs = []
    for seed in range(500):
        rng = np.random.default_rng(seed)
        v = np.exp(1j * 0.7 * np.arange(64))
        v = v + np.sqrt(10 ** (-20 / 10) / 2) * _crandn(rng, 64)
        errs.append(esprit_tone(v) - 0.7)
    assert np.sqrt(np.mean(np.square(errs))) <= 1e-2


def test_esprit_rejects_short_and_zero():
    with pytest.raises(ValueError):
        esprit_tone(np.ones(2))
    with pytest.raises(ValueError):
        esprit_tone(np.zeros(8))


# --- evaluation of J ---------------------------------------------------------


@pytest.mark.parametrize("n", [64, 4096])
def test_grid_values_match_point_evaluation(n):
    """The FFT grid and the point evaluator give the same J, for constant
    and non-constant denominators."""
    rng = np.random.default_rng(n)
    for den_deg in range(9):
        r = _random_ratio(rng, int(rng.integers(1, 32)), den_deg)
        grid_w, grid_v = _grid_values(r, n)
        assert_allclose(grid_v, eval_ratio(r, grid_w), rtol=1e-10, atol=1e-12 * np.max(grid_v))


# --- max_unit_circle --------------------------------------------------------


def test_line_search_one_plus_z():
    omega, value = max_unit_circle(TrigPolyRatio(np.array([1.0, 1.0])))
    assert omega == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(4.0, rel=1e-12)


def test_line_search_tie_breaks_to_smallest_abs():
    omega, value = max_unit_circle(TrigPolyRatio(np.array([1.0, 0.0, 1.0])))
    assert value == pytest.approx(4.0, rel=1e-10)
    assert omega == pytest.approx(0.0, abs=1e-9)


def test_line_search_zero_numerator_flagged():
    with pytest.warns(RuntimeWarning):
        omega, value = max_unit_circle(TrigPolyRatio(np.zeros(3)))
    assert (omega, value) == (0.0, 0.0)


def test_line_search_beats_dense_grid_random_instances():
    """Dense-grid oracle: the exact step must match a 1e5-point scan."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        r = _random_ratio(rng, int(rng.integers(1, 17)), int(rng.integers(0, 9)))
        _, value = max_unit_circle(r)
        grid = _grid_max(r, 100_000)
        assert value >= grid - 1e-6 * max(grid, 1e-30)


def test_line_search_degree7_vs_dense_grid():
    rng = np.random.default_rng(123)
    r = _random_ratio(rng, 7, 4)
    _, value = max_unit_circle(r)
    assert value >= _grid_max(r, 1_000_000) - 1e-9 * max(1.0, value)


def _rooting_max(r):
    """Reference 1-D step by companion rooting alone: (argmax, max, tied argmaxes)."""
    grid_w, grid_v = _grid_values(r, 4096)
    omegas = np.concatenate([_stationary_candidates(r), [grid_w[int(np.argmax(grid_v))]]])
    vals = eval_ratio(r, omegas)
    ties = omegas[vals >= np.max(vals) * (1.0 - 1e-12)]
    best = float(ties[int(np.argmin(np.abs(ties)))])
    return best, float(eval_ratio(r, np.array([best]))[0]), ties


def _certifies(r):
    return _certified_candidates(r, *_grid_values(r, 4096)) is not None


@pytest.mark.parametrize(("length", "min_certified"), [(2, 20), (8, 20), (31, 20), (64, 15), (128, 1)])
def test_certified_step_matches_rooting(length, min_certified):
    """Constant-denominator slices: the certified grid path agrees with rooting."""
    certified = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        r = TrigPolyRatio(_crandn(rng, length), np.array([rng.uniform(0.5, 2.0)]))
        certified += _certifies(r)
        omega, value = max_unit_circle(r)
        ref_omega, ref_value, ties = _rooting_max(r)
        assert value == pytest.approx(ref_value, rel=1e-12)
        if np.ptp(np.angle(np.exp(1j * (ties - ref_omega)))) < 1e-6:  # no tie
            assert abs(np.angle(np.exp(1j * (omega - ref_omega)))) <= 1e-9
    assert certified >= min_certified


def test_certified_step_on_pure_tone():
    omega, value = max_unit_circle(TrigPolyRatio(np.exp(-0.7j * np.arange(64)), np.array([4.0])))
    assert omega == pytest.approx(0.7, abs=1e-12)
    assert value == pytest.approx(64**2 / 4.0, rel=1e-12)


@pytest.mark.parametrize(
    "num",
    [
        np.array([0.0, 0.0, 1.5j]),  # monomial: flat J, every grid point is a candidate
        np.concatenate([np.zeros(652), [1.0, 1.0]]),  # degree 653: D * 2pi/4096 >= 1
        _crandn(np.random.default_rng(7), 200),  # degree 199: no bracket certifies concave
    ],
    ids=["monomial", "degree-653", "random-degree-199"],
)
def test_certificate_failure_falls_back_to_rooting(num):
    r = TrigPolyRatio(num)
    assert not _certifies(r)
    omega, value = max_unit_circle(r)
    ref_omega, ref_value, _ = _rooting_max(r)
    assert (omega, value) == (ref_omega, ref_value)


def test_denominator_positivity_enforced():
    with pytest.raises(ValueError, match="positive"):
        TrigPolyRatio(np.ones(3), np.array([1.0, 0.0, 1.0]))  # 1 + 2cos(2w) dips below 0


# --- acd_2d -----------------------------------------------------------------


def _separable_objective(peak_a, peak_b, n_a=12, n_b=12):
    """|sum_t c_t e^{jtw_a}|^2 * |sum_v d_v e^{jvw_b}|^2 from two pure tones."""
    c = np.exp(-1j * peak_a * np.arange(n_a))
    d = np.exp(-1j * peak_b * np.arange(n_b))

    def build(coord, fixed):
        if coord == 0:
            gain = np.abs(np.sum(d * np.exp(1j * fixed * np.arange(n_b)))) ** 2
            return TrigPolyRatio(c * np.sqrt(gain))
        gain = np.abs(np.sum(c * np.exp(1j * fixed * np.arange(n_a)))) ** 2
        return TrigPolyRatio(d * np.sqrt(gain))

    return build


def test_acd_separable_recovery_in_one_sweep():
    res = acd_2d(_separable_objective(0.5, -1.1), AcdConfig())
    assert res.omega_a == pytest.approx(0.5, abs=1e-8)
    assert res.omega_b == pytest.approx(-1.1, abs=1e-8)
    assert res.objective == pytest.approx(144.0**2, rel=1e-9)
    # history: the start, then one entry per coordinate step; the first sweep ends at index 2
    assert res.history[2] == res.objective


def test_acd_constant_objective_returns_initialization():
    def build(coord, fixed):
        return TrigPolyRatio(np.array([2.0]))

    res = acd_2d(build, AcdConfig())
    assert res.objective == pytest.approx(4.0)
    # one sweep: initial value plus one entry per coordinate update
    assert len(res.history) == 3
    assert res.history == [res.objective] * 3


def test_acd_monotone_history():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        p = _crandn(rng, 8, 6)
        a2 = _crandn(rng, 8)
        den = np.convolve(p[0], np.conj(p[0])[::-1])[5:]
        for row in p[1:]:
            den += np.convolve(row, np.conj(row)[::-1])[5:]

        def build(coord, fixed, p=p, a2=a2, den=den):
            if coord == 0:
                q = p @ np.exp(1j * fixed * np.arange(6))
                return TrigPolyRatio(np.conj(a2) * q, np.array([np.vdot(q, q)]))
            w = np.conj(a2) * np.exp(1j * fixed * np.arange(8))
            return TrigPolyRatio(p.T @ w, den)

        res = acd_2d(build, AcdConfig())
        assert np.all(np.diff(res.history) >= -1e-12)


def test_acd_multiple_starts_do_not_regress():
    build = _separable_objective(2.2, 0.9)
    single = acd_2d(build, AcdConfig(starts=1))
    multi = acd_2d(build, AcdConfig(starts=4))
    assert multi.objective >= single.objective - 1e-9


def test_acd_unimodal_grid_runs_one_descent():
    # degree-1 tones: J = 16 cos^2((w_a - 1.3) / 2) cos^2((w_b + 0.4) / 2)
    # peaks once on the 32 x 32 coarse grid, so four starts run one descent
    build = _separable_objective(1.3, -0.4, n_a=2, n_b=2)
    values = np.array([_grid_values(build(0, wb), 32)[1] for wb in _offset_grid(32)])
    assert len(_grid_peaks(values, 4)) == 1
    single = acd_2d(build, AcdConfig(starts=1))
    assert acd_2d(build, AcdConfig(starts=4)) == single
    assert single.objective == pytest.approx(16.0, rel=1e-9)


def _reference_grid_peaks(values):
    """Every local maximum of a 2-D array on a torus, best first, from 8 rolled
    copies (the ordering contract of :func:`_grid_peaks`)."""
    peak = np.ones_like(values, dtype=bool)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            if da == 0 and db == 0:
                continue
            peak &= values >= np.roll(np.roll(values, da, axis=0), db, axis=1)
    idx = np.argwhere(peak)
    order = np.argsort(values[peak])[::-1]
    return [tuple(idx[i]) for i in order]


def _peak_inputs():
    rng = np.random.default_rng(11)
    yield from (rng.standard_normal(shape) for shape in [(8, 8), (16, 32), (5, 7), (3, 3)])
    # plateaus and ties
    yield from (rng.integers(0, 3, shape).astype(float) for shape in [(6, 6), (9, 4), (16, 16)])
    yield np.zeros((4, 5))
    # peaks on the border, seen only through the wrap-around
    border = np.zeros((6, 8))
    border[0, 0], border[5, 7], border[0, 4], border[3, 7] = 5.0, 4.0, 3.0, 2.0
    yield border
    # 1 x n and n x 1
    yield from (rng.standard_normal(shape) for shape in [(1, 9), (1, 1), (7, 1)])
    yield rng.integers(0, 2, (1, 12)).astype(float)


@pytest.mark.parametrize("count", [1, 4, 1000])
def test_grid_peaks_match_rolled_reference(count):
    for values in _peak_inputs():
        assert _grid_peaks(values, count) == _reference_grid_peaks(values)[:count]


def test_acd_callback_failure_propagates():
    def build(coord, fixed):
        raise RuntimeError("bad slice")

    with pytest.raises(RuntimeError, match="bad slice"):
        acd_2d(build, AcdConfig())
