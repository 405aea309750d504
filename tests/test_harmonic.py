"""Harmonic retrieval tests: ESPRIT, exact line search, 2-D coordinate descent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cpchan import harmonic
from cpchan.harmonic import (
    AcdConfig,
    TrigPolyRatio,
    _certified_candidates,
    _grid_peaks,
    _grid_values,
    _offset_grid,
    _one_sided,
    _step_points,
    _trig_values,
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
    """Maximum of J on the grid w_k = -pi + 2 pi k / points, by zero-padded
    FFTs of the numerator and the one-sided denominator, since
    e^{jn w_k} = (-1)^n e^{j 2 pi n k / points}."""

    def values(coeffs):
        return np.fft.ifft(coeffs * (-1.0) ** np.arange(coeffs.size), points) * points

    num = np.abs(values(r.num)) ** 2
    g = np.real(values(_one_sided(r.den)))
    return float(np.max(np.divide(num, g, out=np.zeros_like(num), where=g > 0)))


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


def _full_laurent(half):
    """Full Laurent coefficients of degrees -M..M of the Hermitian half
    coefficients d_0..d_M, returned with the offset M."""
    d = np.asarray(half, dtype=complex)
    return np.concatenate([np.conj(d[1:])[::-1], d]), d.size - 1


def _rooting_candidates(r):
    """Angles of the unit-circle roots of d/dw J(w): the derivative of
    |f|^2 / g is cleared to one Laurent polynomial, rooted through its
    companion matrix, and each root within 1e-6 of the circle gets two Newton
    steps in the angle domain. Reference for the certified step only."""
    c = np.trim_zeros(r.num, "b")
    full_n = np.convolve(c, np.conj(c)[::-1])  # |f|^2: autocorrelation of the coefficients
    off_n = c.size - 1
    full_d, off_d = _full_laurent(r.den)
    ndot = full_n * (1j * (np.arange(full_n.size) - off_n))
    ddot = full_d * (1j * (np.arange(full_d.size) - off_d))
    h = np.convolve(ndot, full_d) - np.convolve(full_n, ddot)
    scale = np.max(np.abs(h))
    if scale == 0:
        return np.empty(0)
    # negligible extreme coefficients (numerically-zero autocorrelation lags)
    # produce huge spurious roots and wreck the companion conditioning
    keep = np.abs(h) > 1e-12 * scale
    h = h[int(np.argmax(keep)) : h.size - int(np.argmax(keep[::-1]))] / scale
    roots = np.roots(h[::-1])
    omegas = np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-6])
    # h is Hermitian of degrees -M..M, so its values are those of the one-sided form of h_0..h_M
    e = _one_sided(h[(h.size - 1) // 2 :])
    e = np.stack([e, 1j * np.arange(e.size) * e], axis=1)
    for _ in range(2):
        fv, fd = np.real(_trig_values(e, omegas)).T
        step = np.where(np.abs(fd) > 0, fv / np.where(np.abs(fd) > 0, fd, 1.0), 0.0)
        better = np.abs(np.real(_trig_values(e[:, 0], omegas - step))) < np.abs(fv)
        omegas = np.where(better, omegas - step, omegas)
    return harmonic.wrap_angle(omegas)


def _rooting_max(r):
    """Reference 1-D step by companion rooting alone: (argmax, max, tied argmaxes)."""
    grid_w, grid_v = _grid_values(r, 4096)
    omegas = np.concatenate([_rooting_candidates(r), [grid_w[int(np.argmax(grid_v))]]])
    vals = eval_ratio(r, omegas)
    ties = omegas[vals >= np.max(vals) * (1.0 - 1e-12)]
    best = float(ties[int(np.argmin(np.abs(ties)))])
    return best, float(eval_ratio(r, np.array([best]))[0]), ties


def _certify(r):
    """The certified step on a constant-denominator ratio, on the step's own
    grid: (candidates, certified)."""
    return _certified_candidates(r, 0.0, *_grid_values(r, _step_points(r)))


def _certifies(r):
    return _certify(r)[1]


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


@pytest.mark.parametrize("omega0", [0.7, -2.1, 0.123, 3.1])
def test_certified_newton_polish_stops_when_converged(omega0, monkeypatch):
    """A converged Newton step must not send the iterate back to bisection:
    a degree-15 tone polishes in a handful of slope evaluations."""
    r = TrigPolyRatio(np.exp(-1j * omega0 * np.arange(16)), np.array([2.0]))
    calls = []
    trig_values = harmonic._trig_values
    monkeypatch.setattr(harmonic, "_trig_values", lambda *a: calls.append(1) or trig_values(*a))
    cands, certified = _certify(r)
    monkeypatch.undo()
    assert certified
    assert len(calls) <= 6
    ref = _rooting_candidates(r)
    best = cands[int(np.argmax(eval_ratio(r, cands)))]
    ref_best = ref[int(np.argmax(eval_ratio(r, ref)))]
    assert abs(np.angle(np.exp(1j * (best - ref_best)))) <= 1e-12
    assert abs(np.angle(np.exp(1j * (best - omega0)))) <= 1e-12


def test_constant_denominator_trim_keeps_the_maximum():
    """Off-lag denominator terms of 1e-14 d_0 are negligible: the trimmed,
    certified ratio has the maximizer and maximum of the full one, as the
    rooting reference and the Dinkelbach step solve it."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        num = _crandn(rng, 16)
        d0 = rng.uniform(0.5, 2.0)
        den = np.concatenate([[d0], 1e-14 * d0 * np.exp(2j * np.pi * rng.uniform(size=15))])
        full = TrigPolyRatio(num, den)
        trimmed = TrigPolyRatio(num, den[:1])
        assert _certifies(trimmed)
        omega, value = max_unit_circle(trimmed)
        ref_omega, ref_value, _ = _rooting_max(full)
        assert abs(np.angle(np.exp(1j * (omega - ref_omega)))) <= 1e-9
        assert value == pytest.approx(ref_value, rel=1e-10)
        full_omega, full_value = max_unit_circle(full)
        assert abs(np.angle(np.exp(1j * (full_omega - ref_omega)))) <= 1e-9
        assert full_value == pytest.approx(ref_value, rel=1e-10)


@pytest.mark.parametrize(
    "num",
    [
        np.array([0.0, 0.0, 1.5j]),  # monomial: flat J, every grid point is a candidate
        np.concatenate([np.zeros(652), [1.0, 1.0]]),  # degree 653: D * 2pi/4096 >= 1
        _crandn(np.random.default_rng(7), 200),  # degree 199: no bracket certifies concave on the grid
    ],
    ids=["monomial", "degree-653", "random-degree-199"],
)
def test_certificate_failure_falls_back_to_rooting(num, monkeypatch):
    """Slices one 4096-point certificate cannot settle reach the rooting
    reference's maximum. They are certified (leading zeros trimmed, a grid
    sized from the degree, the zoom), and with the zoom switched off the
    polished fallback reaches it too."""
    r = TrigPolyRatio(num)
    _, ref_value, _ = _rooting_max(r)
    assert _certifies(r)
    assert max_unit_circle(r)[1] == pytest.approx(ref_value, rel=1e-12)
    monkeypatch.setattr(harmonic, "_ZOOM_DEPTH", 0)
    assert max_unit_circle(r)[1] == pytest.approx(ref_value, rel=1e-12)


def _fft_max(r, points):
    """Maximum of J on the plain ``points``-point FFT grid, an evaluation
    independent of the step's half-offset grid."""
    num = np.abs(np.fft.fft(r.num, points)) ** 2
    return float(np.max(num / np.real(np.fft.fft(_one_sided(r.den), points))))


@pytest.mark.parametrize("length", [128, 256, 600])
def test_long_tone_slices_are_certified(length):
    """Tone-like slices whose peak fails the concavity test on the first grid
    are certified after resampling, with no fallback."""
    rng = np.random.default_rng(length)
    r = TrigPolyRatio(np.exp(-0.9j * np.arange(length)) + 0.1 * _crandn(rng, length), np.array([2.0]))
    assert _certifies(r)
    assert max_unit_circle(r)[1] >= _fft_max(r, 2**20) * (1.0 - 1e-12)


@pytest.mark.parametrize("degree", [1, 15, 30, 63, 127, 599])
def test_tone_like_slices_are_certified_on_the_degree_sized_grid(degree):
    """The step grid has the power of two >= 64 D points (1024 for the
    degree-15 paper slices, 2048 for degree 30, 4096 for degree 63), and
    tone-like slices are certified on it and reach the dense-grid maximum."""
    rng = np.random.default_rng(degree)
    r = TrigPolyRatio(np.exp(-0.9j * np.arange(degree + 1)) + 0.1 * _crandn(rng, degree + 1), np.array([2.0]))
    assert _step_points(r) == 1 << int(np.ceil(np.log2(64 * degree)))
    assert _certifies(r)
    assert max_unit_circle(r)[1] >= _fft_max(r, 2**17) * (1.0 - 1e-12)


@pytest.mark.parametrize("num_len", [2, 16, 31, 64])
@pytest.mark.parametrize("den_deg", [3, 15])
def test_ratio_step_reuses_the_denominator_check_grid(num_len, den_deg, monkeypatch):
    """A ratio's step grid is its denominator's check grid, so the step runs
    no denominator FFT after construction, only numerator FFTs."""
    r = _random_ratio(np.random.default_rng(num_len + 100 * den_deg), num_len - 1, den_deg)
    den_fft, num_fft = [], []
    fft_values = harmonic._fft_values

    def counted(coeffs, *n):
        (den_fft if np.array_equal(coeffs, _one_sided(r.den)) else num_fft).append(n)
        return fft_values(coeffs, *n)

    monkeypatch.setattr(harmonic, "_fft_values", counted)
    max_unit_circle(r)
    assert _step_points(r) == r._den_on_grid.size == 4096
    assert den_fft == [] and num_fft == [(4096,)]


def test_inputs_longer_than_the_minimum_grid():
    """A 5000-term numerator and a 4100-term denominator get grids sized from
    their lengths instead of failing on the 4096-point minimum."""
    rng = np.random.default_rng(5)
    r = TrigPolyRatio(_crandn(rng, 5000))
    assert _certifies(r)
    assert max_unit_circle(r)[1] >= _fft_max(r, 2**20) * (1.0 - 1e-12)
    r = TrigPolyRatio(_crandn(rng, 16), np.concatenate([[1.0], 1e-4 * _crandn(rng, 4099)]))
    assert max_unit_circle(r)[1] >= _fft_max(r, 2**18) * (1.0 - 1e-12)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    num_len=st.integers(2, 40),
    den_deg=st.integers(0, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_line_search_property_against_grid_and_rooting(num_len, den_deg, seed):
    """Random ratios, positive as in acceptance criterion 4: the step reaches
    the 2^17-point grid maximum and the rooting reference's maximum."""
    r = _random_ratio(np.random.default_rng(seed), num_len - 1, den_deg)
    _, value = max_unit_circle(r)
    assert value >= _fft_max(r, 2**17) * (1.0 - 1e-12)
    assert value == pytest.approx(_rooting_max(r)[1], rel=1e-10)


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
