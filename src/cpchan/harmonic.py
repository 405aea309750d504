"""Harmonic retrieval primitives.

Single-tone frequency estimation via the shift-invariance (ESPRIT) method,
Vandermonde steering vectors, exact maximization of trigonometric-polynomial
ratios on the unit circle, and a 2-D alternating coordinate descent built on
that exact 1-D step.

J is evaluated one way for numerator and denominator alike: a sum
sum_k c_k e^{jkw} at arbitrary points by one matrix product
(:func:`_trig_values`), or on a half-offset uniform grid by one FFT
(:func:`_fft_values`). The real denominator g enters both as the one-sided
coefficients e_0 = d_0, e_m = 2 d_m of g(w) = Re sum_m e_m e^{jmw}.

The exact 1-D step has two sources of candidate maximizers. When the
denominator is constant, the objective is a trigonometric polynomial of
degree D: an FFT grid, Bernstein's inequality (|J''| <= D^2 max J,
|J'''| <= D^3 max J) and a bracketed Newton polish certify its global
maximum. The estimators pass the denominator of a DFT-built pilot as a
constant, so on such pilots every slice takes this path. Ratios with a
genuinely non-constant denominator, and constant-denominator objectives
whose certificate fails, root the derivative through a companion matrix
instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "TrigPolyRatio",
    "AcdConfig",
    "AcdResult",
    "vandermonde",
    "wrap_angle",
    "esprit_tone",
    "eval_ratio",
    "max_unit_circle",
    "acd_2d",
]

# Grid used to validate denominator positivity and as a rooting fallback.
# Half-step offset keeps the samples away from rational zeros of DFT-built
# denominators (which sit exactly at multiples of 2*pi/N).
_FALLBACK_GRID = 4096
# Certified 1-D step on constant denominators (_certified_candidates): a slice
# with more grid candidates than _MAX_CERTIFIED goes to rooting instead, and
# _CERT_ROUNDOFF widens the candidate threshold by the FFT's rounding.
_MAX_CERTIFIED = 64
_CERT_ROUNDOFF = 1e-12
_NEWTON_MAX_STEPS = 50
_NEWTON_TOL = 1e-13
# 2-D descent (acd_2d): every step is an exact line search, so its sweep cap, relative
# stop tolerance and start-grid oversampling are numerical constants, not tuning knobs.
_ACD_MAX_SWEEPS = 50
_ACD_REL_TOL = 1e-10
_ACD_GRID_OVERSAMPLE = 8


def wrap_angle(x):
    """Wrap angles to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


def _full_laurent(half: np.ndarray) -> tuple[np.ndarray, int]:
    """Expand Hermitian half coefficients d_0..d_M into the full Laurent
    coefficient vector for degrees -M..M, returned with its offset M."""
    d = np.asarray(half, dtype=complex)
    return np.concatenate([np.conj(d[1:])[::-1], d]), d.size - 1


def _one_sided(half: np.ndarray) -> np.ndarray:
    """Coefficients e_m of g(w) = Re(sum_m e_m e^{jmw}) for the Hermitian half
    coefficients d_0..d_M of g: e_0 = d_0 and e_m = 2 d_m."""
    return np.concatenate([half[:1], 2.0 * half[1:]])


def _trig_values(coeffs: np.ndarray, omega) -> np.ndarray:
    """sum_k coeffs[k] e^{jkw} at scalar or array ``omega``, by one matrix
    product; a 2-D ``coeffs`` evaluates each of its columns."""
    omega = np.asarray(omega, dtype=float)
    return np.exp(1j * np.multiply.outer(omega, np.arange(coeffs.shape[0]))) @ coeffs


def _fft_values(coeffs: np.ndarray, n: int) -> np.ndarray:
    """sum_k coeffs[k] e^{jkw} on the n-point half-offset grid
    w_i = 2 pi (i + 1/2) / n, by one zero-padded FFT."""
    if n < coeffs.size:
        raise ValueError("grid too small for the coefficient length")
    return np.fft.ifft(coeffs * np.exp(1j * np.pi * np.arange(coeffs.size) / n), n) * n


@dataclass(frozen=True)
class TrigPolyRatio:
    """Ratio objective J(w) = |f(e^{jw})|^2 / g(w) on the unit circle.

    ``num`` holds the complex coefficients c_k of f(z) = sum_k c_k z^k.
    ``den`` holds the Hermitian half coefficients d_0..d_M of the real-valued
    trigonometric polynomial g(w) = d_0 + 2*Re(sum_{m>=1} d_m e^{jmw});
    an empty ``den`` is stored as [1], g == 1. g must be strictly positive,
    which is checked at construction on the 4096-point offset grid. Those
    grid values (a single value when g is constant) are kept for
    :func:`max_unit_circle`.
    """

    num: np.ndarray
    den: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=complex))
    _den_on_grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=complex))
        den = np.atleast_1d(np.asarray(self.den, dtype=complex)) if np.size(self.den) else np.ones(1, dtype=complex)
        if num.ndim != 1 or den.ndim != 1:
            raise ValueError("num and den must be coefficient vectors")
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise ValueError("non-finite coefficients")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if abs(den[0].imag) > 1e-9 * max(1.0, abs(den[0].real)):
            raise ValueError("leading denominator coefficient must be real")
        g = den[:1].real if den.size == 1 else np.real(_fft_values(_one_sided(den), _FALLBACK_GRID))
        object.__setattr__(self, "_den_on_grid", g)
        gmin = float(np.min(g))
        if gmin <= 0:
            raise ValueError(f"denominator is not strictly positive (min {gmin:g} on check grid)")


@dataclass(frozen=True)
class AcdConfig:
    """How many of the coarse grid's best peaks start a 2-D descent."""

    starts: int = 1

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"AcdConfig.starts must be >= 1, got {self.starts}")


@dataclass
class AcdResult:
    """Outcome of a 2-D alternating coordinate descent."""

    omega_a: float
    omega_b: float
    objective: float
    history: list[float]


def vandermonde(omega: float, n: int) -> np.ndarray:
    """Steering vector [1, e^{jw}, ..., e^{j(n-1)w}]."""
    if n < 1:
        raise ValueError("length must be >= 1")
    return np.exp(1j * float(omega) * np.arange(n))


def esprit_tone(v: np.ndarray) -> float:
    """Estimate the frequency of a single complex exponential in (-pi, pi].

    Builds the M x (N-M+1) Hankel matrix with M = ceil(N/2), takes the
    dominant left singular vector u and returns the argument of the
    least-squares solution of u[:-1] * rho ~= u[1:].
    """
    v = np.asarray(v, dtype=complex).ravel()
    n = v.size
    if n < 3:
        raise ValueError("need at least 3 samples")
    if not np.any(v):
        raise ValueError("zero input vector")
    m = (n + 1) // 2
    cols = n - m + 1
    idx = np.arange(m)[:, None] + np.arange(cols)[None, :]
    hankel = v[idx]
    u = np.linalg.svd(hankel, full_matrices=False)[0][:, 0]
    rho = np.vdot(u[:-1], u[1:]) / np.vdot(u[:-1], u[:-1])
    return float(np.angle(rho))


def eval_ratio(r: TrigPolyRatio, omega) -> np.ndarray:
    """Evaluate J(w) = |f|^2 / g at scalar or vector ``omega``."""
    num = np.abs(_trig_values(r.num, omega)) ** 2
    g = np.real(_trig_values(_one_sided(r.den), omega))
    out = np.zeros_like(num)
    np.divide(num, g, out=out, where=g > 0)
    return out


@lru_cache(maxsize=32)
def _offset_grid(n: int) -> np.ndarray:
    w = wrap_angle(2.0 * np.pi * (np.arange(n) + 0.5) / n)
    w.setflags(write=False)
    return w


def _grid_values(r: TrigPolyRatio, n: int) -> tuple[np.ndarray, np.ndarray]:
    """J on the n-point half-offset uniform grid, via zero-padded FFTs."""
    num = np.abs(_fft_values(r.num, n)) ** 2
    g = r._den_on_grid if r.den.size == 1 or n == _FALLBACK_GRID else np.real(_fft_values(_one_sided(r.den), n))
    vals = np.zeros_like(num)
    np.divide(num, g, out=vals, where=g > 0)
    return _offset_grid(n), vals


def _stationary_candidates(r: TrigPolyRatio) -> np.ndarray:
    """Angles of the unit-circle roots of d/dw J(w), via companion rooting."""
    c = np.trim_zeros(r.num, "b")
    if c.size == 0:
        return np.empty(0)
    # |f|^2 as a Laurent polynomial: autocorrelation of the coefficients.
    full_n = np.convolve(c, np.conj(c)[::-1])
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
    lo = int(np.argmax(keep))
    hi = h.size - int(np.argmax(keep[::-1]))
    h = h[lo:hi] / scale
    roots = np.roots(h[::-1])
    if roots.size == 0:
        return np.empty(0)
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
    if on_circle.size == 0:
        return np.empty(0)
    omegas = np.angle(on_circle)
    return _polish_stationary(h, omegas)


def _polish_stationary(h: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """A couple of Newton steps on the (real) derivative numerator, in the
    angle domain, to tighten companion roots before evaluation.

    ``h`` is the Hermitian Laurent vector of degrees -M..M, so its values are
    those of the one-sided form of its half h_0..h_M."""
    e = _one_sided(h[(h.size - 1) // 2 :])
    e = np.stack([e, 1j * np.arange(e.size) * e], axis=1)
    out = omegas.copy()
    for _ in range(2):
        fv, fd = np.real(_trig_values(e, out)).T
        step = np.where(np.abs(fd) > 0, fv / np.where(np.abs(fd) > 0, fd, 1.0), 0.0)
        cand = out - step
        better = np.abs(np.real(_trig_values(e[:, 0], cand))) < np.abs(fv)
        out = np.where(better, cand, out)
    return wrap_angle(out)


def _certified_candidates(r: TrigPolyRatio, grid_w: np.ndarray, grid_v: np.ndarray) -> np.ndarray | None:
    """Stationary points of a constant-denominator J that provably include
    its global maximizer, found from the uniform grid ``grid_w``/``grid_v``;
    None when the certificate fails.

    J = |f|^2 / d_0 is a nonnegative trigonometric polynomial of degree D, so
    Bernstein's inequality bounds |J''| by D^2 max J and |J'''| by
    D^3 max J. With grid spacing s the grid point nearest the maximizer is
    then within eps = (D s)^2 / 8 of max J, relatively, and every grid point
    within eps of the grid maximum G is a candidate. Every candidate w_i
    must certify J strictly concave on the bracket [w_i - s, w_i + s]:
    J''(w_i) + s D^3 G / (1 - eps) < 0. A maximizer within s/2 of w_i would
    then make J' fall from + to - across the bracket, so a bracket without
    that sign change is dropped; the others are polished by bracketed Newton
    on J'.
    """
    c = np.trim_zeros(r.num, "b") / np.sqrt(r.den[0].real)
    deg = c.size - 1
    step = 2.0 * np.pi / grid_v.size
    if deg < 1 or deg * step >= 1.0:  # the concavity test needs s D^3 < D^2
        return None
    eps = (deg * step) ** 2 / 8.0 + _CERT_ROUNDOFF
    gmax = float(np.max(grid_v))
    idx = np.flatnonzero(grid_v >= (1.0 - eps) * gmax)
    if idx.size > _MAX_CERTIFIED:
        return None
    k = np.arange(deg + 1)
    c1 = 1j * k * c
    derivs = np.stack([c, c1, 1j * k * c1], axis=1)

    def slope_curvature(w):
        f, f1, f2 = _trig_values(derivs, w).T
        return 2.0 * np.real(np.conj(f) * f1), 2.0 * (np.abs(f1) ** 2 + np.real(np.conj(f) * f2))

    w = grid_w[idx]
    lo, hi = w - step, w + step
    n = w.size
    d1, d2 = slope_curvature(np.concatenate([lo, hi, w]))
    if np.any(d2[2 * n :] + step * deg**3 * gmax / (1.0 - eps) >= 0):
        return None
    falling = (d1[:n] > 0) & (d1[n : 2 * n] < 0)
    if not np.any(falling):
        return None
    w, lo, hi = w[falling], lo[falling], hi[falling]
    for _ in range(_NEWTON_MAX_STEPS):
        d1, d2 = slope_curvature(w)
        rising = d1 > 0
        lo = np.where(rising, w, lo)
        hi = np.where(rising, hi, w)
        nxt = w - d1 / d2
        # closed bracket: a converged step rounds to nxt == w, which is lo or
        # hi by now, and must not send the iterate back to bisection
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        done = np.all(np.abs(nxt - w) <= _NEWTON_TOL)
        w = nxt
        if done:
            break
    return wrap_angle(w)


def max_unit_circle(r: TrigPolyRatio) -> tuple[float, float]:
    """Global maximizer of J(w) over (-pi, pi].

    Candidates for the maximizer come from one of two sources. For a constant
    denominator (``den.size == 1``), J is a trigonometric polynomial and the
    4096-point FFT grid, with Bernstein's inequality and a bracketed Newton
    polish, certifies a few stationary points (see
    :func:`_certified_candidates`); every slice of the estimators on a
    DFT-built pilot is of this kind. Ratio objectives with a non-constant
    denominator, and constant-denominator ones whose certificate fails, clear
    the derivative of J to a single polynomial whose roots are found as
    companion-matrix eigenvalues; roots within 1e-6 of the unit circle are
    projected onto it. The candidates are evaluated together with the best
    grid point. Ties break toward the smallest |w|.
    """
    if not np.any(r.num):
        warnings.warn("objective numerator is identically zero", RuntimeWarning, stacklevel=2)
        return 0.0, 0.0
    grid_w, grid_v = _grid_values(r, _FALLBACK_GRID)
    cands = _certified_candidates(r, grid_w, grid_v) if r.den.size == 1 else None
    if cands is None:
        cands = _stationary_candidates(r)
    best_grid = grid_w[int(np.argmax(grid_v))]
    omegas = np.concatenate([cands, [best_grid]])
    vals = eval_ratio(r, omegas)
    vmax = float(np.max(vals))
    if vmax <= 0.0:
        return 0.0, 0.0
    ties = omegas[vals >= vmax * (1.0 - 1e-12)]
    best = float(ties[int(np.argmin(np.abs(ties)))])
    return best, float(eval_ratio(r, np.array([best]))[0])


def _pow2_at_least(n: int) -> int:
    return 1 << max(5, int(np.ceil(np.log2(max(2, n)))))


def _grid_peaks(values: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Indices of the ``count`` best local maxima of a 2-D array on a torus, best first."""
    n_b, n_a = values.shape
    padded = np.pad(values, 1, mode="wrap")
    peak = np.ones(values.shape, dtype=bool)
    for db in range(3):
        for da in range(3):
            peak &= values >= padded[db : db + n_b, da : da + n_a]
    idx = np.argwhere(peak)
    order = np.argsort(values[peak])[::-1][:count]
    return [tuple(i) for i in idx[order]]


def acd_2d(build_slice, cfg: AcdConfig) -> AcdResult:
    """Maximize a 2-D unit-circle ratio objective by alternating exact 1-D steps.

    ``build_slice(coord, fixed)`` must return the exact 1-D restriction of the
    objective as a :class:`TrigPolyRatio`: ``coord`` 0 frees the first
    coordinate with the second fixed at ``fixed`` and vice versa.

    One descent starts from each of the ``cfg.starts`` best peaks of an
    FFT-oversampled 2-D grid (from every peak when the grid has fewer), at the
    grid value; the best descent wins. A coordinate update is only accepted
    when it strictly improves the objective, so the recorded history is
    non-decreasing.
    """
    probe_b = build_slice(1, 0.0)
    n_b = _pow2_at_least(_ACD_GRID_OVERSAMPLE * max(probe_b.num.size, 2 * probe_b.den.size))
    grid_b = _offset_grid(n_b)
    rows = [build_slice(0, float(wb)) for wb in grid_b]
    n_a = _pow2_at_least(_ACD_GRID_OVERSAMPLE * max(rows[0].num.size, 2 * rows[0].den.size))
    values = np.empty((n_b, n_a))  # filled in place: stacking a list of rows raised peak RSS by 8 MB
    for i, row in enumerate(rows):
        grid_a, values[i] = _grid_values(row, n_a)

    results = []
    for ib, ia in _grid_peaks(values, cfg.starts):
        wa, wb, jcur = float(grid_a[ia]), float(grid_b[ib]), float(values[ib, ia])
        history = [jcur]
        for _ in range(_ACD_MAX_SWEEPS):
            j_sweep = jcur
            for coord in (0, 1):
                fixed = wb if coord == 0 else wa
                w_new, j_new = max_unit_circle(build_slice(coord, float(fixed)))
                if j_new > jcur:
                    jcur = j_new
                    if coord == 0:
                        wa = w_new
                    else:
                        wb = w_new
                history.append(jcur)
            if jcur - j_sweep <= _ACD_REL_TOL * max(abs(j_sweep), 1e-300):
                break
        results.append(AcdResult(float(wrap_angle(wa)), float(wrap_angle(wb)), jcur, history))
    return max(results, key=lambda r: r.objective)  # the first of equal objectives
