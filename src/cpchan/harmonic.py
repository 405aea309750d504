"""Harmonic retrieval primitives.

Single-tone frequency estimation via the shift-invariance (ESPRIT) method,
Vandermonde steering vectors, exact maximization of trigonometric-polynomial
ratios on the unit circle, and a 2-D alternating coordinate descent built on
that exact 1-D step.

J is evaluated one way for numerator and denominator alike: a sum
sum_k c_k e^{jkw} at arbitrary points by one matrix product
(:func:`_trig_values`), or on a half-offset uniform grid by one FFT
(:func:`_fft_values`; one 2-D FFT for a 2-D coefficient array). The real
denominator g enters both as the one-sided coefficients e_0 = d_0,
e_m = 2 d_m of g(w) = Re sum_m e_m e^{jmw}.

The estimators' 2-D objective is a :class:`TrigPolyRatio2D`,
|sum_{n,v} C[n, v] e^{jn w_a} e^{jv w_b}|^2 / g(w_b): it builds its own exact
1-D slices, and :func:`acd_2d` takes its whole coarse grid from one 2-D FFT
of C, divided by g on the w_b grid.

The exact 1-D step has one source of candidate maximizers, a certificate for
a real trigonometric polynomial p of degree D: an FFT grid of the power of two
>= 64 D points (no coarser than the grid the denominator was checked on),
Bernstein's inequality (|p''| <= D^2 max|p|, |p'''| <= D^3 max|p|), a finer
resampling of the candidates' neighbourhoods while a concavity test fails, and
a bracketed Newton polish. With a constant denominator p is J itself; the
estimators pass the denominator of a DFT-built pilot as a constant, so on such
pilots every slice is one certified step. A genuinely non-constant
denominator g is handled by Dinkelbach's method, a few certified steps on
p = |f|^2 - lam g. Where no certificate holds, the polished candidates and
the best grid point still give the step's answer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "TrigPolyRatio",
    "TrigPolyRatio2D",
    "AcdConfig",
    "AcdResult",
    "vandermonde",
    "wrap_angle",
    "esprit_tone",
    "eval_ratio",
    "max_unit_circle",
    "acd_2d",
]

# Smallest grid on which TrigPolyRatio checks that its denominator is positive;
# a degree-D denominator gets the power of two >= max(_FALLBACK_GRID, 8 D), so
# that D s <= pi/4 at spacing s (_grid_size). Half-step offset keeps the
# samples away from rational zeros of DFT-built denominators (which sit
# exactly at multiples of 2*pi/N).
_FALLBACK_GRID = 4096
# The 1-D step's grid has the power of two >= _STEP_POINTS_PER_DEGREE * D
# points, so D s <= 2 pi / 64 and the Bernstein slack (D s)^2 / 8 stays near
# 1e-3 of max |p|; it is never coarser than the denominator's check grid,
# whose values a ratio slice then reuses.
_STEP_POINTS_PER_DEGREE = 64
# Certified 1-D step (_certified_candidates): a failed concavity test resamples
# the candidates' neighbourhoods 4x finer up to _ZOOM_DEPTH times; more than
# _MAX_CANDIDATES candidates end the certificate, and _CERT_ROUNDOFF widens the
# candidate threshold by the FFT's rounding.
_ZOOM_DEPTH = 6
_MAX_CANDIDATES = 256
_CERT_ROUNDOFF = 1e-12
_NEWTON_MAX_STEPS = 50
_NEWTON_TOL = 1e-13
# Dinkelbach iteration of a ratio with a non-constant denominator (max_unit_circle).
_DINKELBACH_MAX_STEPS = 20
_DINKELBACH_TOL = 1e-12
# 2-D descent (acd_2d): every step is an exact line search, so its sweep cap, relative
# stop tolerance and start-grid oversampling are numerical constants, not tuning knobs.
_ACD_MAX_SWEEPS = 50
_ACD_REL_TOL = 1e-10
_ACD_GRID_OVERSAMPLE = 8


def wrap_angle(x):
    """Wrap angles to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


def _one_sided(half: np.ndarray) -> np.ndarray:
    """Coefficients e_m of g(w) = Re(sum_m e_m e^{jmw}) for the Hermitian half
    coefficients d_0..d_M of g: e_0 = d_0 and e_m = 2 d_m."""
    return np.concatenate([half[:1], 2.0 * half[1:]])


def _trig_values(coeffs: np.ndarray, omega) -> np.ndarray:
    """sum_k coeffs[k] e^{jkw} at scalar or array ``omega``, by one matrix
    product; a 2-D ``coeffs`` evaluates each of its columns."""
    omega = np.asarray(omega, dtype=float)
    return np.exp(1j * np.multiply.outer(omega, np.arange(coeffs.shape[0]))) @ coeffs


def _fft_values(coeffs: np.ndarray, *n: int) -> np.ndarray:
    """sum_k coeffs[k] e^{jkw} on the n-point half-offset grid
    w_i = 2 pi (i + 1/2) / n, by one zero-padded FFT. A 2-D ``coeffs`` with
    two sizes gives sum_{k,l} coeffs[k, l] e^{jkw} e^{jlu} on the product of
    the two grids (rows w, columns u), by one 2-D FFT."""
    if any(m < k for m, k in zip(n, coeffs.shape)):
        raise ValueError("grid too small for the coefficient length")
    for axis, m in enumerate(n):
        k = coeffs.shape[axis]
        coeffs = coeffs * np.exp(1j * np.pi * np.arange(k) / m).reshape((k,) + (1,) * (len(n) - 1 - axis))
    return np.fft.ifftn(coeffs, n, axes=tuple(range(len(n)))) * math.prod(n)


def _den_at(den: np.ndarray, omega):
    """g(w) at scalar or array ``omega`` from the half coefficients ``den``;
    the constant d_0 itself when g is constant."""
    return den[0].real if den.size == 1 else np.real(_trig_values(_one_sided(den), omega))


def _pow2_at_least(n: int) -> int:
    return 1 << max(5, int(np.ceil(np.log2(max(2, n)))))


def _grid_size(length: int) -> int:
    """Points of the grid on which a denominator of ``length`` half
    coefficients is checked positive: the power of two >= max(_FALLBACK_GRID,
    8 D), D = length - 1."""
    return _pow2_at_least(max(_FALLBACK_GRID, 8 * (length - 1)))


@dataclass(frozen=True)
class TrigPolyRatio:
    """Ratio objective J(w) = |f(e^{jw})|^2 / g(w) on the unit circle.

    ``num`` holds the complex coefficients c_k of f(z) = sum_k c_k z^k.
    ``den`` holds the Hermitian half coefficients d_0..d_M of the real-valued
    trigonometric polynomial g(w) = d_0 + 2*Re(sum_{m>=1} d_m e^{jmw});
    an empty ``den`` is stored as [1], g == 1. g must be strictly positive,
    which is checked at construction on the offset grid that
    :func:`_grid_size` sizes from ``den`` (at least 4096 points). Those grid
    values (a single value when g is constant) are kept for
    :func:`max_unit_circle`, whose step grid is never coarser.
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
        g = den[:1].real if den.size == 1 else np.real(_fft_values(_one_sided(den), _grid_size(den.size)))
        object.__setattr__(self, "_den_on_grid", g)
        gmin = float(np.min(g))
        if gmin <= 0:
            raise ValueError(f"denominator is not strictly positive (min {gmin:g} on check grid)")


@dataclass(frozen=True)
class TrigPolyRatio2D:
    """Objective J(w_a, w_b) = |sum_{n,v} C[n, v] e^{jn w_a} e^{jv w_b}|^2 / g(w_b).

    ``coeffs`` holds C; ``den`` the Hermitian half coefficients of g in w_b,
    as in :class:`TrigPolyRatio`. Called as ``build_slice(coord, fixed)``, it
    returns the exact 1-D restriction that :func:`acd_2d` steps on: coordinate
    0 frees w_a (numerator C e^{jv w_b}, constant denominator g(w_b)), 1 frees
    w_b (numerator C^T e^{jn w_a}, denominator g).
    """

    coeffs: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 2:
            raise ValueError("coeffs must be a 2-D coefficient array")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", np.atleast_1d(np.asarray(self.den, dtype=complex)))

    def __call__(self, coord: int, fixed: float) -> TrigPolyRatio:
        if coord == 0:
            g = _den_at(self.den, fixed)
            return TrigPolyRatio(self.coeffs @ np.exp(1j * fixed * np.arange(self.coeffs.shape[1])), np.array([g]))
        return TrigPolyRatio(self.coeffs.T @ np.exp(1j * fixed * np.arange(self.coeffs.shape[0])), self.den)


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


def _ratio(num: np.ndarray, g: np.ndarray) -> np.ndarray:
    """num / g where g > 0, else 0."""
    vals = np.zeros_like(num)
    np.divide(num, g, out=vals, where=g > 0)
    return vals


def eval_ratio(r: TrigPolyRatio, omega) -> np.ndarray:
    """Evaluate J(w) = |f|^2 / g at scalar or vector ``omega``."""
    return _ratio(np.abs(_trig_values(r.num, omega)) ** 2, _den_at(r.den, omega))


@lru_cache(maxsize=32)
def _offset_grid(n: int) -> np.ndarray:
    w = wrap_angle(2.0 * np.pi * (np.arange(n) + 0.5) / n)
    w.setflags(write=False)
    return w


def _den_values(r: TrigPolyRatio, n: int) -> np.ndarray:
    """g on the n-point half-offset grid; its single value when g is constant."""
    if r.den.size == 1 or n == r._den_on_grid.size:
        return r._den_on_grid
    return np.real(_fft_values(_one_sided(r.den), n))


def _grid_values(r: TrigPolyRatio, n: int) -> tuple[np.ndarray, np.ndarray]:
    """J on the n-point half-offset uniform grid, via zero-padded FFTs."""
    return _offset_grid(n), _ratio(np.abs(_fft_values(r.num, n)) ** 2, _den_values(r, n))


def _certified_candidates(r: TrigPolyRatio, lam: float, grid_w: np.ndarray, grid_p: np.ndarray):
    """(candidates, certified): stationary points of p = (|f|^2 - lam g) / d_0
    that provably include its global maximizer, found from p on the uniform
    grid ``grid_w``/``grid_p``, and whether that proof held; without it the
    best grid point is appended. A constant g has lam = 0 and takes no part,
    so that p = J and no denominator arithmetic runs.

    p is a real trigonometric polynomial of degree D, so Bernstein's
    inequality bounds |p''| by D^2 P and |p'''| by D^3 P, P = max |p|. With
    sample spacing s the sample nearest the maximizer is within eps P of max
    p, eps = (D s)^2 / 8, so every sample within eps P^ of the best sample G
    is a candidate, where P^ = max_i |p_i| / (1 - eps) bounds P from the grid.
    Every candidate w_i must certify p strictly concave on the bracket
    [w_i - s, w_i + s]: p''(w_i) + s D^3 P^ < 0. While some candidate fails
    that test, the candidates' neighbourhoods [w_i - s/2, w_i + s/2] are
    resampled at s/4 and the test repeats, at most _ZOOM_DEPTH times. A
    maximizer within s/2 of w_i makes p' fall from + to - across a concave
    bracket, so a bracket without that sign change is dropped; the others are
    polished by bracketed Newton on p'. Without a certificate (the zoom depth
    is spent, or more than _MAX_CANDIDATES candidates, of which the best are
    kept) the falling brackets are polished all the same.
    """
    d0 = r.den[0].real
    nz = np.flatnonzero(r.num)  # the caller has ruled out a zero numerator
    c = r.num[nz[0] : nz[-1] + 1] / np.sqrt(d0)  # |z^m f| = |f| on the circle
    ratio = r.den.size > 1
    deg = max(c.size, r.den.size if ratio else 0) - 1
    ib = int(np.argmax(grid_p))
    best_w, best_p = grid_w[ib], grid_p[ib]
    if deg < 1:
        return np.array([best_w]), True
    k = np.arange(deg + 1)
    coeffs = np.zeros((deg + 1, 6 if ratio else 3), dtype=complex)
    coeffs[: c.size, 0] = c
    if ratio:
        coeffs[: r.den.size, 3] = _one_sided(r.den) / d0
    for j in [1, 2, 4, 5] if ratio else [1, 2]:
        coeffs[:, j] = 1j * k * coeffs[:, j - 1]

    def value_slope_curvature(w):
        v = _trig_values(coeffs, w).T
        f, f1, f2 = v[:3]
        p = (np.abs(f) ** 2, 2.0 * np.real(np.conj(f) * f1), 2.0 * (np.abs(f1) ** 2 + np.real(np.conj(f) * f2)))
        return [pk - lam * np.real(gk) for pk, gk in zip(p, v[3:])] if ratio else p

    step = 2.0 * np.pi / grid_p.size
    eps = (deg * step) ** 2 / 8.0 + _CERT_ROUNDOFF
    bound = max(best_p, -np.min(grid_p)) / (1.0 - eps)
    w, v = grid_w, grid_p
    for zoom in range(_ZOOM_DEPTH + 1):
        idx = np.flatnonzero(v >= best_p - eps * bound)
        capped = idx.size > _MAX_CANDIDATES
        if capped:
            idx = idx[np.argsort(v[idx])[-_MAX_CANDIDATES:]]
        x = w[idx]
        lo, hi = x - step, x + step
        n = x.size
        _, d1, d2 = value_slope_curvature(np.concatenate([lo, hi, x]))
        certified = not capped and np.all(d2[2 * n :] + step * deg**3 * bound < 0)
        if certified or capped or zoom == _ZOOM_DEPTH:
            break
        step /= 4.0
        eps = (deg * step) ** 2 / 8.0 + _CERT_ROUNDOFF
        w = (x[:, None] + step * np.array([-1.5, -0.5, 0.5, 1.5])).ravel()
        v = value_slope_curvature(w)[0]
        best_p = max(best_p, np.max(v))
    falling = (d1[:n] > 0) & (d1[n : 2 * n] < 0)
    x, lo, hi = x[falling], lo[falling], hi[falling]
    for _ in range(_NEWTON_MAX_STEPS if x.size else 0):
        _, d1, d2 = value_slope_curvature(x)
        rising = d1 > 0
        lo = np.where(rising, x, lo)
        hi = np.where(rising, hi, x)
        # a non-concave point (possible only without a certificate) bisects
        nxt = x - np.divide(d1, d2, out=np.full_like(d1, np.inf), where=d2 < 0)
        # closed bracket: a converged step rounds to nxt == x, which is lo or
        # hi by now, and must not send the iterate back to bisection
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        done = np.all(np.abs(nxt - x) <= _NEWTON_TOL)
        x = nxt
        if done:
            break
    certified = bool(certified and x.size)
    return (wrap_angle(x), True) if certified else (np.append(wrap_angle(x), best_w), False)


def _step_points(r: TrigPolyRatio) -> int:
    """Points of the 1-D step's grid: the power of two >= 64 D for the degree
    D of the slice, or the denominator's check grid when that is larger."""
    degree = max(r.num.size, r.den.size) - 1
    return max(_pow2_at_least(_STEP_POINTS_PER_DEGREE * degree), r._den_on_grid.size)


def max_unit_circle(r: TrigPolyRatio) -> tuple[float, float]:
    """Global maximizer of J(w) over (-pi, pi].

    The maximum comes from one source, the certified grid step of
    :func:`_certified_candidates`, on an FFT grid sized from the degree D of
    the slice (:func:`_step_points`): the power of two >= 64 D points, or the
    grid the denominator was checked on (at least 4096 points) when that is
    larger, so that a ratio reuses its denominator's grid values. For a
    constant denominator (``den.size == 1``, every slice of the estimators on
    a DFT-built pilot) J is itself a trigonometric polynomial and one step
    suffices. Otherwise Dinkelbach's method (Management Science 1967) starts
    from the grid maximum lam of J and repeats lam <- J(w*) with w* the
    maximizer of |f|^2 - lam g, whose maximum is 0 exactly at lam = max J,
    until lam grows by less than _DINKELBACH_TOL relative. The maximizer is
    the best candidate of the best step, returned with J as evaluated there;
    ties break toward the smallest |w|.
    """
    if not np.any(r.num):
        warnings.warn("objective numerator is identically zero", RuntimeWarning, stacklevel=2)
        return 0.0, 0.0
    n = _step_points(r)
    grid_w, grid_j = _grid_values(r, n)
    grid_den = _den_values(r, n) / r.den[0].real
    lam = 0.0 if r.den.size == 1 else float(np.max(grid_j))
    omegas = vals = None
    for _ in range(_DINKELBACH_MAX_STEPS):
        cands = _certified_candidates(r, lam, grid_w, grid_den * (grid_j - lam))[0]
        cand_vals = eval_ratio(r, cands)
        top = float(np.max(cand_vals))
        if vals is None or top >= np.max(vals):
            omegas, vals = cands, cand_vals
        if r.den.size == 1 or top <= lam * (1.0 + _DINKELBACH_TOL):
            break
        lam = top
    vmax = float(np.max(vals))
    if vmax <= 0.0:
        return 0.0, 0.0
    tied = np.flatnonzero(vals >= vmax * (1.0 - 1e-12))
    best = tied[int(np.argmin(np.abs(omegas[tied])))]
    return float(omegas[best]), float(vals[best])


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


def _coarse_grid(build_slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid_a, grid_b, values) of the start grid of :func:`acd_2d`, with
    values[i, k] = J(grid_a[k], grid_b[i]).

    Each axis has the power of two >= 8 times the coefficient count of the
    slices along it (twice the denominator's, if more). A
    :class:`TrigPolyRatio2D` gets the whole grid from one 2-D FFT of its
    coefficients and its denominator on the w_b grid; any other callable gets
    it row by row, one FFT per slice.
    """

    def points(r: TrigPolyRatio) -> int:
        return _pow2_at_least(_ACD_GRID_OVERSAMPLE * max(r.num.size, 2 * r.den.size))

    probe_b = build_slice(1, 0.0)
    n_b = points(probe_b)
    grid_b = _offset_grid(n_b)
    row_0 = build_slice(0, float(grid_b[0]))
    n_a = points(row_0)
    if isinstance(build_slice, TrigPolyRatio2D):
        num = np.abs(_fft_values(build_slice.coeffs.T, n_b, n_a)) ** 2
        values = _ratio(num, _den_values(probe_b, n_b)[:, None])
    else:
        values = np.empty((n_b, n_a))  # filled in place: stacking a list of rows raised peak RSS by 8 MB
        for i, wb in enumerate(grid_b):
            values[i] = _grid_values(build_slice(0, float(wb)) if i else row_0, n_a)[1]
    return _offset_grid(n_a), grid_b, values


def acd_2d(build_slice, cfg: AcdConfig) -> AcdResult:
    """Maximize a 2-D unit-circle ratio objective by alternating exact 1-D steps.

    ``build_slice(coord, fixed)`` must return the exact 1-D restriction of the
    objective as a :class:`TrigPolyRatio`: ``coord`` 0 frees the first
    coordinate with the second fixed at ``fixed`` and vice versa.

    One descent starts from each of the ``cfg.starts`` best peaks of an
    FFT-oversampled 2-D grid (from every peak when the grid has fewer), at the
    grid value; the best descent wins (:func:`_coarse_grid`: for a
    :class:`TrigPolyRatio2D`, one 2-D FFT; otherwise one FFT per row). A
    coordinate update is only accepted when it strictly improves the
    objective, so the recorded history is non-decreasing.
    """
    grid_a, grid_b, values = _coarse_grid(build_slice)

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
