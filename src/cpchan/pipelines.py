"""Parametric channel estimation for both receiver architectures.

One estimator runs model-order detection, CP decomposition and an independent
per-component stage. Each component's directly identifiable frequencies are
estimated, the remaining factor vector a is refit by least squares, and the
last two frequencies come from a 2-D alternating-coordinate-descent fit of

    J(w, s) = |sum_n conj(a_n) e^{jnw} (X e^{jvs})_n|^2 / ||X e^{jvs}||^2

with a closed-form gain. Digital receiver: X is the precoder and n runs over
symbols; ESPRIT gives delay and arrival, and the symbol mode is refit.
Hybrid receiver: X is the pilot waveform and n runs over subcarriers; ESPRIT
gives Doppler, the combiner ratio gives arrival, and the subcarrier mode is
refit. The per-receiver step makes only these choices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cpsolver import CpFactors, CpSolveConfig, cp_als
from .harmonic import AcdConfig, TrigPolyRatio, TrigPolyRatio2D, acd_2d, esprit_tone, max_unit_circle, vandermonde
from .modelorder import estimate_model_order
from .simchannel import (
    ChannelParamSet,
    PathParams,
    PilotDigital,
    PilotHybrid,
    SystemDims,
    channel_tensor,
    combiner_response,
    pilot_waveform,
    wrap_angle,
)

__all__ = [
    "EstimationResult",
    "EstimatorConfig",
    "PilotDesignError",
    "EstimationError",
    "refine_a2",
    "jade_digital",
    "estimate_digital",
    "estimate_psi_hybrid",
    "refine_a1",
    "jade_hybrid",
    "estimate_hybrid",
]


# Relative size below which a lag of a pilot's row autocorrelation is rounding.
_CONST_DEN_TOL = 1e-12


class PilotDesignError(ValueError):
    """The pilot cannot excite the parameter being estimated."""


class EstimationError(RuntimeError):
    """A per-path stage failed; the message carries the path index."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator knobs shared by both receivers.

    ``cp.rank`` is a placeholder; the solver is re-run with the detected
    model order. ``refine`` toggles the least-squares factor refinement
    (when off, the raw CP factor is rescaled from leading entries only).
    """

    cp: CpSolveConfig = field(default_factory=lambda: CpSolveConfig(rank=1))
    acd: AcdConfig = field(default_factory=AcdConfig)
    refine: bool = True


@dataclass
class EstimationResult:
    """Detected order, estimated paths, reconstruction and stage timings."""

    l_hat: int
    params: ChannelParamSet
    h_hat: np.ndarray
    timings: dict[str, float]
    diagnostics: dict

    @property
    def gains(self) -> np.ndarray:
        return self.params.gains()


def _unit_norm_sq(v: np.ndarray) -> float:
    n = float(np.vdot(v, v).real)
    if n == 0:
        raise ValueError("zero steering vector")
    return n


def refine_a2(component: np.ndarray, a1_hat: np.ndarray, a3_hat: np.ndarray) -> np.ndarray:
    """Least-squares refit of the symbol-mode vector of a rank-1 component
    against fixed first/third-mode steering vectors.

    Closed form of the pseudoinverse solution: project the component onto the
    steering pair and divide by their squared norms.
    """
    denom = _unit_norm_sq(a1_hat) * _unit_norm_sq(a3_hat)
    return np.einsum("n,u,ntu->t", np.conj(a1_hat), np.conj(a3_hat), component) / denom


def refine_a1(component: np.ndarray, a2_hat: np.ndarray, a3_hat: np.ndarray) -> np.ndarray:
    """Least-squares refit of the subcarrier-mode vector of a rank-1 component
    against fixed symbol/chain-mode steering vectors."""
    denom = _unit_norm_sq(a2_hat) * _unit_norm_sq(a3_hat)
    return np.einsum("t,m,ntm->n", np.conj(a2_hat), np.conj(a3_hat), component) / denom


def _row_autocorr_half(rows: np.ndarray) -> np.ndarray:
    """Half coefficients of sum_rows |poly_row(e^{jw})|^2, trimmed to the
    single lag-0 term when every other lag is below _CONST_DEN_TOL of it.

    DFT-built pilots have rows orthogonal under every shift, so their off-lag
    terms are rounding (below 4e-16 of d_0 on the paper-dim pilots); the
    trimmed ratio takes the certified constant-denominator 1-D step. Dropping
    M lags of relative size delta moves g, hence J, by at most 2 M delta
    relative (3e-11 for M = 15), below the descent's 1e-10 stop tolerance.
    """
    n = rows.shape[1]
    acc = np.zeros(2 * n - 1, dtype=complex)
    for row in rows:
        acc += np.convolve(row, np.conj(row)[::-1])
    half = acc[n - 1 :]
    if np.all(np.abs(half[1:]) <= _CONST_DEN_TOL * half[0].real):
        return half[:1]
    return half


def _slices(a_hat: np.ndarray, x: np.ndarray) -> TrigPolyRatio2D:
    """The 2-D ratio objective J(w, s), C = conj(a_hat)[:, None] X and g the
    row autocorrelation of X.

    Coordinate 0 is the frequency w along the rows of X, coordinate 1 the
    departure frequency s. Each 1-D restriction equals |f(e^{jw})|^2 / g(w)
    with the numerator built so its modulus matches the matched-filter inner
    product.
    """
    return TrigPolyRatio2D(np.conj(a_hat)[:, None] * x, _row_autocorr_half(x))


def _steering(x: np.ndarray, omega: float, varsigma: float) -> np.ndarray:
    xs = x @ np.exp(1j * varsigma * np.arange(x.shape[1]))
    return np.exp(1j * omega * np.arange(x.shape[0])) * xs


def _jade(a_hat: np.ndarray, x: np.ndarray, cfg: AcdConfig | None) -> tuple[float, float, complex, float]:
    """Maximize J over both frequencies by alternating exact line searches,
    then return them with the closed-form gain and the maximum of J."""
    a_hat = np.asarray(a_hat, dtype=complex).ravel()
    if a_hat.size != x.shape[0]:
        raise ValueError("mode vector length must match the pilot")
    if not np.any(x):
        raise PilotDesignError("pilot is identically zero")
    res = acd_2d(_slices(a_hat, x), cfg or AcdConfig())
    alpha = _steering(x, res.omega_a, res.omega_b)
    b = complex(np.vdot(alpha, a_hat) / np.vdot(alpha, alpha).real)
    return res.omega_a, res.omega_b, b, res.objective


def jade_digital(
    a2_hat: np.ndarray, pilot: PilotDigital, cfg: AcdConfig | None = None
) -> tuple[float, float, complex, float]:
    """Joint Doppler/departure estimation from the symbol-mode vector:
    (omega2, varsigma, gain, J at the maximum)."""
    return _jade(a2_hat, pilot.precoder, cfg)


def jade_hybrid(
    a1_hat: np.ndarray, pilot: PilotHybrid, cfg: AcdConfig | None = None
) -> tuple[float, float, complex, float]:
    """Joint delay/departure estimation from the subcarrier-mode vector:
    (omega1, varsigma, gain, J at the maximum)."""
    return _jade(a1_hat, pilot_waveform(pilot), cfg)


def estimate_psi_hybrid(a3_hat: np.ndarray, combiner: np.ndarray) -> float:
    """Arrival frequency from the chain-mode vector of a component.

    Maximizes |<r(psi), a3>|^2 / ||r(psi)||^2, which profiles out the
    component's arbitrary complex scale.
    """
    a3_hat = np.asarray(a3_hat, dtype=complex).ravel()
    combiner = np.asarray(combiner, dtype=complex)
    if combiner.shape[0] != a3_hat.size:
        raise ValueError("chain-mode vector length must match the combiner")
    if not np.any(combiner):
        raise PilotDesignError("combiner collects no energy at any arrival angle")
    num = combiner.T @ np.conj(a3_hat)
    den = _row_autocorr_half(combiner)
    psi, _ = max_unit_circle(TrigPolyRatio(num, den))
    return psi


def _digital_path(c1, c2, c3, pilot: PilotDigital, cfg: EstimatorConfig):
    """(b, omega1, omega2, psi, varsigma, objective) of one digital component."""
    omega1 = esprit_tone(c1)
    psi = esprit_tone(c3)
    v1 = vandermonde(omega1, c1.size)
    v3 = vandermonde(psi, c3.size)
    component = np.einsum("n,t,u->ntu", c1, c2, c3)
    if cfg.refine:
        a2_hat = refine_a2(component, v1, v3)
    else:
        a2_hat = c1[0] * c3[0] * c2
    omega2, varsigma, b, objective = jade_digital(a2_hat, pilot, cfg.acd)
    return b, omega1, omega2, psi, varsigma, objective


def _hybrid_path(c1, c2, c3, pilot: PilotHybrid, cfg: EstimatorConfig):
    """(b, omega1, omega2, psi, varsigma, objective) of one hybrid component."""
    omega2 = esprit_tone(c2)
    psi = estimate_psi_hybrid(c3, pilot.combiner)
    v2 = vandermonde(omega2, c2.size)
    r_psi = combiner_response(pilot.combiner, psi)
    component = np.einsum("n,t,m->ntm", c1, c2, c3)
    if cfg.refine:
        a1_hat = refine_a1(component, v2, r_psi)
    else:
        m_star = int(np.argmax(np.abs(r_psi)))
        if r_psi[m_star] == 0:
            raise PilotDesignError("combiner response vanishes at the estimated arrival angle")
        a1_hat = c2[0] * (c3[m_star] / r_psi[m_star]) * c1
    omega1, varsigma, b, objective = jade_hybrid(a1_hat, pilot, cfg.acd)
    return b, omega1, omega2, psi, varsigma, objective


def _path_estimates(factors: CpFactors, path_step, pilot, cfg: EstimatorConfig) -> list[tuple[PathParams, float]]:
    """Run the receiver's step on every CP component independently."""
    out = []
    for k in range(factors.rank):
        try:
            b, *angles, objective = path_step(*factors.component(k), pilot, cfg)
        except Exception as exc:
            raise EstimationError(f"path {k}: {exc}") from exc
        out.append((PathParams(b, *(float(wrap_angle(w)) for w in angles)), objective))
    return out


def _estimate(obs: np.ndarray, dims: SystemDims, path_step, pilot, cfg: EstimatorConfig) -> EstimationResult:
    """Model order, CP-ALS from the unfolding bases model-order detection
    computed, ``path_step`` on every component, gain sort and reconstruction."""
    timings: dict[str, float] = {}
    diagnostics: dict = {}

    t0 = time.perf_counter()
    report = estimate_model_order(obs)
    timings["model_order"] = time.perf_counter() - t0
    l_hat = report.l_hat
    diagnostics["model_order"] = report.per_mode_estimates
    if l_hat == 0:
        timings["cp"] = 0.0
        timings["per_path_total"] = 0.0
        h_hat = np.zeros((dims.n_c, dims.n_s, dims.n_r, dims.n_t), dtype=complex)
        return EstimationResult(0, ChannelParamSet([]), h_hat, timings, diagnostics)

    t0 = time.perf_counter()
    factors, fit_history = cp_als(obs, replace(cfg.cp, rank=l_hat), report.bases)
    timings["cp"] = time.perf_counter() - t0
    diagnostics["cp_fit"] = fit_history[-1]

    t0 = time.perf_counter()
    estimates = _path_estimates(factors, path_step, pilot, cfg)
    timings["per_path_total"] = time.perf_counter() - t0

    order = sorted(range(len(estimates)), key=lambda k: -abs(estimates[k][0].b))
    params = ChannelParamSet([estimates[k][0] for k in order])
    diagnostics["acd_objectives"] = [estimates[k][1] for k in order]
    h_hat = channel_tensor(params, dims)
    return EstimationResult(params.l, params, h_hat, timings, diagnostics)


def estimate_digital(a: np.ndarray, pilot: PilotDigital, cfg: EstimatorConfig | None = None) -> EstimationResult:
    """Single-stream pipeline on the observation tensor ``a`` (n_c, n_s, n_r)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != pilot.n_s:
        raise ValueError("observation shape is inconsistent with the pilot")
    dims = SystemDims(a.shape[0], a.shape[1], a.shape[2], pilot.n_t)
    return _estimate(a, dims, _digital_path, pilot, cfg or EstimatorConfig())


def estimate_hybrid(y: np.ndarray, pilot: PilotHybrid, cfg: EstimatorConfig | None = None) -> EstimationResult:
    """Multi-stream pipeline on the received tensor ``y`` (n_c, n_s, d_r)."""
    y = np.asarray(y, dtype=complex)
    if y.ndim != 3 or y.shape[2] != pilot.d_r:
        raise ValueError("observation shape is inconsistent with the combiner")
    dims = SystemDims(y.shape[0], y.shape[1], pilot.n_r, pilot.n_t, d_t=pilot.d_t, d_r=pilot.d_r)
    return _estimate(y, dims, _hybrid_path, pilot, cfg or EstimatorConfig())
