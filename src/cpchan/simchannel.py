"""Synthetic time-varying frequency-selective MIMO-OFDM channels.

Ground-truth path parameters, the order-4 channel tensor, pilot/combiner
construction for the fully digital and hybrid receiver architectures, and
noisy reception. Everything is deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonic import wrap_angle
from .tensors import cp_compose

__all__ = [
    "SystemDims",
    "PathParams",
    "ChannelParamSet",
    "PilotDigital",
    "PilotHybrid",
    "ChannelGenConfig",
    "draw_channel",
    "channel_tensor",
    "make_pilot_digital",
    "make_pilot_hybrid",
    "receive_digital",
    "receive_hybrid",
    "snr_to_n0",
    "pilot_waveform",
    "transmit_response",
    "combiner_response",
    "combiner_coverage",
    "transmit_coverage",
    "wrap_angle",
]

_MAX_REJECTION_ATTEMPTS = 10_000


@dataclass(frozen=True)
class SystemDims:
    """Array and frame dimensions.

    ``n_a_t`` / ``n_a_r`` default to ``n_t // d_t`` / ``n_r // d_r``; panel
    sizes must tile the arrays exactly.
    """

    n_c: int
    n_s: int
    n_r: int
    n_t: int
    d_t: int = 1
    d_r: int = 1
    n_a_t: int | None = None
    n_a_r: int | None = None

    def __post_init__(self):
        if self.n_a_t is None:
            object.__setattr__(self, "n_a_t", self.n_t // self.d_t)
        if self.n_a_r is None:
            object.__setattr__(self, "n_a_r", self.n_r // self.d_r)
        for name in ("n_c", "n_s", "n_r", "n_t", "d_t", "d_r", "n_a_t", "n_a_r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_t != self.d_t * self.n_a_t:
            raise ValueError(f"n_t={self.n_t} != d_t*n_a_t={self.d_t * self.n_a_t}")
        if self.n_r != self.d_r * self.n_a_r:
            raise ValueError(f"n_r={self.n_r} != d_r*n_a_r={self.d_r * self.n_a_r}")


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain plus the four angular frequencies
    (delay per subcarrier, Doppler per symbol, arrival and departure per
    antenna)."""

    b: complex
    omega1: float
    omega2: float
    psi: float
    varsigma: float


@dataclass
class ChannelParamSet:
    """Collection of path parameters."""

    paths: list[PathParams]

    @property
    def l(self) -> int:
        return len(self.paths)

    def gains(self) -> np.ndarray:
        return np.array([p.b for p in self.paths], dtype=complex)


@dataclass
class PilotDigital:
    """Single-stream pilot: time-varying precoder ``p[t, v]`` and unit-modulus
    resource grid ``s[n, t]``."""

    precoder: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        self.precoder = np.asarray(self.precoder, dtype=complex)
        self.grid = np.asarray(self.grid, dtype=complex)
        if self.precoder.ndim != 2 or self.grid.ndim != 2:
            raise ValueError("precoder and grid must be matrices")
        if self.grid.shape[1] != self.precoder.shape[0]:
            raise ValueError("grid symbol count must match precoder rows")
        if not np.allclose(np.abs(self.grid), 1.0, atol=1e-12):
            raise ValueError("pilot grid entries must be unit modulus")

    @property
    def n_s(self) -> int:
        return self.precoder.shape[0]

    @property
    def n_t(self) -> int:
        return self.precoder.shape[1]


@dataclass
class PilotHybrid:
    """Time-constant multi-stream pilot and combiner.

    ``precoder[v, d]`` maps streams to antennas, ``symbols[n, d]`` holds
    mutually orthogonal stream symbols, and each ``combiner[m, :]`` row is
    supported only on its own receive subpanel.
    """

    precoder: np.ndarray
    symbols: np.ndarray
    combiner: np.ndarray

    def __post_init__(self):
        self.precoder = np.asarray(self.precoder, dtype=complex)
        self.symbols = np.asarray(self.symbols, dtype=complex)
        self.combiner = np.asarray(self.combiner, dtype=complex)
        if self.precoder.shape[1] != self.symbols.shape[1]:
            raise ValueError("stream count mismatch between precoder and symbols")
        gram = self.symbols.conj().T @ self.symbols
        off = gram - np.diag(np.diag(gram))
        if np.max(np.abs(off)) > 1e-9 * max(1.0, np.max(np.abs(gram))):
            raise ValueError("stream symbols must be mutually orthogonal")
        d_r, n_r = self.combiner.shape
        if n_r % d_r:
            raise ValueError("combiner rows must tile the receive array")
        panel = n_r // d_r
        for m in range(d_r):
            outside = np.delete(self.combiner[m], slice(m * panel, (m + 1) * panel))
            if np.any(outside != 0):
                raise ValueError(f"combiner row {m} has support outside its subpanel")

    @property
    def n_t(self) -> int:
        return self.precoder.shape[0]

    @property
    def d_t(self) -> int:
        return self.precoder.shape[1]

    @property
    def d_r(self) -> int:
        return self.combiner.shape[0]

    @property
    def n_r(self) -> int:
        return self.combiner.shape[1]


@dataclass(frozen=True)
class ChannelGenConfig:
    """Random channel draw configuration.

    Path magnitudes follow a Rician law with the given noncentrality and
    scale; the strongest path gets an extra line-of-sight boost. Setting
    ``min_separation`` > 0 enforces a minimum pairwise wrapped distance in
    every angular dimension by rejection resampling.
    """

    l: int
    rician_noncentrality: float = 1e-6
    rician_scale: float = 5e-6
    los_boost_db: float = 10.0
    min_separation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("path count must be >= 1")
        for name in ("rician_noncentrality", "rician_scale", "los_boost_db", "min_separation"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rician_noncentrality < 0 or self.rician_scale <= 0:
            raise ValueError("Rician parameters must be positive")


def _draw_separated(rng: np.random.Generator, count: int, min_sep: float) -> np.ndarray:
    if min_sep <= 0 or count < 2:
        return rng.uniform(-np.pi, np.pi, count)
    for _ in range(_MAX_REJECTION_ATTEMPTS):
        x = rng.uniform(-np.pi, np.pi, count)
        d = np.abs(wrap_angle(x[:, None] - x[None, :]))
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_sep:
            return x
    raise ValueError(f"could not draw {count} frequencies separated by {min_sep} rad")


def draw_channel(cfg: ChannelGenConfig) -> ChannelParamSet:
    """Draw a random path set; deterministic given ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    freqs = [_draw_separated(rng, cfg.l, cfg.min_separation) for _ in range(4)]
    mags = np.abs(
        cfg.rician_noncentrality
        + cfg.rician_scale * (rng.standard_normal(cfg.l) + 1j * rng.standard_normal(cfg.l))
    )
    phases = rng.uniform(-np.pi, np.pi, cfg.l)
    b = mags * np.exp(1j * phases)
    b[int(np.argmax(np.abs(b)))] *= 10.0 ** (cfg.los_boost_db / 20.0)
    paths = [
        PathParams(complex(b[k]), float(freqs[0][k]), float(freqs[1][k]), float(freqs[2][k]), float(freqs[3][k]))
        for k in range(cfg.l)
    ]
    return ChannelParamSet(paths)


def channel_tensor(params: ChannelParamSet, dims: SystemDims) -> np.ndarray:
    """Order-4 channel tensor (n_c, n_s, n_r, n_t): a sum of separable
    complex exponentials, one rank-1 term per path."""
    angles = np.array([[p.omega1, p.omega2, p.psi, p.varsigma] for p in params.paths]).reshape(-1, 4)
    sizes = (dims.n_c, dims.n_s, dims.n_r, dims.n_t)
    factors = [np.exp(1j * np.outer(np.arange(n), angles[:, m])) for m, n in enumerate(sizes)]
    factors[0] = factors[0] * params.gains()
    return cp_compose(factors)


def make_pilot_digital(dims: SystemDims, seed: int = 0) -> PilotDigital:
    """Pseudorandom QPSK resource grid plus a precoder cycling the rows of the
    unitary DFT matrix, so every transmit direction is revisited over the
    frame."""
    rng = np.random.default_rng(seed)
    grid = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * rng.integers(0, 4, size=(dims.n_c, dims.n_s))))
    dft = np.exp(-2j * np.pi * np.outer(np.arange(dims.n_t), np.arange(dims.n_t)) / dims.n_t)
    dft /= np.sqrt(dims.n_t)
    precoder = dft[np.arange(dims.n_s) % dims.n_t, :]
    return PilotDigital(precoder, grid)


def _dft_beam(size: int, index: int) -> np.ndarray:
    return np.exp(-2j * np.pi * (index % size) * np.arange(size) / size) / np.sqrt(size)


def make_pilot_hybrid(dims: SystemDims, seed: int = 0, stream_cols=None) -> PilotHybrid:
    """DFT-beam subpanel precoder/combiner with orthogonal DFT stream symbols.

    ``stream_cols`` picks which columns of the n_c-point DFT matrix carry the
    streams; by default ``d_t`` distinct columns are drawn at random (seeded).
    """
    if dims.d_t < dims.n_a_t or dims.d_r < dims.n_a_r:
        raise ValueError("need at least as many streams/chains as subpanel elements for full beam coverage")
    precoder = np.zeros((dims.n_t, dims.d_t), dtype=complex)
    for d in range(dims.d_t):
        precoder[d * dims.n_a_t : (d + 1) * dims.n_a_t, d] = _dft_beam(dims.n_a_t, d)
    combiner = np.zeros((dims.d_r, dims.n_r), dtype=complex)
    for m in range(dims.d_r):
        combiner[m, m * dims.n_a_r : (m + 1) * dims.n_a_r] = _dft_beam(dims.n_a_r, m)
    if stream_cols is None:
        rng = np.random.default_rng(seed)
        stream_cols = np.sort(rng.choice(dims.n_c, size=dims.d_t, replace=False))
    stream_cols = np.asarray(stream_cols, dtype=int)
    if stream_cols.size != dims.d_t or np.unique(stream_cols).size != dims.d_t:
        raise ValueError("stream_cols must hold d_t distinct DFT column indices")
    symbols = np.exp(-2j * np.pi * np.outer(np.arange(dims.n_c), stream_cols) / dims.n_c)
    return PilotHybrid(precoder, symbols, combiner)


def _noise(shape: tuple[int, ...], n0: float, seed: int) -> np.ndarray:
    if n0 == 0:
        return np.zeros(shape, dtype=complex)
    rng = np.random.default_rng(seed)
    return np.sqrt(n0 / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def receive_digital(
    h: np.ndarray, pilot: PilotDigital, n0: float = 0.0, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Fully digital reception.

    Returns the received tensor ``y[n, t, u]`` (channel contracted against
    the separable pilot, plus white noise of per-entry variance ``n0``) and
    the observation ``a = y / s[n, t]`` used by the single-stream estimator;
    unit-modulus grid symbols keep the divided noise white.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 4 or h.shape[0] != pilot.grid.shape[0] or h.shape[1] != pilot.n_s or h.shape[3] != pilot.n_t:
        raise ValueError("channel and pilot dimensions are inconsistent")
    y = np.einsum("ntuv,tv->ntu", h, pilot.precoder) * pilot.grid[:, :, None]
    y = y + _noise(y.shape, n0, seed)
    a = y / pilot.grid[:, :, None]
    return y, a


def pilot_waveform(pilot: PilotHybrid) -> np.ndarray:
    """Transmitted antenna-domain pilot ``x[n, v]`` composed from the streams."""
    return pilot.symbols @ pilot.precoder.T


def receive_hybrid(h: np.ndarray, pilot: PilotHybrid, n0: float = 0.0, seed: int = 0) -> np.ndarray:
    """Hybrid-combiner reception ``y[n, t, m]`` with t-constant pilot and
    combiner."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 4 or h.shape[2] != pilot.n_r or h.shape[3] != pilot.n_t:
        raise ValueError("channel and pilot dimensions are inconsistent")
    x = pilot_waveform(pilot)
    if x.shape[0] != h.shape[0]:
        raise ValueError("pilot symbol length must match the subcarrier count")
    y = np.einsum("mu,nv,ntuv->ntm", pilot.combiner, x, h)
    return y + _noise(y.shape, n0, seed)


def snr_to_n0(h: np.ndarray, pilot, snr_db: float) -> float:
    """Noise variance giving the requested per-entry SNR of the noiseless
    received tensor."""
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    if isinstance(pilot, PilotDigital):
        y = receive_digital(h, pilot, 0.0)[0]
    else:
        y = receive_hybrid(h, pilot, 0.0)
    p_sig = float(np.mean(np.abs(y) ** 2))
    if p_sig == 0:
        raise ValueError("zero signal: SNR is undefined")
    return p_sig / 10.0 ** (snr_db / 10.0)


def transmit_response(pilot: PilotHybrid, varsigma) -> np.ndarray:
    """Departure-direction pilot response x_n(varsigma) = sum_v x[n, v] e^{j v varsigma}.

    Vectorized over ``varsigma``; returns shape (n_c,) or (n_c, len(varsigma)).
    """
    return combiner_response(pilot_waveform(pilot), varsigma)


def combiner_response(combiner: np.ndarray, psi) -> np.ndarray:
    """Arrival-direction combiner response r_m(psi) = sum_u r[m, u] e^{j u psi}."""
    combiner = np.asarray(combiner, dtype=complex)
    ps = np.asarray(psi, dtype=float)
    steer = np.exp(1j * np.outer(np.arange(combiner.shape[1]), ps))
    out = combiner @ steer
    return out[:, 0] if ps.ndim == 0 else out


def combiner_coverage(combiner: np.ndarray, psi) -> np.ndarray:
    """Total collected beam energy sum_m |r_m(psi)|^2, per angle."""
    r = combiner_response(combiner, np.atleast_1d(np.asarray(psi, dtype=float)))
    return np.sum(np.abs(r) ** 2, axis=0)


def transmit_coverage(pilot: PilotHybrid, varsigma) -> np.ndarray:
    """Total transmitted energy sum_n |x_n(varsigma)|^2, per angle."""
    x = transmit_response(pilot, np.atleast_1d(np.asarray(varsigma, dtype=float)))
    return np.sum(np.abs(x) ** 2, axis=0)
