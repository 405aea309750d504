"""Monte Carlo benchmark harness, validation oracle and metrics.

Campaigns sweep SNR points over seeded realizations, contain per-run
estimator failures with a sentinel error, and emit a fixed-schema CSV.
The single-path oracle is an exhaustive grid search over the matched-filter
objective, independent of the estimation pipelines it validates.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import csv
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from statistics import mean, median
from typing import get_type_hints

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cpsolver import CpSolveConfig
from .harmonic import AcdConfig
from .pipelines import EstimationResult, EstimatorConfig, estimate_digital, estimate_hybrid
from .simchannel import (
    ChannelGenConfig,
    ChannelParamSet,
    PathParams,
    SystemDims,
    channel_tensor,
    combiner_response,
    draw_channel,
    make_pilot_digital,
    make_pilot_hybrid,
    pilot_waveform,
    receive_digital,
    receive_hybrid,
    snr_to_n0,
    wrap_angle,
)
from .tensors import frobenius, unfold

__all__ = [
    "CampaignConfig",
    "RunRecord",
    "SnrSummary",
    "MatchResult",
    "ConfigError",
    "run_campaign",
    "write_records_csv",
    "read_records_csv",
    "summary_lines",
    "oracle_single_path",
    "match_paths",
    "relative_error",
    "parse_config",
    "make_pilot",
]

# Seed offsets decouple the channel, noise and solver random streams of a run.
_NOISE_SEED_OFFSET = 1_000_000_007
_SOLVER_SEED_OFFSET = 2_000_000_021


class ConfigError(ValueError):
    """Invalid or missing campaign configuration."""


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of a Monte Carlo campaign."""

    system: SystemDims
    mode: str
    channel: ChannelGenConfig
    snr_db_list: tuple[float, ...]
    mc_runs: int = 128
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    output_path: str = "campaign.csv"
    base_seed: int = 1
    pilot_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("digital", "hybrid"):
            raise ConfigError(f"mode must be 'digital' or 'hybrid', got {self.mode!r}")
        if self.mc_runs < 1:
            raise ConfigError("mc_runs must be >= 1")
        if len(self.snr_db_list) == 0 or not np.all(np.isfinite(self.snr_db_list)):
            raise ConfigError(f"snr_db_list must be nonempty and finite, got {self.snr_db_list}")
        if min(self.base_seed, self.pilot_seed) < 0:
            raise ConfigError("[mc] base_seed and [pilot] seed must be non-negative")
        if self.workers < 1:
            raise ConfigError(f"[mc] workers must be >= 1, got {self.workers}")


@dataclass
class RunRecord:
    """One Monte Carlo realization. ``error`` is empty on success."""

    run_id: int
    snr_db: float
    l_true: int
    l_hat: int
    rel_err: float
    time_total_ms: float
    time_cp_ms: float
    time_mdl_ms: float
    time_paths_ms: float
    seed: int
    error: str = ""


TIMING_COLUMNS = ("time_total_ms", "time_cp_ms", "time_mdl_ms", "time_paths_ms")


@dataclass
class SnrSummary:
    snr_db: float
    mean_rel_err: float
    median_rel_err: float
    l_hat_counts: dict[int, int]


@dataclass
class MatchResult:
    """Optimal truth/estimate pairing and wrapped per-parameter RMSE."""

    pairs: list[tuple[int, int]]
    rmse: dict[str, float]
    unmatched_truth: list[int]
    unmatched_est: list[int]


def relative_error(h: np.ndarray, h_hat: np.ndarray) -> float:
    denom = frobenius(h)
    if denom == 0:
        raise ValueError("reference channel is zero")
    return frobenius(np.asarray(h) - np.asarray(h_hat)) / denom


def make_pilot(cfg: CampaignConfig):
    if cfg.mode == "digital":
        return make_pilot_digital(cfg.system, cfg.pilot_seed)
    return make_pilot_hybrid(cfg.system, cfg.pilot_seed)


def _scene(cfg: CampaignConfig, pilot, snr_db: float, seed: int) -> tuple[ChannelParamSet, np.ndarray, float]:
    """The channel drawn for ``seed``, its tensor and the noise variance at ``snr_db``."""
    chan = draw_channel(replace(cfg.channel, seed=seed))
    h = channel_tensor(chan, cfg.system)
    return chan, h, snr_to_n0(h, pilot, snr_db)


def _observe(cfg: CampaignConfig, pilot, h: np.ndarray, n0: float, noise_seed: int) -> np.ndarray:
    """The observation the ``cfg.mode`` estimator takes (digital: the response tensor)."""
    if cfg.mode == "digital":
        return receive_digital(h, pilot, n0, noise_seed)[1]
    return receive_hybrid(h, pilot, n0, noise_seed)


def _observation_shape(cfg: CampaignConfig) -> tuple[int, int, int]:
    """The shape of the tensor :func:`_observe` returns."""
    dims = cfg.system
    return dims.n_c, dims.n_s, dims.n_r if cfg.mode == "digital" else dims.d_r


def _estimate(cfg: CampaignConfig, pilot, obs: np.ndarray, estimator: EstimatorConfig) -> EstimationResult:
    estimate = estimate_digital if cfg.mode == "digital" else estimate_hybrid
    return estimate(obs, pilot, estimator)


def _run_one(cfg: CampaignConfig, pilot, snr_db: float, run_id: int) -> RunRecord:
    seed = cfg.base_seed + run_id
    chan, h, n0 = _scene(cfg, pilot, snr_db, seed)
    est_cfg = replace(cfg.estimator, cp=replace(cfg.estimator.cp, seed=seed + _SOLVER_SEED_OFFSET))
    t0 = time.perf_counter()
    try:
        result = _estimate(cfg, pilot, _observe(cfg, pilot, h, n0, seed + _NOISE_SEED_OFFSET), est_cfg)
        total_ms = 1e3 * (time.perf_counter() - t0)
        l_hat, rel_err, error = result.l_hat, relative_error(h, result.h_hat), ""
        cp_ms, mdl_ms, paths_ms = (1e3 * result.timings[k] for k in ("cp", "model_order", "per_path_total"))
    except Exception as exc:
        total_ms = 1e3 * (time.perf_counter() - t0)
        l_hat, rel_err, error = -1, 1.0, f"{type(exc).__name__}: {exc}"
        cp_ms = mdl_ms = paths_ms = 0.0
    return RunRecord(run_id, float(snr_db), chan.l, l_hat, rel_err, total_ms, cp_ms, mdl_ms, paths_ms, seed, error)


def run_campaign(cfg: CampaignConfig) -> tuple[list[RunRecord], list[SnrSummary]]:
    """Execute all SNR x run jobs; deterministic given the config seeds.

    Per-run estimator failures are contained as sentinel records
    (rel_err 1.0, the error message in the ``error`` column). Records come
    back sorted by (snr_db, run_id) regardless of completion order.
    """
    pilot = make_pilot(cfg)
    snrs, runs = zip(*[(float(snr), run) for snr in cfg.snr_db_list for run in range(cfg.mc_runs)])
    jobs = (repeat(cfg), repeat(pilot), snrs, runs)
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_run_one, *jobs, chunksize=1))
    else:
        records = list(map(_run_one, *jobs))
    records.sort(key=lambda r: (r.snr_db, r.run_id))

    summaries = []
    for snr in sorted(set(cfg.snr_db_list)):
        errs = [r.rel_err for r in records if r.snr_db == snr]
        counts = dict(Counter(r.l_hat for r in records if r.snr_db == snr))
        summaries.append(SnrSummary(float(snr), mean(errs), median(errs), counts))
    return records, summaries


def write_records_csv(path, records: list[RunRecord]) -> None:
    names = [f.name for f in fields(RunRecord)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in records:
            row = []
            for name in names:
                value = getattr(r, name)
                row.append(repr(float(value)) if isinstance(value, float) else value)
            writer.writerow(row)


def read_records_csv(path) -> list[RunRecord]:
    types = get_type_hints(RunRecord)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [RunRecord(**{f.name: types[f.name](row[f.name]) for f in fields(RunRecord)}) for row in rows]


def summary_lines(summaries: list[SnrSummary]) -> list[str]:
    lines = []
    for s in summaries:
        hist = " ".join(f"{k}:{v}" for k, v in sorted(s.l_hat_counts.items()))
        lines.append(
            f"snr_db={s.snr_db:g} mean_rel_err={s.mean_rel_err:.6g} "
            f"median_rel_err={s.median_rel_err:.6g} l_hat[{hist}]"
        )
    return lines


# ---------------------------------------------------------------------------
# single-path validation oracle
# ---------------------------------------------------------------------------


def _golden_max(f, lo: float, hi: float, steps: int) -> float:
    """Fixed-step golden-section maximization on [lo, hi]."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _tone_scan(matrix: np.ndarray, grid: np.ndarray, steps: int) -> float:
    """Frequency maximizing the matched-filter energy of a pure tone against
    the rows of ``matrix`` (columns collapse incoherently)."""
    n = matrix.shape[0]
    steer = np.exp(-1j * np.outer(grid, np.arange(n)))
    energy = np.sum(np.abs(steer @ matrix) ** 2, axis=1)
    w0 = float(grid[int(np.argmax(energy))])
    if steps == 0:
        return w0
    step = float(grid[1] - grid[0])

    def obj(w):
        v = np.exp(-1j * w * np.arange(n))
        return float(np.sum(np.abs(v @ matrix) ** 2))

    return _golden_max(obj, w0 - step, w0 + step, steps)


def _ratio_scan_2d(coupling: np.ndarray, weights: np.ndarray, grid: np.ndarray, steps: int) -> tuple[float, float]:
    """Maximize |sum_t conj(alpha_t) c_t|^2 / ||alpha||^2 with
    alpha_t(w, s) = e^{jtw} q_t(s), q = weights @ steer(s), over a 2-D grid
    followed by one golden pass per dimension."""
    n_rows, n_cols = weights.shape
    t_idx = np.arange(n_rows)

    def objective(w: float, s: float) -> float:
        q = weights @ np.exp(1j * s * np.arange(n_cols))
        denom = float(np.vdot(q, q).real)
        if denom == 0:
            return 0.0
        return float(np.abs(np.sum(np.conj(q) * coupling * np.exp(-1j * w * t_idx))) ** 2 / denom)

    steer_w = np.exp(-1j * np.outer(grid, t_idx))
    best_val, best_w, best_s = -1.0, 0.0, 0.0
    for s in grid:
        q = weights @ np.exp(1j * s * np.arange(n_cols))
        denom = float(np.vdot(q, q).real)
        if denom == 0:
            continue
        vals = np.abs(steer_w @ (np.conj(q) * coupling)) ** 2 / denom
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_w, best_s = float(vals[i]), float(grid[i]), float(s)
    if steps:
        step = float(grid[1] - grid[0])
        best_w = _golden_max(lambda w: objective(w, best_s), best_w - step, best_w + step, steps)
        best_s = _golden_max(lambda s: objective(best_w, s), best_s - step, best_s + step, steps)
    return best_w, best_s


def oracle_single_path(
    observation: np.ndarray,
    pilot,
    mode: str,
    grid_points_per_dim: int = 256,
    refine_steps: int = 20,
) -> PathParams:
    """Brute-force single-path estimate by exhaustive matched-filter search.

    Pure-tone modes are scanned with nested 1-D grids (exact for one path);
    the coupled pair is scanned on a 2-D grid. The best grid point is then
    refined with a fixed number of golden-section steps per dimension.
    Intended for L=1 scenes; independent of the estimation pipelines.
    """
    g = grid_points_per_dim
    grid = -np.pi + 2.0 * np.pi * np.arange(g) / g
    y = np.asarray(observation, dtype=complex)
    if mode == "digital":
        n_c, n_s, n_r = y.shape
        omega1 = _tone_scan(unfold(y, 0), grid, refine_steps)
        psi = _tone_scan(unfold(y, 2), grid, refine_steps)
        v1 = np.exp(1j * omega1 * np.arange(n_c))
        v3 = np.exp(1j * psi * np.arange(n_r))
        coupling = np.einsum("n,u,ntu->t", np.conj(v1), np.conj(v3), y) / (n_c * n_r)
        x = pilot.precoder
    elif mode == "hybrid":
        n_c, n_s, d_r = y.shape
        omega2 = _tone_scan(unfold(y, 1), grid, refine_steps)

        u2 = unfold(y, 2)
        responses = combiner_response(pilot.combiner, grid)
        energy = np.sum(np.abs(responses.conj().T @ u2) ** 2, axis=1) / np.sum(np.abs(responses) ** 2, axis=0)
        psi = float(grid[int(np.argmax(energy))])
        if refine_steps:
            step = float(grid[1] - grid[0])

            def psi_obj(p):
                r = combiner_response(pilot.combiner, p)
                return float(np.sum(np.abs(np.conj(r) @ u2) ** 2) / np.vdot(r, r).real)

            psi = _golden_max(psi_obj, psi - step, psi + step, refine_steps)
        v2 = np.exp(1j * omega2 * np.arange(n_s))
        r_psi = combiner_response(pilot.combiner, psi)
        coupling = np.einsum("t,m,ntm->n", np.conj(v2), np.conj(r_psi), y) / (n_s * float(np.vdot(r_psi, r_psi).real))
        x = pilot_waveform(pilot)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # The coupled pair: the tone over the rows of X and varsigma over its columns.
    tone, varsigma = _ratio_scan_2d(coupling, x, grid, refine_steps)
    alpha = np.exp(1j * tone * np.arange(x.shape[0])) * (x @ np.exp(1j * varsigma * np.arange(x.shape[1])))
    b = complex(np.vdot(alpha, coupling) / np.vdot(alpha, alpha).real)
    omega1, omega2 = (omega1, tone) if mode == "digital" else (tone, omega2)
    return PathParams(
        b,
        float(wrap_angle(omega1)),
        float(wrap_angle(omega2)),
        float(wrap_angle(psi)),
        float(wrap_angle(varsigma)),
    )


# ---------------------------------------------------------------------------
# path matching metric
# ---------------------------------------------------------------------------

_ANGLE_FIELDS = ("omega1", "omega2", "psi", "varsigma")


def match_paths(truth: ChannelParamSet, est: ChannelParamSet) -> MatchResult:
    """Optimal one-to-one truth/estimate assignment (Hungarian method) under
    summed wrapped angular distance, with per-parameter RMSE over the matched
    pairs."""
    if truth.l == 0 or est.l == 0:
        return MatchResult([], {k: float("nan") for k in _ANGLE_FIELDS}, list(range(truth.l)), list(range(est.l)))
    cost = np.zeros((truth.l, est.l))
    for i, p in enumerate(truth.paths):
        for j, q in enumerate(est.paths):
            cost[i, j] = sum(
                abs(float(wrap_angle(getattr(p, name) - getattr(q, name)))) for name in _ANGLE_FIELDS
            )
    rows, cols = linear_sum_assignment(cost)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    rmse = {}
    for name in _ANGLE_FIELDS:
        d = [float(wrap_angle(getattr(truth.paths[i], name) - getattr(est.paths[j], name))) for i, j in pairs]
        rmse[name] = float(np.sqrt(np.mean(np.square(d))))
    matched_t = {i for i, _ in pairs}
    matched_e = {j for _, j in pairs}
    return MatchResult(
        pairs,
        rmse,
        [i for i in range(truth.l) if i not in matched_t],
        [j for j in range(est.l) if j not in matched_e],
    )


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------


def parse_config(path) -> CampaignConfig:
    """Load a campaign description from a flat ``key = value`` file with
    sections [system] [channel] [pilot] [noise] [estimator] [mc] [output].
    ``;`` starts a comment; an omitted key takes its dataclass field's default,
    and a section or key this parser does not read is a :class:`ConfigError`."""
    # default_section="" lets no section supply defaults: [DEFAULT] is unknown like any other;
    # interpolation=None reads a '%' (as in an output path) literally.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), default_section="", interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    known: set[tuple[str, str]] = set()

    def get(section, key, cast, default):
        known.add((section, key))
        try:
            if parser.has_option(section, key):
                return cast(parser.get(section, key))
            return default
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def boolean(text: str) -> bool:
        if text.lower() not in parser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {text!r}")
        return parser.BOOLEAN_STATES[text.lower()]

    try:
        d = get("system", "d", int, 4)
        system = SystemDims(
            n_c=get("system", "n_c", int, 31),
            n_s=get("system", "n_s", int, 64),
            n_r=get("system", "n_r", int, 16),
            n_t=get("system", "n_t", int, 16),
            d_t=get("system", "d_t", int, d),
            d_r=get("system", "d_r", int, d),
        )
        mode = get("system", "mode", str, "digital").strip().lower()
        channel = ChannelGenConfig(
            l=get("channel", "l", int, 10),
            rician_noncentrality=get("channel", "rician_noncentrality", float, ChannelGenConfig.rician_noncentrality),
            rician_scale=get("channel", "rician_scale", float, ChannelGenConfig.rician_scale),
            los_boost_db=get("channel", "los_boost_db", float, ChannelGenConfig.los_boost_db),
            min_separation=get("channel", "min_separation", float, ChannelGenConfig.min_separation),
        )
        snr_raw = get("noise", "snr_db", str, "0, 10, 20, 30")
        snr_list = tuple(float(x) for x in snr_raw.replace(",", " ").split())
        estimator = EstimatorConfig(
            cp=CpSolveConfig(
                rank=1,
                max_iters=get("estimator", "cp_max_iters", int, CpSolveConfig.max_iters),
                rel_tol=get("estimator", "cp_rel_tol", float, CpSolveConfig.rel_tol),
                restarts=get("estimator", "cp_restarts", int, CpSolveConfig.restarts),
            ),
            # multiple starts guard against near-degenerate secondary peaks
            # of the hybrid departure/delay objective
            acd=AcdConfig(starts=get("estimator", "acd_starts", int, 4)),
            refine=get("estimator", "refine", boolean, EstimatorConfig.refine),
        )
        cfg = CampaignConfig(
            system=system,
            mode=mode,
            channel=channel,
            snr_db_list=snr_list,
            mc_runs=get("mc", "runs", int, CampaignConfig.mc_runs),
            estimator=estimator,
            output_path=get("output", "path", str, CampaignConfig.output_path),
            base_seed=get("mc", "base_seed", int, CampaignConfig.base_seed),
            pilot_seed=get("pilot", "seed", int, CampaignConfig.pilot_seed),
            workers=get("mc", "workers", int, CampaignConfig.workers),
        )
    except (ValueError, ConfigError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    sections = {section for section, _ in known}
    unknown = [f"section [{s}]" for s in parser.sections() if s not in sections]
    unknown += [
        f"key [{s}] {k}" for s in parser.sections() if s in sections for k in parser.options(s) if (s, k) not in known
    ]
    if unknown:
        raise ConfigError(f"{path}: unknown {', '.join(unknown)}")
    return cfg
