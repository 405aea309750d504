"""Command-line front end.

Subcommands: ``simulate`` (emit tensors/params), ``estimate`` (one-shot on
files), ``campaign`` (Monte Carlo sweep to CSV), ``oracle`` (single-path
grid-search validation). Exit codes: 0 success, 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    _NOISE_SEED_OFFSET,
    CampaignConfig,
    ConfigError,
    _estimate,
    _observation_shape,
    _observe,
    _scene,
    make_pilot,
    match_paths,
    oracle_single_path,
    parse_config,
    relative_error,
    run_campaign,
    summary_lines,
    write_records_csv,
)
from .fileio import load_params, load_tensor, save_params, save_tensor
from .simchannel import ChannelParamSet, PathParams


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cpchan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a channel and emit tensors/params")
    p_sim.add_argument("-c", "--config", required=True)
    p_sim.add_argument("-o", "--out-dir", default=".")
    p_sim.add_argument("--snr-db", type=float, default=None, help="override the first configured SNR")

    p_est = sub.add_parser("estimate", help="run the estimator on an observation file")
    p_est.add_argument("-c", "--config", required=True)
    p_est.add_argument("--observation", required=True)
    p_est.add_argument("--truth", default=None, help="CPT1 channel tensor for the error report")
    p_est.add_argument("-o", "--params-out", default=None)

    p_camp = sub.add_parser("campaign", help="Monte Carlo campaign to CSV")
    p_camp.add_argument("-c", "--config", required=True)
    p_camp.add_argument("-o", "--output", default=None, help="override [output] path")
    p_camp.add_argument("--workers", type=int, default=None, help="override [mc] workers")

    p_orc = sub.add_parser("oracle", help="brute-force single-path estimate")
    p_orc.add_argument("-c", "--config", required=True)
    p_orc.add_argument("--observation", required=True)
    p_orc.add_argument("--grid", type=int, default=256)
    p_orc.add_argument("--truth", default=None, help="parameter text file to compare against")
    return parser


def _path_line(p: PathParams) -> str:
    return (
        f"b=({p.b.real:.6g},{p.b.imag:.6g}) omega1={p.omega1:.6g} "
        f"omega2={p.omega2:.6g} psi={p.psi:.6g} varsigma={p.varsigma:.6g}"
    )


def _read(load, path):
    """``load(path)``, reporting a malformed file as an I/O error like a missing one."""
    try:
        return load(path)
    except ValueError as exc:
        raise OSError(str(exc)) from exc


def _read_tensor(path, shape: tuple[int, ...]):
    """The CPT1 tensor at ``path``; one of another shape or with a NaN or
    infinite entry is an I/O error too."""
    t = _read(load_tensor, path)
    if t.shape != shape:
        raise OSError(f"{path}: expected a tensor of shape {shape}, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise OSError(f"{path}: {np.count_nonzero(~np.isfinite(t))} non-finite entries")
    return t


def _cmd_simulate(cfg: CampaignConfig, args) -> int:
    if args.snr_db is not None:
        cfg = replace(cfg, snr_db_list=(args.snr_db,))
    snr_db = cfg.snr_db_list[0]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pilot = make_pilot(cfg)
    # the scene and the noise of campaign run 0
    chan, h, n0 = _scene(cfg, pilot, snr_db, cfg.base_seed)
    obs = _observe(cfg, pilot, h, n0, cfg.base_seed + _NOISE_SEED_OFFSET)
    save_tensor(out / "channel.cpt", h)
    save_tensor(out / "obs.cpt", obs)
    save_params(out / "params.txt", chan)
    print(f"wrote channel.cpt obs.cpt params.txt to {out} (mode={cfg.mode}, snr_db={snr_db:g})")
    return 0


def _cmd_estimate(cfg: CampaignConfig, args) -> int:
    obs = _read_tensor(args.observation, _observation_shape(cfg))
    dims = cfg.system
    h = _read_tensor(args.truth, (dims.n_c, dims.n_s, dims.n_r, dims.n_t)) if args.truth else None
    result = _estimate(cfg, make_pilot(cfg), obs, cfg.estimator)
    print(f"l_hat={result.l_hat}")
    for name, secs in result.timings.items():
        print(f"time_{name}_ms={1e3 * secs:.3f}")
    if h is not None:
        print(f"rel_err={relative_error(h, result.h_hat):.6g}")
    if args.params_out:
        save_params(args.params_out, result.params)
        print(f"wrote {args.params_out}")
    else:
        for p in result.params.paths:
            print(_path_line(p))
    return 0


def _cmd_campaign(cfg: CampaignConfig, args) -> int:
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    records, summaries = run_campaign(cfg)
    out_path = args.output or cfg.output_path
    write_records_csv(out_path, records)
    for line in summary_lines(summaries):
        print(line)
    failures = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} records to {out_path} ({failures} failed runs)")
    return 0


def _cmd_oracle(cfg: CampaignConfig, args) -> int:
    if args.grid < 2:
        raise ConfigError(f"--grid must be >= 2, got {args.grid}")
    obs = _read_tensor(args.observation, _observation_shape(cfg))
    pilot = make_pilot(cfg)
    est = oracle_single_path(obs, pilot, cfg.mode, grid_points_per_dim=args.grid)
    print(_path_line(est))
    if args.truth:
        truth = _read(load_params, args.truth)
        result = match_paths(truth, ChannelParamSet([est]))
        for name, value in result.rmse.items():
            print(f"err_{name}={value:.6g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args)
        if args.command == "estimate":
            return _cmd_estimate(cfg, args)
        if args.command == "campaign":
            return _cmd_campaign(cfg, args)
        return _cmd_oracle(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
