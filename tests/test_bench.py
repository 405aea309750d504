"""Benchmark harness tests: campaigns, CSV contract, oracle, path matching."""

import itertools
import re
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpchan import bench, simchannel as sc
from cpchan.cpsolver import CpSolveConfig
from cpchan.harmonic import AcdConfig
from cpchan.pipelines import EstimatorConfig, estimate_digital
from cpchan.simchannel import wrap_angle


def _small_campaign(tmp_path, mode="digital", snrs=(200.0,), runs=2, l=1, workers=1):
    if mode == "digital":
        system = sc.SystemDims(8, 8, 8, 4)
    else:
        system = sc.SystemDims(16, 8, 8, 8, d_t=4, d_r=4)
    return bench.CampaignConfig(
        system=system,
        mode=mode,
        channel=sc.ChannelGenConfig(l=l, min_separation=0.8),
        snr_db_list=tuple(snrs),
        mc_runs=runs,
        estimator=EstimatorConfig(
            cp=CpSolveConfig(rank=1, max_iters=500, rel_tol=1e-10, restarts=2),
            acd=AcdConfig(starts=2),
        ),
        output_path=str(tmp_path / "out.csv"),
        base_seed=7,
    )


# --- run_campaign ---------------------------------------------------------------


def test_campaign_record_grid_and_determinism(tmp_path):
    cfg = _small_campaign(tmp_path, snrs=(10.0, 200.0), runs=2)
    records, summaries = bench.run_campaign(cfg)
    assert len(records) == 4
    assert [(r.snr_db, r.run_id) for r in records] == [(10.0, 0), (10.0, 1), (200.0, 0), (200.0, 1)]
    records2, _ = bench.run_campaign(cfg)
    for a, b in zip(records, records2):
        assert (a.rel_err, a.l_hat, a.seed, a.error) == (b.rel_err, b.l_hat, b.seed, b.error)
    assert {s.snr_db for s in summaries} == {10.0, 200.0}


def test_campaign_noiseless_single_path_accuracy(tmp_path):
    cfg = _small_campaign(tmp_path, snrs=(200.0,), runs=4)
    records, _ = bench.run_campaign(cfg)
    for r in records:
        assert r.error == ""
        assert r.rel_err <= 1e-6


def test_campaign_summary_matches_records(tmp_path):
    cfg = _small_campaign(tmp_path, snrs=(20.0,), runs=5, l=2)
    records, summaries = bench.run_campaign(cfg)
    errs = [r.rel_err for r in records]
    assert summaries[0].mean_rel_err == pytest.approx(float(np.mean(errs)))
    assert summaries[0].median_rel_err == pytest.approx(float(np.median(errs)))
    assert sum(summaries[0].l_hat_counts.values()) == 5


def test_campaign_failure_containment(tmp_path, monkeypatch):
    cfg = _small_campaign(tmp_path, runs=2)

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(bench, "estimate_digital", boom)
    records, _ = bench.run_campaign(cfg)
    assert all(r.rel_err == 1.0 for r in records)
    assert all("forced failure" in r.error for r in records)
    assert all(r.l_hat == -1 for r in records)


def test_receive_step_is_not_timed(tmp_path, monkeypatch):
    real_observe = bench._observe

    def slow_observe(*args):
        time.sleep(0.2)
        return real_observe(*args)

    monkeypatch.setattr(bench, "_observe", slow_observe)
    records, _ = bench.run_campaign(_small_campaign(tmp_path, runs=1))
    assert records[0].error == ""
    assert 0 < records[0].time_total_ms < 200


def test_receive_failure_is_contained(tmp_path, monkeypatch):
    def boom(*args):
        raise RuntimeError("receive failed")

    monkeypatch.setattr(bench, "_observe", boom)
    records, _ = bench.run_campaign(_small_campaign(tmp_path, runs=2))
    for r in records:
        assert (r.l_hat, r.rel_err, r.time_total_ms) == (-1, 1.0, 0.0)
        assert r.error == "RuntimeError: receive failed"


def test_campaign_parallel_matches_serial(tmp_path):
    cfg = _small_campaign(tmp_path, snrs=(30.0,), runs=3)
    serial, _ = bench.run_campaign(cfg)
    from dataclasses import replace

    parallel, _ = bench.run_campaign(replace(cfg, workers=2))
    for a, b in zip(serial, parallel):
        assert (a.run_id, a.snr_db, a.rel_err, a.l_hat, a.seed) == (
            b.run_id,
            b.snr_db,
            b.rel_err,
            b.l_hat,
            b.seed,
        )


def test_campaign_hybrid_mode(tmp_path):
    cfg = _small_campaign(tmp_path, mode="hybrid", runs=2)
    records, _ = bench.run_campaign(cfg)
    for r in records:
        assert r.error == ""
        assert r.rel_err <= 1e-5


# --- CSV -------------------------------------------------------------------------


def test_csv_roundtrip_and_header(tmp_path):
    cfg = _small_campaign(tmp_path, snrs=(15.0,), runs=2, l=2)
    records, _ = bench.run_campaign(cfg)
    path = tmp_path / "records.csv"
    bench.write_records_csv(path, records)
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[0] == (
        "run_id,snr_db,l_true,l_hat,rel_err,time_total_ms,time_cp_ms,"
        "time_mdl_ms,time_paths_ms,seed,error"
    )
    back = bench.read_records_csv(path)
    for a, b in zip(records, back):
        assert a == b


def test_csv_roundtrip_of_failure_records(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError('bad pilot, "quoted" text')

    monkeypatch.setattr(bench, "estimate_digital", boom)
    records, _ = bench.run_campaign(_small_campaign(tmp_path, runs=2))
    for r in records:
        assert (r.l_hat, r.rel_err, r.time_cp_ms, r.time_mdl_ms, r.time_paths_ms) == (-1, 1.0, 0.0, 0.0, 0.0)
        assert r.error == 'RuntimeError: bad pilot, "quoted" text'
    path = tmp_path / "failed.csv"
    bench.write_records_csv(path, records)
    assert bench.read_records_csv(path) == records


def test_csv_deterministic_modulo_timing(tmp_path):
    cfg = _small_campaign(tmp_path, snrs=(12.0,), runs=2, l=2)
    paths = []
    for k in range(2):
        records, _ = bench.run_campaign(cfg)
        p = tmp_path / f"run{k}.csv"
        bench.write_records_csv(p, records)
        paths.append(p)

    def strip_timing(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        keep = [i for i, name in enumerate(header) if name not in bench.TIMING_COLUMNS]
        return ["\x1f".join(line.split(",")[i] for i in keep) for line in lines]

    assert strip_timing(paths[0]) == strip_timing(paths[1])


# --- oracle ----------------------------------------------------------------------


def _single_path_scene(seed, dims, snr_db=None, grid_aligned=None):
    rng = np.random.default_rng(seed)
    if grid_aligned is not None:
        g = grid_aligned
        idx = rng.integers(0, g, size=4)
        vals = -np.pi + 2 * np.pi * idx / g
    else:
        vals = rng.uniform(-np.pi, np.pi, 4)
    path = sc.PathParams(1.0 + 0.5j, *[float(v) for v in vals])
    chan = sc.ChannelParamSet([path])
    h = sc.channel_tensor(chan, dims)
    pilot = sc.make_pilot_digital(dims, seed=0)
    n0 = 0.0 if snr_db is None else sc.snr_to_n0(h, pilot, snr_db)
    _, a = sc.receive_digital(h, pilot, n0, seed)
    return path, pilot, a


def test_oracle_exact_on_grid_aligned_frequencies():
    dims = sc.SystemDims(8, 8, 8, 4)
    path, pilot, a = _single_path_scene(1, dims, grid_aligned=64)
    est = bench.oracle_single_path(a, pilot, "digital", grid_points_per_dim=64, refine_steps=0)
    for name in ("omega1", "omega2", "psi", "varsigma"):
        assert abs(wrap_angle(getattr(est, name) - getattr(path, name))) < 1e-9


def test_oracle_offgrid_within_resolution():
    dims = sc.SystemDims(8, 8, 8, 4)
    path, pilot, a = _single_path_scene(2, dims)
    est = bench.oracle_single_path(a, pilot, "digital", grid_points_per_dim=256, refine_steps=0)
    for name in ("omega1", "omega2", "psi", "varsigma"):
        assert abs(wrap_angle(getattr(est, name) - getattr(path, name))) <= 2 * np.pi / 256


def test_oracle_refinement_tightens():
    dims = sc.SystemDims(8, 8, 8, 4)
    path, pilot, a = _single_path_scene(3, dims)
    est = bench.oracle_single_path(a, pilot, "digital", grid_points_per_dim=256, refine_steps=20)
    for name in ("omega1", "omega2", "psi", "varsigma"):
        assert abs(wrap_angle(getattr(est, name) - getattr(path, name))) <= 1e-4


def test_oracle_hybrid_mode():
    dims = sc.SystemDims(16, 8, 8, 8, d_t=4, d_r=4)
    rng = np.random.default_rng(4)
    path = sc.PathParams(0.8 - 0.3j, *[float(v) for v in rng.uniform(-2.5, 2.5, 4)])
    h = sc.channel_tensor(sc.ChannelParamSet([path]), dims)
    pilot = sc.make_pilot_hybrid(dims, seed=0)
    y = sc.receive_hybrid(h, pilot, 0.0)
    est = bench.oracle_single_path(y, pilot, "hybrid", grid_points_per_dim=256)
    for name in ("omega1", "omega2", "psi", "varsigma"):
        assert abs(wrap_angle(getattr(est, name) - getattr(path, name))) <= 1e-3


def test_oracle_agrees_with_pipeline_at_20db():
    dims = sc.SystemDims(16, 16, 16, 16)
    agree = 0
    for seed in range(10):
        chan = sc.draw_channel(sc.ChannelGenConfig(l=1, seed=seed))
        h = sc.channel_tensor(chan, dims)
        pilot = sc.make_pilot_digital(dims, seed=0)
        n0 = sc.snr_to_n0(h, pilot, 20.0)
        _, a = sc.receive_digital(h, pilot, n0, 100 + seed)
        est = estimate_digital(
            a, pilot, EstimatorConfig(cp=CpSolveConfig(rank=1, restarts=2))
        )
        orc = bench.oracle_single_path(a, pilot, "digital")
        p, q = est.params.paths[0], orc
        ok = all(
            abs(wrap_angle(getattr(p, name) - getattr(q, name))) <= 5e-3
            for name in ("omega1", "omega2", "psi", "varsigma")
        )
        agree += ok
    assert agree >= 9


def test_oracle_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        bench.oracle_single_path(np.zeros((2, 2, 2)), None, "analog")


def test_pipeline_matches_oracle_noiseless_within_grid_resolution():
    dims = sc.SystemDims(16, 16, 16, 16)
    path, pilot, a = _single_path_scene(9, dims)
    res = estimate_digital(a, pilot, EstimatorConfig(cp=CpSolveConfig(rank=1, restarts=1)))
    orc = bench.oracle_single_path(a, pilot, "digital", grid_points_per_dim=256, refine_steps=0)
    p = res.params.paths[0]
    for name in ("omega1", "omega2", "psi", "varsigma"):
        assert abs(wrap_angle(getattr(p, name) - getattr(orc, name))) <= 2 * np.pi / 256


def test_cp_stage_runtime_share_soft():
    """CP decomposition is expected to dominate the runtime at full-scale
    dims.

    Soft check: emits a warning instead of failing, since the balance is
    hardware- and BLAS-dependent."""
    import warnings

    system = sc.SystemDims(31, 64, 16, 16)
    pilot = sc.make_pilot_digital(system, seed=0)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=10, seed=1))
    h = sc.channel_tensor(chan, system)
    n0 = sc.snr_to_n0(h, pilot, 20.0)
    _, a = sc.receive_digital(h, pilot, n0, 2)
    res = estimate_digital(
        a, pilot, EstimatorConfig(cp=CpSolveConfig(rank=1, max_iters=300, rel_tol=1e-7, restarts=2))
    )
    total = sum(res.timings.values())
    share = res.timings["cp"] / total
    if share <= 0.5:
        warnings.warn(f"CP stage share of runtime is {share:.2f} (expected > 0.5)", stacklevel=1)


# --- match_paths -------------------------------------------------------------------


def test_match_identical_permuted_sets():
    chan = sc.draw_channel(sc.ChannelGenConfig(l=4, seed=5))
    shuffled = sc.ChannelParamSet([chan.paths[i] for i in (2, 0, 3, 1)])
    result = bench.match_paths(chan, shuffled)
    assert sorted(result.pairs) == [(0, 1), (1, 3), (2, 0), (3, 2)]
    for value in result.rmse.values():
        assert value == pytest.approx(0.0, abs=1e-15)
    assert result.unmatched_truth == [] and result.unmatched_est == []


def test_match_wrapped_distance():
    truth = sc.ChannelParamSet([sc.PathParams(1.0, 0.0, 0.0, np.pi - 0.01, 0.0)])
    est = sc.ChannelParamSet([sc.PathParams(1.0, 0.0, 0.0, -np.pi + 0.01, 0.0)])
    result = bench.match_paths(truth, est)
    assert result.rmse["psi"] == pytest.approx(0.02, abs=1e-12)


def test_match_optimal_vs_bruteforce_permutations():
    """Factorial oracle: enumerate all permutations for small L."""
    rng = np.random.default_rng(6)
    for trial in range(10):
        l = int(rng.integers(2, 6))
        truth = sc.draw_channel(sc.ChannelGenConfig(l=l, seed=int(rng.integers(1e6))))
        est = sc.draw_channel(sc.ChannelGenConfig(l=l, seed=int(rng.integers(1e6))))

        def cost_of(perm):
            total = 0.0
            for i, j in enumerate(perm):
                for name in ("omega1", "omega2", "psi", "varsigma"):
                    total += abs(
                        float(
                            wrap_angle(
                                getattr(truth.paths[i], name) - getattr(est.paths[j], name)
                            )
                        )
                    )
            return total

        best = min(cost_of(p) for p in itertools.permutations(range(l)))
        result = bench.match_paths(truth, est)
        got = cost_of([j for _, j in sorted(result.pairs)])
        assert got == pytest.approx(best, rel=1e-12)


def test_match_unequal_sizes():
    truth = sc.draw_channel(sc.ChannelGenConfig(l=3, seed=7))
    est = sc.ChannelParamSet(truth.paths[:2])
    result = bench.match_paths(truth, est)
    assert len(result.pairs) == 2
    assert len(result.unmatched_truth) == 1
    assert result.unmatched_est == []


def test_relative_error_of_truth_is_zero():
    dims = sc.SystemDims(8, 8, 4, 4)
    chan = sc.draw_channel(sc.ChannelGenConfig(l=2, seed=8))
    h = sc.channel_tensor(chan, dims)
    assert bench.relative_error(h, sc.channel_tensor(chan, dims)) == 0.0


# --- config parsing -----------------------------------------------------------------


def test_parse_config_defaults(tmp_path):
    path = tmp_path / "min.ini"
    path.write_text("[system]\nmode = digital\n")
    cfg = bench.parse_config(path)
    assert (cfg.system.n_c, cfg.system.n_s, cfg.system.n_r, cfg.system.n_t) == (31, 64, 16, 16)
    assert cfg.system.d_t == cfg.system.d_r == 4
    assert cfg.channel.l == 10
    assert cfg.mc_runs == 128
    assert cfg.snr_db_list == (0.0, 10.0, 20.0, 30.0)
    assert cfg.estimator.cp == CpSolveConfig(rank=1)


def test_parse_config_overrides(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(
        "[system]\nmode = hybrid\nn_c = 16\nn_s = 8\nn_r = 8\nn_t = 8\nd = 4\n"
        "[channel]\nl = 2\nmin_separation = 0.5\n"
        "[noise]\nsnr_db = 5, 15\n"
        "[estimator]\ncp_restarts = 3\nrefine = false\n"
        "[mc]\nruns = 4\nbase_seed = 99\n"
        "[output]\npath = out.csv\n"
    )
    cfg = bench.parse_config(path)
    assert cfg.mode == "hybrid"
    assert cfg.system.n_a_r == 2
    assert cfg.channel.min_separation == 0.5
    assert cfg.snr_db_list == (5.0, 15.0)
    assert cfg.estimator.cp.restarts == 3
    assert cfg.estimator.refine is False
    assert cfg.mc_runs == 4
    assert cfg.base_seed == 99


def test_parse_config_percent_read_literally(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[output]\npath = runs/50%.csv\n")
    assert bench.parse_config(path).output_path == "runs/50%.csv"


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(bench.ConfigError, match="not found"):
        bench.parse_config(tmp_path / "nope.ini")


def test_parse_config_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mc]\nruns = soon\n")
    with pytest.raises(bench.ConfigError):
        bench.parse_config(path)


@pytest.mark.parametrize("line", ["cp_max_iters = 0", "cp_rel_tol = -1e-8"])
def test_parse_config_cp_solver_out_of_range(tmp_path, line):
    path = tmp_path / "bad.ini"
    path.write_text(f"[estimator]\n{line}\n")
    with pytest.raises(bench.ConfigError):
        bench.parse_config(path)


@pytest.mark.parametrize("word, refine", [("off", False), ("No", False), ("on", True), ("1", True)])
def test_parse_config_refine_boolean_words(tmp_path, word, refine):
    path = tmp_path / "c.ini"
    path.write_text(f"[estimator]\nrefine = {word}\n")
    assert bench.parse_config(path).estimator.refine is refine


def test_parse_config_refine_typo_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[estimator]\nrefine = ture\n")
    with pytest.raises(bench.ConfigError, match="refine"):
        bench.parse_config(path)


def test_parse_config_bad_mode(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\nmode = quantum\n")
    with pytest.raises(bench.ConfigError, match="mode"):
        bench.parse_config(path)


def test_readme_config_block_is_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block, minimal = tmp_path / "readme.ini", tmp_path / "min.ini"
    block.write_text(re.search(r"```ini\n(.*?)```", readme, flags=re.S).group(1))
    minimal.write_text("[system]\nmode = digital\n")
    assert bench.parse_config(block) == bench.parse_config(minimal)


@pytest.mark.parametrize(
    "text, named",
    [
        ("[estimator]\ncp_restart = 7\n", "key [estimator] cp_restart"),
        ("[sytem]\nmode = digital\n", "section [sytem]"),
        ("[DEFAULT]\nruns = 2\n", "section [DEFAULT]"),
        ("[estimator]\nacd_max_sweeps = 50\n", "key [estimator] acd_max_sweeps"),
        ("[estimator]\nacd_rel_tol = 1e-10\n", "key [estimator] acd_rel_tol"),
        ("[estimator]\nacd_grid_oversample = 8\n", "key [estimator] acd_grid_oversample"),
    ],
    ids=["cp_restart", "sytem", "DEFAULT", "acd_max_sweeps", "acd_rel_tol", "acd_grid_oversample"],
)
def test_parse_config_unknown_key_rejected(tmp_path, text, named):
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(bench.ConfigError, match=re.escape(named)):
        bench.parse_config(path)

