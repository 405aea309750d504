"""End-to-end CLI tests: subcommands, files, exit codes."""

import re

import numpy as np
import pytest

from cpchan.cli import main
from cpchan.fileio import load_params, load_tensor, save_tensor


@pytest.fixture
def digital_config(tmp_path):
    path = tmp_path / "digital.ini"
    path.write_text(
        "[system]\nmode = digital\nn_c = 8\nn_s = 8\nn_r = 8\nn_t = 4\nd = 1\n"
        "[channel]\nl = 1\nmin_separation = 0.8\n"
        "[noise]\nsnr_db = 200\n"
        "[estimator]\ncp_restarts = 2\n"
        "[mc]\nruns = 2\nbase_seed = 3\n"
        f"[output]\npath = {tmp_path / 'camp.csv'}\n"
    )
    return path


@pytest.fixture
def hybrid_config(tmp_path):
    path = tmp_path / "hybrid.ini"
    path.write_text(
        "[system]\nmode = hybrid\nn_c = 16\nn_s = 8\nn_r = 8\nn_t = 8\nd = 4\n"
        "[channel]\nl = 1\nmin_separation = 0.8\n"
        "[noise]\nsnr_db = 200\n"
        "[mc]\nruns = 2\nbase_seed = 5\n"
        f"[output]\npath = {tmp_path / 'camp_h.csv'}\n"
    )
    return path


def test_simulate_then_estimate(digital_config, tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["simulate", "-c", str(digital_config), "-o", str(out)]) == 0
    assert (out / "channel.cpt").exists()
    assert (out / "obs.cpt").exists()
    truth = load_params(out / "params.txt")
    assert truth.l == 1

    est_out = tmp_path / "est.txt"
    code = main(
        [
            "estimate",
            "-c",
            str(digital_config),
            "--observation",
            str(out / "obs.cpt"),
            "--truth",
            str(out / "channel.cpt"),
            "-o",
            str(est_out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "l_hat=1" in text
    rel_err = float([ln for ln in text.splitlines() if ln.startswith("rel_err=")][0].split("=")[1])
    assert rel_err <= 1e-6
    est = load_params(est_out)
    assert est.l == 1


def test_simulate_then_estimate_hybrid(hybrid_config, tmp_path, capsys):
    out = tmp_path / "scene_h"
    assert main(["simulate", "-c", str(hybrid_config), "-o", str(out)]) == 0
    obs = load_tensor(out / "obs.cpt")
    assert obs.shape == (16, 8, 4)
    code = main(
        [
            "estimate",
            "-c",
            str(hybrid_config),
            "--observation",
            str(out / "obs.cpt"),
            "--truth",
            str(out / "channel.cpt"),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    rel_err = float([ln for ln in text.splitlines() if ln.startswith("rel_err=")][0].split("=")[1])
    assert rel_err <= 1e-5


def test_campaign_writes_csv(digital_config, tmp_path, capsys):
    assert main(["campaign", "-c", str(digital_config)]) == 0
    csv_path = tmp_path / "camp.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("run_id,snr_db,")
    assert len(lines) == 3
    assert "median_rel_err" in capsys.readouterr().out


# One path as printed by ``estimate`` and ``oracle``.
_PATH_LINE = re.compile(r"b=\(\S+,\S+\) omega1=\S+ omega2=\S+ psi=\S+ varsigma=\S+")


# At --grid 128 the hybrid delay (omega1) error is about 1.3e-3, over the bound.
@pytest.mark.parametrize(
    "config, grid", [("digital_config", "128"), ("hybrid_config", "256")], ids=["digital", "hybrid"]
)
def test_oracle_subcommand(config, grid, tmp_path, capsys, request):
    config = str(request.getfixturevalue(config))
    out = tmp_path / "scene"
    main(["simulate", "-c", config, "-o", str(out)])
    assert main(["estimate", "-c", config, "--observation", str(out / "obs.cpt")]) == 0
    estimate_text = capsys.readouterr().out
    code = main(
        [
            "oracle",
            "-c",
            config,
            "--observation",
            str(out / "obs.cpt"),
            "--grid",
            grid,
            "--truth",
            str(out / "params.txt"),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    errs = [float(ln.split("=")[1]) for ln in text.splitlines() if ln.startswith("err_")]
    assert errs and max(errs) < 1e-3
    for printed in (estimate_text, text):
        paths = [ln for ln in printed.splitlines() if ln.startswith("b=")]
        assert len(paths) == 1 and _PATH_LINE.fullmatch(paths[0])


def test_missing_config_exit_code(tmp_path):
    assert main(["campaign", "-c", str(tmp_path / "nope.ini")]) == 2


def test_bad_config_value_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mc]\nruns = many\n")
    assert main(["campaign", "-c", str(path)]) == 2


def test_zero_cp_iterations_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[estimator]\ncp_max_iters = 0\n")
    assert main(["campaign", "-c", str(path)]) == 2


@pytest.mark.parametrize(
    "text", ["[mc]\nruns = 1\nbase_seed = -3\n", "[pilot]\nseed = -1\n"], ids=["base_seed", "pilot_seed"]
)
def test_negative_seed_exit_code(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["campaign", "-c", str(path)]) == 2


def _single_config_error(capsys, name=""):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and name in err[0]


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_non_finite_snr_exit_code(digital_config, tmp_path, capsys, snr):
    path = tmp_path / "snr.ini"
    path.write_text(digital_config.read_text().replace("snr_db = 200", f"snr_db = 10, {snr}"))
    assert main(["campaign", "-c", str(path)]) == 2
    _single_config_error(capsys)
    out = tmp_path / "scene"
    assert main(["simulate", "-c", str(digital_config), "-o", str(out), f"--snr-db={snr}"]) == 2
    _single_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("channel", "rician_noncentrality", "nan", "rician_noncentrality"),
        ("channel", "rician_scale", "inf", "rician_scale"),
        ("channel", "los_boost_db", "-inf", "los_boost_db"),
        ("channel", "min_separation", "nan", "min_separation"),
        ("estimator", "acd_rel_tol", "nan", "acd_rel_tol"),
    ],
)
def test_non_finite_config_float_exit_code(digital_config, tmp_path, capsys, section, key, value, named):
    text = re.sub(rf"^{key} = .*\n", "", digital_config.read_text(), flags=re.M)
    path = tmp_path / "nonfinite.ini"
    path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    assert main(["campaign", "-c", str(path)]) == 2
    _single_config_error(capsys, named)
    out = tmp_path / "scene"
    assert main(["simulate", "-c", str(path), "-o", str(out)]) == 2
    _single_config_error(capsys, named)
    assert not out.exists()


def _every_subcommand(config, observation):
    """The four subcommands on ``config``; each reads it before ``observation``."""
    obs = ["--observation", str(observation)]
    return [
        ["simulate", "-c", str(config)],
        ["estimate", "-c", str(config), *obs],
        ["campaign", "-c", str(config)],
        ["oracle", "-c", str(config), *obs],
    ]


@pytest.mark.parametrize(
    "section, line, named",
    [
        ("sytem", "mode = digital", "section [sytem]"),
        ("estimator", "cp_restart = 7", "key [estimator] cp_restart"),
        ("estimator", "acd_start = 1", "key [estimator] acd_start"),
        ("estimator", "acd_max_sweeps = 50", "key [estimator] acd_max_sweeps"),
        ("estimator", "acd_rel_tol = 1e-10", "key [estimator] acd_rel_tol"),
        ("estimator", "acd_grid_oversample = 8", "key [estimator] acd_grid_oversample"),
    ],
    ids=["sytem", "cp_restart", "acd_start", "acd_max_sweeps", "acd_rel_tol", "acd_grid_oversample"],
)
def test_unknown_config_key_exit_code(digital_config, tmp_path, capsys, section, line, named):
    text, header = digital_config.read_text(), f"[{section}]\n"
    path = tmp_path / "unknown.ini"
    path.write_text(text.replace(header, header + line + "\n") if header in text else text + header + line + "\n")
    for argv in _every_subcommand(path, tmp_path / "obs.cpt"):
        assert main(argv) == 2
        _single_config_error(capsys, named)
    assert not (tmp_path / "camp.csv").exists()


def test_config_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "latin.ini"
    path.write_bytes(b"[mc]\nruns = 2 ; \xe9t\xe9\n")
    for argv in _every_subcommand(path, tmp_path / "obs.cpt"):
        assert main(argv) == 2
        _single_config_error(capsys, "latin.ini")


def _single_io_error(capsys, *names):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and all(name in err[0] for name in names)


def test_malformed_observation_exit_code(digital_config, tmp_path, capsys):
    obs = tmp_path / "short.cpt"
    obs.write_bytes(b"CPT1\x03" + bytes(10))  # three extents need 24 header bytes
    for command in ("estimate", "oracle"):
        assert main([command, "-c", str(digital_config), "--observation", str(obs)]) == 3
        _single_io_error(capsys, "short.cpt")


def test_misshapen_observation_exit_code(digital_config, tmp_path, capsys):
    out = tmp_path / "scene"
    main(["simulate", "-c", str(digital_config), "-o", str(out)])
    for command in ("estimate", "oracle"):
        assert main([command, "-c", str(digital_config), "--observation", str(out / "channel.cpt")]) == 3
        _single_io_error(capsys, "channel.cpt", "(8, 8, 8)")


def test_misshapen_truth_exit_code(digital_config, tmp_path, capsys):
    out = tmp_path / "scene"
    main(["simulate", "-c", str(digital_config), "-o", str(out)])
    obs = str(out / "obs.cpt")
    assert main(["estimate", "-c", str(digital_config), "--observation", obs, "--truth", obs]) == 3
    _single_io_error(capsys, "obs.cpt", "(8, 8, 8, 4)")
    assert "l_hat=" not in capsys.readouterr().out


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tensor_exit_code(digital_config, tmp_path, capsys, bad):
    """A NaN or infinite entry in the observation or the truth is an I/O error
    naming the file, before any estimate runs."""
    out = tmp_path / "scene"
    main(["simulate", "-c", str(digital_config), "-o", str(out)])
    obs, truth = load_tensor(out / "obs.cpt"), load_tensor(out / "channel.cpt")
    obs[1, 2, 3] = bad
    truth[0, 0, 0, 1] = complex(0.0, bad)
    save_tensor(tmp_path / "bad_obs.cpt", obs)
    save_tensor(tmp_path / "bad_truth.cpt", truth)
    capsys.readouterr()
    good_obs, bad_obs, bad_truth = str(out / "obs.cpt"), str(tmp_path / "bad_obs.cpt"), str(tmp_path / "bad_truth.cpt")
    for argv, name in [
        (["estimate", "-c", str(digital_config), "--observation", bad_obs], "bad_obs.cpt"),
        (["estimate", "-c", str(digital_config), "--observation", good_obs, "--truth", bad_truth], "bad_truth.cpt"),
        (["oracle", "-c", str(digital_config), "--observation", bad_obs], "bad_obs.cpt"),
    ]:
        assert main(argv) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:") and name in err[0] and "non-finite" in err[0]
        assert captured.out == ""


@pytest.mark.parametrize("grid", ["0", "1"])
def test_oracle_grid_below_two_exit_code(digital_config, tmp_path, capsys, grid):
    out = tmp_path / "scene"
    main(["simulate", "-c", str(digital_config), "-o", str(out)])
    argv = ["oracle", "-c", str(digital_config), "--observation", str(out / "obs.cpt"), "--grid", grid]
    assert main(argv) == 2
    _single_config_error(capsys, "--grid")


@pytest.mark.parametrize("flag, line", [(["--workers", "-3"], ""), ([], "workers = 0\n")], ids=["flag", "config"])
def test_workers_below_one_exit_code(digital_config, tmp_path, capsys, flag, line):
    path = tmp_path / "workers.ini"
    path.write_text(digital_config.read_text().replace("[mc]\n", "[mc]\n" + line))
    assert main(["campaign", "-c", str(path), *flag]) == 2
    _single_config_error(capsys, "workers")
    assert not (tmp_path / "camp.csv").exists()


def test_malformed_params_exit_code(digital_config, tmp_path, capsys):
    out = tmp_path / "scene"
    main(["simulate", "-c", str(digital_config), "-o", str(out)])
    truth = tmp_path / "three.txt"
    truth.write_text("1.0 2.0 3.0\n")
    argv = ["oracle", "-c", str(digital_config), "--observation", str(out / "obs.cpt"), "--grid", "16"]
    assert main([*argv, "--truth", str(truth)]) == 3
    _single_io_error(capsys, "three.txt")
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"\x80 1.0 2.0 3.0 4.0 5.0\n")
    assert main([*argv, "--truth", str(latin)]) == 3
    _single_io_error(capsys, "latin.txt")


def test_missing_observation_exit_code(digital_config, tmp_path):
    code = main(
        ["estimate", "-c", str(digital_config), "--observation", str(tmp_path / "missing.cpt")]
    )
    assert code == 3


def test_campaign_unwritable_output_exit_code(digital_config, tmp_path):
    code = main(
        ["campaign", "-c", str(digital_config), "-o", str(tmp_path / "nodir" / "x.csv")]
    )
    assert code == 3
