"""Tests of the benchmark itself: seeded inputs, tracer transparency, the
correctness gate and the reported metric names and units.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scenes  # noqa: E402
import tracing  # noqa: E402
from cpchan import cpsolver, harmonic, pipelines  # noqa: E402
from cpchan.simchannel import SystemDims  # noqa: E402

TINY = {
    "digital": scenes.Workload("tiny-digital", "digital", 2, 20.0, 0.5, SystemDims(7, 12, 6, 4)),
    "hybrid": scenes.Workload("tiny-hybrid", "hybrid", 2, 20.0, 0.5, SystemDims(9, 8, 4, 4, d_t=2, d_r=2)),
}


def _inputs(w, seed, index):
    pilot = scenes.make_pilot(w, seed)
    scene = scenes.make_scene(w, pilot, seed, index)
    pilot_arrays = [np.asarray(v) for v in vars(pilot).values()]
    return pilot_arrays + [scene.h, scene.observation, np.array(scene.solver_seed)]


@pytest.mark.parametrize("name", sorted(scenes.WORKLOADS))
def test_same_seed_gives_bit_identical_inputs(name):
    w = scenes.WORKLOADS[name]
    first, again = _inputs(w, 3, 1), _inputs(w, 3, 1)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(first, again))
    other_scene = _inputs(w, 3, 2)
    held_out = _inputs(w, 101, 1)
    assert not np.array_equal(first[-2], other_scene[-2])
    assert not np.array_equal(first[-2], held_out[-2])


@pytest.mark.parametrize("receiver", ["digital", "hybrid"])
def test_traced_estimate_is_bit_identical_and_wrappers_are_removed(receiver):
    w = TINY[receiver]
    pilot = scenes.make_pilot(w, 0)
    scene = scenes.make_scene(w, pilot, 0, 0)
    originals = {(m.__name__, attr): getattr(m, attr) for m, attr, _ in tracing.INSTALL_POINTS}
    plain = scenes.estimate(w, pilot, scene)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = scenes.estimate(w, pilot, scene)
    assert np.array_equal(plain.h_hat, traced.h_hat)
    assert {(m.__name__, attr): getattr(m, attr) for m, attr, _ in tracing.INSTALL_POINTS} == originals

    metrics = tracing.layer_metrics(tracer, [traced])
    assert metrics["cpsolver.cp_als.calls"][0] == 1
    assert metrics["harmonic.acd_2d.calls"][0] == traced.l_hat
    assert metrics["tensors.khatri_rao.calls"][0] > 0
    assert metrics["harmonic.steps_per_acd"][0] > 0
    assert metrics["pipelines.self_s"][0] >= 0
    psi = metrics["pipelines.estimate_psi_hybrid.s"][0]
    assert (psi > 0) == (receiver == "hybrid")


def test_tracer_restores_originals_when_the_estimate_raises():
    tracer = tracing.Tracer()
    before = (pipelines.cp_als, cpsolver.khatri_rao, harmonic.max_unit_circle)
    with pytest.raises(ValueError):
        with tracer.installed():
            pipelines.estimate_digital(np.zeros((2, 2)), None)
    assert (pipelines.cp_als, cpsolver.khatri_rao, harmonic.max_unit_circle) == before


def test_check_flags_wrong_outputs():
    w = scenes.WORKLOADS["digital-L1-0dB"]
    good = [scenes.Score(0.01, True, 1, 1e-6)] * 3
    bad = [scenes.Score(1.0, False, 1, 1.0)] * 3
    assert scenes.check(w, good, failed=0) == []
    assert scenes.check(w, bad, failed=0)
    assert scenes.check(w, good, failed=1)
    assert scenes.check(w, good, failed=0, mismatches=1)
    assert scenes.check(w, [], failed=0)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "digital-L1-0dB",
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines[:-1]), name
