"""Set-ups, the timed closed loop, the traced loop and the report.

Imported by ``run.py`` after it has fixed the BLAS thread count, so numpy
loads with that setting.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import scenes
import tracing

SETUPS = 3
SETUP_TIMEOUT_S = 60
REFERENCE_SAMPLES_AFTER_SETUP = 5
# The speed of the shared machine the bounds were set on wanders by up to 30 %
# over minutes, and the estimator's time follows the reference kernel below
# (their ratio spreads about a third as much as either). End-to-end times are
# therefore reported at a fixed nominal speed: raw seconds times
# REFERENCE_NOMINAL_S over the run's median reference time, which is about
# what the reference takes on a shared 2-core x86-64 machine.
REFERENCE_NOMINAL_S = 0.035
_REFERENCE_MATRICES = np.random.default_rng(0).standard_normal((4, 126, 126))


def _machine_info(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def _reference_seconds() -> float:
    """Time of a fixed kernel that does not touch cpchan: small eigensolves,
    as in the exact 1-D step, and an interpreted loop."""
    t0 = time.perf_counter()
    for m in _REFERENCE_MATRICES:
        np.linalg.eigvals(m)
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t0


def _speed_factor(reference_times) -> float:
    return REFERENCE_NOMINAL_S / statistics.median(reference_times)


def _timed_estimate(w, pilot, scene):
    """Run one estimate and score it; returns (seconds, result, score, error)."""
    t0 = time.perf_counter()
    try:
        result = scenes.estimate(w, pilot, scene)
    except Exception as exc:  # a failing estimate is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - t0, None, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        return seconds, result, scenes.score(scene, result), None
    except ValueError as exc:
        return seconds, result, None, str(exc)


def _cold_setup(w, seed: int, index: int, process_start: float):
    """Pilot build and the first estimate of this process, on scene ``index``.

    Returns the set-up time (process start to the end of the cold estimate,
    minus the untimed scene generation) at nominal speed, the pilot, the
    score and any error.
    """
    pilot = scenes.make_pilot(w, seed)
    t0 = time.perf_counter()
    scene = scenes.make_scene(w, pilot, seed, index)
    generation = time.perf_counter() - t0
    _, _, score, error = _timed_estimate(w, pilot, scene)
    setup_s = time.perf_counter() - process_start - generation
    factor = _speed_factor([_reference_seconds() for _ in range(REFERENCE_SAMPLES_AFTER_SETUP)])
    return setup_s * factor, pilot, score, error


def _setup_in_fresh_process(args, index: int):
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-index", str(index)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        return None, None, f"set-up process {index}: {exc} {getattr(exc, 'stderr', None) or ''}"
    return out["setup_s"], scenes.Score(**out["score"]) if out["score"] else None, out["error"]


def _end_to_end(args, w, process_start):
    setup_s, pilot, score, error = _cold_setup(w, args.seed, 0, process_start)
    setups, scores, errors = [setup_s], [score] if score else [], [error] if error else []
    for index in range(1, SETUPS):
        setup_s, score, error = _setup_in_fresh_process(args, index)
        setups += [setup_s] if setup_s is not None else []
        scores += [score] if score else []
        errors += [error] if error else []

    times, references, completed = [], [], 0
    index = SETUPS
    while not times or sum(times) < args.seconds:
        scene = scenes.make_scene(w, pilot, args.seed, index)
        references.append(_reference_seconds())
        seconds, _, score, error = _timed_estimate(w, pilot, scene)
        times.append(seconds)
        completed += error is None
        scores += [score] if score else []
        errors += [error] if error else []
        index += 1

    factor = _speed_factor(references)
    metrics = {
        "estimate_s_p50": (statistics.median(times) * factor, "s"),
        "estimates_per_s": (completed / sum(times) / factor, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"timed estimates: {len(times)}; set-ups: {len(setups)}")
    print(f"raw: estimate_s_p50 = {statistics.median(times):.6g} s, estimates_per_s = {completed / sum(times):.6g} 1/s; "
          f"reference kernel median {statistics.median(references) * 1e3:.4g} ms, speed factor {factor:.4g}")
    return metrics, scores, errors, index, 0


def _per_layer(args, w, process_start):
    _, pilot, score, error = _cold_setup(w, args.seed, 0, process_start)
    scores, errors = [score] if score else [], [error] if error else []
    tracer = tracing.Tracer()
    traced, plain_s, traced_s, mismatches = [], 0.0, 0.0, 0
    index = 1
    while not traced or plain_s + traced_s < args.seconds:
        scene = scenes.make_scene(w, pilot, args.seed, index)
        index += 1
        seconds, plain, score, error = _timed_estimate(w, pilot, scene)
        plain_s += seconds
        if error:
            errors.append(error)
            continue
        scores.append(score)
        with tracer.installed():
            t0 = time.perf_counter()
            result = scenes.estimate(w, pilot, scene)
            traced_s += time.perf_counter() - t0
        traced.append(result)
        mismatches += not np.array_equal(plain.h_hat, result.h_hat)

    metrics = tracing.layer_metrics(tracer, traced)
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")  # untraced estimates/s over traced
    print(f"traced estimates: {len(traced)}")
    return metrics, scores, errors, index + len(traced), mismatches


def run(args, process_start: float, blas_threads: int) -> int:
    w = scenes.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(scenes.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_index is not None:
        setup_s, _, score, error = _cold_setup(w, args.seed, args.setup_index, process_start)
        print(json.dumps({"setup_s": setup_s, "score": asdict(score) if score else None, "error": error}))
        return 0

    loop = _per_layer if args.trace else _end_to_end
    metrics, scores, errors, attempted, mismatches = loop(args, w, process_start)
    accuracy = scenes.accuracy(scores, attempted, len(errors)) if scores else {}
    problems = scenes.check(w, scores, len(errors), mismatches)
    for problem in problems + errors:
        print(f"INCORRECT: {problem}", file=sys.stderr)

    print("machine:", json.dumps(_machine_info(blas_threads)))
    print(f"workload {w.name}, seed {args.seed}, {attempted} estimates attempted")
    for name, (value, unit) in {**metrics, **accuracy}.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:  # accuracy carries no bound, so it is listed with the per-layer metrics
        metrics.update(accuracy)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0
