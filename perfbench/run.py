"""Closed-loop benchmark of the cpchan estimators.

    python3 perfbench/run.py --workload hybrid-L10-20dB --seed 1 --seconds 40 --trace 0

Workloads are defined in ``scenes.py``. One caller runs one estimate at a
time: the next estimate starts only after the previous one returned. Scene
generation and scoring against the simulated truth happen outside the timed
region, and the estimator receives only the observation and the pilot.

``--trace 0`` measures the end-to-end metrics. The run first sets up
``harness.SETUPS`` times, once in this process and then each time in a fresh
process: import, pilot build and the first, cold estimate at the workload's
own dims. ``setup_s`` is the median of those set-ups. The warm estimates of
the timed loop then run for ``--seconds`` of estimate time. End-to-end times
are reported at a nominal machine speed, measured with a reference kernel
alongside the estimates (see ``harness.REFERENCE_NOMINAL_S``); the raw
seconds are printed too.

``--trace 1`` measures the per-layer metrics: after one cold estimate, each
scene is estimated untraced and then with the tracer of ``tracing.py``
installed; the two must give bit-identical channels.

Every estimate, set-ups included, is scored. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when the correctness check
fails and 2 when the program sources are missing. Seeds 1-10 are the tuning
seeds; re-check a claim on another seed, such as 101, that was not used
while tuning.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the process clock above starts first)
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread (at most nproc on any machine): one caller runs one estimate
# at a time, and on a 2-core machine repeated single-threaded estimates of one
# scene spread less than half as much as two-threaded ones.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-index", type=int, help="internal: run one cold set-up in this process and report it")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:  # BLAS reads these when numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "cpchan" / "__init__.py").is_file():
        print(f"cpchan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args, PROCESS_START, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
