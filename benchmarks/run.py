"""rbfadvect benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload long_time_1d --seed 0 --seconds 40 --trace 0

``--trace 0`` repeats passes over the workload while another one fits in
``--seconds`` (always at least one) and reports the end-to-end metrics,
timings stated at a fixed host speed (see gauge.py), with the median,
quartiles and count of the raw values on the lines above the last.  ``--trace 1`` runs one pass with tracing off and two traced passes,
and reports the per-layer metrics; ``--seconds`` does not apply.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
``--out FILE`` also merges the detailed record (environment, samples,
per-run checks, module shares) into a JSON results file.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2.  README.md documents workloads and metrics.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RBF_ADVECT_THREADS")
WORKLOADS = ("long_time_1d", "study_1d", "advect2d")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="merge the detailed record into this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rbfadvect" / "__init__.py").is_file():
        print(f"rbfadvect sources not found under {SRC}", file=sys.stderr)
        return 2
    # One process, no extra threads: pin BLAS and the study pool before NumPy loads.
    for key in THREAD_ENV:
        os.environ[key] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.main(args, THREAD_ENV)


if __name__ == "__main__":
    sys.exit(main())
