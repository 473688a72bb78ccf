"""Run one workload of the fusionring benchmark and print its metrics.

    python3 perfbench/run.py --workload analyze_catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Prints one line per metric, an `env:` line,
and as the last line a JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run, whose spans are also written to
perfbench/traces/<workload>-seed<seed>.npz. Exits with 2, printing no result,
when the library cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use; must precede importing numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    if not (ROOT / "src" / "fusionring" / "__init__.py").is_file():
        print(f"error: no fusionring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    result, env, problems = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                      trace_dir=HERE / "traces")
    for problem in problems[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
