"""Benchmark of passivelsm: closed-loop workloads with one client.

    python3 bench/run.py --workload kite-C-seeds --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-module metrics of a traced run with
`--trace 1`.  See bench/README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS/OpenMP pool size (default 1)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The pools size themselves when numpy loads, so pin them first.  The
    # package's own LSM_THREADS cap cannot: importing passivelsm loads numpy.
    for var in BLAS_VARS:
        os.environ[var] = str(args.blas_threads)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import passivelsm

    if not os.path.abspath(passivelsm.__file__).startswith(src + os.sep):
        print(f"error: passivelsm imported from {passivelsm.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import json

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    result = harness.run(workload, args.seconds, bool(args.trace), root, SETUP_REPEATS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
