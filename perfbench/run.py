#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the emovote pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble_h32 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --runs 10        # every workload, 10 seeds each

One process runs one workload: repeated passes of gen-data -> train -> eval ->
ensemble -> text-metrics, in-process, on a corpus generated from the seeds,
for about ``--seconds`` seconds. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` installs span wrappers around every layer's public
functions and reports the per-layer metrics instead. Outputs are checked on
every pass. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the full result, with the
environment block and result fingerprint, goes to
``.perfbench_out/results/``. The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="ensemble_h32 | wide_h512 | fusion_sweep | all")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; corpus, model and transcript seeds default to it")
    ap.add_argument("--holdout", action="store_true",
                    help="use the held-out workload seed instead of --seed")
    ap.add_argument("--corpus-seed", type=int, default=None)
    ap.add_argument("--model-seed", type=int, default=None)
    ap.add_argument("--transcript-seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measurement time per process; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=10,
                    help="with --workload all: untraced runs per workload, seeds --seed..")
    ap.add_argument("--write-baseline", action="store_true",
                    help="with --workload all: record the results as perfbench/baseline.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: a 2-thread hidden-32 step varied 108-153 ms, a 1-thread
    # step 151-155 ms. Must precede the first numpy import to take effect.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "emovote" / "__init__.py").is_file():
        print(f"perfbench: no emovote sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import bench, workloads

    if args.workload == "all":
        return bench.run_all(args, ROOT)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}, all", file=sys.stderr)
        return 2
    return bench.run_workload(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
