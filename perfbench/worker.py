"""One benchmark pass (or one set-up probe) in a fresh process.

Started by ``run.py``; not meant to be run by hand.  Imports the toolkit from
the checkout's ``src``, does the workload's set-up, runs one timed pass,
checks its outputs and writes a JSON result file for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.time() just before starting this process")
    parser.add_argument("--result", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import tracer as tracing
    import workloads

    os.makedirs(args.work, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, args.work)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(args.pass_id)
            tracer.install()
        setup_s = time.time() - args.t0
        result = {"setup_s": setup_s, "numpy": numpy.__version__}
        if not args.setup_only:
            result.update(_one_pass(workload, tracer, workloads.Checks()))
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _one_pass(workload, tracer, checks) -> dict:
    t0 = time.perf_counter()
    try:
        out = workload.run()
        error = None
    except Exception:  # any failure of the toolkit counts, then is reported
        out, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        checks.expect("pass", False, error)
        return {"wall_s": wall, "attempted": checks.attempted, "failures": checks.failures}
    summary = workload.check(out, checks)
    result = {"wall_s": wall, "attempted": checks.attempted, "failures": checks.failures,
              **summary}
    if tracer is not None:
        tracer.finish()
        result["layers"] = tracer.layer_metrics(wall)
        result["spans"] = tracer.span_records()
    return result


if __name__ == "__main__":
    sys.exit(main())
