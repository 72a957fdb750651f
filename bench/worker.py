"""One benchmark process: set up a workload, run one iteration, print a summary.

``run.py`` starts this file once per iteration, each time in a fresh
interpreter, so every sample carries its own import and set-up time and its
own peak memory, and a run's median spans several processes.  The last line
of stdout is one JSON object that ``run.py`` reads.

    python3 bench/worker.py --workload NAME --seed N --run-dir DIR
        [--traced] [--probes] [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback

import numpy as np

import qlax
import workloads
from tracer import Tracer


def iterate(workload, traced: bool) -> dict:
    """Time one iteration, then check its output outside the timed region.

    A broken iteration is returned as a failed sample, never retried.
    """
    sample = {"traced": traced}
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        with Tracer() if traced else contextlib.nullcontext() as tracer:
            produced = workload.run()
            sample["cpu_s"] = time.process_time() - cpu
            sample["wall_s"] = time.perf_counter() - wall
        outcome = workload.inspect(produced)
        sample["ref_err"], sample["reasons"] = workloads.check(workload, outcome)
        sample["digests"] = outcome.digests
        if traced:
            sample["layers"] = {**tracer.metrics(), "cli.bundle.bytes": outcome.bundle_bytes}
    except Exception:  # the run goes on and counts this iteration as failed
        sample.setdefault("cpu_s", time.process_time() - cpu)
        sample.setdefault("wall_s", time.perf_counter() - wall)
        sample["reasons"] = [traceback.format_exc(limit=3)]
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--traced", action="store_true", help="trace this iteration")
    parser.add_argument("--probes", action="store_true", help="also run the workload's probes")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.smoke, args.run_dir)
    setup_done = time.monotonic()
    sample = iterate(workload, args.traced)
    summary = {
        "setup_done": setup_done,
        "sample": sample,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probes": workload.probes() if args.probes else [],
        "qlax_file": qlax.__file__,
        "numpy": np.__version__,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
