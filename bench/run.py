"""Time-to-verified-result benchmark for qlax, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The package is imported from ``src/`` of the
same checkout, never from an installed copy.  One caller runs the workload
closed-loop: each iteration runs in a fresh single-threaded process started
after the previous one ended, with BLAS thread pools pinned to 1 and
``QLAX_THREADS`` removed from its environment.  A fresh process per
iteration makes set-up and peak memory one sample per iteration, and spreads
a run's median over several processes.

With ``--trace 0`` the iterations run untraced and the result carries the
end-to-end metrics.  With ``--trace 1`` untraced and traced iterations
alternate and the result carries the per-layer metrics from the traced ones.
Either way every iteration's output is checked, a failure is counted and
never retried, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it give
every metric with its unit and sample count, the failures, and the machine.
``--smoke`` runs the same workloads at a tiny size, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("solve-toda3", "symmetry-toda3", "diffop-flow")

PIN_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
PER_LAYER = (
    ("algebra.elements.created", "count"),
    ("algebra.mul.calls", "count"),
    ("algebra.diffop_mul.calls", "count"),
    ("algebra.diffop_mul.self_s", "s"),
    ("series.cauchy.calls", "count"),
    ("series.cauchy.self_s", "s"),
    ("series.inverse.calls", "count"),
    ("series.inverse.self_s", "s"),
    ("series.evaluate.self_s", "s"),
    ("timeorder.time_ordered_exp.calls", "count"),
    ("timeorder.time_ordered_exp.self_s", "s"),
    ("timeorder.left_log_residual.self_s", "s"),
    ("lax.solve_lax.calls", "count"),
    ("lax.solve_lax.total_s", "s"),
    ("lax.conjugate.self_s", "s"),
    ("lax.integrate_directly.self_s", "s"),
    ("lax.flow_difference.self_s", "s"),
    ("lax.lax_residual.self_s", "s"),
    ("lax.trace_tables.self_s", "s"),
    ("lax.oracle.total_s", "s"),
    ("lax.oracle.self_s", "s"),
    ("symmetry.solve_symmetry.total_s", "s"),
    ("symmetry.residual_full.self_s", "s"),
    ("symmetry.ad_exp_ad.total_s", "s"),
    ("symmetry.apply_operator_series.calls", "count"),
    ("cli.build_problem.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.bundle.bytes", "bytes"),
    ("check.ref_err", "abs"),
    ("trace.overhead_s", "s"),
)
# The conjugation is solve_lax's own work, outside time_ordered_exp and the
# series products it calls.
LAYER_SOURCES = {"lax.conjugate.self_s": "lax.solve_lax.self_s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QLAX_THREADS", None)
    for name in PIN_VARIABLES:
        env[name] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(env: dict, qlax_file: str, numpy_version: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "blas_threads": {name: env[name] for name in PIN_VARIABLES},
        "QLAX_THREADS": env.get("QLAX_THREADS", "unset"),
        "qlax": os.path.relpath(qlax_file, ROOT),
    }


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return its start time and its JSON summary."""
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args]
    started = time.monotonic()
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}:\n{done.stderr.strip()}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    if os.path.dirname(os.path.dirname(summary["qlax_file"])) != SRC:
        raise BenchError(f"imported qlax from {summary['qlax_file']}, not from {SRC}")
    return started, summary


def measure(args) -> tuple[list[dict], dict]:
    """Closed loop of fresh worker processes, one iteration each, for ``args.seconds``.

    Another process starts only while the longest one so far would still end
    in time.  With ``--trace 1`` processes alternate untraced and traced,
    starting untraced, and at least one of each runs.  The first process also
    runs the workload's probes.
    """
    started_run = time.monotonic()
    stop_at = started_run + args.seconds
    deadline = started_run + RUN_LIMIT_S
    env = child_env()
    run_dir = os.path.join(BENCH_DIR, ".runs", f"{args.workload}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    processes = []
    try:
        while True:
            flags = [*common, "--run-dir", os.path.join(run_dir, str(len(processes)))]
            if args.trace and len(processes) % 2 == 1:
                flags.append("--traced")
            if not processes:
                flags.append("--probes")
            started, summary = spawn(flags, env, deadline)
            summary["setup_s"] = summary["setup_done"] - started
            summary["process_s"] = time.monotonic() - started
            processes.append(summary)
            longest = max(p["process_s"] for p in processes)
            if (len(processes) >= 2 or not args.trace) and time.monotonic() + longest > stop_at:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return processes, environment(env, processes[0]["qlax_file"], processes[0]["numpy"])


def report(args, processes: list[dict], env_record: dict) -> dict:
    samples = [p["sample"] for p in processes]
    probes = [probe for p in processes for probe in p["probes"]]
    # Outputs must repeat byte for byte across the iterations of a run.
    reference = next((s["digests"] for s in samples if "digests" in s), None)
    for s in samples:
        if "digests" in s and s["digests"] != reference:
            s["reasons"].append("output differs from the first iteration of this run")
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    failures = [(f"iteration {k + 1}", reason)
                for k, s in enumerate(samples) for reason in s["reasons"]]
    failures += [(label, "did not hold") for label, held in probes if not held]
    failed = sum(1 for s in samples if s["reasons"]) + sum(1 for _, held in probes if not held)
    attempted = len(samples) + len(probes)

    def median(key, group):
        return statistics.median(s[key] for s in group)

    ref_errs = [s["ref_err"] for s in samples if "ref_err" in s]
    measured = [p for p in processes if not p["sample"]["traced"]]
    values = {
        "wall_s": median("wall_s", untraced),
        "cpu_s": median("cpu_s", untraced),
        "setup_s": median("setup_s", processes),
        "peak_rss_mb": median("peak_rss_kib", measured) / 1024.0,
    }
    counts = {
        "wall_s": f"median of {len(untraced)} untraced iterations",
        "cpu_s": f"median of {len(untraced)} untraced iterations",
        "setup_s": f"median of {len(processes)} set-ups",
        "peak_rss_mb": f"median of {len(measured)} processes, one iteration each",
    }
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace}{' smoke' if args.smoke else ''}",
        f"env {json.dumps(env_record, sort_keys=True)}",
    ]
    lines += [f"{name} {values[name]!r} {unit} ({counts[name]})" for name, unit in END_TO_END]
    lines += [
        f"ref_err {max(ref_errs) if ref_errs else float('nan')!r} abs "
        f"(max of {len(ref_errs)} checked iterations)",
        f"fail_frac {failed / attempted!r} ratio ({failed} failed of {attempted} attempted: "
        f"{len(samples)} iterations, {len(probes)} probes)",
    ]
    lines += [f"FAILED {where}: {why}" for where, why in failures]

    if args.trace:
        # A layer the workload never reaches reads 0.
        counted = [s["layers"] for s in traced if "layers" in s] or [{}]
        layers = {name: statistics.median(c.get(LAYER_SOURCES.get(name, name), 0) for c in counted)
                  for name, _ in PER_LAYER}
        layers["check.ref_err"] = max(ref_errs) if ref_errs else 0.0
        # Each traced process runs right after an untraced one; pairing them
        # cancels most of the host's drift.
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        lines += [f"layer {name} {layers[name]!r} {unit} (median of {len(traced)} traced iterations)"
                  for name, unit in PER_LAYER]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "qlax", "__init__.py")):
        print(f"no qlax sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = report(args, *measure(args))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
