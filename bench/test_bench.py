"""Tests of the benchmark itself; run with ``python -m pytest bench``.

The smoke runs use the same workloads at a tiny size (N=2, T=0.01), once
untraced and once traced, and take a few seconds each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qlax import cli, lax, preset_problem  # noqa: E402
from tracer import Tracer  # noqa: E402

REPORTED_METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ref_err", "fail_frac")


def _bench(*args, cwd=ROOT):
    command = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_prints_every_metric(name, trace):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace,
                  "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = "\n".join(lines[:-1])
    for metric in REPORTED_METRICS:
        assert any(line.startswith(f"{metric} ") and "(" in line for line in lines), metric
    assert '"QLAX_THREADS": "unset"' in report and '"OMP_NUM_THREADS": "1"' in report


def _report(samples):
    processes = [{"sample": s, "probes": [], "setup_s": 0.1, "peak_rss_kib": 1024}
                 for s in samples]
    args = argparse.Namespace(workload="solve-toda3", seed=0, seconds=0.0, trace=0, smoke=True)
    return run.report(args, processes, {})


def test_perturbed_reference_drives_fail_frac_above_zero(tmp_path):
    workload = workloads.build("solve-toda3", 0, True, str(tmp_path))
    assert _report([worker.iterate(workload, False)])["failed"] == 0
    workload.reference = workload.reference + 1e-6
    result = _report([worker.iterate(workload, False)])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_changed_output_between_iterations_fails():
    def sample(digest):
        return {"traced": False, "wall_s": 1.0, "cpu_s": 1.0, "ref_err": 0.0, "reasons": [],
                "digests": {"flow.json": digest}}

    assert _report([sample("a"), sample("a")])["failed"] == 0
    assert _report([sample("a"), sample("b"), sample("a")])["failed"] == 1


def test_window_probes_raise_and_a_wide_window_counts_as_failed():
    workload = workloads.build("diffop-flow", 0, True, "")
    assert all(held for _, held in workload.probes())
    workload.too_small = {"J=N+2": workload.problem}
    assert workload.probes() == [("window J=N+2 raises WindowOverflowError", False)]


def test_full_size_windows_match_the_pinned_problem():
    workload = workloads.build("diffop-flow", 0, False, "")
    descriptor = workload.problem.initial.descriptor
    assert (descriptor.max_order, descriptor.max_mode) == (8, 7)
    assert sorted(workload.too_small) == ["J=7", "M=6"]


def test_seed_zero_is_the_preset_and_other_seeds_keep_sparsity(tmp_path):
    problem = preset_problem("toda-3")
    assert np.array_equal(workloads.TODA_INITIAL, problem.initial.data)
    assert np.array_equal(workloads.TODA_GENERATOR, problem.path.coeffs[0].data)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        redrawn = workloads.redraw(rng, workloads.TODA_INITIAL)
        assert np.array_equal(redrawn != 0, workloads.TODA_INITIAL != 0)
        ratio = redrawn[redrawn != 0] / workloads.TODA_INITIAL[redrawn != 0]
        assert np.all((ratio >= 0.9) & (ratio <= 1.1))
    first = workloads.build("solve-toda3", 5, True, str(tmp_path / "a"))
    again = workloads.build("solve-toda3", 5, True, str(tmp_path / "b"))
    assert np.array_equal(first.reference, again.reference)


def test_seed_zero_document_reproduces_the_preset_flow(tmp_path):
    workload = workloads.build("solve-toda3", 0, True, str(tmp_path / "doc"))
    out_dir, code, _ = workload.run()
    order, step, horizon = workloads.SMOKE_SIZE
    preset_dir = str(tmp_path / "preset")
    assert code == 0
    assert cli.main(["solve", "--preset", "toda-3", "--order", str(order), "--step", str(step),
                     "--horizon", str(horizon), "--out", preset_dir]) == 0
    for name in ("flow.json", "flow.csv", "diagnostics.csv"):
        with open(os.path.join(out_dir, name), "rb") as a, \
                open(os.path.join(preset_dir, name), "rb") as b:
            assert a.read() == b.read(), name


def test_tracer_restores_every_original():
    def current():
        return (cli.solve_lax, lax.solve_lax, cli.run_solve, cli.build_problem,
                lax.GradedSeries.__mul__, lax.AlgebraElement.__init__)

    before = current()
    with Tracer():
        assert all(now is not then for now, then in zip(current(), before))
    assert current() == before


def test_declared_benchmark_matches_the_code():
    declared = _declared()
    assert declared["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    setup_bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in declared["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "diffop-flow", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
