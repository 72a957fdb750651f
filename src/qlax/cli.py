"""Batch front door: JSON problems in, CSV/JSON result bundles out.

Subcommands: ``solve`` (flow + diagnostics), ``symmetry`` (operator flow),
``sweep`` (scaling sweep with convergence table), ``appendix`` (interval
diffeomorphism checks) and ``selftest`` (a fixed deterministic battery).

Problem files are JSON documents with ``"schema": 1``.  :func:`build_problem`
is their one reader: it checks each object's keys (an unknown key is rejected
at every level) and each value's JSON type as it builds the problem, and the
library's own checks bound the values.

Each command states its checks as the rows its bundle writes: a ``solve`` or
``symmetry`` check is a ``diagnostics.csv`` row ``(check, grade, value,
threshold, passed)``, with ``""`` for the grade of a check that has none; a
``sweep`` check is a ``convergence.csv`` row; an ``appendix`` check is a
library report in ``report.json``.  Once every check is computed,
:func:`_write_bundle` writes the bundle's files and its ``manifest.json``, so
a command that fails before then leaves no directory.  Result bundles are
deterministic: repeated runs with the same inputs produce byte-identical files
(wall-clock timing goes to stdout only).

Exit codes: 0 all diagnostics pass, 1 a diagnostic failed, 2 malformed
problem file or bad parameters (a problem over the ``MAX_FLOW_BYTES`` size cap
included), 3 capability not available on the requested backend, 4 appendix
model preconditions violated (a grid over ``MAX_GRID_POINTS`` included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from typing import NoReturn

import numpy as np

import qlax
from qlax.algebra import (
    CIRCLE_DIFFOP,
    COMPLEX,
    MATRIX,
    REAL,
    AlgebraDescriptor,
    AlgebraElement,
    AlgebraError,
    CapabilityError,
    blocks,
    element_norms,
)
from qlax.lax import (
    DEFAULT_GRID,
    DEFAULT_ORDER,
    DEFAULT_SCALING,
    LaxProblem,
    PRESET_NAMES,
    conserved_trace_tables,
    lax_residual,
    oracle_errors,
    oracle_integrate,
    preset_problem,
    solve_lax,
)
from qlax.monoids import composition_table, gr1_monoid
from qlax.nonregular import (
    AppendixModel,
    ModelError,
    demonstrate_nonregularity,
    phi,
    velocity_at_zero,
    verify_diffeo_bounds,
)
from qlax.series import evaluated
from qlax.symmetry import (
    ad_operator,
    check_ad_exp_ad,
    equivariance_gap,
    identity_operator,
    operator_descriptor,
    solve_symmetry,
    symmetry_residual_full,
)
from qlax.timeorder import OperatorPath

RESIDUAL_TOL = 1e-6
TRACE_TOL = 1e-8
ORACLE_EXACT_TOL = 1e-9
ORACLE_DECAY_FACTOR = 0.75
AD_EXP_TOL = 1e-9
EQUIVARIANCE_TOL = 1e-8
ORDER_WINDOW = 0.5
SWEEP_ASSERT_MAX_Q0 = 0.25
ORDER_NOISE_FLOOR = 1e-13
APPENDIX_TIMES = (0.9, -0.9, 0.5, -0.5, 0.1)


class ProblemFormatError(Exception):
    """The problem document is malformed: a key, a JSON type or a value's range."""


# -- problem documents --------------------------------------------------------

def load_problem_document(path: str):
    """The JSON value in ``path``; :func:`build_problem` checks it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not JSON or UTF-8
        raise ProblemFormatError(f"cannot read problem file {path}: {exc}") from exc


def _reject(where: str, message: str) -> NoReturn:
    raise ProblemFormatError(f"{where or '<root>'}: {message}")


def _at(where: str, key) -> str:
    return f"{where}/{key}" if where else str(key)


def _object(value, where: str, required=(), optional=()) -> dict:
    """``value`` if it is an object that has every ``required`` key and no key
    outside ``required`` and ``optional``."""
    if not isinstance(value, dict):
        _reject(where, "expected an object")
    for key in value:
        if key not in required and key not in optional:
            _reject(_at(where, key), "unknown key")
    for key in required:
        if key not in value:
            _reject(where, f"missing key {key!r}")
    return value


def _kind(spec, where: str, kinds: dict, optional=()) -> str:
    """``spec["kind"]``, one of ``kinds``, once ``spec`` has that kind's required keys
    ``kinds[kind]``, any of ``optional`` and nothing else."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        _reject(_at(where, "kind"), f"expected one of {', '.join(kinds)}")
    _object(spec, where, ("kind", *kinds[kind]), optional)
    return kind


def _list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        _reject(where, "expected a non-empty list")
    return value


def _integer(value, where: str) -> int:
    """``value`` if it is written as a JSON integer (``4``, not ``4.0`` or ``true``)."""
    if type(value) is not int:
        _reject(where, "expected an integer")
    return value


def _number(value, where: str, expected: str = "a finite number"):
    """``value``, unconverted, if it is a finite JSON number (not a bool)."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        _reject(where, f"expected {expected}")
    return value


def _scalar_from_json(value, where: str, field: str):
    """A matrix or mode entry: a finite number, or an ``[re, im]`` pair of them.  A
    real field takes a pair only when ``im`` is zero, and keeps ``re``."""
    if not (isinstance(value, list) and len(value) == 2):
        return float(_number(value, where, "a finite number or an [re, im] pair"))
    real, imag = (float(_number(part, _at(where, k))) for k, part in enumerate(value))
    if field == COMPLEX:
        return complex(real, imag)
    if imag != 0.0:
        _reject(where, "complex entry in a real-field payload")
    return real


def _matrix_entries(payload, where: str, field: str) -> list[list]:
    """The rows of a non-empty nested-array payload, each a non-empty list of entries."""
    rows = []
    for i, row in enumerate(_list(payload, where)):
        row_at = _at(where, i)
        rows.append([_scalar_from_json(v, _at(row_at, j), field)
                     for j, v in enumerate(_list(row, row_at))])
    return rows


def _build_element(descriptor, payload, where: str) -> AlgebraElement:
    if descriptor.backend == MATRIX:
        rows = _matrix_entries(payload, where, descriptor.field)
        n = descriptor.n
        if len(rows) != n or any(len(row) != n for row in rows):
            _reject(where, f"expected a {n}x{n} array")
        return AlgebraElement(descriptor, np.array(rows, dtype=descriptor.dtype))
    if not isinstance(payload, dict):
        _reject(where, "expected an {order: modes} object")
    data = np.zeros(descriptor.shape, dtype=np.complex128)
    for key, row in payload.items():
        row_at = _at(where, key)
        if not key.isdecimal():
            _reject(row_at, "expected a derivative order")
        order = int(key)
        if order > descriptor.max_order:
            _reject(row_at, f"order exceeds the cap {descriptor.max_order}")
        if len(_list(row, row_at)) != descriptor.width:
            _reject(row_at, f"expected {descriptor.width} modes")
        data[order] = [_scalar_from_json(v, _at(row_at, m), COMPLEX) for m, v in enumerate(row)]
    return AlgebraElement(descriptor, data)


_BACKEND_KINDS = {MATRIX: ("n",), CIRCLE_DIFFOP: ("max_order", "max_mode")}
_PATH_KINDS = {"constant": ("value",), "poly": ("coeffs",), "preset": ("name",)}
_S0_KINDS = {"identity": (), "ad-of-initial": (), "matrix": ("value",)}


def _build_descriptor(spec) -> AlgebraDescriptor:
    kind = _kind(spec, "backend", _BACKEND_KINDS, ("field",))
    sizes = {key: _integer(spec[key], _at("backend", key)) for key in _BACKEND_KINDS[kind]}
    return AlgebraDescriptor(kind, field=spec.get("field", REAL if kind == MATRIX else COMPLEX),
                             **sizes)


def _checked_options(options) -> dict:
    """``options``, once it passes the range checks that no library call makes for
    every command."""
    _object(options, "options", (), ("trace_powers", "sweep", "symmetry_s0"))
    if "trace_powers" in options:
        where = "options/trace_powers"
        for k, power in enumerate(_list(options["trace_powers"], where)):
            if not 1 <= _integer(power, _at(where, k)) <= 4:
                _reject(_at(where, k), "expected a power in 1..4")
    if "sweep" in options:
        where = "options/sweep"
        for k, q0 in enumerate(_list(options["sweep"], where)):
            if not 0 < _number(q0, _at(where, k)) <= 1:
                _reject(_at(where, k), "expected a scaling in (0, 1]")
    if "symmetry_s0" in options:
        where = "options/symmetry_s0"
        if _kind(options["symmetry_s0"], where, _S0_KINDS) == "matrix":
            _matrix_entries(options["symmetry_s0"]["value"], _at(where, "value"), COMPLEX)
    return options


def build_problem(document, overrides: dict | None = None) -> tuple[LaxProblem, dict]:
    """Check a problem document while building its problem and options.

    The document's keys and JSON types are checked here, and so are the ranges
    of its options; the ranges of the problem's own values are the checks the
    library makes as it builds the problem, whose errors come out as
    :class:`ProblemFormatError`.  Numbers reach the problem as written.  CLI
    ``overrides`` (``q0``, ``order``, ``step``, ``horizon``) then replace the
    document's values, which must still be valid on their own.
    """
    _object(document, "", ("schema", "P"), ("backend", "L0", "q0", "N", "grid", "options"))
    if _integer(document["schema"], "schema") != 1:
        _reject("schema", "expected 1")
    q0 = _number(document["q0"], "q0") if "q0" in document else DEFAULT_SCALING
    order = _integer(document["N"], "N") if "N" in document else DEFAULT_ORDER
    grid = DEFAULT_GRID
    if "grid" in document:
        grid_doc = _object(document["grid"], "grid", ("h", "T"))
        grid = (_number(grid_doc["h"], "grid/h"), _number(grid_doc["T"], "grid/T"))
    options = _checked_options(document.get("options", {}))
    path_spec = document["P"]
    kind = _kind(path_spec, "P", _PATH_KINDS)
    try:
        if kind == "preset":
            if "backend" in document or "L0" in document:
                raise ProblemFormatError(
                    "a preset path fixes the backend and initial element; drop those keys")
            problem = preset_problem(path_spec["name"], q0=q0, order=order, grid=grid)
        else:
            if "backend" not in document or "L0" not in document:
                raise ProblemFormatError("non-preset problems need backend and L0")
            descriptor = _build_descriptor(document["backend"])
            initial = _build_element(descriptor, document["L0"], "L0")
            if kind == "constant":
                path = OperatorPath.constant(_build_element(descriptor, path_spec["value"],
                                                            "P/value"))
            else:
                path = OperatorPath.polynomial(
                    [_build_element(descriptor, c, _at("P/coeffs", k))
                     for k, c in enumerate(_list(path_spec["coeffs"], "P/coeffs"))])
            problem = LaxProblem(initial=initial, path=path, q0=q0, order=order, grid=grid)
        if overrides:
            step, horizon = problem.grid
            problem = dataclasses.replace(
                problem, q0=overrides.get("q0", problem.q0),
                order=overrides.get("order", problem.order),
                grid=(overrides.get("step", step), overrides.get("horizon", horizon)))
    except AlgebraError as exc:
        raise ProblemFormatError(str(exc)) from exc
    return problem, options


# -- deterministic writers ----------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])


def _write_flow_csv(path: str, flow) -> None:
    """``t, grade, coeff_norm`` for every node and grade: the bytes ``csv.writer`` writes,
    since no field needs quoting, at the cost of the floats' reprs.

    Each block of nodes (:func:`~qlax.algebra.blocks`) is one ``str.join`` of
    ``repr(t) + ",grade," + repr(norm) + "\\r\\n"`` lines, so the text held at once stays
    about a block's worth.  Reading ``flow.values`` samples a library flow's nodes.
    """
    grades = [f",{grade}," for grade in range(flow.order + 1)]
    values = flow.values
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("t,grade,coeff_norm\r\n")
        for block in blocks(len(flow), values.itemsize * math.prod(values.shape[1:])):
            norms = element_norms(flow.descriptor, values[block]).tolist()
            handle.write("".join([t + grade + repr(norm) + "\r\n"
                                  for t, row in zip(map(repr, flow.times[block].tolist()), norms)
                                  for grade, norm in zip(grades, row)]))


def _write_json(path: str, payload: dict) -> None:
    """``json.dump(payload, sort_keys=True, indent=2)`` and a newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _series_payload(descriptor, stack: np.ndarray) -> list:
    """A stack of payloads as nested lists; complex entries as a trailing ``[re, im]`` axis."""
    if descriptor.field == REAL:
        return stack.tolist()
    return np.ascontiguousarray(stack).view(np.float64).reshape(*stack.shape, 2).tolist()


def _flow_json_payload(flow):
    """``flow.json``: the flow's polynomial coefficients per grade (see
    :class:`~qlax.timeorder.FlowSample`) and the times they are sampled at."""
    return {
        "schema": 2,
        "q0": flow.q0,
        "order": flow.order,
        "step": flow.step,
        "times": flow.times.tolist(),
        "coefficients": [_series_payload(flow.descriptor, stack)
                         for stack in flow.coefficients],
    }


def _write_bundle(out_dir: str, command: str, inputs: dict, writers: dict,
                  all_passed: bool) -> bool:
    """Create ``out_dir``, write each file ``name`` of the bundle as
    ``writers[name](path)``, then the ``manifest.json`` that lists them all.

    Returns ``all_passed``.  Callers finish every computation first, so an
    error leaves no directory behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, write in writers.items():
        write(os.path.join(out_dir, name))
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "outputs": sorted([*writers, "manifest.json"]),
        "all_passed": all_passed,
        "package": {"name": "qlax", "version": qlax.__version__},
    })
    return all_passed


def _problem_echo(document: dict, problem: LaxProblem, options: dict) -> dict:
    return {
        "q0": problem.q0,
        "order": problem.order,
        "grid": {"h": problem.grid[0], "T": problem.grid[1]},
        "path_name": problem.path.name,
        "options": options,
        "document": document,
    }


# -- subcommands --------------------------------------------------------------

DIAGNOSTICS_HEADER = ["check", "grade", "value", "threshold", "passed"]


def _diagnostic_rows(checks) -> list[tuple]:
    """The ``diagnostics.csv`` rows of ``(check, per-grade values, threshold)``
    checks: one per grade, which passes at or below the threshold."""
    return [(check, grade, float(value), threshold, bool(value <= threshold))
            for check, profile, threshold in checks for grade, value in enumerate(profile)]


def run_solve(document: dict, out_dir: str, overrides: dict | None = None) -> bool:
    problem, options = build_problem(document, overrides)
    if problem.initial.descriptor.backend != MATRIX:
        raise CapabilityError(
            "the solve bundle's trace and oracle diagnostics need the matrix backend")
    result = solve_lax(problem)
    powers = options.get("trace_powers", [1, 2, 3, 4])
    tables = conserved_trace_tables(result, max(powers))
    rows = _diagnostic_rows([("lax_residual", lax_residual(result), RESIDUAL_TOL),
                             *((f"trace_drift_k{power}", tables[power].drift, TRACE_TOL)
                               for power in powers)])
    error, error_half = oracle_integrate(result)
    if error <= ORACLE_EXACT_TOL:
        rows.append(("oracle_exact", "", error, ORACLE_EXACT_TOL, True))
    else:
        decay = error_half / error
        rows.append(("oracle_decay", "", decay, ORACLE_DECAY_FACTOR,
                     decay <= ORACLE_DECAY_FACTOR))

    return _write_bundle(out_dir, "solve", _problem_echo(document, problem, options), {
        "flow.csv": lambda path: _write_flow_csv(path, result.flow),
        "flow.json": lambda path: _write_json(path, _flow_json_payload(result.flow)),
        "diagnostics.csv": lambda path: _write_csv(path, DIAGNOSTICS_HEADER, rows),
    }, all(row[-1] for row in rows))


def _build_symmetry_initial(spec: dict | None, problem: LaxProblem) -> AlgebraElement:
    base = problem.initial.descriptor
    if spec is None or spec["kind"] == "identity":
        return identity_operator(base)
    if spec["kind"] == "ad-of-initial":
        return ad_operator(problem.initial)
    descriptor = operator_descriptor(base)
    return _build_element(descriptor, spec["value"], "options/symmetry_s0/value")


def run_symmetry(document: dict, out_dir: str, overrides: dict | None = None) -> bool:
    problem, options = build_problem(document, overrides)
    s0_spec = options.get("symmetry_s0")
    initial_operator = _build_symmetry_initial(s0_spec, problem)

    lax_result = solve_lax(problem)
    sym = solve_symmetry(initial_operator, problem.path, problem.q0,
                         problem.order, problem.grid)
    checks = [
        ("operator_flow_residual", lax_residual(sym), RESIDUAL_TOL),
        ("applied_flow_residual", symmetry_residual_full(sym, lax_result), RESIDUAL_TOL),
        ("ad_exp_gap", check_ad_exp_ad(lax_result.group, sym.group), AD_EXP_TOL),
    ]
    if s0_spec is not None and s0_spec["kind"] == "ad-of-initial":
        checks.append(("equivariance_gap", equivariance_gap(sym, lax_result), EQUIVARIANCE_TOL))
    rows = _diagnostic_rows(checks)

    return _write_bundle(out_dir, "symmetry", _problem_echo(document, problem, options), {
        "flow.csv": lambda path: _write_flow_csv(path, sym.flow),
        "diagnostics.csv": lambda path: _write_csv(path, DIAGNOSTICS_HEADER, rows),
    }, all(row[-1] for row in rows))


def _sweep_entry_columns(descriptor) -> list[str]:
    n = descriptor.n
    names = []
    for i in range(n):
        for j in range(n):
            if descriptor.field == COMPLEX:
                names.extend([f"e{i}{j}_re", f"e{i}{j}_im"])
            else:
                names.append(f"e{i}{j}")
    return names


def _write_sweep_csv(path: str, sweep_values, flow) -> None:
    """``q0, t`` and the evaluated entries at every node: the series at each ``q0 <=
    flow.q0`` on ``s = t/T`` is ``flow``'s on ``(q0 / flow.q0) s``.

    The bytes are those ``csv.writer`` writes, since no field needs quoting: each block of
    nodes (:func:`~qlax.algebra.blocks`) is one ``str.join`` of ``",".join`` of the fields'
    reprs and ``"\\r\\n"`` line ends, so the text held at once stays about a block's worth.
    """
    descriptor = flow.descriptor
    s = flow.times / flow.times[-1]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(["q0", "t", *_sweep_entry_columns(descriptor)]) + "\r\n")
        for q0 in sweep_values:
            values = evaluated(flow.coefficients, flow.q0, q0 / flow.q0 * s).reshape(
                len(flow), -1)
            if descriptor.field == COMPLEX:
                values = np.stack([values.real, values.imag], axis=-1).reshape(len(flow), -1)
            head = _format_value(q0) + ","
            for block in blocks(len(flow), values.itemsize * values.shape[1]):
                handle.write("".join([head + t + "," + ",".join(map(repr, row)) + "\r\n"
                                      for t, row in zip(map(repr, flow.times[block].tolist()),
                                                        values[block].tolist())]))


def _convergence_rows(sweep_values, errors, expected: int) -> list[tuple]:
    """The ``convergence.csv`` rows: each scaling's oracle error, and the order
    measured from the scaling before it, which is asserted to lie within
    ``ORDER_WINDOW`` of ``expected`` when both scalings are at most
    ``SWEEP_ASSERT_MAX_Q0``.  A pair with a non-finite error is asserted and
    fails, whatever its scalings, and so is a lone scaling's non-finite error."""
    points = list(zip(sweep_values, errors))
    lone_failure = len(points) == 1 and not math.isfinite(points[0][1])
    rows = [(*points[0], "", "", expected, lone_failure, False if lone_failure else "")]
    for (prev_q0, prev_error), (q0, error) in zip(points, points[1:]):
        estimate = deviation = passed = ""
        asserted = False
        if not (math.isfinite(error) and math.isfinite(prev_error)):
            asserted, passed = True, False
        # near-exact truncations (nilpotent problems) leave only roundoff,
        # where order estimates are meaningless noise: skip those pairs
        elif error > ORDER_NOISE_FLOOR and prev_error > ORDER_NOISE_FLOOR and prev_q0 != q0:
            estimate = float(np.log(prev_error / error) / np.log(prev_q0 / q0))
            deviation = abs(estimate - expected)
            asserted = max(prev_q0, q0) <= SWEEP_ASSERT_MAX_Q0
            if asserted:
                passed = deviation <= ORDER_WINDOW
        rows.append((q0, error, estimate, deviation, expected, asserted, passed))
    return rows


def run_sweep(document: dict, out_dir: str, overrides: dict | None = None) -> bool:
    problem, options = build_problem(document, overrides)
    if problem.initial.descriptor.backend != MATRIX:
        raise CapabilityError("sweeps evaluate entrywise and need the matrix backend")
    sweep_values = options.get("sweep", [0.2, 0.1, 0.05])
    result = solve_lax(dataclasses.replace(problem, q0=max(sweep_values)))  # serves every q0
    rows = _convergence_rows(sweep_values, oracle_errors(result, sweep_values), problem.order + 1)

    inputs = {**_problem_echo(document, problem, options), "sweep": list(sweep_values)}
    return _write_bundle(out_dir, "sweep", inputs, {
        "sweep.csv": lambda path: _write_sweep_csv(path, sweep_values, result.flow),
        "convergence.csv": lambda path: _write_csv(
            path, ["q0", "oracle_error", "order_estimate", "order_deviation", "expected_order",
                   "asserted", "passed"], rows),
    }, not any(asserted and not passed for *_, asserted, passed in rows))


def run_appendix(out_dir: str, coefficients=AppendixModel.coefficients,
                 margin: float = AppendixModel.margin, points: int = AppendixModel.points,
                 t_values=APPENDIX_TIMES) -> bool:
    """Each check is the library report's fields plus its ``name`` and ``passed``.

    A rejected model still gets a bundle that records the rejection; any other
    error writes nothing.
    """
    try:
        model = AppendixModel(tuple(float(c) for c in coefficients),
                              float(margin), int(points))
    except ModelError as exc:
        rejection = {"schema": 1, "model_error": str(exc), "all_passed": False}
        _write_bundle(out_dir, "appendix",
                      {"coefficients": list(coefficients), "margin": margin, "points": points},
                      {"report.json": lambda path: _write_json(path, rejection)}, False)
        raise

    reports = [*(("bounds", verify_diffeo_bounds(model, t)) for t in t_values),
               ("velocity_at_zero", velocity_at_zero(model)),
               ("translation_witness", demonstrate_nonregularity(model))]
    checks = [{"name": name, "passed": report.passed, **dataclasses.asdict(report)}
              for name, report in reports]
    grid = model.grid()
    bound_gap = float((model.p(grid) - phi(model, 0.999, grid)).min())
    checks.append({
        "name": "phi_dominated_by_p",
        "passed": bound_gap > 0.0,
        "min_gap_at_t_0.999": bound_gap,
    })

    all_passed = all(check["passed"] for check in checks)
    report = {
        "schema": 1,
        "model": dataclasses.asdict(model),
        "checks": checks,
        "all_passed": all_passed,
    }
    return _write_bundle(out_dir, "appendix", report["model"],
                         {"report.json": lambda path: _write_json(path, report)}, all_passed)


def run_selftest(out_dir: str) -> bool:
    """A fixed battery with pinned inputs; bundles are byte-identical across runs."""
    solve_doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "sl2-nilpotent"},
        "q0": 0.5,
        "N": 6,
        "grid": {"h": 2e-3, "T": 0.5},
    }
    symmetry_doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "rotation-2"},
        "q0": 0.5,
        "N": 4,
        "grid": {"h": 1e-3, "T": 0.25},
        "options": {"symmetry_s0": {"kind": "ad-of-initial"}},
    }
    table_rows = [(left[0].label, right[0].label,
                   "undefined" if product is None else product[0].label,
                   "" if product is None else product[1])
                  for left, right, product in composition_table(gr1_monoid(), grade=1)]

    passed = [run_solve(solve_doc, os.path.join(out_dir, "solve")),
              run_symmetry(symmetry_doc, os.path.join(out_dir, "symmetry")),
              run_appendix(os.path.join(out_dir, "appendix"))]
    return _write_bundle(
        out_dir, "selftest", {"solve": solve_doc, "symmetry": symmetry_doc, "appendix": "default"},
        {"gr1_table.csv": lambda path: _write_csv(path, ["left", "right", "result", "grade"],
                                                  table_rows)},
        all(passed))


# -- argument parsing ---------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("problem", nargs="?", help="JSON problem file")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="use a named preset instead of a problem file")
    parser.add_argument("--order", type=int, help="truncation order N")
    parser.add_argument("--q0", type=float, help="scaling parameter in (0, 1]")
    parser.add_argument("--step", type=float, help="grid step h, the nodes' spacing")
    parser.add_argument("--horizon", type=float, help="grid horizon T")
    parser.add_argument("--out", default="qlax-out", help="output directory")


def _document_from_args(args) -> dict:
    if args.problem and args.preset:
        raise ProblemFormatError("give either a problem file or --preset, not both")
    if args.problem:
        return load_problem_document(args.problem)
    if args.preset:
        return {"schema": 1, "P": {"kind": "preset", "name": args.preset}}
    raise ProblemFormatError("a problem file or --preset is required")


def _overrides_from_args(args) -> dict:
    overrides = {}
    if args.order is not None:
        overrides["order"] = args.order
    if args.q0 is not None:
        overrides["q0"] = args.q0
    if args.step is not None:
        overrides["step"] = args.step
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    return overrides


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(value) for value in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlax",
        description="graded operator-series flows with numeric verification")
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("solve", "symmetry", "sweep"):
        sub = commands.add_parser(name)
        _add_common_flags(sub)

    appendix = commands.add_parser("appendix")
    appendix.add_argument("--poly", type=_float_list, default=AppendixModel.coefficients,
                          help="comma-separated polynomial coefficients, low degree first")
    appendix.add_argument("--margin", type=float, default=AppendixModel.margin)
    appendix.add_argument("--points", type=int, default=AppendixModel.points)
    appendix.add_argument("--t-values", type=_float_list, default=APPENDIX_TIMES)
    appendix.add_argument("--out", default="qlax-out")

    selftest = commands.add_parser("selftest")
    selftest.add_argument("--out", default="qlax-out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "appendix":
            all_passed = run_appendix(args.out, args.poly, args.margin, args.points,
                                      args.t_values)
        elif args.command == "selftest":
            all_passed = run_selftest(args.out)
        else:  # looked up at call time, so a runner replaced on this module is the one run
            all_passed = globals()[f"run_{args.command}"](
                _document_from_args(args), args.out, _overrides_from_args(args))
    except ModelError as exc:
        print(f"appendix model rejected: {exc}", file=sys.stderr)
        return 4
    except ProblemFormatError as exc:
        print(f"problem rejected: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability unavailable: {exc}", file=sys.stderr)
        return 3
    except (AlgebraError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    status = "PASS" if all_passed else "FAIL"
    print(f"{args.command}: {status} in {elapsed:.2f}s -> {args.out}")
    return 0 if all_passed else 1


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
