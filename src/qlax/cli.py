"""Batch front door: JSON problems in, CSV/JSON result bundles out.

Subcommands: ``solve`` (flow + diagnostics), ``symmetry`` (operator flow),
``sweep`` (scaling sweep with convergence table), ``appendix`` (interval
diffeomorphism checks) and ``selftest`` (a fixed deterministic battery).

Problem files are JSON documents with ``"schema": 1``; unknown keys are
rejected.  Result bundles are deterministic: repeated runs with the same
inputs produce byte-identical files (wall-clock timing goes to stdout only).

Exit codes: 0 all diagnostics pass, 1 a diagnostic failed, 2 malformed
problem file or bad parameters, 3 capability not available on the requested
backend, 4 appendix model preconditions violated.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
from jsonschema import Draft202012Validator

import qlax
from qlax.algebra import (
    CIRCLE_DIFFOP,
    COMPLEX,
    MATRIX,
    REAL,
    AlgebraElement,
    AlgebraError,
    CapabilityError,
    DomainError,
    blocks,
    diffop_descriptor,
    element_norms,
    matrix_descriptor,
)
from qlax.lax import (
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
    c_path,
    velocity_at_zero,
    verify_diffeo_bounds,
)
from qlax.series import evaluate_values, grade_max_norms
from qlax.symmetry import (
    ad_matrices,
    ad_operator,
    check_ad_exp_ad,
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


class ProblemFormatError(Exception):
    """The problem document is malformed (schema or semantic)."""


# -- problem schema -----------------------------------------------------------

_NUMBER_OR_PAIR = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
    ]
}

_MATRIX_PAYLOAD = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _NUMBER_OR_PAIR},
}

_DIFFOP_PAYLOAD = {
    "type": "object",
    "patternProperties": {r"^\d+$": {"type": "array", "items": _NUMBER_OR_PAIR}},
    "additionalProperties": False,
}

_ELEMENT_PAYLOAD = {"oneOf": [_MATRIX_PAYLOAD, _DIFFOP_PAYLOAD]}

_BACKEND_SPEC = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": MATRIX},
                "n": {"type": "integer", "minimum": 1},
                "field": {"enum": [REAL, COMPLEX]},
            },
            "required": ["kind", "n"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": CIRCLE_DIFFOP},
                "max_order": {"type": "integer", "minimum": 0},
                "max_mode": {"type": "integer", "minimum": 1},
                "field": {"const": COMPLEX},
            },
            "required": ["kind", "max_order", "max_mode"],
            "additionalProperties": False,
        },
    ]
}

_PATH_SPEC = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "constant"}, "value": _ELEMENT_PAYLOAD},
            "required": ["kind", "value"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "poly"},
                "coeffs": {"type": "array", "minItems": 1, "items": _ELEMENT_PAYLOAD},
            },
            "required": ["kind", "coeffs"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "preset"}, "name": {"enum": list(PRESET_NAMES)}},
            "required": ["kind", "name"],
            "additionalProperties": False,
        },
    ]
}

_S0_SPEC = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "identity"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "ad-of-initial"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "matrix"}, "value": _MATRIX_PAYLOAD},
            "required": ["kind", "value"],
            "additionalProperties": False,
        },
    ]
}

PROBLEM_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "backend": _BACKEND_SPEC,
        "L0": _ELEMENT_PAYLOAD,
        "P": _PATH_SPEC,
        "q0": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "N": {"type": "integer", "minimum": 1},
        "grid": {
            "type": "object",
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "T": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["h", "T"],
            "additionalProperties": False,
        },
        "options": {
            "type": "object",
            "properties": {
                "trace_powers": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1, "maximum": 4},
                    "minItems": 1,
                },
                "sweep": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                "symmetry_s0": _S0_SPEC,
            },
            "additionalProperties": False,
        },
    },
    "required": ["schema"],
    "additionalProperties": False,
}

_VALIDATOR = Draft202012Validator(PROBLEM_SCHEMA)


def load_problem_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFormatError(f"cannot read problem file {path}: {exc}") from exc
    validate_problem_document(document)
    return document


def validate_problem_document(document) -> None:
    errors = sorted(_VALIDATOR.iter_errors(document), key=lambda e: list(e.path))
    if errors:
        first = errors[0]
        location = "/".join(str(part) for part in first.path) or "<root>"
        raise ProblemFormatError(f"problem file rejected at {location}: {first.message}")


# -- payload parsing ----------------------------------------------------------

def _scalar_from_json(value, field: str):
    if isinstance(value, (int, float)):
        return float(value)
    real, imag = float(value[0]), float(value[1])
    if field == REAL and imag != 0.0:
        raise ProblemFormatError("complex entry in a real-field payload")
    return complex(real, imag)


def _build_element(descriptor, payload) -> AlgebraElement:
    if descriptor.backend == MATRIX:
        if not isinstance(payload, list):
            raise ProblemFormatError("matrix backend expects a nested-array payload")
        n = descriptor.n
        if len(payload) != n or any(len(row) != n for row in payload):
            raise ProblemFormatError(f"payload must be a {n}x{n} array")
        data = np.array(
            [[_scalar_from_json(v, descriptor.field) for v in row] for row in payload],
            dtype=descriptor.dtype,
        )
        return AlgebraElement(descriptor, data)
    if not isinstance(payload, dict):
        raise ProblemFormatError("diffop backend expects an {order: modes} payload")
    data = np.zeros((descriptor.max_order + 1, descriptor.width), dtype=np.complex128)
    for key, row in payload.items():
        order = int(key)
        if order > descriptor.max_order:
            raise ProblemFormatError(f"order {order} exceeds the cap {descriptor.max_order}")
        if len(row) != descriptor.width:
            raise ProblemFormatError(
                f"mode array for order {order} must have {descriptor.width} entries")
        data[order] = [_scalar_from_json(v, COMPLEX) for v in row]
    return AlgebraElement(descriptor, data)


def _build_descriptor(backend_spec: dict):
    if backend_spec["kind"] == MATRIX:
        return matrix_descriptor(backend_spec["n"], backend_spec.get("field", REAL))
    return diffop_descriptor(backend_spec["max_order"], backend_spec["max_mode"])


def build_problem(document: dict, overrides: dict | None = None) -> tuple[LaxProblem, dict]:
    """Turn a validated document plus CLI overrides into a problem and options."""
    overrides = overrides or {}
    q0 = overrides.get("q0", document.get("q0", 0.5))
    order = overrides.get("order", document.get("N", 8))
    grid_doc = document.get("grid", {"h": 1e-3, "T": 1.0})
    grid = (
        overrides.get("step", grid_doc["h"]),
        overrides.get("horizon", grid_doc["T"]),
    )
    options = document.get("options", {})
    path_spec = document.get("P")
    if path_spec is None:
        raise ProblemFormatError("problem file must carry a path specification P")
    try:
        if path_spec["kind"] == "preset":
            if "backend" in document or "L0" in document:
                raise ProblemFormatError(
                    "a preset path fixes the backend and initial element; drop those keys")
            problem = preset_problem(path_spec["name"], q0=q0, order=order, grid=grid)
            return problem, options
        if "backend" not in document or "L0" not in document:
            raise ProblemFormatError("non-preset problems need backend and L0")
        descriptor = _build_descriptor(document["backend"])
        initial = _build_element(descriptor, document["L0"])
        if path_spec["kind"] == "constant":
            path = OperatorPath.constant(_build_element(descriptor, path_spec["value"]), q0)
        else:
            coeffs = [_build_element(descriptor, c) for c in path_spec["coeffs"]]
            path = OperatorPath.polynomial(coeffs, q0)
        problem = LaxProblem(initial=initial, path=path, q0=q0, order=order, grid=grid)
    except DomainError as exc:
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
    """``t, grade, coeff_norm`` for every node and grade, formatted a column at a time."""
    grades = [str(grade) for grade in range(flow.order + 1)]
    times = [t for t in map(float.__repr__, flow.times.tolist()) for _grade in grades]
    norms = map(float.__repr__, element_norms(flow.descriptor, flow.values).ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "grade", "coeff_norm"])
        writer.writerows(zip(times, grades * len(flow), norms))


def _write_json(path: str, payload: dict) -> None:
    """The bytes of ``json.dump(payload, sort_keys=True, indent=2)`` and a newline.

    ndarray values stand for their nested lists of floats and are written node
    block by node block, so no nested list of a whole flow is ever built.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{")
        for index, key in enumerate(sorted(payload)):
            handle.write(("," if index else "") + "\n  " + json.dumps(key) + ": ")
            value = payload[key]
            if isinstance(value, np.ndarray):
                _write_json_array(handle, value)
            else:
                handle.write(json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "))
        handle.write("\n}\n")


def _write_json_array(handle, array: np.ndarray) -> None:
    """``array.tolist()`` as ``json.dump(..., indent=2)`` writes a top-level key's value.

    json formats the floats of one node (a first-axis entry) at a time, and one
    period of indentation separators, one after each float, is interleaved
    with them.  Formatting a whole block in one ``json.dumps`` call would hold
    a string per float of the block at once.
    """
    rank = array.ndim

    def newline(level: int) -> str:
        return "\n" + "  " * (level + 1)

    def separator(closed: int) -> str:
        # after a float that ends ``closed`` innermost lists, before the next float
        return ("".join(newline(rank - 1 - j) + "]" for j in range(closed)) + ","
                + newline(rank - closed)
                + "".join("[" + newline(rank - closed + 1 + j) for j in range(closed)))

    ends = np.cumprod(array.shape[:0:-1]).tolist()
    parts = [""] * (2 * array[0].size)
    parts[1::2] = [separator(sum((k + 1) % end == 0 for end in ends))
                   for k in range(array[0].size)]
    handle.write("".join("[" + newline(1 + j) for j in range(rank)))
    for block in blocks(len(array), array[0].nbytes):
        texts = []
        for node in array[block].reshape(block.stop - block.start, -1).tolist():
            # json's own float text, so -0.0, subnormals, NaN and Infinity match it
            parts[0::2] = json.dumps(node)[1:-1].split(", ")
            texts.append("".join(parts))
        if block.stop == len(array):
            parts[-1] = "".join(newline(rank - 1 - j) + "]" for j in range(rank))
            texts[-1] = "".join(parts)
        handle.writelines(texts)


def _series_payload(descriptor, values: np.ndarray) -> np.ndarray:
    """A ``(nodes, N+1, n, n)`` matrix stack; complex entries as a trailing ``[re, im]`` axis."""
    if descriptor.field == REAL:
        return values
    return np.ascontiguousarray(values).view(np.float64).reshape(*values.shape, 2)


def _flow_json_payload(flow):
    return {
        "schema": 1,
        "q0": flow.q0,
        "order": flow.order,
        "step": flow.step,
        "times": flow.times,
        "series": _series_payload(flow.descriptor, flow.values),
    }


@dataclass(frozen=True)
class DiagnosticRow:
    check: str
    grade: int | None
    value: float
    threshold: float
    passed: bool

    def as_row(self):
        grade = "" if self.grade is None else self.grade
        return (self.check, grade, self.value, self.threshold, self.passed)


def _grade_rows(check: str, profile, threshold: float) -> list[DiagnosticRow]:
    return [
        DiagnosticRow(check, grade, float(value), threshold, bool(value <= threshold))
        for grade, value in enumerate(profile)
    ]


def _write_diagnostics(path: str, rows: list[DiagnosticRow]) -> bool:
    _write_csv(path, ["check", "grade", "value", "threshold", "passed"],
               (row.as_row() for row in rows))
    return all(row.passed for row in rows)


def _write_manifest(out_dir: str, command: str, inputs: dict, outputs: list[str],
                    all_passed: bool) -> None:
    manifest = {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "outputs": sorted(outputs),
        "all_passed": all_passed,
        "package": {"name": "qlax", "version": qlax.__version__},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


@dataclass(frozen=True)
class ResultBundle:
    out_dir: str
    files: tuple[str, ...]
    all_passed: bool

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1


def _problem_echo(document: dict | None, problem: LaxProblem, options: dict) -> dict:
    echo = {
        "q0": problem.q0,
        "order": problem.order,
        "grid": {"h": problem.grid[0], "T": problem.grid[1]},
        "path_name": problem.path.name,
        "options": options,
    }
    if document is not None:
        echo["document"] = document
    return echo


# -- subcommands --------------------------------------------------------------

def run_solve(document: dict, out_dir: str, overrides: dict | None = None) -> ResultBundle:
    problem, options = build_problem(document, overrides)
    if problem.initial.descriptor.backend != MATRIX:
        raise CapabilityError(
            "the solve bundle's trace and oracle diagnostics need the matrix backend")
    os.makedirs(out_dir, exist_ok=True)
    result = solve_lax(problem)

    rows: list[DiagnosticRow] = []
    rows.extend(_grade_rows("lax_residual", lax_residual(result), RESIDUAL_TOL))

    powers = options.get("trace_powers", [1, 2, 3, 4])
    tables = conserved_trace_tables(result, max(powers))
    for power in powers:
        rows.extend(_grade_rows(f"trace_drift_k{power}", tables[power].drift, TRACE_TOL))

    oracle = oracle_integrate(result)
    if oracle.error <= ORACLE_EXACT_TOL:
        rows.append(DiagnosticRow("oracle_exact", None, oracle.error, ORACLE_EXACT_TOL, True))
    else:
        decay = oracle.error_half / oracle.error
        rows.append(DiagnosticRow("oracle_decay", None, decay, ORACLE_DECAY_FACTOR,
                                  decay <= ORACLE_DECAY_FACTOR))

    _write_flow_csv(os.path.join(out_dir, "flow.csv"), result.flow)
    _write_json(os.path.join(out_dir, "flow.json"), _flow_json_payload(result.flow))
    all_passed = _write_diagnostics(os.path.join(out_dir, "diagnostics.csv"), rows)
    files = ("flow.csv", "flow.json", "diagnostics.csv", "manifest.json")
    _write_manifest(out_dir, "solve", _problem_echo(document, problem, options),
                    list(files), all_passed)
    return ResultBundle(out_dir, files, all_passed)


def _build_symmetry_initial(spec: dict | None, problem: LaxProblem) -> AlgebraElement:
    base = problem.initial.descriptor
    if spec is None or spec["kind"] == "identity":
        return identity_operator(base)
    if spec["kind"] == "ad-of-initial":
        return ad_operator(problem.initial)
    descriptor = operator_descriptor(base)
    return _build_element(descriptor, spec["value"])


def run_symmetry(document: dict, out_dir: str, overrides: dict | None = None) -> ResultBundle:
    problem, options = build_problem(document, overrides)
    os.makedirs(out_dir, exist_ok=True)
    s0_spec = options.get("symmetry_s0")
    initial_operator = _build_symmetry_initial(s0_spec, problem)

    lax_result = solve_lax(problem)
    sym = solve_symmetry(initial_operator, problem.path, problem.q0,
                         problem.order, problem.grid)

    rows: list[DiagnosticRow] = []
    rows.extend(_grade_rows("operator_flow_residual", lax_residual(sym), RESIDUAL_TOL))
    rows.extend(_grade_rows("applied_flow_residual",
                            symmetry_residual_full(sym, lax_result), RESIDUAL_TOL))
    rows.extend(_grade_rows("ad_exp_gap", check_ad_exp_ad(lax_result.group, sym.group),
                            AD_EXP_TOL))
    if s0_spec is not None and s0_spec["kind"] == "ad-of-initial":
        gap = grade_max_norms(
            sym.flow.descriptor, sym.flow.values,
            lambda block: sym.flow.values[block] - ad_matrices(lax_result.flow.values[block]))
        rows.extend(_grade_rows("equivariance_gap", gap, EQUIVARIANCE_TOL))

    _write_flow_csv(os.path.join(out_dir, "flow.csv"), sym.flow)
    all_passed = _write_diagnostics(os.path.join(out_dir, "diagnostics.csv"), rows)
    files = ("flow.csv", "diagnostics.csv", "manifest.json")
    _write_manifest(out_dir, "symmetry", _problem_echo(document, problem, options),
                    list(files), all_passed)
    return ResultBundle(out_dir, files, all_passed)


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


def _write_sweep_csv(path: str, sweep_values, flows) -> None:
    """``q0, t`` and the evaluated entries at every node, formatted a column at a time."""
    descriptor = flows[0].descriptor
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["q0", "t", *_sweep_entry_columns(descriptor)])
        for q0, flow in zip(sweep_values, flows):
            evaluated = evaluate_values(descriptor, flow.values, q0).reshape(len(flow), -1)
            if descriptor.field == COMPLEX:
                evaluated = np.stack([evaluated.real, evaluated.imag], axis=-1).reshape(
                    len(flow), -1)
            times = map(float.__repr__, flow.times.tolist())
            entries = (map(float.__repr__, column) for column in evaluated.T.tolist())
            writer.writerows(zip([_format_value(q0)] * len(flow), times, *entries))


def run_sweep(document: dict, out_dir: str, overrides: dict | None = None) -> ResultBundle:
    problem, options = build_problem(document, overrides)
    if problem.initial.descriptor.backend != MATRIX:
        raise CapabilityError("sweeps evaluate entrywise and need the matrix backend")
    os.makedirs(out_dir, exist_ok=True)
    sweep_values = options.get("sweep", [0.2, 0.1, 0.05])

    points = [solve_lax(LaxProblem(problem.initial, problem.path, q0, problem.order,
                                   problem.grid))
              for q0 in sweep_values]
    _write_sweep_csv(os.path.join(out_dir, "sweep.csv"), sweep_values,
                     [point.flow for point in points])

    expected = problem.order + 1
    convergence_rows = []
    asserted_failures = 0
    previous = None
    for q0, error in zip(sweep_values, oracle_errors(points)):
        estimate = ""
        deviation = ""
        asserted = False
        passed = ""
        if previous is not None:
            prev_q0, prev_error = previous
            # near-exact truncations (nilpotent problems) leave only roundoff,
            # where order estimates are meaningless noise: skip those pairs
            if error > ORDER_NOISE_FLOOR and prev_error > ORDER_NOISE_FLOOR \
                    and prev_q0 != q0:
                estimate = float(np.log(prev_error / error) / np.log(prev_q0 / q0))
                deviation = abs(estimate - expected)
                asserted = max(prev_q0, q0) <= SWEEP_ASSERT_MAX_Q0
                if asserted:
                    passed = deviation <= ORDER_WINDOW
                    if not passed:
                        asserted_failures += 1
        convergence_rows.append((q0, error, estimate, deviation, expected, asserted, passed))
        previous = (q0, error)
    _write_csv(os.path.join(out_dir, "convergence.csv"),
               ["q0", "oracle_error", "order_estimate", "order_deviation",
                "expected_order", "asserted", "passed"],
               convergence_rows)

    all_passed = asserted_failures == 0
    files = ("sweep.csv", "convergence.csv", "manifest.json")
    inputs = _problem_echo(document, problem, options)
    inputs["sweep"] = list(sweep_values)
    _write_manifest(out_dir, "sweep", inputs, list(files), all_passed)
    return ResultBundle(out_dir, files, all_passed)


def run_appendix(out_dir: str, coefficients=(0.0, 0.5, -0.5), margin: float = 1e-3,
                 points: int = 2001, t_values=(0.9, -0.9, 0.5, -0.5, 0.1),
                 dt: float = 1e-7) -> ResultBundle:
    os.makedirs(out_dir, exist_ok=True)
    try:
        model = AppendixModel(tuple(float(c) for c in coefficients),
                              float(margin), int(points))
    except ModelError as exc:
        _write_json(os.path.join(out_dir, "report.json"),
                    {"schema": 1, "model_error": str(exc), "all_passed": False})
        _write_manifest(out_dir, "appendix",
                        {"coefficients": list(coefficients), "margin": margin,
                         "points": points}, ["report.json", "manifest.json"], False)
        raise

    checks = []
    grid = model.grid()
    for t in t_values:
        bounds = verify_diffeo_bounds(model, t)
        c_values = c_path(model, t, grid)
        monotone = bool(np.all(np.diff(c_values) > 0.0))
        checks.append({
            "name": "bounds",
            "t": t,
            "passed": bounds.passed and monotone,
            "enclosure_violations": bounds.enclosure_violations,
            "derivative_violations": bounds.derivative_violations,
            "min_enclosure_gap": bounds.min_enclosure_gap,
            "min_derivative_gap": bounds.min_derivative_gap,
            "monotone": monotone,
        })
    velocity = velocity_at_zero(model, dt)
    checks.append({
        "name": "velocity_at_zero",
        "passed": velocity.passed,
        "dt": velocity.dt,
        "max_deviation": velocity.max_deviation,
        "max_analytic_deviation": velocity.max_analytic_deviation,
        "branches_match": velocity.branches_match,
    })
    witness = demonstrate_nonregularity(model)
    checks.append({
        "name": "translation_witness",
        "passed": witness.passed,
        "x": witness.x,
        "t": witness.t,
        "translation_value": witness.translation_value,
        "translation_exits": witness.translation_exits,
        "path_value": witness.path_value,
        "path_enclosed": witness.path_enclosed,
        "identity_at_zero": witness.identity_at_zero,
    })
    bound_gap = float((model.p(grid) - phi(model, 0.999, grid)).min())
    checks.append({
        "name": "phi_dominated_by_p",
        "passed": bound_gap > 0.0,
        "min_gap_at_t_0.999": bound_gap,
    })

    all_passed = all(check["passed"] for check in checks)
    report = {
        "schema": 1,
        "model": {"coefficients": list(model.coefficients), "margin": model.margin,
                  "points": model.points},
        "checks": checks,
        "all_passed": all_passed,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    files = ("report.json", "manifest.json")
    _write_manifest(out_dir, "appendix", report["model"], list(files), all_passed)
    return ResultBundle(out_dir, files, all_passed)


def run_selftest(out_dir: str) -> ResultBundle:
    """A fixed battery with pinned inputs; bundles are byte-identical across runs."""
    os.makedirs(out_dir, exist_ok=True)
    solve_doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "sl2-nilpotent"},
        "q0": 0.5,
        "N": 6,
        "grid": {"h": 2e-3, "T": 0.5},
    }
    solve_bundle = run_solve(solve_doc, os.path.join(out_dir, "solve"))
    symmetry_doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "rotation-2"},
        "q0": 0.5,
        "N": 4,
        "grid": {"h": 1e-3, "T": 0.25},
        "options": {"symmetry_s0": {"kind": "ad-of-initial"}},
    }
    symmetry_bundle = run_symmetry(symmetry_doc, os.path.join(out_dir, "symmetry"))
    appendix_bundle = run_appendix(os.path.join(out_dir, "appendix"))

    table_rows = []
    for left, right, product in composition_table(gr1_monoid(), grade=1):
        table_rows.append((
            left[0].label, right[0].label,
            "undefined" if product is None else product[0].label,
            "" if product is None else product[1],
        ))
    _write_csv(os.path.join(out_dir, "gr1_table.csv"),
               ["left", "right", "result", "grade"], table_rows)

    all_passed = all(b.all_passed for b in (solve_bundle, symmetry_bundle, appendix_bundle))
    files = ("gr1_table.csv", "manifest.json")
    _write_manifest(out_dir, "selftest",
                    {"solve": solve_doc, "symmetry": symmetry_doc, "appendix": "default"},
                    list(files), all_passed)
    return ResultBundle(out_dir, files, all_passed)


# -- argument parsing ---------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("problem", nargs="?", help="JSON problem file")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="use a named preset instead of a problem file")
    parser.add_argument("--order", type=int, help="truncation order N")
    parser.add_argument("--q0", type=float, help="scaling parameter in (0, 1]")
    parser.add_argument("--step", type=float, help="grid step h")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlax",
        description="graded operator-series flows with numeric verification")
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("solve", "symmetry", "sweep"):
        sub = commands.add_parser(name)
        _add_common_flags(sub)

    appendix = commands.add_parser("appendix")
    appendix.add_argument("--poly", default="0,0.5,-0.5",
                          help="comma-separated polynomial coefficients, low degree first")
    appendix.add_argument("--margin", type=float, default=1e-3)
    appendix.add_argument("--points", type=int, default=2001)
    appendix.add_argument("--t-values", default="0.9,-0.9,0.5,-0.5,0.1")
    appendix.add_argument("--out", default="qlax-out")

    selftest = commands.add_parser("selftest")
    selftest.add_argument("--out", default="qlax-out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "solve":
            bundle = run_solve(_document_from_args(args), args.out, _overrides_from_args(args))
        elif args.command == "symmetry":
            bundle = run_symmetry(_document_from_args(args), args.out, _overrides_from_args(args))
        elif args.command == "sweep":
            bundle = run_sweep(_document_from_args(args), args.out, _overrides_from_args(args))
        elif args.command == "appendix":
            coefficients = [float(c) for c in args.poly.split(",")]
            t_values = [float(t) for t in args.t_values.split(",")]
            bundle = run_appendix(args.out, coefficients, args.margin, args.points, t_values)
        else:
            bundle = run_selftest(args.out)
    except ModelError as exc:
        print(f"appendix model rejected: {exc}", file=sys.stderr)
        return 4
    except ProblemFormatError as exc:
        print(f"problem rejected: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability unavailable: {exc}", file=sys.stderr)
        return 3
    except AlgebraError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    status = "PASS" if bundle.all_passed else "FAIL"
    print(f"{args.command}: {status} in {elapsed:.2f}s -> {bundle.out_dir}")
    return bundle.exit_code


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
