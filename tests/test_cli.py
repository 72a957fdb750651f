from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qlax import AlgebraElement, algebra, cli, lax, matrix_descriptor, timeorder
from qlax.algebra import MAX_FLOW_BYTES, DomainError, element_norms
from qlax.cli import (
    ProblemFormatError,
    _flow_json_payload,
    _sweep_entry_columns,
    _write_csv,
    _write_flow_csv,
    _write_json,
    _write_sweep_csv,
    build_problem,
    main,
)
from qlax.nonregular import (
    MAX_GRID_POINTS,
    AppendixModel,
    demonstrate_nonregularity,
    velocity_at_zero,
    verify_diffeo_bounds,
)
from qlax.series import evaluated
from qlax.symmetry import ad_operator, ad_path, solve_symmetry
from qlax.timeorder import FlowSample, LaxProblem, OperatorPath

from helpers import count_samples, flow_csv_reference

SL2_DOC = {
    "schema": 1,
    "backend": {"kind": "matrix", "n": 2, "field": "real"},
    "L0": [[0.0, 0.0], [1.0, 0.0]],
    "P": {"kind": "constant", "value": [[0.0, 1.0], [0.0, 0.0]]},
    "q0": 0.5,
    "N": 4,
    "grid": {"h": 0.002, "T": 0.2},
}

DIFFOP_DOC = {
    "schema": 1,
    "backend": {"kind": "circle-diffop", "max_order": 1, "max_mode": 6},
    "L0": {"1": [0] * 6 + [1.0] + [0] * 6,
           "0": [0] * 5 + [0.2, 0, 0.2] + [0] * 5},
    "P": {"kind": "constant",
          "value": {"0": [0] * 5 + [[0, 0.1], 0, [0, -0.1]] + [0] * 5}},
    "q0": 0.5,
    "N": 3,
    "grid": {"h": 0.002, "T": 0.1},
}


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


PRESET_DOC = {
    "schema": 1,
    "P": {"kind": "preset", "name": "sl2-nilpotent"},
    "q0": 0.5,
    "N": 3,
    "grid": {"h": 0.002, "T": 0.2},
    "options": {"trace_powers": [1, 2], "sweep": [0.2, 0.1],
                "symmetry_s0": {"kind": "matrix", "value": np.eye(4).tolist()}},
}

POLY_DOC = {**SL2_DOC, "P": {"kind": "poly", "coeffs": [SL2_DOC["P"]["value"], SL2_DOC["L0"]]}}

MISSING = object()


def _edited(document, where, value):
    """A deep copy of ``document`` with the value at ``where`` (keys joined by ``/``)
    set to ``value``, or removed if ``value`` is ``MISSING``."""
    document = copy.deepcopy(document)
    *parents, last = where.split("/")
    target = document
    for key in parents:
        target = target[int(key) if isinstance(target, list) else key]
    if isinstance(target, list):
        last = int(last)
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return document


def _malformed(base, where, value, flags=()):
    """A test case; its id is the edit, or the flags, with brackets written as parentheses
    and double quotes as single ones."""
    shown = "missing" if value is MISSING else json.dumps(value, separators=(",", ":"))
    case = "=".join(flags) if flags else f"{where}={shown}"
    return pytest.param(base, where, value, list(flags),
                        id=case.replace('"', "'").translate(str.maketrans("[]{}", "()()"))[:40])


MALFORMED = [
    # an unknown key at every object level
    _malformed(SL2_DOC, "mystery", 3),
    _malformed(SL2_DOC, "backend/rows", 2),
    _malformed(DIFFOP_DOC, "backend/n", 2),
    _malformed(SL2_DOC, "P/scale", 1.0),
    _malformed(PRESET_DOC, "P/value", [[1.0]]),
    _malformed(SL2_DOC, "grid/dt", 0.1),
    _malformed(PRESET_DOC, "options/colour", "red"),
    _malformed(PRESET_DOC, "options/symmetry_s0/scale", 2.0),
    _malformed(PRESET_DOC, "options/symmetry_s0", {"kind": "identity", "value": [[1.0]]}),
    # each missing required key
    _malformed(SL2_DOC, "schema", MISSING),
    _malformed(SL2_DOC, "P", MISSING),
    _malformed(SL2_DOC, "backend", MISSING),
    _malformed(SL2_DOC, "L0", MISSING),
    _malformed(SL2_DOC, "backend/kind", MISSING),
    _malformed(SL2_DOC, "backend/n", MISSING),
    _malformed(DIFFOP_DOC, "backend/max_order", MISSING),
    _malformed(DIFFOP_DOC, "backend/max_mode", MISSING),
    _malformed(SL2_DOC, "P/kind", MISSING),
    _malformed(SL2_DOC, "P/value", MISSING),
    _malformed(POLY_DOC, "P/coeffs", MISSING),
    _malformed(PRESET_DOC, "P/name", MISSING),
    _malformed(SL2_DOC, "grid/h", MISSING),
    _malformed(SL2_DOC, "grid/T", MISSING),
    _malformed(PRESET_DOC, "options/symmetry_s0/kind", MISSING),
    _malformed(PRESET_DOC, "options/symmetry_s0/value", MISSING),
    # a wrong JSON type, and a bool where a number goes
    _malformed(SL2_DOC, "q0", "0.5"),
    _malformed(SL2_DOC, "q0", True),
    _malformed(SL2_DOC, "N", False),
    _malformed(SL2_DOC, "grid", [0.002, 0.2]),
    _malformed(SL2_DOC, "grid/h", [0.002]),
    _malformed(SL2_DOC, "grid/T", None),
    _malformed(SL2_DOC, "L0", {"0": [0.0, 1.0]}),
    _malformed(SL2_DOC, "L0/0", 0.0),
    _malformed(SL2_DOC, "L0/0/0", "0"),
    _malformed(SL2_DOC, "L0/0/0", True),
    _malformed(SL2_DOC, "L0/0/0", [0.0, 1.0, 2.0]),
    _malformed(SL2_DOC, "L0/0/0", [0.0, False]),
    _malformed(SL2_DOC, "L0/0/0", [0.5, 0.5]),
    _malformed(DIFFOP_DOC, "L0", [[1.0]]),
    _malformed(DIFFOP_DOC, "L0/1", 1.0),
    _malformed(DIFFOP_DOC, "backend/field", "real"),
    _malformed(SL2_DOC, "backend/field", "quaternion"),
    _malformed(POLY_DOC, "P/coeffs", SL2_DOC["L0"]),
    _malformed(PRESET_DOC, "options", []),
    _malformed(PRESET_DOC, "options/trace_powers", 2),
    _malformed(PRESET_DOC, "options/sweep", [True]),
    _malformed(PRESET_DOC, "options/symmetry_s0/value", [[1.0, "x"]]),
    # the schema version
    _malformed(SL2_DOC, "schema", 2),
    _malformed(SL2_DOC, "schema", "1"),
    # out of range
    _malformed(SL2_DOC, "q0", 0),
    _malformed(SL2_DOC, "q0", 1.5),
    _malformed(PRESET_DOC, "q0", -0.5),
    _malformed(SL2_DOC, "N", 0),
    _malformed(SL2_DOC, "grid/h", 0),
    _malformed(SL2_DOC, "grid/h", -0.002),
    _malformed(SL2_DOC, "grid/T", 0),
    _malformed(SL2_DOC, "backend/n", 0),
    _malformed(DIFFOP_DOC, "backend/max_order", -1),
    _malformed(DIFFOP_DOC, "backend/max_mode", 0),
    _malformed(PRESET_DOC, "options/trace_powers", [0]),
    _malformed(PRESET_DOC, "options/trace_powers", [1, 5]),
    _malformed(PRESET_DOC, "options/trace_powers", []),
    _malformed(PRESET_DOC, "options/sweep", [0.2, 0]),
    _malformed(PRESET_DOC, "options/sweep", [1.5]),
    _malformed(PRESET_DOC, "options/sweep", []),
    # diffop keys are derivative orders within the cap
    _malformed(DIFFOP_DOC, "L0/-1", [0] * 13),
    _malformed(DIFFOP_DOC, "L0/1a", [0] * 13),
    _malformed(DIFFOP_DOC, "L0/2", [0] * 13),
    # a bad symmetry seed
    _malformed(PRESET_DOC, "options/symmetry_s0/kind", "random"),
    _malformed(PRESET_DOC, "options/symmetry_s0/value", []),
    _malformed(PRESET_DOC, "options/symmetry_s0/value", [[]]),
    # empty coefficients, and unknown kinds and names
    _malformed(POLY_DOC, "P/coeffs", []),
    _malformed(SL2_DOC, "P/kind", "spline"),
    _malformed(SL2_DOC, "backend/kind", "tensor"),
    _malformed(PRESET_DOC, "P/name", "toda-4"),
    # documents that crashed with a traceback before this parser
    _malformed(PRESET_DOC, "N", 4.0),
    _malformed(SL2_DOC, "backend/n", 2.0),
    _malformed(DIFFOP_DOC, "backend/max_mode", 6.0),
    _malformed(SL2_DOC, "grid/T", float("inf")),
    _malformed(SL2_DOC, "L0/0/0", float("nan")),
    _malformed(PRESET_DOC, "P/name", ["sl2-nilpotent"]),
    _malformed(PRESET_DOC, "schema", 1.0),
    _malformed(PRESET_DOC, "options/trace_powers", [1.0]),
    _malformed(SL2_DOC, "grid/h", 1e-310),
    # non-finite grid flags
    _malformed(PRESET_DOC, "grid", MISSING, ["--step", "nan"]),
    _malformed(PRESET_DOC, "grid", MISSING, ["--horizon", "nan"]),
    _malformed(PRESET_DOC, "grid", MISSING, ["--horizon", "inf"]),
]


@pytest.mark.parametrize("base, where, value, flags", MALFORMED)
def test_malformed_documents_exit_2(tmp_path, base, where, value, flags):
    build_problem(base)  # so the edit is what makes the document malformed
    document = _edited(base, where, value)
    for command in ("solve", "symmetry", "sweep"):
        out = tmp_path / command
        assert main([command, _write(tmp_path, document), *flags, "--out", str(out)]) == 2
        assert not out.exists()


def test_build_problem_from_document():
    problem, options = build_problem(SL2_DOC)
    assert problem.q0 == 0.5
    assert problem.order == 4
    assert problem.grid == (0.002, 0.2)
    assert options == {}
    overridden, _ = build_problem(SL2_DOC, {"q0": 0.25, "order": 6})
    assert overridden.q0 == 0.25 and overridden.order == 6


def test_build_problem_guards():
    with pytest.raises(ProblemFormatError):
        build_problem({"schema": 1})  # no P
    preset_plus_l0 = {
        "schema": 1,
        "P": {"kind": "preset", "name": "toda-3"},
        "L0": [[1.0]],
        "backend": {"kind": "matrix", "n": 1},
    }
    with pytest.raises(ProblemFormatError):
        build_problem(preset_plus_l0)
    wrong_shape = {**SL2_DOC, "L0": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}
    with pytest.raises(ProblemFormatError):
        build_problem(wrong_shape)
    complex_in_real = {**SL2_DOC, "L0": [[[0.0, 1.0], 0.0], [0.0, 0.0]]}
    with pytest.raises(ProblemFormatError):
        build_problem(complex_in_real)
    zero_imaginary = {**SL2_DOC, "L0": [[[0.5, 0.0], 0.0], [1.0, [0.0, -0.0]]]}
    problem, _ = build_problem(zero_imaginary)
    assert problem.initial.data.dtype == np.float64
    assert problem.initial.data.tolist() == [[0.5, 0.0], [1.0, 0.0]]


def test_integers_reach_the_manifest_as_written(tmp_path):
    doc = {**SL2_DOC, "q0": 1, "grid": {"h": 0.01, "T": 1}}
    out = tmp_path / "integers"
    assert main(["solve", _write(tmp_path, doc), "--out", str(out)]) == 0
    inputs = _read_json(out / "manifest.json")["inputs"]
    for echo in (inputs, inputs["document"]):
        assert type(echo["q0"]) is int and echo["q0"] == 1
        assert type(echo["grid"]["T"]) is int and echo["grid"] == {"h": 0.01, "T": 1}


def test_solve_command_bundle(tmp_path):
    out = str(tmp_path / "out")
    code = main(["solve", _write(tmp_path, SL2_DOC), "--out", out])
    assert code == 0
    for name in ("flow.csv", "flow.json", "diagnostics.csv", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    rows = _read_rows(os.path.join(out, "diagnostics.csv"))
    assert all(row["passed"] == "true" for row in rows)
    checks = {row["check"] for row in rows}
    assert "lax_residual" in checks
    assert "trace_drift_k1" in checks
    assert "oracle_exact" in checks or "oracle_decay" in checks
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert manifest["schema"] == 1
    assert manifest["all_passed"] is True
    assert "timings" not in manifest
    flow = _read_json(os.path.join(out, "flow.json"))
    assert (flow["schema"], flow["order"]) == (2, 4)
    assert len(flow["coefficients"]) == flow["order"] + 1


def test_solve_with_preset_flag(tmp_path):
    out = str(tmp_path / "preset-out")
    code = main(["solve", "--preset", "sl2-nilpotent", "--order", "4", "--q0", "0.25",
                 "--step", "0.002", "--horizon", "0.2", "--out", out])
    assert code == 0
    inputs = _read_json(os.path.join(out, "manifest.json"))["inputs"]
    assert (inputs["q0"], inputs["order"], inputs["grid"]) == (0.25, 4, {"h": 0.002, "T": 0.2})


def test_solve_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--out", str(tmp_path / "x")]) == 2
    bad.write_bytes(b"\xff\xfe")
    assert main(["solve", str(bad), "--out", str(tmp_path / "x")]) == 2
    bad.write_text('{"schema": 1, "P": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["solve", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()
    unknown = _write(tmp_path, {**SL2_DOC, "mystery": 3}, "unknown.json")
    assert main(["solve", unknown, "--out", str(tmp_path / "y")]) == 2
    assert main(["solve", "--out", str(tmp_path / "z")]) == 2  # no input at all


def test_solve_diffop_backend_exits_3(tmp_path):
    code = main(["solve", _write(tmp_path, DIFFOP_DOC), "--out", str(tmp_path / "d")])
    assert code == 3


def test_diffop_real_field_exits_2(tmp_path):
    # diffop coefficients are complex; a real field is a malformed file
    doc = {**DIFFOP_DOC, "backend": {**DIFFOP_DOC["backend"], "field": "real"}}
    with pytest.raises(ProblemFormatError):
        build_problem(doc)
    assert main(["solve", _write(tmp_path, doc), "--out", str(tmp_path / "d")]) == 2


def test_symmetry_command(tmp_path):
    doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "rotation-2"},
        "q0": 0.5,
        "N": 3,
        "grid": {"h": 0.001, "T": 0.1},
        "options": {"symmetry_s0": {"kind": "ad-of-initial"}},
    }
    out = str(tmp_path / "sym")
    assert main(["symmetry", _write(tmp_path, doc), "--out", out]) == 0
    rows = _read_rows(os.path.join(out, "diagnostics.csv"))
    checks = {row["check"] for row in rows}
    assert {"operator_flow_residual", "applied_flow_residual",
            "ad_exp_gap", "equivariance_gap"} <= checks
    assert all(row["passed"] == "true" for row in rows)


def test_symmetry_identity_default(tmp_path):
    doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "rotation-2"},
        "N": 3,
        "grid": {"h": 0.002, "T": 0.1},
    }
    out = str(tmp_path / "sym-id")
    assert main(["symmetry", _write(tmp_path, doc), "--out", out]) == 0
    rows = _read_rows(os.path.join(out, "diagnostics.csv"))
    assert "equivariance_gap" not in {row["check"] for row in rows}


def test_symmetry_diffop_exits_3(tmp_path):
    assert main(["symmetry", _write(tmp_path, DIFFOP_DOC),
                 "--out", str(tmp_path / "s3")]) == 3


def test_sweep_command(tmp_path):
    doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "sl2-nilpotent"},
        "N": 3,
        "grid": {"h": 0.002, "T": 0.2},
        "options": {"sweep": [0.2, 0.1]},
    }
    out = str(tmp_path / "sweep")
    assert main(["sweep", _write(tmp_path, doc), "--out", out]) == 0
    sweep_rows = _read_rows(os.path.join(out, "sweep.csv"))
    assert {row["q0"] for row in sweep_rows} == {"0.2", "0.1"}
    assert "e00" in sweep_rows[0]
    conv_rows = _read_rows(os.path.join(out, "convergence.csv"))
    assert len(conv_rows) == 2


def test_sweep_singleton_is_degenerate(tmp_path):
    doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "sl2-nilpotent"},
        "N": 3,
        "grid": {"h": 0.002, "T": 0.2},
        "options": {"sweep": [0.5]},
    }
    out = str(tmp_path / "single")
    assert main(["sweep", _write(tmp_path, doc), "--out", out]) == 0
    conv_rows = _read_rows(os.path.join(out, "convergence.csv"))
    assert len(conv_rows) == 1
    assert conv_rows[0]["asserted"] == "false"


def test_sweep_with_q0_one_emits_rows_without_assertion(tmp_path):
    doc = {
        "schema": 1,
        "P": {"kind": "preset", "name": "sl2-nilpotent"},
        "N": 3,
        "grid": {"h": 0.002, "T": 0.2},
        "options": {"sweep": [1.0, 0.5]},
    }
    out = str(tmp_path / "one")
    assert main(["sweep", _write(tmp_path, doc), "--out", out]) == 0
    conv_rows = _read_rows(os.path.join(out, "convergence.csv"))
    assert all(row["asserted"] == "false" for row in conv_rows)


def test_sweep_fails_pairs_with_non_finite_errors(tmp_path):
    # P = +-1e200 overflows the flow, so every oracle error is NaN; no order can be
    # measured from them, and a pair that holds one is asserted and fails
    doc = {
        "schema": 1,
        "backend": {"kind": "matrix", "n": 2, "field": "real"},
        "L0": [[1.0, 0.0], [0.0, -1.0]],
        "P": {"kind": "constant", "value": [[0.0, 1e200], [-1e200, 0.0]]},
        "N": 2,
        "grid": {"h": 0.1, "T": 1.0},
    }
    out = str(tmp_path / "nan")
    with np.errstate(all="ignore"):
        assert main(["sweep", _write(tmp_path, doc), "--out", out]) == 1
    assert _read_json(os.path.join(out, "manifest.json"))["all_passed"] is False
    rows = _read_rows(os.path.join(out, "convergence.csv"))
    assert [(row["oracle_error"], row["asserted"], row["passed"]) for row in rows] == [
        ("nan", "false", ""), ("nan", "true", "false"), ("nan", "true", "false")]


def test_sweep_fails_a_lone_non_finite_error(tmp_path):
    # one scaling makes no pair, but its NaN error is asserted and fails on its own
    doc = {
        "schema": 1,
        "backend": {"kind": "matrix", "n": 2, "field": "real"},
        "L0": [[1.0, 0.0], [0.0, -1.0]],
        "P": {"kind": "constant", "value": [[0.0, 1e200], [-1e200, 0.0]]},
        "N": 2,
        "grid": {"h": 0.1, "T": 1.0},
        "options": {"sweep": [0.2]},
    }
    out = str(tmp_path / "nan")
    with np.errstate(all="ignore"):
        assert main(["sweep", _write(tmp_path, doc), "--out", out]) == 1
    assert _read_json(os.path.join(out, "manifest.json"))["all_passed"] is False
    rows = _read_rows(os.path.join(out, "convergence.csv"))
    assert [(row["oracle_error"], row["asserted"], row["passed"]) for row in rows] == [
        ("nan", "true", "false")]


def test_solve_residual_floor_is_roundoff_at_a_coarse_step(tmp_path):
    # the residual's derivative is exact, so a coarse grid adds no step error; an
    # h^2 error of a difference quotient would read 3.2e-6 here, over RESIDUAL_TOL
    out = tmp_path / "coarse"
    assert main(["solve", "--preset", "toda-3", "--step", "0.01", "--out", str(out)]) == 0
    rows = [row for row in _read_rows(out / "diagnostics.csv")
            if row["check"] == "lax_residual"]
    assert len(rows) == 9
    assert all(float(row["value"]) <= 1e-13 for row in rows)


def test_appendix_command(tmp_path):
    out = str(tmp_path / "appendix")
    assert main(["appendix", "--out", out]) == 0
    report = _read_json(os.path.join(out, "report.json"))
    assert report["all_passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert {"bounds", "velocity_at_zero", "translation_witness"} <= names


def test_appendix_checks_are_the_library_reports(tmp_path):
    out = str(tmp_path / "appendix")
    assert main(["appendix", "--poly", "0,0.4,-0.4", "--t-values", "0.99,-0.3",
                 "--out", out]) == 0
    checks = _read_json(os.path.join(out, "report.json"))["checks"]
    model = AppendixModel((0.0, 0.4, -0.4))
    reports = [("bounds", verify_diffeo_bounds(model, 0.99)),
               ("bounds", verify_diffeo_bounds(model, -0.3)),
               ("velocity_at_zero", velocity_at_zero(model)),
               ("translation_witness", demonstrate_nonregularity(model))]
    for check, (name, report) in zip(checks, reports):
        assert check == {"name": name, "passed": report.passed, **dataclasses.asdict(report)}
    assert [check["name"] for check in checks[len(reports):]] == ["phi_dominated_by_p"]


def test_appendix_time_out_of_range_writes_nothing(tmp_path):
    out = tmp_path / "appendix"
    assert main(["appendix", "--t-values", "1.5", "--out", str(out)]) == 2
    assert not out.exists()


def test_appendix_bad_model_exits_4(tmp_path):
    out = str(tmp_path / "bad-appendix")
    assert main(["appendix", "--poly", "0,2,-2", "--out", out]) == 4
    report = _read_json(os.path.join(out, "report.json"))
    assert report["all_passed"] is False
    assert "model_error" in report


def test_selftest_determinism(tmp_path):
    first = str(tmp_path / "a")
    second = str(tmp_path / "b")
    assert main(["selftest", "--out", first]) == 0
    assert main(["selftest", "--out", second]) == 0
    for root, _dirs, files in os.walk(first):
        for name in files:
            left = os.path.join(root, name)
            right = os.path.join(second, os.path.relpath(left, first))
            with open(left, "rb") as lf, open(right, "rb") as rf:
                assert lf.read() == rf.read(), f"{name} differs between runs"


def test_selftest_gr1_table(tmp_path):
    out = str(tmp_path / "st")
    assert main(["selftest", "--out", out]) == 0
    rows = _read_rows(os.path.join(out, "gr1_table.csv"))
    assert len(rows) == 25
    defined = [row for row in rows if row["result"] != "undefined"]
    assert len(defined) == 4
    lookup = {(row["left"], row["right"]): row["result"] for row in rows}
    assert lookup[("[0;1]", "[0;1]")] == "[0;1]"
    assert lookup[("[0;1]", "]0;1]")] == "]0;1]"
    assert lookup[("[0;1[", "[0;1]")] == "[0;1["
    assert lookup[("[0;1[", "]0;1]")] == "]0;1["
    assert lookup[("S1", "[0;1]")] == "undefined"


SYMMETRY_DOC = {
    "schema": 1,
    "P": {"kind": "preset", "name": "rotation-2"},
    "q0": 0.5,
    "N": 3,
    "grid": {"h": 0.001, "T": 0.1},
    "options": {"symmetry_s0": {"kind": "ad-of-initial"}},
}

SWEEP_DOC = {**PRESET_DOC, "options": {"sweep": [0.2, 0.1]}}

TODA_DOC = {"schema": 1, "P": {"kind": "preset", "name": "toda-3"}, "N": 3,
            "grid": {"h": 0.002, "T": 0.1}}


def _plus_one(library_call):
    return lambda *args: library_call(*args) + 1.0


FAILING_CHECKS = [
    pytest.param("solve", SL2_DOC, "lax_residual", _plus_one, "lax_residual",
                 id="solve-lax_residual"),
    pytest.param("solve", SL2_DOC, "conserved_trace_tables",
                 lambda tables: lambda *args: {
                     power: dataclasses.replace(table, drift=table.drift + 1.0)
                     for power, table in tables(*args).items()},
                 "trace_drift_k", id="solve-trace_drift"),
    pytest.param("solve", SL2_DOC, "oracle_integrate",
                 lambda oracle: lambda result: (1e-3, 1e-3),
                 "oracle_decay", id="solve-oracle_decay"),
    pytest.param("symmetry", SYMMETRY_DOC, "lax_residual", _plus_one,
                 "operator_flow_residual", id="symmetry-operator_flow_residual"),
    pytest.param("symmetry", SYMMETRY_DOC, "symmetry_residual_full", _plus_one,
                 "applied_flow_residual", id="symmetry-applied_flow_residual"),
    pytest.param("symmetry", SYMMETRY_DOC, "check_ad_exp_ad", _plus_one, "ad_exp_gap",
                 id="symmetry-ad_exp_gap"),
    pytest.param("symmetry", SYMMETRY_DOC, "equivariance_gap", _plus_one, "equivariance_gap",
                 id="symmetry-equivariance_gap"),
    # errors proportional to q0: a measured order of 1 where N + 1 = 4 is expected
    pytest.param("sweep", SWEEP_DOC, "oracle_errors",
                 lambda errors: lambda result, scalings: [1e-3 * q0 for q0 in scalings],
                 "0.1", id="sweep-pair"),
    pytest.param("appendix", None, "velocity_at_zero",
                 lambda velocity: lambda model: dataclasses.replace(velocity(model),
                                                                    max_deviation=1.0),
                 "velocity_at_zero", id="appendix-velocity_at_zero"),
]


def _passed_by_check(out, command, check) -> tuple[list, list]:
    """The ``passed`` cells of the rows (or reports) of ``check`` and of the
    other asserted checks in the bundle at ``out``."""
    if command == "appendix":
        cells = [(c["name"] == check, c["passed"])
                 for c in _read_json(out / "report.json")["checks"]]
    elif command == "sweep":
        cells = [(row["q0"] == check, row["passed"])
                 for row in _read_rows(out / "convergence.csv") if row["asserted"] == "true"]
    else:
        cells = [(row["check"].startswith(check), row["passed"])
                 for row in _read_rows(out / "diagnostics.csv")]
    return ([passed for mine, passed in cells if mine],
            [passed for mine, passed in cells if not mine])


@pytest.mark.parametrize("command, document, name, patch, check", FAILING_CHECKS)
def test_every_check_can_fail_its_bundle(monkeypatch, capsys, tmp_path, command, document,
                                         name, patch, check):
    out = tmp_path / "out"
    args = [command] if document is None else [command, _write(tmp_path, document)]
    assert main([*args, "--out", str(out)]) == 0
    monkeypatch.setattr(cli, name, patch(getattr(cli, name)))
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"{command}: FAIL in ")
    assert _read_json(out / "manifest.json")["all_passed"] is False
    failed, others = _passed_by_check(out, command, check)
    assert failed and all(passed in (False, "false") for passed in failed)
    assert all(passed in (True, "true") for passed in others)


def _raise_domain_error(*args):
    raise DomainError("injected")


BUNDLES = [
    pytest.param(["solve", SL2_DOC], None, 0, id="solve"),
    pytest.param(["symmetry", SYMMETRY_DOC], None, 0, id="symmetry"),
    pytest.param(["sweep", SWEEP_DOC], None, 0, id="sweep"),
    pytest.param(["appendix"], None, 0, id="appendix"),
    pytest.param(["appendix", "--poly", "0,2,-2"], None, 4, id="appendix-rejected"),
    pytest.param(["appendix", "--poly", "nan"], None, 4, id="appendix-nan"),
    pytest.param(["appendix", "--points", str(MAX_GRID_POINTS + 1)], None, 4,
                 id="appendix-points-cap"),
    pytest.param(["selftest"], None, 0, id="selftest"),
    pytest.param(["sweep", SWEEP_DOC], "oracle_errors", 2, id="sweep-oracle-error"),
    pytest.param(["sweep", DIFFOP_DOC], None, 3, id="sweep-diffop"),
    pytest.param(["solve", "--preset", "toda-3", "--step", "0.3"], None, 2,
                 id="solve-partial-step"),
    pytest.param(["solve", SL2_DOC, "--preset", "toda-3"], None, 2, id="solve-file-and-preset"),
    pytest.param(["symmetry", {**TODA_DOC, "options": {"symmetry_s0": {
        "kind": "matrix", "value": np.eye(4).tolist()}}}], None, 2, id="symmetry-s0-4x4-on-3x3"),
]


@pytest.mark.parametrize("args, fault, code", BUNDLES)
def test_bundle_holds_exactly_its_manifest_files(monkeypatch, tmp_path, args, fault, code):
    if fault is not None:
        monkeypatch.setattr(cli, fault, _raise_domain_error)
    out = tmp_path / "out"
    argv = [arg if isinstance(arg, str) else _write(tmp_path, arg) for arg in args]
    assert main([*argv, "--out", str(out)]) == code
    if code in (2, 3):
        assert not out.exists()
        return
    manifest = _read_json(out / "manifest.json")
    assert manifest["all_passed"] is (code == 0)
    bundles = {"solve", "symmetry", "appendix"} if args[0] == "selftest" else set()
    assert sorted(os.listdir(out)) == sorted([*manifest["outputs"], *bundles])
    for name in bundles:
        assert sorted(os.listdir(out / name)) == _read_json(out / name / "manifest.json")["outputs"]


def test_problem_size_caps():
    preset = {"schema": 1, "P": {"kind": "preset", "name": "toda-3"}}
    huge = [
        {**preset, "grid": {"h": 1e-9, "T": 1.0}},
        {**preset, "N": 10**9},
        {**SL2_DOC, "backend": {"kind": "matrix", "n": 10**5}},
        {**DIFFOP_DOC, "backend": {"kind": "circle-diffop", "max_order": 10**4,
                                   "max_mode": 10**4}},
    ]
    for document in huge:
        with pytest.raises(ProblemFormatError, match=f"exceed.* {MAX_FLOW_BYTES} bytes"):
            build_problem(document)


def test_the_fine_toda_operator_problem_is_under_the_size_cap():
    # qlax symmetry --preset toda-3 --step 1e-5 builds this 9x9 operator problem on
    # 100,001 nodes, and it is built here without being solved.  It counts 648-byte
    # payloads of 81 entries: the polynomials, 2 * 9 (11,664 bytes); the conjugation's
    # largest call, L_0 by g_1 .. g_8, 8 pairs of 648 + 8 * 81 + 64 bytes beside 4 * 9
    # payloads (34,208); a block of 44 sampled nodes of 9 payloads and 10 floats
    # (260,128); a block of 404 evaluated nodes of three payloads and three floats
    # (795,072); and 100,001 nodes' times and their list, 40 bytes each (4,000,040):
    # 5,101,112 bytes, under the cap
    problem, _ = build_problem({"schema": 1, "P": {"kind": "preset", "name": "toda-3"}},
                               {"step": 1e-5})
    operator = LaxProblem(ad_operator(problem.initial), ad_path(problem.path), problem.q0,
                          problem.order, problem.grid)
    assert timeorder._solve_bytes(operator.path.descriptor, 0, operator.order,
                                  100_000) == 5_101_112


def _special_flow(nodes: int, field: str) -> FlowSample:
    """A seeded 3x3, N=3 flow whose polynomials (of a degree-1 path) hold -0.0, a
    subnormal, huge, tiny and non-finite floats, and whose times end in -0.0, 5e-324
    and 1e16.  At the last node ``s = 1``, so grade ``i``'s ``(0, 0)`` entry is the sum
    of its coefficients' entries, which are all 0 but the first: ``nan``, ``inf``,
    ``1e-300`` and ``1e16``."""
    rng = np.random.default_rng(nodes)
    descriptor = matrix_descriptor(3, field)

    def draw(shape):
        scale = 10.0 ** rng.integers(-8, 8, size=shape)
        values = rng.standard_normal(shape) * scale
        if field == "complex":
            values = values + 1j * rng.standard_normal(shape) * scale
        return values

    times = np.cumsum(rng.uniform(0.0, 1e-2, nodes))
    times[-3:] = [-0.0, 5e-324, 1e16][-nodes:]
    coefficients = [draw((i + 1, 3, 3)) for i in range(4)]
    for stack, last in zip(coefficients, [np.nan, np.inf, 1e-300, 1e16]):
        stack[:, 0, 0] = 0.0
        stack[0, 0, 0] = last
    coefficients[0][0, 0, 1:] = [-0.0, 5e-324]
    coefficients[1][1, 2] = [np.inf, -np.inf, 1e300]
    if field == "complex":
        coefficients[3].imag[2, 1] = [-0.0, 5e-324, 1e16]
    return FlowSample(times, descriptor, coefficients, step=1e-2, q0=0.5)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("block_bytes", [algebra.BLOCK_BYTES, 1])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("nodes", [1, 2, 1001, "block+1"])
def test_flow_writers_match_nested_list_writers(monkeypatch, tmp_path, block_bytes, field,
                                                nodes):
    # "block+1": one node more than a flow.csv block holds at the default BLOCK_BYTES
    if nodes == "block+1":
        nodes = algebra.BLOCK_BYTES // (4 * 9 * matrix_descriptor(3, field).dtype.itemsize) + 1
    monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
    flow = _special_flow(nodes, field)
    # flow.json round-trips the times and every polynomial, bit for bit
    _write_json(str(tmp_path / "flow.json"), _flow_json_payload(flow))
    written = (tmp_path / "flow.json").read_text()
    assert {"NaN", "Infinity", "-Infinity"} <= set(written.replace(",", "").split())
    saved = json.loads(written)
    assert ((saved["schema"], saved["q0"], saved["order"], saved["step"])
            == (2, flow.q0, flow.order, flow.step))
    assert np.array(saved["times"]).tobytes() == flow.times.tobytes()
    assert len(saved["coefficients"]) == len(flow.coefficients)
    for stack, loaded in zip(flow.coefficients, saved["coefficients"]):
        loaded = np.array(loaded)
        if field == "complex":
            loaded = loaded.view(np.complex128)[..., 0]
        assert loaded.shape == stack.shape
        assert loaded.tobytes() == stack.tobytes()

    # flow.csv holds the bytes csv.writer writes
    path = str(tmp_path / "flow.csv")

    def writes_the_reference(norms) -> bool:
        # compared here, not in an assert: pytest's diff of two long tables takes minutes
        _write_flow_csv(path, flow)
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read() == flow_csv_reference(flow.times, norms)

    values = flow.nodes(slice(None))
    assert writes_the_reference(element_norms(flow.descriptor, values))
    assert {"nan", "inf"} <= {row["coeff_norm"] for row in _read_rows(path)}
    # norms read off each grade's (0, 0) entry reach reprs that no matrix norm can
    # (a norm of 1e-300 would square to below the least subnormal)
    monkeypatch.setattr(cli, "element_norms", lambda descriptor, values: values.real[..., 0, 0])
    assert writes_the_reference(values.real[..., 0, 0])
    assert {"1e-300", "1e+16", "nan", "inf"} <= {row["coeff_norm"] for row in _read_rows(path)}


def _count_solves(monkeypatch) -> dict[str, list]:
    """The ``q0`` of each ``solve_lax`` call that ``cli`` makes, and that ``lax`` makes of
    its own (the oracle's, say)."""
    calls = {"cli": [], "lax": []}
    original = lax.solve_lax

    def counter(name, solve):
        def counted(problem):
            calls[name].append(problem.q0)
            return solve(problem)
        return counted

    monkeypatch.setattr(lax, "solve_lax", counter("lax", original))
    monkeypatch.setattr(cli, "solve_lax", counter("cli", original))
    return calls


def test_sweep_solves_once_at_its_largest_scaling(monkeypatch, tmp_path):
    # every smaller scaling is the same series at a shorter time
    calls = _count_solves(monkeypatch)
    doc = {"schema": 1, "P": {"kind": "preset", "name": "toda-3"},
           "options": {"sweep": [0.1, 0.2, 0.05]}}
    assert main(["sweep", _write(tmp_path, doc), "--out", str(tmp_path / "sweep")]) == 0
    assert calls == {"cli": [0.2], "lax": []}


def test_solve_solves_once_and_the_oracle_never(monkeypatch, tmp_path):
    # the oracle reads its q0/2 errors off the command's one solve
    calls = _count_solves(monkeypatch)
    assert main(["solve", "--preset", "toda-3", "--order", "3", "--step", "0.002",
                 "--horizon", "0.1", "--out", str(tmp_path / "solve")]) == 0
    assert calls == {"cli": [0.5], "lax": []}


def _keep_results(monkeypatch) -> list:
    """The result of each ``solve_lax`` and ``solve_symmetry`` call that ``cli`` makes."""
    results = []

    def keeping(solve):
        def kept(*args):
            results.append(solve(*args))
            return results[-1]
        return kept

    monkeypatch.setattr(cli, "solve_lax", keeping(cli.solve_lax))
    monkeypatch.setattr(cli, "solve_symmetry", keeping(cli.solve_symmetry))
    return results


@pytest.mark.parametrize("command, samples", [("solve", 1), ("symmetry", 1), ("sweep", 0)])
def test_each_command_samples_only_the_flows_it_reads(monkeypatch, tmp_path, command, samples):
    # solve and symmetry sample each node of the flow they write to flow.csv once, a
    # block of nodes at a time, and hold no whole sample; the oracle and sweep.csv
    # evaluate polynomials, and no group's nodes are read
    sampled = count_samples(monkeypatch)
    results = _keep_results(monkeypatch)
    doc = {"schema": 1, "P": {"kind": "preset", "name": "toda-3"},
           "options": {"symmetry_s0": {"kind": "ad-of-initial"}} if command == "symmetry" else {}}
    assert main([command, _write(tmp_path, doc), "--out", str(tmp_path / command)]) == 0
    flow = results[-1].flow
    assert [node for _, nodes in sampled for node in nodes.tolist()] == (
        list(range(len(flow))) * samples)
    assert len(sampled) == len(flow.node_blocks()) * samples and len(flow.node_blocks()) > 1
    assert {descriptor for descriptor, _ in sampled} == ({flow.descriptor} if samples else set())
    if command == "symmetry":
        assert flow.descriptor.n == 9


def test_flow_writer_holds_about_a_block_of_nodes(tmp_path):
    # toda-3's 9x9 ad-of-initial operator flow samples to 1001 x 9 x 81 doubles (5.8 MB);
    # the writer samples and formats one block of nodes at a time
    problem, _ = build_problem({"schema": 1, "P": {"kind": "preset", "name": "toda-3"}})
    flow = solve_symmetry(ad_operator(problem.initial), problem.path, problem.q0,
                          problem.order, problem.grid).flow
    sample_bytes = len(flow) * (flow.order + 1) * math.prod(flow.descriptor.shape) * 8
    assert sample_bytes == 1001 * 9 * 81 * 8
    path = tmp_path / "flow.csv"
    tracemalloc.start()
    try:
        _write_flow_csv(str(path), flow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_text = path.stat().st_size / len(flow.node_blocks())
    assert peak <= 2 * algebra.BLOCK_BYTES + block_text < sample_bytes / 10


def test_symmetry_runs_without_importing_numpy_random(tmp_path):
    # the ad_exp_gap probe is in closed form: a fresh process pays nothing to import
    # numpy.random, which took 10-15 ms of a 30 ms qlax symmetry
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = ("import sys, qlax.cli\n"
              "args = ['symmetry', '--preset', 'toda-3', '--out', sys.argv[1]]\n"
              "assert qlax.cli.main(args) == 0\n"
              "assert 'numpy.random' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "symmetry")], env=env,
                   check=True, capture_output=True)


def test_main_builds_its_parser_once(monkeypatch):
    built, original = [], cli.build_parser

    def build_parser():
        built.append(None)
        return original()

    monkeypatch.setattr(cli, "build_parser", build_parser)
    cli._parser.cache_clear()
    try:
        assert [main(["solve"]) for _ in range(3)] == [2] * 3  # no problem file
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_solve_fails_the_oracle_row_promptly_on_an_infinite_path(monkeypatch, tmp_path):
    # problem files hold finite numbers only, but the library accepts an infinite
    # path: its Dyson bound x is infinite, the oracle has no reference and reads NaN
    problem, options = build_problem(TODA_DOC)
    generator = problem.path.coeffs[0].data.copy()
    generator[0, 1] = np.inf
    infinite = dataclasses.replace(problem, path=OperatorPath.constant(
        AlgebraElement(problem.path.descriptor, generator)))
    monkeypatch.setattr(cli, "build_problem", lambda document, overrides: (infinite, options))
    out = tmp_path / "solve"
    started = time.perf_counter()
    with np.errstate(all="ignore"):
        assert main(["solve", _write(tmp_path, TODA_DOC), "--out", str(out)]) == 1
    assert time.perf_counter() - started < 10.0
    rows = [row for row in _read_rows(out / "diagnostics.csv")
            if row["check"].startswith("oracle")]
    assert [(row["check"], row["value"], row["passed"]) for row in rows] == [
        ("oracle_decay", "nan", "false")]


def test_solve_refuses_an_oracle_reference_over_the_size_cap(monkeypatch, capsys, tmp_path):
    # the cap admits the order-3 solve but not the oracle's order-M > 3 reference
    problem, _ = build_problem(TODA_DOC)
    steps = round(TODA_DOC["grid"]["T"] / TODA_DOC["grid"]["h"])
    monkeypatch.setattr(timeorder, "MAX_FLOW_BYTES",
                        timeorder._solve_bytes(problem.path.descriptor, 0, 3, steps))
    out = tmp_path / "solve"
    assert main(["solve", _write(tmp_path, TODA_DOC), "--out", str(out)]) == 2
    assert "the oracle's order-4 reference" in capsys.readouterr().err
    assert not out.exists()


def test_symmetry_matrix_s0_matches_ad_of_initial(tmp_path):
    # S0 = ad(L0) given as a matrix flows exactly as the ad-of-initial option
    problem, _ = build_problem(TODA_DOC)
    matrix = {"kind": "matrix", "value": ad_operator(problem.initial).data.tolist()}
    rows = {}
    for s0 in (matrix, {"kind": "ad-of-initial"}):
        out = tmp_path / s0["kind"]
        document = {**TODA_DOC, "options": {"symmetry_s0": s0}}
        assert main(["symmetry", _write(tmp_path, document), "--out", str(out)]) == 0
        rows[s0["kind"]] = [row for row in _read_rows(out / "diagnostics.csv")
                            if row["check"] != "equivariance_gap"]
    checks = {row["check"] for row in rows["matrix"]}
    assert checks == {"operator_flow_residual", "applied_flow_residual", "ad_exp_gap"}
    assert rows["matrix"] == rows["ad-of-initial"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("field", ["real", "complex"])
def test_sweep_writer_matches_cell_by_cell_rows(monkeypatch, tmp_path, field):
    sweep_values = [1, 0.25, 0.5]  # an integer q0 is written as given
    for nodes in (1, 2, 1001):
        flow = _special_flow(nodes, field)
        s = flow.times / flow.times[-1]
        rows = []
        for q0 in sweep_values:
            values = evaluated(flow.coefficients, flow.q0, q0 / flow.q0 * s).reshape(
                len(flow), -1)
            if field == "complex":
                values = np.stack([values.real, values.imag], axis=-1).reshape(len(flow), -1)
            rows.extend((q0, t, *entries)
                        for t, entries in zip(flow.times.tolist(), values.tolist()))
        header = ["q0", "t", *_sweep_entry_columns(flow.descriptor)]
        _write_csv(str(tmp_path / "expected.csv"), header, rows)
        for block_bytes in (algebra.BLOCK_BYTES, 1):  # one block of nodes, one node a block
            monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
            _write_sweep_csv(str(tmp_path / "sweep.csv"), sweep_values, flow)
            written = (tmp_path / "sweep.csv").read_bytes()
            assert written == (tmp_path / "expected.csv").read_bytes()
    assert "1" in {row["q0"] for row in _read_rows(tmp_path / "sweep.csv")}
