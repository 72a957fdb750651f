from __future__ import annotations

import csv
import json
import os

import pytest

from qlax.cli import (
    PROBLEM_SCHEMA,
    ProblemFormatError,
    build_problem,
    main,
    validate_problem_document,
)

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


def test_schema_accepts_and_rejects():
    validate_problem_document(SL2_DOC)
    validate_problem_document(DIFFOP_DOC)
    with pytest.raises(ProblemFormatError):
        validate_problem_document({**SL2_DOC, "unknown_key": 1})
    with pytest.raises(ProblemFormatError):
        validate_problem_document({**SL2_DOC, "schema": 2})
    with pytest.raises(ProblemFormatError):
        validate_problem_document({**SL2_DOC, "q0": 1.5})
    bad_backend = {**SL2_DOC, "backend": {"kind": "matrix", "n": 2, "rows": 2}}
    with pytest.raises(ProblemFormatError):
        validate_problem_document(bad_backend)
    assert PROBLEM_SCHEMA["additionalProperties"] is False


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
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["schema"] == 1
    assert manifest["all_passed"] is True
    assert "timings" not in manifest
    flow = json.load(open(os.path.join(out, "flow.json")))
    assert flow["order"] == 4
    assert len(flow["series"]) == len(flow["times"])


def test_solve_with_preset_flag(tmp_path):
    out = str(tmp_path / "preset-out")
    code = main(["solve", "--preset", "sl2-nilpotent", "--order", "4",
                 "--step", "0.002", "--horizon", "0.2", "--out", out])
    assert code == 0


def test_solve_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--out", str(tmp_path / "x")]) == 2
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
        validate_problem_document(doc)
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


def test_appendix_command(tmp_path):
    out = str(tmp_path / "appendix")
    assert main(["appendix", "--out", out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["all_passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert {"bounds", "velocity_at_zero", "translation_witness"} <= names


def test_appendix_bad_model_exits_4(tmp_path):
    out = str(tmp_path / "bad-appendix")
    assert main(["appendix", "--poly", "0,2,-2", "--out", out]) == 4
    report = json.load(open(os.path.join(out, "report.json")))
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
