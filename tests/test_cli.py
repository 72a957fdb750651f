from __future__ import annotations

import csv
import io
import json
import os

import numpy as np
import pytest

from qlax import algebra, cli, lax, matrix_descriptor
from qlax.algebra import element_norms
from qlax.cli import (
    PROBLEM_SCHEMA,
    ProblemFormatError,
    _flow_json_payload,
    _sweep_entry_columns,
    _write_csv,
    _write_flow_csv,
    _write_json,
    _write_sweep_csv,
    build_problem,
    main,
    validate_problem_document,
)
from qlax.series import evaluate_values
from qlax.timeorder import FlowSample

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
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert manifest["schema"] == 1
    assert manifest["all_passed"] is True
    assert "timings" not in manifest
    flow = _read_json(os.path.join(out, "flow.json"))
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
    report = _read_json(os.path.join(out, "report.json"))
    assert report["all_passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert {"bounds", "velocity_at_zero", "translation_witness"} <= names


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


def _special_flow(nodes: int, field: str) -> FlowSample:
    """A seeded 3x3, N=3 flow holding -0.0, a subnormal, huge, tiny and non-finite floats."""
    rng = np.random.default_rng(nodes)
    descriptor = matrix_descriptor(3, field)
    shape = (nodes, 4, 3, 3)
    scale = 10.0 ** rng.integers(-8, 8, size=shape)
    values = rng.standard_normal(shape) * scale
    if field == "complex":
        values = values + 1j * rng.standard_normal(shape) * scale
    grades = values.reshape(nodes, 4, -1)
    grades[0, 0, :4] = [np.nan, -0.0, 5e-324, 1e-5]
    grades[0, 1, :4] = [np.inf, -np.inf, 1e300, 1e16]
    if field == "complex":
        grades.imag[0, 2, :4] = [-0.0, 5e-324, 1e16, 1e-5]
    times = np.cumsum(rng.uniform(0.0, 1e-2, nodes))
    times[:3] = [-0.0, 5e-324, 1e16][:nodes]
    return FlowSample(times, values, descriptor, step=1e-2, order=3, q0=0.5)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("block_bytes", [algebra.BLOCK_BYTES, 1])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("nodes", [1, 2, 1001])
def test_flow_writers_match_nested_list_writers(monkeypatch, tmp_path, block_bytes, field,
                                                nodes):
    monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
    flow = _special_flow(nodes, field)
    series = flow.values
    if field == "complex":
        series = np.stack([series.real, series.imag], axis=-1)
    lists = {"schema": 1, "q0": flow.q0, "order": flow.order, "step": flow.step,
             "times": flow.times.tolist(), "series": series.tolist()}
    _write_json(str(tmp_path / "flow.json"), _flow_json_payload(flow))
    written = (tmp_path / "flow.json").read_text()
    assert written == json.dumps(lists, sort_keys=True, indent=2) + "\n"
    assert {"NaN", "Infinity", "-Infinity"} <= set(written.replace(",", "").split())

    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "grade", "coeff_norm"])
    norms = element_norms(flow.descriptor, flow.values).tolist()
    for t, node_norms in zip(flow.times.tolist(), norms):
        for grade, norm in enumerate(node_norms):
            writer.writerow([repr(t), str(grade), repr(norm)])
    _write_flow_csv(str(tmp_path / "flow.csv"), flow)
    with open(tmp_path / "flow.csv", newline="") as handle:
        table = handle.read()
    assert table == expected.getvalue()
    assert {"nan", "inf"} <= {row["coeff_norm"] for row in _read_rows(tmp_path / "flow.csv")}


def test_sweep_solves_each_scaling_once(monkeypatch, tmp_path):
    solved = []
    original = lax.solve_lax

    def counted(problem):
        solved.append(problem.q0)
        return original(problem)

    monkeypatch.setattr(lax, "solve_lax", counted)
    monkeypatch.setattr(cli, "solve_lax", counted)
    assert main(["sweep", "--preset", "toda-3", "--out", str(tmp_path / "sweep")]) == 0
    assert solved == [0.2, 0.1, 0.05]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("field", ["real", "complex"])
def test_sweep_writer_matches_cell_by_cell_rows(tmp_path, field):
    flows = [_special_flow(nodes, field) for nodes in (1, 2, 1001)]
    sweep_values = [1, 0.25, 0.5]  # an integer q0 is written as given
    rows = []
    for q0, flow in zip(sweep_values, flows):
        evaluated = evaluate_values(flow.descriptor, flow.values, q0).reshape(len(flow), -1)
        if field == "complex":
            evaluated = np.stack([evaluated.real, evaluated.imag], axis=-1).reshape(
                len(flow), -1)
        rows.extend((q0, t, *entries)
                    for t, entries in zip(flow.times.tolist(), evaluated.tolist()))
    header = ["q0", "t", *_sweep_entry_columns(flows[0].descriptor)]
    _write_csv(str(tmp_path / "expected.csv"), header, rows)
    _write_sweep_csv(str(tmp_path / "sweep.csv"), sweep_values, flows)
    written = (tmp_path / "sweep.csv").read_text()
    assert written == (tmp_path / "expected.csv").read_text()
    assert "1" in {row["q0"] for row in _read_rows(tmp_path / "sweep.csv")}
