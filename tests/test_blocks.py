"""The blocked checks give the same bits whatever ``algebra.BLOCK_BYTES`` is.

A block of one byte puts every node (and every diffop pair) in a block of its
own, so a node skipped or counted twice at a block edge changes the result.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from qlax import algebra, diffop_descriptor, diffop_element
from qlax.cli import main
from qlax.lax import (
    LaxProblem,
    conjugate,
    conserved_trace_tables,
    flow_difference,
    integrate_directly,
    lax_residual,
    preset_problem,
    solve_lax,
)
from qlax.symmetry import ad_operator, check_ad_exp_ad, solve_symmetry, symmetry_residual_full
from qlax.timeorder import OperatorPath, left_log_derivative_residual

TODA_DOC = {
    "schema": 1,
    "P": {"kind": "preset", "name": "toda-3"},
    "N": 4,
    "grid": {"h": 0.01, "T": 1.0},
    "options": {"symmetry_s0": {"kind": "ad-of-initial"}},
}


def _diffop_problem() -> LaxProblem:
    desc = diffop_descriptor(5, 4)
    path = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                    diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})])
    initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
    return LaxProblem(initial, path, 0.5, 3, (0.02, 0.4))


def _checks(tmp_path) -> dict:
    """Every blocked result on toda-3 (N=4, h=1e-2), its symmetry run and a diffop flow,
    the recurrences of both routes included."""
    out = {}
    results = {}
    toda = preset_problem("toda-3", order=4, grid=(1e-2, 1.0))
    for name, problem in (("diffop", _diffop_problem()), ("toda", toda)):
        result = results[name] = solve_lax(problem)
        direct = integrate_directly(problem)
        out[f"{name} time_ordered_exp"] = result.group.nodes(slice(None))
        out[f"{name} integrate_directly"] = direct.nodes(slice(None))
        out[f"{name} conjugate"] = conjugate(result.group, problem.initial).nodes(slice(None))
        out[f"{name} lax_residual"] = lax_residual(result)
        out[f"{name} left_log_residual"] = left_log_derivative_residual(
            result.group, problem.path, problem.q0)
        out[f"{name} flow_difference"] = flow_difference(result.flow, direct)
    result = results["toda"]
    for power, table in conserved_trace_tables(result, 4).items():
        out[f"trace table {power}"] = table.coefficients
    sym = solve_symmetry(ad_operator(toda.initial), toda.path, toda.q0, toda.order, toda.grid)
    out["operator conjugate"] = sym.flow.nodes(slice(None))
    out["operator lax_residual"] = lax_residual(sym)
    out["symmetry_residual_full"] = symmetry_residual_full(sym, result)
    out["check_ad_exp_ad"] = check_ad_exp_ad(result.group, sym.group)
    out = {name: value.tobytes() for name, value in out.items()}

    document = tmp_path / "toda.json"
    document.write_text(json.dumps(TODA_DOC))
    with contextlib.redirect_stdout(io.StringIO()):
        # the residuals' floor is roundoff, so every check passes even at h = 1e-2
        assert main(["symmetry", str(document), "--out", str(tmp_path / "bundle")]) == 0
    # values are written with repr, which round-trips every bit
    diagnostics = (tmp_path / "bundle" / "diagnostics.csv").read_text()
    assert diagnostics.count("\nequivariance_gap,") == TODA_DOC["N"] + 1
    out["qlax symmetry diagnostics.csv"] = diagnostics
    return out


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _checks(tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("block_bytes", [algebra.BLOCK_BYTES, 1])
def test_checks_do_not_depend_on_the_block_size(monkeypatch, tmp_path, reference,
                                                block_bytes):
    monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
    checks = _checks(tmp_path)
    assert checks.keys() == reference.keys()
    for name, value in checks.items():
        assert value == reference[name], name
