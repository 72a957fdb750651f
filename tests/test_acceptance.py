"""Acceptance gate: ten numbered criteria with pinned tolerances.

Each test prints one ``ACCEPTANCE nn <name>: PASS`` line on success (pytest -s
shows them; under plain pytest the assertion outcome is authoritative).
Runtime limits are asserted with a measured wall clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

from qlax import (
    AlgebraElement,
    GradedSeries,
    commutator,
    diffop_descriptor,
    matrix_descriptor,
    matrix_element,
)
from qlax.algebra import REAL
from qlax.cli import build_problem, main
from qlax.lax import (
    LaxProblem,
    PRESET_NAMES,
    conserved_trace_tables,
    flow_difference,
    integrate_directly,
    lax_residual,
    oracle_integrate,
    preset_problem,
    solve_lax,
)
from qlax.monoids import IndexedSeries, gr1_monoid, natural_monoid
from qlax.nonregular import (
    default_model,
    demonstrate_nonregularity,
    velocity_at_zero,
    verify_diffeo_bounds,
)
from qlax.symmetry import (
    ad_operator,
    check_ad_exp_ad,
    solve_symmetry,
    symmetry_residual_full,
)
from qlax.timeorder import (
    OperatorPath,
    _sample_grades,
    left_log_derivative_residual,
    time_ordered_exp,
)
from helpers import E12, E21, SL2_H, apply_to_modes, rand_diffop, rand_matrix


def _report(number: int, name: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_acceptance_01_algebra_laws():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    mdesc = matrix_descriptor(4)
    one = AlgebraElement.one(mdesc)
    for _ in range(500):
        a, b, c = (rand_matrix(rng, mdesc) for _ in range(3))
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        assert ((a * b) * c - a * (b * c)).norm() / scale <= 1e-12
        assert ((a + b) * c - (a * c + b * c)).norm() / scale <= 1e-12
        assert (one * a - a).norm() <= 1e-12
    ddesc = diffop_descriptor(4, 9)
    done = AlgebraElement.one(ddesc)
    for _ in range(500):
        a = rand_diffop(rng, ddesc, 1, 2)
        b = rand_diffop(rng, ddesc, 1, 2)
        c = rand_diffop(rng, ddesc, 1, 2)
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        assert ((a * b) * c - a * (b * c)).norm() / scale <= 1e-12
        assert ((a + b) * c - (a * c + b * c)).norm() / scale <= 1e-12
        assert (done * a - a).norm() <= 1e-12
    # 20 curated compositions against application to a trig polynomial
    half = 24
    probe = np.zeros(2 * half + 1, dtype=np.complex128)
    probe[half - 3: half + 4] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    cases = [(j, k, ma, mb) for j in range(2) for k in range(2)
             for ma, mb in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))]
    assert len(cases) == 20
    for j, k, ma, mb in cases:
        a = rand_diffop(rng, ddesc, j, ma)
        b = rand_diffop(rng, ddesc, k, mb)
        composed = apply_to_modes(a * b, probe)
        chained = apply_to_modes(a, apply_to_modes(b, probe))
        assert np.abs(composed - chained).max() <= 1e-12
    _report(1, "algebra laws", time.perf_counter() - started, 5.0)


def test_acceptance_02_exp_log_bijection():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        order = int(rng.integers(2, 11))
        desc = matrix_descriptor(n)
        coeffs = [AlgebraElement.zero(desc)] + [rand_matrix(rng, desc)
                                                for _ in range(order)]
        s = GradedSeries(coeffs)
        back = s.exp().log()
        for x, y in zip(back.coeffs, s.coeffs):
            assert (x - y).norm() / max(1.0, y.norm()) <= 1e-10
    _report(2, "exp/log bijection", time.perf_counter() - started, 5.0)


def test_acceptance_03_time_ordered_exponential():
    started = time.perf_counter()
    b = matrix_element([[0.0, -1.0], [1.0, 0.0]])
    group = time_ordered_exp(OperatorPath.constant(b), q0=0.5, order=6,
                             grid=(1e-3, 1.0))
    last = group.series[-1]
    power = AlgebraElement.one(b.descriptor)
    for i in range(7):
        assert np.abs(last.coeffs[i].data - power.data / math.factorial(i)).max() <= 1e-8
        power = power * b
    for name in PRESET_NAMES:
        prob = preset_problem(name, q0=0.5, order=6, grid=(1e-3, 1.0))
        g = time_ordered_exp(prob.path, prob.q0, prob.order, prob.grid)
        profile = left_log_derivative_residual(g, prob.path, prob.q0)
        assert profile.max() <= 1e-6, f"{name}: {profile.max()}"
    _report(3, "time-ordered exponential", time.perf_counter() - started, 10.0)


def test_acceptance_04_lax_solution():
    started = time.perf_counter()
    # (a) the two independent solvers agree to roundoff, since both are exact
    for name in PRESET_NAMES:
        prob = preset_problem(name, q0=0.5, order=6, grid=(2e-3, 0.5))
        assert flow_difference(solve_lax(prob).flow,
                               integrate_directly(prob)).max() <= 1e-14
    # (b) residual of the flow equation
    for name in PRESET_NAMES:
        prob = preset_problem(name, q0=0.5, order=6, grid=(1e-3, 1.0))
        assert lax_residual(solve_lax(prob)).max() <= 1e-6
    # (c) closed form for the nilpotent problem
    prob = preset_problem("sl2-nilpotent", q0=0.5, order=8, grid=(1e-3, 1.0))
    flow = solve_lax(prob).flow
    h = np.array(SL2_H)
    worst = 0.0
    for k, t in enumerate(flow.times):
        node = flow.series[k]
        worst = max(worst, np.abs(node.coeffs[0].data - np.array(E21)).max())
        worst = max(worst, np.abs(node.coeffs[1].data - t * h).max())
        worst = max(worst, np.abs(node.coeffs[2].data + t * t * np.array(E12)).max())
        for g in range(3, 9):
            worst = max(worst, node.coeffs[g].norm())
    assert worst <= 1e-10
    # (d) trace drift on toda-3
    toda = solve_lax(preset_problem("toda-3", q0=0.5, order=6, grid=(1e-3, 1.0)))
    tables = conserved_trace_tables(toda, 4)
    for k in (1, 2, 3, 4):
        assert tables[k].drift.max() <= 1e-8
    _report(4, "lax solution", time.perf_counter() - started, 20.0)


def test_acceptance_05_oracle_convergence_order():
    started = time.perf_counter()
    ratios = []
    for q0 in (0.2, 0.1):
        prob = preset_problem("toda-3", q0=q0, order=4, grid=(1e-3, 1.0))
        error, error_half = oracle_integrate(solve_lax(prob))
        ratios.append(math.log2(error / error_half))
    for ratio in ratios:  # halvings 0.2 -> 0.1 and 0.1 -> 0.05
        assert 4.5 <= ratio <= 5.5, f"log2 ratios {ratios}"
    _report(5, "oracle convergence order", time.perf_counter() - started, 10.0)


def test_acceptance_06_linearity_in_initial_value():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    desc = matrix_descriptor(3)
    path = OperatorPath.constant(rand_matrix(rng, desc) * 0.4)
    grid = (2e-3, 0.4)
    for _ in range(3):
        a, b = rand_matrix(rng, desc), rand_matrix(rng, desc)
        alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        mixed = AlgebraElement(desc, alpha * a.data + beta * b.data)
        flow_a = solve_lax(LaxProblem(a, path, 0.5, 5, grid)).flow
        flow_b = solve_lax(LaxProblem(b, path, 0.5, 5, grid)).flow
        flow_m = solve_lax(LaxProblem(mixed, path, 0.5, 5, grid)).flow
        for na, nb, nm in zip(flow_a.series, flow_b.series, flow_m.series):
            for g in range(6):
                gap = np.abs(nm.coeffs[g].data
                             - alpha * na.coeffs[g].data - beta * nb.coeffs[g].data).max()
                assert gap <= 1e-12
    _report(6, "linearity in the initial value", time.perf_counter() - started, 20.0)


def test_acceptance_07_symmetry_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    desc = matrix_descriptor(3)
    # derivation identity
    for _ in range(50):
        a, x, y = (rand_matrix(rng, desc) for _ in range(3))
        gap = (commutator(a, x * y)
               - (commutator(a, x) * y + x * commutator(a, y))).norm()
        assert gap / max(1.0, a.norm() * x.norm() * y.norm()) <= 1e-12
    # Ad = exp(ad)
    prob = preset_problem("rotation-2", q0=0.5, order=5, grid=(1e-3, 0.5))
    lax_result = solve_lax(prob)
    sym = solve_symmetry(ad_operator(prob.initial), prob.path, prob.q0,
                         prob.order, prob.grid)
    assert check_ad_exp_ad(lax_result.group, sym.group).max() <= 1e-9
    # flow-equation residual and applied residual
    assert lax_residual(sym).max() <= 1e-6
    assert symmetry_residual_full(sym, lax_result).max() <= 1e-6
    # equivariance
    worst = 0.0
    for lax_node, sym_node in zip(lax_result.flow.series, sym.flow.series):
        for g in range(prob.order + 1):
            expected = ad_operator(lax_node.coeffs[g])
            worst = max(worst, (sym_node.coeffs[g] - expected).norm())
    assert worst <= 1e-8
    _report(7, "symmetry suite", time.perf_counter() - started, 20.0)


def test_acceptance_08_index_monoids():
    started = time.perf_counter()
    monoid = gr1_monoid()
    grade1 = monoid.enumerate_grade(1)
    assert len(grade1) == 5
    defined = {}
    for a in grade1:
        for b in grade1:
            product = monoid.compose(a, b)
            if product is not None:
                defined[(a[0].label, b[0].label)] = product[0].label
    assert len(defined) == 4
    assert defined == {
        ("[0;1]", "[0;1]"): "[0;1]",
        ("[0;1]", "]0;1]"): "]0;1]",
        ("[0;1[", "[0;1]"): "[0;1[",
        ("[0;1[", "]0;1]"): "]0;1[",
    }
    for a in grade1:
        for b in grade1:
            for c in grade1:
                ab = monoid.compose(a, b)
                bc = monoid.compose(b, c)
                left = monoid.compose(ab, c) if ab is not None else None
                right = monoid.compose(a, bc) if bc is not None else None
                assert left == right
    # the natural-number refinement multiplies exactly like a graded series
    rng = np.random.default_rng(808)
    desc = matrix_descriptor(3)
    order = 5
    a_coeffs = [rand_matrix(rng, desc) for _ in range(order + 1)]
    b_coeffs = [rand_matrix(rng, desc) for _ in range(order + 1)]
    graded = GradedSeries(a_coeffs) * GradedSeries(b_coeffs)
    naturals = natural_monoid()
    indexed = (IndexedSeries(naturals, desc, order, dict(enumerate(a_coeffs)))
               * IndexedSeries(naturals, desc, order, dict(enumerate(b_coeffs))))
    for grade in range(order + 1):
        assert (indexed.coefficient(grade) - graded.coeffs[grade]).norm() <= 1e-12
    _report(8, "index monoids", time.perf_counter() - started, 2.0)


def test_acceptance_09_appendix_suite():
    started = time.perf_counter()
    model = default_model()
    assert model.points == 2001
    for t in (0.9, -0.9, 0.5, -0.5, 0.1):
        report = verify_diffeo_bounds(model, t)
        assert report.enclosure_violations == 0
        assert report.derivative_violations == 0
    velocity = velocity_at_zero(model)
    assert velocity.max_deviation <= 1e-6
    witness = demonstrate_nonregularity(model)
    assert witness.x == 0.5 and witness.t == 0.6
    assert witness.translation_value > 1.0 and witness.translation_exits
    assert witness.path_enclosed
    _report(9, "appendix suite", time.perf_counter() - started, 2.0)


# sha256 of every bundle file.  Bundles must keep these bytes across
# refactors, zero signs included; the digests hold for IEEE doubles with
# numpy's default BLAS dot and gemm kernels.  The selftest's symmetry
# flow.csv and diagnostics.csv, and the flow and diagnostics files of the
# three solve bundles and of the sweep below, were last re-pinned when the
# RK4 chain gave way to the exact polynomial recurrence for the group: that
# moves the last bits of every flow (by at most 1.1e-14 at T = 1) and removes
# the step-size error.  The four solve bundles' flow.json files were re-pinned
# again when that file came to hold the flow's polynomial coefficients
# (schema 2) instead of its sampled nodes.  The oracle values in the four solve
# bundles' diagnostics.csv and in the sweep's convergence.csv were re-pinned when
# the oracle's reference became the exact Dyson series in place of RK4.  The
# residual rows of those four diagnostics.csv files and of the selftest's
# symmetry diagnostics.csv were re-pinned when the residuals came to be taken on
# the flows' polynomials, whose derivative is exact, in place of centred
# differences of the nodes.  The residual, trace and symmetry rows of those five
# diagnostics.csv files were re-pinned again when each check came to report, per grade, the sum of its
# identity's coefficient norms in s = t/T, a bound on all of [0, T], in place of
# the largest norm on the nodes.  The oracle rows of the four solve diagnostics.csv
# files, and the sweep's convergence.csv and sweep.csv, were re-pinned when one solve
# at the largest scaling came to serve every smaller one: each value is then that
# solve's series summed at its q0 and evaluated at a shorter time, which moves the
# oracle values by at most 3.6e-17 and sweep.csv's entries by at most 1.4e-17.  The
# selftest's symmetry diagnostics.csv was re-pinned when the ad_exp_gap probe became
# a closed-form Cauchy matrix in place of a seeded random draw, which moves those rows
# by at most 1.3e-18.  That file, the flow.json, flow.csv and diagnostics.csv of the two
# toda-3 solves and of the complex solve below, and the sweep's convergence.csv were
# re-pinned when the forward substitution came to subtract each finished grade's products
# in turn, not one sum over every factor grade: that moves the flows' coefficients and
# norms by at most 4.4e-19, the diagnostics by at most 9.8e-19, and the sweep's oracle
# errors by at most 2.0e-20 and its order estimates by at most 8.8e-12.  The other
# selftest files keep the bytes of commit 2fb1fb6.
PINNED_SELFTEST_DIGESTS = {
    "appendix/manifest.json": "1f574f69934e4a956ba1b8eee6d1be9875f27794a22aa38fa901b81e5d6f851d",
    "appendix/report.json": "049036527f82ce5449244bafc1e73e9cefea9e891ec9ebbba4c7b8ae2076ee47",
    "gr1_table.csv": "74af1db0d3dc7932ac4ed2dedb7de1fe84918fd4cfc2436185dd0545d3382064",
    "manifest.json": "cc880c109bdb711a19a8a2b7c9c60306e1fa78899af3c7848106c2b139750a22",
    "solve/diagnostics.csv": "fa470475fc447b6426bde09d381d84eee9ab672669754c73b303a9f8e5564c70",
    "solve/flow.csv": "aada3e028ccfca3096084e2cb54a65140182a983ae81a5ca4635fa418ca9e21d",
    "solve/flow.json": "58657ba0ea0849dee588d11428faa1b6b82fec9861a5b630479f53accbe360a5",
    "solve/manifest.json": "cefb6f3b766b2da821554c11ce9461d661364e2b0abc9b7c0fefc0a55536b5ef",
    "symmetry/diagnostics.csv": "691036cb54d72ab49f50c6c0758ff0a101822a26bd96c0074868d7a5a7ecbd7d",
    "symmetry/flow.csv": "018b8baced587a8677920dd0988ea93edd1a62deeef6ea1afbb7801bb2d9cabf",
    "symmetry/manifest.json": "4a539ccf09b15f35dcfe1d40a4d115bb462400bfad06e604d5a9ea5fc9a3c581",
}

# ``qlax solve --preset toda-3 --order 4 --step 0.001 --horizon 0.1``, pinned the same way.
TODA_SOLVE_ARGS = ["solve", "--preset", "toda-3", "--order", "4", "--step", "0.001",
                   "--horizon", "0.1"]
PINNED_TODA_SOLVE_DIGESTS = {
    "diagnostics.csv": "aa75d91082c7deb3ea5f1679eeb57b916e6ae847958f48174db7a21099367ac6",
    "flow.csv": "b7909b6ecc808313cbb9300dfeeb1be288ffbda016123a1ceb24c3428e993078",
    "flow.json": "474e9625a4a29e6005ee4ec66aa7698805ef3da4fd429bbfc65cdfd22113bcf1",
    "manifest.json": "75798f60d08687f98631c94a195c8ca29c6976c5a29a67e674a65dccac056af8",
}

# ``qlax solve --preset toda-3`` at its defaults (N=8, 1001 nodes), pinned at
# commit 7100feb and re-pinned as above: its flow.json holds 16,143 bytes of
# polynomial coefficients.
PRESET_TODA_SOLVE_ARGS = ["solve", "--preset", "toda-3"]
PINNED_PRESET_TODA_SOLVE_DIGESTS = {
    "diagnostics.csv": "eef85e953d010169299c18d6a2327aa4333465232ed15e2c4cf5e0494763d065",
    "flow.csv": "802e28ef661501ad811b8e0bbbfc9f0efceeae6bd38bc3b9228bf13001f80157",
    "flow.json": "fbbd00db2501afdc7b10c3bef72466a4afb0f90dc327a2dd1fcdb5f13e724195",
    "manifest.json": "b21af976b9898fe574252272afbb54d92f8e466d3dc7cfc9d75da9d48dc284fe",
}

# A sweep bundle, pinned at commit 7100feb the same way.
SWEEP_ARGS = ["sweep", "--preset", "rotation-2", "--order", "4", "--step", "0.01",
              "--horizon", "0.5"]
PINNED_SWEEP_DIGESTS = {
    "convergence.csv": "4044c657519ff9d3114fdb19f086ddca82286f236fdb3714a12a927bb5a4c7ed",
    "manifest.json": "39b966623e4f24cddcc72cfb7737aa21923d78b75892b3c842e670b64d6b519c",
    "sweep.csv": "16b83a16b643b2ca3ad537619e01fc3b90e049030a6da4d4a2c113404c3bd757",
}

# A complex-field solve with a time-dependent path, pinned the same way: a
# complex product of zero with a nonzero coefficient can be -0.0, so this
# bundle shows whether pairs with a zero factor are still skipped node by node.
COMPLEX_SOLVE_DOC = {
    "schema": 1,
    "backend": {"kind": "matrix", "n": 3, "field": "complex"},
    "L0": [[[0.5, 0.1], 0.4, 0.0], [0.4, [0.0, -0.3], [0.4, 0.2]], [0.0, -0.4, -0.5]],
    "P": {"kind": "poly", "coeffs": [
        [[0.0, 0.4, 0.0], [-0.4, [0.0, 0.2], 0.4], [0.0, -0.4, 0.0]],
        [[[0.1, -0.2], 0.0, 0.3], [0.0, -0.7, 0.0], [-0.3, 0.0, [0.0, 0.5]]]]},
    "q0": 0.3,
    "N": 5,
    "grid": {"h": 0.002, "T": 0.3},
    "options": {"symmetry_s0": {"kind": "ad-of-initial"}, "sweep": [0.2, 0.1, 0.05]},
}
PINNED_COMPLEX_SOLVE_DIGESTS = {
    "diagnostics.csv": "6875261b273869cc8d36adddbff4734c3d3cd22325a7d26efd1c58b638babd40",
    "flow.csv": "413ce35b97a97338e9fb598cf9e4e66e404e87a55bc4b06490d5c09738678fb9",
    "flow.json": "146ec9aee85a7bde4727ee28b422d6e3fa19221f76713be6a191a1762faffe6a",
    "manifest.json": "ddc8c9701acf173f148f74966325cc0074c29a45b14cd98061028b2c8c0700b2",
}


def _bundle_digests(root: str) -> dict[str, str]:
    digests = {}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                key = os.path.relpath(path, root).replace(os.sep, "/")
                digests[key] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_acceptance_10_selftest_determinism(tmp_path):
    started = time.perf_counter()
    first = str(tmp_path / "run1")
    second = str(tmp_path / "run2")
    assert main(["selftest", "--out", first]) == 0
    assert main(["selftest", "--out", second]) == 0
    compared = 0
    for root, _dirs, files in os.walk(first):
        for name in files:
            left = os.path.join(root, name)
            right = os.path.join(second, os.path.relpath(left, first))
            with open(left, "rb") as lf, open(right, "rb") as rf:
                assert lf.read() == rf.read(), f"{name} differs between runs"
            compared += 1
    assert compared >= 10  # solve, symmetry and appendix bundles plus tables
    # the same bytes as the pinned implementation, not only as the last run
    assert _bundle_digests(first) == PINNED_SELFTEST_DIGESTS
    pinned_runs = ((TODA_SOLVE_ARGS, PINNED_TODA_SOLVE_DIGESTS),
                   (PRESET_TODA_SOLVE_ARGS, PINNED_PRESET_TODA_SOLVE_DIGESTS),
                   (SWEEP_ARGS, PINNED_SWEEP_DIGESTS))
    for index, (args, pinned) in enumerate(pinned_runs):
        out = str(tmp_path / f"pinned{index}")
        assert main([*args, "--out", out]) == 0
        assert _bundle_digests(out) == pinned, " ".join(args)
    document = tmp_path / "complex.json"
    document.write_text(json.dumps(COMPLEX_SOLVE_DOC))
    complex_out = str(tmp_path / "complex")
    assert main(["solve", str(document), "--out", complex_out]) == 0
    assert _bundle_digests(complex_out) == PINNED_COMPLEX_SOLVE_DIGESTS
    _report(10, "selftest determinism", time.perf_counter() - started, 30.0)


def test_symmetry_of_the_complex_document_passes(tmp_path):
    # on the polynomials the residuals are roundoff; a centred difference of the
    # nodes would add an h^2 error of 1.43e-6 at grade 3, over RESIDUAL_TOL
    document = tmp_path / "complex.json"
    document.write_text(json.dumps(COMPLEX_SOLVE_DOC))
    out = tmp_path / "symmetry"
    assert main(["symmetry", str(document), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["all_passed"] is True


def test_flow_json_samples_back_to_the_solved_flow(tmp_path):
    # each pinned solve's flow.json holds the flow's polynomials: sampled at the
    # file's times by the library's one sampler, they are the solved flow, bit for bit
    document = tmp_path / "complex.json"
    document.write_text(json.dumps(COMPLEX_SOLVE_DOC))
    runs = {"selftest": ["selftest"], "toda": TODA_SOLVE_ARGS,
            "preset": PRESET_TODA_SOLVE_ARGS, "complex": ["solve", str(document)]}
    for name, args in runs.items():
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        bundle = out / "solve" if name == "selftest" else out
        inputs = json.loads((bundle / "manifest.json").read_text())["inputs"]
        problem, _options = build_problem(inputs["document"], {
            "q0": inputs["q0"], "order": inputs["order"],
            "step": inputs["grid"]["h"], "horizon": inputs["grid"]["T"]})
        flow = solve_lax(problem).flow
        saved = json.loads((bundle / "flow.json").read_text())
        assert (saved["schema"], len(saved["coefficients"])) == (2, problem.order + 1)
        grades = [np.array(stack) for stack in saved["coefficients"]]
        if flow.descriptor.field != REAL:
            grades = [stack.view(np.complex128)[..., 0] for stack in grades]
        values = _sample_grades(grades, flow.descriptor, np.array(saved["times"]))
        assert np.array_equal(values, flow.nodes(slice(None))), name
