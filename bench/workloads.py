"""Seeded workloads for the time-to-verified-result benchmark.

Each workload builds its inputs from a seed, runs one iteration of the user
path it stands for, and checks that iteration's output against a reference
the solver does not compute.  Seed 0 uses the pinned inputs below exactly;
any other seed scales every nonzero entry of the initial element and of the
path by its own factor drawn from [0.9, 1.1].  The sparsity pattern stays
fixed, so the products the solver skips as zero, and with them the work per
iteration, are the same for every seed.

The library is called through its module attributes (``lax.solve_lax``, not
a name imported here), so the traced run sees these calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from qlax import cli, lax, timeorder
from qlax.algebra import WindowOverflowError, diffop_descriptor, diffop_element

Q0 = 0.5

# toda-3 as the library presets it: a symmetric tridiagonal initial element
# driven by the antisymmetric part of its off-diagonal.
TODA_INITIAL = np.array([[0.5, 0.4, 0.0], [0.4, 0.0, 0.4], [0.0, 0.4, -0.5]])
TODA_GENERATOR = np.array([[0.0, 0.4, 0.0], [-0.4, 0.0, 0.4], [0.0, -0.4, 0.0]])

# circle-diffop flow: L0 = D^2 + cos x, P(t) = sin(x) D + t cos(x) / 2, as
# {order: {mode: coefficient}} with cos x = (e^ix + e^-ix)/2 and
# sin x = (e^ix - e^-ix)/2i.
DIFFOP_INITIAL = {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}}
DIFFOP_PATH = ({1: {-1: 0.5j, 1: -0.5j}}, {0: {-1: 0.25, 1: 0.25}})

# (order N, step h, horizon T) at full size and in smoke mode.
TODA_SIZE = (8, 1e-3, 1.0)
DIFFOP_SIZE = (6, 1e-2, 1.0)
SMOKE_SIZE = (2, 1e-3, 0.01)

# The conjugation and direct routes both carry RK4's O(h^4) global error; at
# seed 0 and h = 1e-2 their gap at T, evaluated at q0, is 1.46e-10 = 0.0146 h^4.
# The tolerance allows ten times that floor for the redrawn seeds.
DIFFOP_GAP_FACTOR = 0.15


def redraw(rng: np.random.Generator, data: np.ndarray) -> np.ndarray:
    """Scale each nonzero entry by a factor drawn from [0.9, 1.1]; zeros stay zero."""
    factors = rng.uniform(0.9, 1.1, data.shape)
    return np.where(data != 0, data * factors, data)


def redraw_modes(rng: np.random.Generator, spec: dict) -> dict:
    """``redraw`` for an ``{order: {mode: value}}`` diffop specification."""
    return {order: {mode: value * rng.uniform(0.9, 1.1) for mode, value in sorted(modes.items())}
            for order, modes in sorted(spec.items())}


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential with numpy only: Taylor polynomial, scaling and squaring."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    scaled = a / 2.0 ** squarings
    term = np.eye(a.shape[0], dtype=a.dtype)
    total = term
    for k in range(1, 30):
        term = term @ scaled / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def truncation_bound(initial: np.ndarray, generator: np.ndarray, order: int,
                     horizon: float) -> float:
    """Bound on the gap between the order-N series at q0 and the exact flow at T.

    For a constant path, grade i of L(T) is ``(T^i / i!) ad_P^i L0``, so the
    terms the truncation drops are bounded in 2-norm by
    ``|L0| sum_{i>N} x^i / i!`` with ``x = 2 q0 T |P|``.  Max-abs entries are
    bounded by the 2-norm.
    """
    x = 2.0 * Q0 * horizon * float(np.linalg.norm(generator, 2))
    term = x ** order / math.factorial(order)
    tail = 0.0
    for i in range(order + 1, order + 60):
        term *= x / i
        tail += term
    return float(np.linalg.norm(initial, 2)) * tail


def ad_matrix(x: np.ndarray) -> np.ndarray:
    """Dense ``ad_x`` on row-major flattened matrices, as ``qlax.symmetry`` builds it."""
    eye = np.eye(x.shape[0])
    return np.kron(x, eye) - np.kron(eye, x.T)


def evaluate(coeffs, q0: float) -> np.ndarray:
    """Numeric value of a graded series from its coefficient payloads (Horner form)."""
    total = np.zeros_like(coeffs[-1])
    for c in reversed(coeffs):
        total = c + q0 * total
    return total


def digest_dir(path: str) -> dict[str, str]:
    """sha256 of every file in a bundle directory, by file name."""
    digests = {}
    for name in sorted(os.listdir(path)):
        sha = hashlib.sha256()
        with open(os.path.join(path, name), "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                sha.update(chunk)
        digests[name] = sha.hexdigest()
    return digests


def bundle_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


@contextlib.contextmanager
def capture(module, attr: str):
    """Keep what ``module.attr`` returns while the block runs; one extra call per use."""
    original = getattr(module, attr)
    kept = []

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        kept.append(result)
        return result

    setattr(module, attr, recorder)
    try:
        yield kept
    finally:
        setattr(module, attr, original)


@dataclass
class Outcome:
    """What one iteration produced, for the output check."""

    value: np.ndarray      # numeric result at T, evaluated at q0
    reference: np.ndarray  # what that value must match, from outside the solver's route
    digests: dict          # bundle or result fingerprint; must repeat across iterations
    reasons: list          # failures found while running
    bundle_bytes: int = 0


class CliWorkload:
    """``qlax solve`` or ``qlax symmetry`` on seeded toda-3, driven through ``cli.main``."""

    def __init__(self, command: str, seed: int, smoke: bool, run_dir: str):
        self.command = command
        order, step, horizon = SMOKE_SIZE if smoke else TODA_SIZE
        initial, generator = TODA_INITIAL, TODA_GENERATOR
        if seed:
            rng = np.random.default_rng(seed)
            initial, generator = redraw(rng, initial), redraw(rng, generator)
        document = {
            "schema": 1,
            "backend": {"kind": "matrix", "n": 3},
            "L0": initial.tolist(),
            "P": {"kind": "constant", "value": generator.tolist()},
            "q0": Q0,
            "N": order,
            "grid": {"h": step, "T": horizon},
        }
        if command == "symmetry":
            document["options"] = {"symmetry_s0": {"kind": "ad-of-initial"}}
        os.makedirs(run_dir, exist_ok=True)
        self.out_dir = os.path.join(run_dir, "bundle")
        self.document_path = os.path.join(run_dir, "problem.json")
        with open(self.document_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        g = expm(Q0 * horizon * generator)
        g_inv = expm(-Q0 * horizon * generator)
        flow_at_t = g @ initial @ g_inv
        self.tolerance = 2.0 * truncation_bound(initial, generator, order, horizon)
        if command == "symmetry":
            # max-abs of ad_X is at most twice the 2-norm of X
            self.reference = ad_matrix(flow_at_t)
            self.tolerance *= 2.0
        else:
            self.reference = flow_at_t
        self.solver = "solve_symmetry" if command == "symmetry" else "solve_lax"

    def run(self):
        """One timed iteration: problem file in, verified bundle on disk."""
        with capture(cli, self.solver) as kept, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([self.command, self.document_path, "--out", self.out_dir])
        return self.out_dir, code, kept

    def inspect(self, produced) -> Outcome:
        """Read back what ``run`` produced, then delete the bundle."""
        out_dir, code, kept = produced
        reasons = [] if code == 0 else [f"exit code {code}"]
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            if json.load(handle)["all_passed"] is not True:
                reasons.append("manifest.all_passed is false")
        if len(kept) != 1:
            reasons.append(f"expected one {self.solver} call, saw {len(kept)}")
        last = kept[0].flow.series[-1]
        value = evaluate([c.data for c in last.coeffs], Q0)
        outcome = Outcome(value, self.reference, digest_dir(out_dir), reasons,
                          bundle_bytes(out_dir))
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        os.rmdir(out_dir)
        return outcome

    def probes(self) -> list[tuple[str, bool]]:
        return []


class DiffopWorkload:
    """Library pipeline on a circle-diffop Lax flow with a time-dependent path."""

    def __init__(self, seed: int, smoke: bool):
        order, step, horizon = SMOKE_SIZE if smoke else DIFFOP_SIZE
        initial, path = DIFFOP_INITIAL, DIFFOP_PATH
        if seed:
            rng = np.random.default_rng(seed)
            initial = redraw_modes(rng, initial)
            path = tuple(redraw_modes(rng, c) for c in path)
        # Grade N of g has order N and modes up to N; times L0 (order 2,
        # mode 1) that needs J = N + 2 and M = N + 1 exactly.
        self.problem = self._problem(initial, path, order, step, horizon, order + 2, order + 1)
        self.too_small = {
            f"J={order + 1}": self._problem(initial, path, order, step, horizon,
                                            order + 1, order + 1),
            f"M={order}": self._problem(initial, path, order, step, horizon, order + 2, order),
        }
        self.tolerance = DIFFOP_GAP_FACTOR * step ** 4

    @staticmethod
    def _problem(initial, path, order, step, horizon, max_order, max_mode) -> lax.LaxProblem:
        descriptor = diffop_descriptor(max_order, max_mode)
        path = timeorder.OperatorPath.polynomial(
            [diffop_element(descriptor, c) for c in path], Q0)
        return lax.LaxProblem(diffop_element(descriptor, initial), path, Q0, order,
                              (step, horizon))

    def run(self):
        """One timed iteration of the library pipeline."""
        problem = self.problem
        result = lax.solve_lax(problem)
        direct = lax.integrate_directly(problem)
        route_gap = lax.flow_difference(result.flow, direct)
        residual = lax.lax_residual(result)
        group = timeorder.time_ordered_exp(problem.path, problem.q0, problem.order, problem.grid)
        log_residual = timeorder.left_log_derivative_residual(group, problem.path, problem.q0)
        return result, direct, np.concatenate([route_gap, residual, log_residual])

    def inspect(self, produced) -> Outcome:
        """The conjugation route's value at T against the direct route's."""
        result, direct, profiles = produced
        value = evaluate([c.data for c in result.flow.series[-1].coeffs], Q0)
        direct_value = evaluate([c.data for c in direct.series[-1].coeffs], Q0)
        reasons = [] if np.isfinite(profiles).all() else ["non-finite diagnostic profile"]
        digests = {"value": hashlib.sha256(value.tobytes()).hexdigest(),
                   "profiles": hashlib.sha256(profiles.tobytes()).hexdigest()}
        return Outcome(value, direct_value, digests, reasons)

    def probes(self) -> list[tuple[str, bool]]:
        """Each window one short of exact must make the solver raise."""
        outcomes = []
        for label, problem in self.too_small.items():
            try:
                lax.solve_lax(problem)
                raised = False
            except WindowOverflowError:
                raised = True
            outcomes.append((f"window {label} raises WindowOverflowError", raised))
        return outcomes


WORKLOADS = ("solve-toda3", "symmetry-toda3", "diffop-flow")


def build(name: str, seed: int, smoke: bool, run_dir: str):
    if name == "solve-toda3":
        return CliWorkload("solve", seed, smoke, run_dir)
    if name == "symmetry-toda3":
        return CliWorkload("symmetry", seed, smoke, run_dir)
    if name == "diffop-flow":
        return DiffopWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


def check(workload, outcome: Outcome) -> tuple[float, list[str]]:
    """``ref_err`` of one iteration and every reason it fails; empty means it passed."""
    reasons = list(outcome.reasons)
    ref_err = float(np.abs(outcome.value - outcome.reference).max())
    if not ref_err <= workload.tolerance:
        reasons.append(f"ref_err {ref_err:.3e} above tolerance {workload.tolerance:.3e}")
    return ref_err, reasons
