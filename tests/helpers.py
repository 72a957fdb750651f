"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from qlax import AlgebraElement, GradedSeries, diffop_element, matrix_descriptor

E12 = [[0.0, 1.0], [0.0, 0.0]]
E21 = [[0.0, 0.0], [1.0, 0.0]]
SL2_H = [[1.0, 0.0], [0.0, -1.0]]


def rand_matrix(rng: np.random.Generator, descriptor) -> AlgebraElement:
    data = rng.standard_normal((descriptor.n, descriptor.n))
    if descriptor.dtype == np.complex128:
        data = data + 1j * rng.standard_normal((descriptor.n, descriptor.n))
    return AlgebraElement(descriptor, data.astype(descriptor.dtype))


def rand_diffop(rng: np.random.Generator, descriptor, used_order: int,
                used_mode: int) -> AlgebraElement:
    """Random operator supported on orders <= used_order, modes |m| <= used_mode."""
    data = np.zeros((descriptor.max_order + 1, descriptor.width), dtype=np.complex128)
    center = descriptor.max_mode
    for j in range(used_order + 1):
        block = rng.standard_normal(2 * used_mode + 1) \
            + 1j * rng.standard_normal(2 * used_mode + 1)
        data[j, center - used_mode: center + used_mode + 1] = block
    return diffop_element(descriptor, data)


def rand_series(rng: np.random.Generator, descriptor, order: int,
                from_grade: int = 0) -> GradedSeries:
    coeffs = [AlgebraElement.zero(descriptor)] * from_grade
    coeffs += [rand_matrix(rng, descriptor) for _ in range(order + 1 - from_grade)]
    return GradedSeries(coeffs)


def series_gap(a: GradedSeries, b: GradedSeries) -> float:
    return max((x - y).norm() for x, y in zip(a.coeffs, b.coeffs))


def rel_gap(a: GradedSeries, b: GradedSeries) -> float:
    """Per-grade norm gap relative to the larger of 1 and the reference norm."""
    worst = 0.0
    for x, y in zip(a.coeffs, b.coeffs):
        scale = max(1.0, y.norm())
        worst = max(worst, (x - y).norm() / scale)
    return worst


def apply_to_modes(element: AlgebraElement, coeffs: np.ndarray) -> np.ndarray:
    """Apply ``sum_j a_j(x) D^j`` to the trig polynomial ``sum_m c_m e^{imx}``.

    ``coeffs`` has length ``2K + 1`` indexed by mode ``m + K``; the result uses
    the same indexing and must fit, which the caller guarantees by choosing K.
    """
    half = (coeffs.size - 1) // 2
    modes = np.arange(-half, half + 1)
    cap = element.descriptor.max_mode
    out = np.zeros(coeffs.size, dtype=np.complex128)
    for j in range(element.descriptor.max_order + 1):
        row = element.data[j]
        if not row.any():
            continue
        derived = coeffs * (1j * modes) ** j
        full = np.convolve(row, derived)  # modes -(cap+half) .. cap+half
        spill = max(np.abs(full[:cap]).max(initial=0.0),
                    np.abs(full[cap + coeffs.size:]).max(initial=0.0))
        assert spill < 1e-12, "test buffer too narrow for this product"
        out += full[cap: cap + coeffs.size]
    return out


def leibniz_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Leibniz product of two ``(J+1, 2M+1)`` diffop payloads in extended precision.

    Returns the uncapped ``(2J+1, 4M+1)`` product as ``np.clongdouble``:
    orders ``0..2J`` by modes ``-2M..2M``, one ``np.convolve`` per term.
    """
    orders, width = a.shape
    half = (width - 1) // 2
    factor = 1j * np.arange(-half, half + 1).astype(np.clongdouble)
    out = np.zeros((2 * orders - 1, 2 * width - 1), dtype=np.clongdouble)
    for j in range(orders):
        row = a[j].astype(np.clongdouble)
        for k in range(orders):
            derived = b[k].astype(np.clongdouble)
            for d in range(j + 1):
                out[j + k - d] += math.comb(j, d) * np.convolve(row, derived)
                derived = derived * factor
    return out
