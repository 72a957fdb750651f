"""Coefficient algebras: dense matrices and differential operators on the circle.

Two exact backends share one element contract:

* ``matrix`` -- dense square matrices over real or complex floats.
* ``circle-diffop`` -- operators ``sum_j a_j(x) D^j`` on the unit circle,
  ``D = d/dx``, whose coefficients are trigonometric polynomials stored by
  Fourier mode on the window ``|m| <= M``.  Composition uses the Leibniz rule

      (a D^j)(b D^k) = sum_{d<=j} C(j,d) * (a * d^d b/dx^d) D^(j+k-d)

  and is exact: a product whose result would need orders beyond ``J`` or
  modes beyond ``M`` raises :class:`WindowOverflowError` instead of being
  truncated.

Elements are immutable; every operation returns a new element.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from math import comb, prod

import numpy as np

MATRIX = "matrix"
CIRCLE_DIFFOP = "circle-diffop"

REAL = "real"
COMPLEX = "complex"

# the largest payload, and the largest flow of payloads, that may be built
MAX_FLOW_BYTES = 1 << 30


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class ShapeMismatchError(AlgebraError):
    """Operands live in different algebras (backend, size or field differ)."""


class WindowOverflowError(AlgebraError):
    """An exact diffop product needs orders or modes beyond the descriptor caps."""


class CapabilityError(AlgebraError):
    """The requested operation is not available on this backend."""


class DomainError(AlgebraError):
    """An input violates a mathematical precondition."""


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Identifies one concrete coefficient algebra.

    ``matrix`` uses ``n`` and a real or complex ``field``; ``circle-diffop``
    uses the caps ``max_order`` (J, highest derivative order) and ``max_mode``
    (M, Fourier window half-width), and its field is always complex.
    """

    backend: str
    n: int | None = None
    max_order: int | None = None
    max_mode: int | None = None
    field: str = REAL

    def __post_init__(self) -> None:
        if self.backend not in (MATRIX, CIRCLE_DIFFOP):
            raise ShapeMismatchError(f"unknown backend {self.backend!r}")
        if self.field not in (REAL, COMPLEX):
            raise ShapeMismatchError(f"unknown scalar field {self.field!r}")
        if self.backend == MATRIX:
            if self.n is None or self.n < 1:
                raise ShapeMismatchError("matrix backend needs n >= 1")
            if self.max_order is not None or self.max_mode is not None:
                raise ShapeMismatchError("matrix backend takes no diffop windows")
        else:
            if self.max_order is None or self.max_order < 0:
                raise ShapeMismatchError("diffop backend needs max_order >= 0")
            if self.max_mode is None or self.max_mode < 1:
                raise ShapeMismatchError("diffop backend needs max_mode >= 1")
            if self.n is not None:
                raise ShapeMismatchError("diffop backend takes no matrix size")
            if self.field != COMPLEX:
                raise ShapeMismatchError("diffop coefficients are complex; the field must be "
                                         f"{COMPLEX!r}")
        if prod(self.shape) * self.dtype.itemsize > MAX_FLOW_BYTES:
            raise DomainError(f"one element's payload exceeds {MAX_FLOW_BYTES} bytes")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self.field == COMPLEX else np.float64)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of one element's payload: ``(n, n)`` or ``(J+1, 2M+1)``."""
        if self.backend == MATRIX:
            return (self.n, self.n)
        return (self.max_order + 1, self.width)

    @property
    def width(self) -> int:
        """Number of stored Fourier modes (diffop backend only)."""
        if self.backend != CIRCLE_DIFFOP:
            raise CapabilityError("mode window is a diffop notion")
        return 2 * self.max_mode + 1


def matrix_descriptor(n: int, field: str = REAL) -> AlgebraDescriptor:
    return AlgebraDescriptor(backend=MATRIX, n=n, field=field)


def diffop_descriptor(max_order: int, max_mode: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(backend=CIRCLE_DIFFOP, max_order=max_order, max_mode=max_mode,
                             field=COMPLEX)


def _check_same(a: AlgebraDescriptor, b: AlgebraDescriptor) -> None:
    if a != b:
        raise ShapeMismatchError(f"descriptor mismatch: {a} vs {b}")


class AlgebraElement:
    """One element of a coefficient algebra, tied to its descriptor.

    ``data`` is a read-only ndarray: ``(n, n)`` for matrices, ``(J+1, 2M+1)``
    for circle diffops (row ``j`` holds the Fourier coefficients of ``a_j`` on
    modes ``-M..M``).
    """

    __slots__ = ("descriptor", "data")

    def __init__(self, descriptor: AlgebraDescriptor, data: np.ndarray):
        array = np.array(data, dtype=descriptor.dtype)
        if array.shape != descriptor.shape:
            if descriptor.backend == MATRIX:
                raise ShapeMismatchError(
                    f"matrix payload must be {descriptor.n}x{descriptor.n}, got {array.shape}")
            raise ShapeMismatchError(
                f"diffop payload must have shape {descriptor.shape}, got {array.shape}")
        array.setflags(write=False)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "data", array)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, descriptor: AlgebraDescriptor) -> "AlgebraElement":
        return cls(descriptor, np.zeros(descriptor.shape, dtype=descriptor.dtype))

    @classmethod
    def one(cls, descriptor: AlgebraDescriptor) -> "AlgebraElement":
        return cls(descriptor, unit_payload(descriptor))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.data.any()

    def order(self) -> int | None:
        """Highest derivative order with a nonzero coefficient (diffop only)."""
        if self.descriptor.backend != CIRCLE_DIFFOP:
            raise CapabilityError("order is defined for circle-diffop elements")
        rows = np.flatnonzero(self.data.any(axis=1))
        return int(rows[-1]) if rows.size else None

    def norm(self) -> float:
        """Frobenius norm for matrices; max over orders of the Fourier 2-norm for diffops."""
        return float(element_norms(self.descriptor, self.data))

    def trace(self):
        if self.descriptor.backend != MATRIX:
            raise CapabilityError("trace is available on the matrix backend only")
        value = self.data.trace()
        return complex(value) if self.descriptor.field == COMPLEX else float(value)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _check_same(self.descriptor, other.descriptor)
        return AlgebraElement(self.descriptor, self.data + other.data)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _check_same(self.descriptor, other.descriptor)
        return AlgebraElement(self.descriptor, self.data - other.data)

    def __neg__(self):
        return AlgebraElement(self.descriptor, -self.data)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            _check_same(self.descriptor, other.descriptor)
            return AlgebraElement(self.descriptor, stacked_product(
                self.descriptor, self.data[None], other.data[None])[0])
        if isinstance(other, numbers.Number):
            return AlgebraElement(self.descriptor,
                                  self.data * coerce_scalar(self.descriptor, other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return AlgebraElement(self.descriptor,
                                  self.data * coerce_scalar(self.descriptor, other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.descriptor == other.descriptor and np.array_equal(self.data, other.data)

    __hash__ = None

    def __repr__(self) -> str:
        kind = "matrix" if self.descriptor.backend == MATRIX else "diffop"
        return f"<AlgebraElement {kind} norm={self.norm():.6g}>"


def coerce_scalar(descriptor: AlgebraDescriptor, scalar):
    """The Python scalar that multiplies payloads of ``descriptor``'s field."""
    if descriptor.dtype == np.float64:
        if isinstance(scalar, numbers.Real):
            return float(scalar)
        value = complex(scalar)
        if value.imag == 0.0:
            return value.real
        raise DomainError("complex scalar applied to a real-field element")
    return complex(scalar)


def unit_payload(descriptor: AlgebraDescriptor) -> np.ndarray:
    """Payload of the unit element."""
    if descriptor.backend == MATRIX:
        return np.eye(descriptor.n, dtype=descriptor.dtype)
    data = np.zeros(descriptor.shape, dtype=descriptor.dtype)
    data[0, descriptor.max_mode] = 1.0
    return data


# -- stacked kernels ------------------------------------------------------------
#
# A stack is an ndarray of payloads whose last two axes are one element and
# whose leading axes index nodes, grades or both.  The kernels below act on a
# whole stack at once.  Matrix slices get the same bits as the element methods
# above; a diffop stack shares one row and mode range, so its slices agree with
# the one-pair products up to rounding.

# Work on a long stack runs in blocks whose items take about this many bytes,
# so its temporaries stay a few blocks in size whatever the stack length.
BLOCK_BYTES = 1 << 18


def blocks(count: int, item_nbytes: int) -> list[slice]:
    """Slices covering ``range(count)``, each spanning about ``BLOCK_BYTES`` of
    items that take ``item_nbytes`` each."""
    size = max(1, BLOCK_BYTES // item_nbytes)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def stacked_product(descriptor: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``a[k] * b[k]`` over the broadcast leading axes of two stacks.

    Matrices multiply as one batched ``matmul``.  Diffop pairs are composed by
    one call of the exact Leibniz kernel, on the stacks reshaped to one axis of
    pairs.
    """
    if descriptor.backend == MATRIX:
        return a @ b
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape[-2:]
    return _diffop_products(descriptor, a.reshape(-1, *shape),
                            b.reshape(-1, *shape)).reshape(a.shape)


def kernel_block_bytes(descriptor: AlgebraDescriptor) -> int:
    """The most bytes one block of :func:`stacked_product`'s kernel holds beside its
    factors and its output: none for matrices, and for diffops about ``BLOCK_BYTES``,
    or one pair's temporaries at the full window if they take more."""
    if descriptor.backend == MATRIX:
        return 0
    return max(BLOCK_BYTES, _leibniz_pair_bytes(descriptor.shape, descriptor.shape))


def stacked_commutator(descriptor: AlgebraDescriptor, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Brackets ``a[k] b[k] - b[k] a[k]`` over the broadcast leading axes."""
    return stacked_product(descriptor, a, b) - stacked_product(descriptor, b, a)


def _self_dot(flat: np.ndarray) -> np.ndarray:
    # row @ column runs numpy's dot kernel on each slice, the kernel
    # np.linalg.norm uses on one matrix; an axis reduction sums in another order
    return (flat[..., None, :] @ flat[..., :, None])[..., 0, 0]


def element_norms(descriptor: AlgebraDescriptor, values: np.ndarray) -> np.ndarray:
    """:meth:`AlgebraElement.norm` of every element of a stack, bit for bit."""
    if descriptor.backend == MATRIX:
        flat = values.reshape(*values.shape[:-2], values.shape[-2] * values.shape[-1])
        if np.iscomplexobj(flat):
            return np.sqrt(_self_dot(flat.real) + _self_dot(flat.imag))
        return np.sqrt(_self_dot(flat))
    return np.sqrt((np.abs(values) ** 2).sum(axis=-1)).max(axis=-1)


def matrix_element(values, field: str | None = None) -> AlgebraElement:
    """Build a matrix-backend element, inferring the field from the payload."""
    array = np.asarray(values)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ShapeMismatchError(f"matrix payload must be square, got shape {array.shape}")
    if field is None:
        field = COMPLEX if np.iscomplexobj(array) else REAL
    return AlgebraElement(matrix_descriptor(array.shape[0], field), array)


def diffop_element(descriptor: AlgebraDescriptor, coefficients) -> AlgebraElement:
    """Build a circle-diffop element.

    ``coefficients`` is either a full ``(J+1, 2M+1)`` array or a mapping
    ``{order: {mode: value}}`` with ``0 <= order <= J`` and ``|mode| <= M``.
    """
    if descriptor.backend != CIRCLE_DIFFOP:
        raise ShapeMismatchError("diffop_element needs a circle-diffop descriptor")
    if isinstance(coefficients, dict):
        data = np.zeros((descriptor.max_order + 1, descriptor.width), dtype=np.complex128)
        for order, modes in coefficients.items():
            if not 0 <= order <= descriptor.max_order:
                raise WindowOverflowError(f"order {order} outside 0..{descriptor.max_order}")
            for mode, value in modes.items():
                if abs(mode) > descriptor.max_mode:
                    raise WindowOverflowError(f"mode {mode} outside |m| <= {descriptor.max_mode}")
                data[order, mode + descriptor.max_mode] = value
        return AlgebraElement(descriptor, data)
    return AlgebraElement(descriptor, coefficients)


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The bracket [a, b] = a*b - b*a."""
    return a * b - b * a


def _diffop_products(descriptor: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Leibniz products ``a[p] * b[p]`` of two ``(P, J+1, 2M+1)`` payload stacks.

    Each block of pairs is composed over every order and mode that the
    factors' spans reach.  An entry outside the window is a sum of products
    with an exactly zero factor unless the product really reaches it, so a
    block whose product has more nonzero entries than its in-window part
    raises :class:`WindowOverflowError`, naming the cap it overflowed, instead
    of being truncated.  Only the rows and modes that are nonzero somewhere
    in the stack take part.
    """
    max_order = descriptor.max_order
    max_mode = descriptor.max_mode
    a_rows, a_modes = a.any(axis=0).nonzero()
    b_rows, b_modes = b.any(axis=0).nonzero()
    if not a_rows.size or not b_rows.size:
        return np.zeros(a.shape, dtype=np.complex128)
    a_modes = slice(int(a_modes.min()), int(a_modes.max()) + 1)
    b_modes = slice(int(b_modes.min()), int(b_modes.max()) + 1)
    a = a[:, :int(a_rows[-1]) + 1, a_modes]
    b = b[:, :int(b_rows[-1]) + 1, b_modes]
    orders = a.shape[1] + b.shape[1] - 1
    width = a.shape[2] + b.shape[2] - 1
    # the product's columns of modes -M and M + 1; either may lie outside it
    low = max_mode - a_modes.start - b_modes.start
    high = low + descriptor.width
    inside = slice(max(low, 0), max(low, 0, min(high, width)))
    # spans whose sum fits the window leave no entry outside it to check
    fits = orders <= max_order + 1 and low <= 0 and high >= width
    out = np.zeros((len(a), max_order + 1, descriptor.width), dtype=np.complex128)
    for block in blocks(len(a), _leibniz_pair_bytes(a.shape[1:], b.shape[1:])):
        wide = _leibniz_block(a[block], b[block], b_modes.start - max_mode).transpose(0, 2, 1)
        kept = wide[:, :max_order + 1, inside]
        if not fits and np.count_nonzero(wide) != np.count_nonzero(kept):
            cap = (f"order exceeds the cap J={max_order}" if wide[:, max_order + 1:].any()
                   else f"modes exceed the cap M={max_mode}")
            raise WindowOverflowError(f"product {cap}; enlarge the descriptor window")
        out[block, :orders, inside.start - low:inside.stop - low] = kept
    return out


# The two tables below depend only on row and mode spans, which take a few
# dozen values on a given window; caching them keeps their set-up out of the
# per-call cost.  Both are read-only, since every caller shares them.

@functools.lru_cache(maxsize=128)
def _toeplitz_index(length: int, width: int) -> np.ndarray:
    """``index[n, m] = n - m + width - 1``: gathers ``x[n - m]`` from ``x`` padded
    with ``width - 1`` zeros on both ends."""
    index = np.subtract.outer(np.arange(length), np.arange(width)) + width - 1
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=128)
def _lift_weights(low_mode: int, high_mode: int, shifts: int) -> np.ndarray:
    """``C(j, d) (i m)^d`` at ``[m, j, j - d]`` for the modes ``low..high`` and
    ``d <= j < shifts``; zero where ``j - d`` would be negative."""
    factor = 1j * np.arange(low_mode, high_mode + 1)
    weights = np.zeros((len(factor), shifts, shifts), dtype=np.complex128)
    power = np.ones_like(factor)
    for d in range(shifts):
        for s in range(shifts - d):
            weights[:, s + d, s] = comb(s + d, d) * power
        power = power * factor
    weights.setflags(write=False)
    return weights


def _leibniz_pair_bytes(a_shape: tuple[int, int], b_shape: tuple[int, int]) -> int:
    """Bytes of all the temporaries :func:`_leibniz_block` makes for one pair of
    ``a_shape`` and ``b_shape`` payloads: ``b`` padded, shifted, lifted and lifted
    pair-major, ``a`` padded, its Toeplitz stack and the product.  Blocks sized by
    all of them, not by the largest alone, keep every temporary small enough to be
    reused from the heap rather than mapped and faulted in afresh."""
    (shifts, a_width), (b_rows, b_width) = a_shape, b_shape
    orders = shifts + b_rows - 1
    conv_width = a_width + b_width - 1
    return 16 * (b_width * (b_rows + 2 * shifts - 2) + 3 * b_width * shifts * orders
                 + (a_width + 2 * b_width - 2) * shifts + conv_width * b_width * shifts
                 + conv_width * orders)


def _leibniz_block(a: np.ndarray, b: np.ndarray, low_mode: int) -> np.ndarray:
    """Unwindowed Leibniz products of ``(P, S, Wa)`` and ``(P, K, Wb)`` payload blocks.

    ``low_mode`` is the Fourier mode of ``b``'s first column.  Returns
    ``(P, Wa + Wb - 1, S + K - 1)``: the product's modes, from the sum of both
    low modes up, by its orders ``0..S+K-2``.  Grouped by the row ``j`` of
    ``a``, the Leibniz sum reads

        (a b)_r = sum_j  a_j * lift_(j, r),
        lift_(j, r) = sum_(d <= j)  C(j, d) (d/dx)^d b_(r - j + d),

    so ``b`` is differentiated and shifted into ``lift`` once, and the mode
    convolution with every row of ``a`` is one batched matmul of ``a``'s
    Toeplitz matrices against it: a direct sum of products, never an FFT.
    ``b``'s stack is laid out mode-major, ``(Wb, rows, P)``, so the lift is one
    ``(S x S) @ (S x orders P)`` matmul per mode; one pair-major copy of it
    then feeds the Toeplitz matmul.
    """
    count, shifts, a_width = a.shape
    b_rows, b_width = b.shape[1:]
    orders = shifts + b_rows - 1
    conv_width = a_width + b_width - 1
    # shifted[m, s, r, p] = b[p, r - s, m], zero off b's rows
    padded = np.zeros((b_width, b_rows + 2 * (shifts - 1), count), dtype=np.complex128)
    padded[:, shifts - 1:shifts - 1 + b_rows] = b.transpose(2, 1, 0)
    shifted = np.take(padded, _toeplitz_index(orders, shifts).T, axis=1)
    lift = (_lift_weights(low_mode, low_mode + b_width - 1, shifts)
            @ shifted.reshape(b_width, shifts, orders * count))
    # lift[p, m * S + j, r], pair-major
    lift = lift.reshape(b_width, shifts, orders, count).transpose(3, 0, 1, 2).reshape(
        count, b_width * shifts, orders)
    # toeplitz[p, n, m, j] = a[p, j, n - m], zero off a's modes
    padded = np.zeros((count, a_width + 2 * (b_width - 1), shifts), dtype=np.complex128)
    padded[:, b_width - 1:b_width - 1 + a_width] = a.transpose(0, 2, 1)
    toeplitz = np.take(padded, _toeplitz_index(conv_width, b_width), axis=1)
    return toeplitz.reshape(count, conv_width, b_width * shifts) @ lift
