from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlax import (
    algebra,
    CIRCLE_DIFFOP,
    COMPLEX,
    REAL,
    AlgebraDescriptor,
    CapabilityError,
    DomainError,
    ShapeMismatchError,
    WindowOverflowError,
    AlgebraElement,
    commutator,
    diffop_descriptor,
    diffop_element,
    matrix_descriptor,
    matrix_element,
)
from helpers import (E12, E21, SL2_H, apply_to_modes, leibniz_reference, rand_diffop,
                     rand_matrix)


def test_descriptor_validation():
    with pytest.raises(ShapeMismatchError):
        matrix_descriptor(0)
    with pytest.raises(ShapeMismatchError):
        matrix_descriptor(2, "rational")
    with pytest.raises(ShapeMismatchError):
        diffop_descriptor(-1, 3)
    with pytest.raises(ShapeMismatchError):
        diffop_descriptor(2, 0)


def test_payload_size_cap():
    # a complex 8192 x 8192 payload is exactly MAX_FLOW_BYTES
    assert matrix_descriptor(8192, "complex").dtype.itemsize * 8192**2 == algebra.MAX_FLOW_BYTES
    for too_large in (lambda: matrix_descriptor(8193, "complex"),
                      lambda: matrix_descriptor(10**12),
                      lambda: diffop_descriptor(10**4, 10**4)):
        with pytest.raises(DomainError, match="payload exceeds"):
            too_large()


def test_diffop_descriptor_is_complex_only():
    assert diffop_descriptor(2, 3).field == COMPLEX
    assert diffop_descriptor(2, 3).dtype == np.complex128
    with pytest.raises(ShapeMismatchError):
        AlgebraDescriptor(backend=CIRCLE_DIFFOP, max_order=2, max_mode=3, field=REAL)


def test_matrix_units_add_mul_commutator():
    a = matrix_element(E12)
    b = matrix_element(E21)
    assert np.array_equal((a + b).data, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert (a * a).is_zero
    assert np.array_equal((a * b).data, np.diag([1.0, 0.0]))
    assert np.array_equal(commutator(a, b).data, np.array(SL2_H))
    h = matrix_element(SL2_H)
    assert np.array_equal(commutator(h, a).data, 2.0 * np.array(E12))
    assert commutator(a, a).is_zero


def test_additive_and_multiplicative_identities():
    desc = matrix_descriptor(3)
    rng = np.random.default_rng(11)
    a = rand_matrix(rng, desc)
    zero = AlgebraElement.zero(desc)
    one = AlgebraElement.one(desc)
    assert (a + zero) == a
    assert (one * a) == a
    assert (a * one) == a
    assert (a - a).is_zero


def test_scalar_domain_guard():
    a = matrix_element(E12)  # real field
    with pytest.raises(DomainError):
        a * (1.0 + 2.0j)
    c = matrix_element(E12, field="complex")
    assert ((1.0 + 2.0j) * c).data[0, 1] == 1.0 + 2.0j


def test_norm_and_trace_literals():
    desc = matrix_descriptor(2)
    assert AlgebraElement.zero(desc).norm() == 0.0
    assert AlgebraElement.one(desc).norm() == pytest.approx(math.sqrt(2.0))
    assert AlgebraElement.one(matrix_descriptor(5)).trace() == pytest.approx(5.0)
    assert (matrix_element(E12) * matrix_element(E21)).trace() == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    a, b = rand_matrix(rng, desc), rand_matrix(rng, desc)
    assert abs(commutator(a, b).trace()) < 1e-12


def test_trace_unavailable_for_diffops():
    desc = diffop_descriptor(2, 3)
    with pytest.raises(CapabilityError):
        AlgebraElement.one(desc).trace()


def test_shape_mismatch():
    a = matrix_element(E12)
    b = AlgebraElement.one(matrix_descriptor(3))
    with pytest.raises(ShapeMismatchError):
        a + b
    with pytest.raises(ShapeMismatchError):
        a * b


def test_matrix_algebra_laws_sampled():
    # associativity, distributivity, unit over 1000 random samples
    rng = np.random.default_rng(2024)
    for field in ("real", "complex"):
        desc = matrix_descriptor(4, field)
        one = AlgebraElement.one(desc)
        for _ in range(500):
            a, b, c = (rand_matrix(rng, desc) for _ in range(3))
            assoc = ((a * b) * c - a * (b * c)).norm()
            dist = ((a + b) * c - (a * c + b * c)).norm()
            unit = (one * a - a).norm()
            scale = max(1.0, a.norm() * b.norm() * c.norm())
            assert assoc / scale <= 1e-12
            assert dist / scale <= 1e-12
            assert unit <= 1e-12
            assert (a + b) == (b + a)


def test_diffop_algebra_laws_sampled():
    rng = np.random.default_rng(77)
    desc = diffop_descriptor(4, 9)
    one = AlgebraElement.one(desc)
    for _ in range(1000):
        a = rand_diffop(rng, desc, used_order=1, used_mode=2)
        b = rand_diffop(rng, desc, used_order=1, used_mode=2)
        c = rand_diffop(rng, desc, used_order=1, used_mode=2)
        assoc = ((a * b) * c - a * (b * c)).norm()
        dist = ((a + b) * c - (a * c + b * c)).norm()
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        assert assoc / scale <= 1e-12
        assert dist / scale <= 1e-12
        assert (one * a - a).norm() <= 1e-12
        assert (a * one - a).norm() <= 1e-12


def test_diffop_product_matches_leibniz_by_application():
    # 20 curated compositions checked against application to trig polynomials
    rng = np.random.default_rng(5)
    desc = diffop_descriptor(4, 9)
    cases = []
    for j in range(2):
        for k in range(2):
            for mode_a, mode_b in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
                cases.append((j, k, mode_a, mode_b))
    assert len(cases) == 20
    half = 24
    probe = np.zeros(2 * half + 1, dtype=np.complex128)
    probe[half - 3: half + 4] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    for j, k, mode_a, mode_b in cases:
        a = rand_diffop(rng, desc, used_order=j, used_mode=mode_a)
        b = rand_diffop(rng, desc, used_order=k, used_mode=mode_b)
        composed = apply_to_modes(a * b, probe)
        chained = apply_to_modes(a, apply_to_modes(b, probe))
        assert np.abs(composed - chained).max() <= 1e-12


def test_d_times_sin_is_sin_d_plus_cos():
    # D . sin(x) = sin(x) D + cos(x), with sin = (e^{ix} - e^{-ix}) / 2i
    desc = diffop_descriptor(2, 3)
    center = desc.max_mode
    d_data = np.zeros((3, desc.width), dtype=np.complex128)
    d_data[1, center] = 1.0
    d_op = diffop_element(desc, d_data)
    sin_data = np.zeros((3, desc.width), dtype=np.complex128)
    sin_data[0, center + 1] = -0.5j
    sin_data[0, center - 1] = 0.5j
    sin_op = diffop_element(desc, sin_data)

    product = d_op * sin_op
    expected = np.zeros((3, desc.width), dtype=np.complex128)
    expected[1] = sin_data[0]               # sin(x) D
    expected[0, center + 1] = 0.5           # cos(x)
    expected[0, center - 1] = 0.5
    assert np.abs(product.data - expected).max() <= 1e-15
    assert product.order() == 1


def test_window_overflow_never_truncates():
    desc = diffop_descriptor(3, 4)
    center = desc.max_mode
    high = np.zeros((4, desc.width), dtype=np.complex128)
    high[3, center] = 1.0
    d3 = diffop_element(desc, high)
    with pytest.raises(WindowOverflowError):
        d3 * d3  # order 6 > 3
    wide = np.zeros((4, desc.width), dtype=np.complex128)
    wide[0, center + 3] = 1.0
    e3 = diffop_element(desc, wide)
    with pytest.raises(WindowOverflowError):
        e3 * e3  # mode 6 > 4


def _windowed(descriptor, wide):
    """The in-window part of a :func:`leibniz_reference` product, which must have no other."""
    order, mode = descriptor.max_order, descriptor.max_mode
    inside = wide[:order + 1, mode:3 * mode + 1].copy()
    wide[:order + 1, mode:3 * mode + 1] = 0
    assert not wide.any()
    return inside


@pytest.mark.parametrize("block_bytes", [algebra.BLOCK_BYTES, 1])
def test_stacked_diffop_products_match_extended_reference(monkeypatch, block_bytes):
    # Pairs of different order and mode supports, with zero rows and zero
    # factors, multiplied as one stack, in one block and one pair per block.
    # The stack's union of rows and modes reaches beyond the window (order
    # 4 + 4, modes 6 + 5) though every product fits, so the exact-zero
    # overflow checks are exercised too.
    monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(31)
    desc = diffop_descriptor(4, 6)
    supports = [(0, 0, 0, 0), (1, 1, 2, 1), (2, 1, 0, 1), (4, 0, 1, 1), (0, 4, 1, 5),
                (3, 1, 3, 3), (2, 2, 2, 2), (1, 3, 5, 1), (0, 2, 6, 0)]
    a = np.zeros((len(supports), *desc.shape), dtype=np.complex128)
    b = np.zeros_like(a)
    for p, (order_a, order_b, mode_a, mode_b) in enumerate(supports):
        a[p] = rand_diffop(rng, desc, order_a, mode_a).data
        b[p] = rand_diffop(rng, desc, order_b, mode_b).data
    a[2, 1] = 0.0          # a zero row inside the support
    b[5, 0] = 0.0
    b[8] = 0.0             # a zero factor
    products = algebra.stacked_product(desc, a, b)
    for p in range(len(supports)):
        reference = _windowed(desc, leibniz_reference(a[p], b[p]))
        single = (AlgebraElement(desc, a[p]) * AlgebraElement(desc, b[p])).data
        scale = np.abs(reference).max()
        assert np.abs(products[p] - reference).max() <= 1e-15 * scale
        assert np.abs(single - reference).max() <= 1e-15 * scale
    assert not products[8].any()


@pytest.mark.parametrize("block_bytes", [algebra.BLOCK_BYTES, 1])
def test_stacked_overflow_in_one_pair_raises(monkeypatch, block_bytes):
    monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
    desc = diffop_descriptor(3, 4)
    rng = np.random.default_rng(8)
    fitting = [(rand_diffop(rng, desc, 1, 2).data, rand_diffop(rng, desc, 1, 2).data)
               for _ in range(5)]
    high = diffop_element(desc, {2: {0: 1.0}}).data           # D^2: D^2 D^2 has order 4 > 3
    wide = diffop_element(desc, {0: {3: 1.0, -1: 0.5}}).data  # e^3ix e^3ix has mode 6 > 4
    low = diffop_element(desc, {0: {-3: 1.0}}).data           # e^-3ix e^-3ix has mode -6 < -4
    # the message names the cap that overflowed: an order overflow is not a mode one
    for bad, cap in (((high, high), "J=3"), ((wide, wide), "M=4"), ((low, low), "M=4")):
        pairs = fitting[:3] + [bad] + fitting[3:]
        a = np.stack([x for x, _ in pairs])
        b = np.stack([y for _, y in pairs])
        with pytest.raises(WindowOverflowError, match=cap):
            algebra.stacked_product(desc, a, b)
        # the same stack without the bad pair fits
        keep = np.ones(len(pairs), dtype=bool)
        keep[3] = False
        algebra.stacked_product(desc, a[keep], b[keep])
    # both factors' spans lie near one end, so the whole product lies above (or
    # below) the window; its one nonzero entry, mode 6 (or -6), must still raise
    for sign in (1, -1):
        a = np.stack([diffop_element(desc, {0: {3 * sign: 1.0}}).data,
                      diffop_element(desc, {0: {4 * sign: 1.0}}).data])
        b = np.stack([diffop_element(desc, {0: {3 * sign: 1.0}}).data,
                      np.zeros(desc.shape, complex)])
        with pytest.raises(WindowOverflowError, match="M=4"):
            algebra.stacked_product(desc, a, b)


@st.composite
def _edge_stacks(draw):
    """A window ``J <= 3``, ``M <= 4`` and 1-4 pairs of payloads near one edge mode:
    the window's first, second, centre, last but one or last.  Each factor is zero
    or a random block on rows ``0..top`` whose modes start at that edge or one past
    it, mostly one or two modes long, so that products of two factors near an end
    of the window reach just past it."""
    desc = diffop_descriptor(draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    width = desc.width
    edge = draw(st.sampled_from((0, 1, desc.max_mode, width - 2, width - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 4))
    stacks = np.zeros((2, count, *desc.shape), dtype=np.complex128)
    for factor in stacks.reshape(-1, *desc.shape):
        if draw(st.booleans()):
            continue
        top = draw(st.integers(0, desc.max_order))
        start = min(edge + draw(st.integers(0, 1)), width - 1)
        length = draw(st.integers(1, 2) | st.integers(1, width))
        shape = (top + 1, min(length, width - start))
        factor[:top + 1, start:start + shape[1]] = (rng.standard_normal(shape)
                                                    + 1j * rng.standard_normal(shape))
    return desc, stacks[0], stacks[1]


def _monomials(descriptor, modes):
    """A stack of the zeroth-order monomials ``e^{imx}``, one per entry of ``modes``;
    ``None`` is a zero factor."""
    stack = np.zeros((len(modes), *descriptor.shape), dtype=np.complex128)
    for factor, mode in zip(stack, modes):
        if mode is not None:
            factor[0, mode + descriptor.max_mode] = 1.0
    return stack


_M4 = diffop_descriptor(0, 4)


# The stacks' spans start near one end but their product lies wholly past it:
# e^{3ix} e^{3ix} = e^{6ix} at M = 4, and its mirror image below the window.  The
# random draws meet this shape in well under 1% of cases, so it is given as well.
@settings(derandomize=True, max_examples=200, deadline=None)
@given(_edge_stacks())
@example((_M4, _monomials(_M4, (3, 4)), _monomials(_M4, (3, None))))
@example((_M4, _monomials(_M4, (-3, -4)), _monomials(_M4, (-3, None))))
def test_diffop_kernel_matches_the_reference_at_the_window_edges(case):
    desc, a, b = case
    order, mode = desc.max_order, desc.max_mode
    wide = np.stack([leibniz_reference(x, y) for x, y in zip(a, b)])
    inside = wide[:, :order + 1, mode:3 * mode + 1].copy()
    wide[:, :order + 1, mode:3 * mode + 1] = 0
    for block_bytes in (1, 1 << 18):
        with mock.patch.object(algebra, "BLOCK_BYTES", block_bytes):
            if wide.any():
                with pytest.raises(WindowOverflowError):
                    algebra._diffop_products(desc, a, b)
                continue
            products = algebra._diffop_products(desc, a, b)
        assert np.abs(products - inside).max() <= 1e-12 * np.abs(inside).max()


@st.composite
def _factor_stacks(draw):
    """A window and two diffop factor stacks, pair-aligned ``(P,)`` and ``(P,)`` or outer
    ``(A, 1)`` and ``(1, B)``.  Each stack has one support, rows ``0..top`` and a run of
    modes, within half the window, so that every product fits.  Each factor fills that
    support with random entries, and so shares its stack's spans, or fills a smaller
    support inside it, or is zero."""
    desc = diffop_descriptor(draw(st.integers(0, 4)), draw(st.integers(1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outer = draw(st.booleans())
    count = draw(st.integers(1, 4))
    stacks = []
    for length in (count, draw(st.integers(1, 4)) if outer else count):
        top = draw(st.integers(0, desc.max_order // 2))
        low = draw(st.integers(-(desc.max_mode // 2), desc.max_mode // 2))
        high = draw(st.integers(low, desc.max_mode // 2))
        stack = np.zeros((length, *desc.shape), dtype=np.complex128)
        for factor in stack:
            kind = draw(st.sampled_from(("whole", "whole", "whole", "part", "zero")))
            if kind == "zero":
                continue
            rows, first, last = top, low, high
            if kind == "part":
                rows = draw(st.integers(0, top))
                first = draw(st.integers(low, high))
                last = draw(st.integers(first, high))
            shape = (rows + 1, last - first + 1)
            factor[:rows + 1, first + desc.max_mode:last + desc.max_mode + 1] = (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        stacks.append(stack)
    a, b = stacks
    return (desc, a[:, None], b[None]) if outer else (desc, a, b)


def _spans(stack: np.ndarray) -> tuple[int, int, int] | None:
    """The last nonzero row and the first and last nonzero modes of a stack."""
    rows, modes = np.nonzero(stack.reshape(-1, *stack.shape[-2:]).any(axis=0))
    return (rows.max(), modes.min(), modes.max()) if rows.size else None


# One kernel call prepares each factor once and multiplies every pair by matmuls whose
# shapes depend on the call's spans only, so a pair whose factors reach those spans
# has the bits of a call on that pair alone, whatever the stacks' layout and length.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(_factor_stacks())
def test_pairs_that_share_their_calls_spans_have_the_bits_of_lone_calls(case):
    desc, a, b = case
    products = algebra.stacked_product(desc, a, b)
    left, right = np.broadcast_arrays(a, b)
    spans = (_spans(a), _spans(b))
    for x, y, product in zip(left.reshape(-1, *desc.shape), right.reshape(-1, *desc.shape),
                             products.reshape(-1, *desc.shape)):
        lone = (AlgebraElement(desc, x) * AlgebraElement(desc, y)).data
        assert np.abs(product - lone).max() <= 1e-13 * max(1.0, np.abs(lone).max())
        if (_spans(x), _spans(y)) == spans:
            assert product.tobytes() == lone.tobytes()


@st.composite
def _leading_shapes(draw):
    """Two broadcastable leading shapes of one length; phases of the bytes that an ``a``, a
    ``b`` and a pair hold at once, the last with a pair's; and a block budget."""
    lead = draw(st.lists(st.integers(1, 5), max_size=3))
    a_lead = tuple(draw(st.sampled_from((1, n))) for n in lead)
    b_lead = tuple(n if m == 1 else draw(st.sampled_from((1, n))) for m, n in zip(a_lead, lead))
    phases = draw(st.lists(st.tuples(*[st.integers(0, 100)] * 3), max_size=2))
    phases.append(draw(st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(1, 100))))
    return a_lead, b_lead, tuple(map(max, a_lead, b_lead)), phases, draw(st.integers(1, 3000))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_leading_shapes())
def test_kernel_tiles_cover_every_pair_once_within_the_block(case):
    # in every phase a tile holds its factors' and its pairs' bytes: at most a block, or
    # one of each
    a_lead, b_lead, lead, phases, block_bytes = case
    with mock.patch.object(algebra, "BLOCK_BYTES", block_bytes):
        tiles = algebra._tiles(a_lead, b_lead, lead, phases)
    covered = np.zeros(lead, dtype=int)
    for tile in tiles:
        covered[tile] += 1
        held = [np.empty(shape)[algebra._factor_tile(tile, np.empty((*shape, 1, 1)))].size
                for shape in (a_lead, b_lead, lead)]
        for phase in phases:
            assert np.dot(held, phase) <= max(block_bytes, *map(sum, phases))
    assert (covered == 1).all()


def test_elements_are_immutable():
    a = matrix_element(E12)
    with pytest.raises(AttributeError):
        a.data = np.zeros((2, 2))
    with pytest.raises(ValueError):
        a.data[0, 0] = 5.0


def test_diffop_order_and_norm():
    desc = diffop_descriptor(3, 2)
    data = np.zeros((4, 5), dtype=np.complex128)
    data[2, 2] = 3.0
    op = diffop_element(desc, data)
    assert op.order() == 2
    assert op.norm() == pytest.approx(3.0)
    assert AlgebraElement.zero(desc).order() is None
