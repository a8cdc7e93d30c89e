"""The symbol-domain mask algebra against carry-free convolution loops.

The references below are the direct route: every pair of nonzero
coefficients is combined through the index group law ``index_add``, and the
matrix products sum those convolutions with ``mask_add``.  The algebra in
``mask`` and ``construct`` multiplies symbol samples on the covering grid
and transforms back once instead; both must give the same stride, the same
length and the same coefficients to rounding.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from framefield.construct import (
    Paraunitary,
    _mix_wavelets,
    compose,
    constant_paraunitary,
    delay_block,
    haar_bank,
    orthogonal_family,
    paraunitary_adjoint,
    seeded_paraunitary,
)
from framefield.galois import FieldParams
from framefield.localfield import index_add
from framefield import mask
from framefield.mask import (
    TRIM_CUTOFF,
    FilterBank,
    Mask,
    coefficient_rows,
    covering_depth,
    lattice_symbols,
    mask_add,
    mask_mul,
    symbols,
    trim_mask,
    zero_mask,
)

from helpers import mask_adjoint, random_bank

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
COEFF_ATOL = 1e-13
IDENTITY_ATOL = 1e-12


def reference_mask_mul(a: Mask, b: Mask) -> Mask:
    """Carry-free convolution, one index_add per pair of nonzero terms."""
    params = a.params
    out_stride = min(a.stride, b.stride)
    acc = {}
    for j, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for k, y in enumerate(b.coeffs):
            if y == 0:
                continue
            slot, rem = divmod(index_add(params, j * a.stride, k * b.stride), out_stride)
            assert rem == 0
            acc[slot] = acc.get(slot, 0.0) + x * y
    if not acc:
        return zero_mask(params, out_stride)
    coeffs = np.zeros(max(acc) + 1, dtype=np.complex128)
    for slot, value in acc.items():
        coeffs[slot] = value
    return Mask(params, coeffs, out_stride)


def reference_compose(a: Paraunitary, b: Paraunitary) -> list:
    q = a.params.q
    rows = []
    for i in range(a.size):
        row = []
        for j in range(a.size):
            acc = zero_mask(a.params, q)
            for k in range(a.size):
                acc = mask_add(acc, reference_mask_mul(a.entries[i][k], b.entries[k][j]))
            row.append(trim_mask(acc, TRIM_CUTOFF))
        rows.append(row)
    return rows


def reference_mix(matrix: Paraunitary, offset: int, wavelets) -> list:
    out = []
    for k in range(matrix.size):
        acc = zero_mask(matrix.params, 1)
        for l, w in enumerate(wavelets):
            acc = mask_add(acc, reference_mask_mul(matrix.entries[k][offset + l], w))
        out.append(trim_mask(acc, TRIM_CUTOFF))
    return out


def assert_same_mask(got: Mask, want: Mask):
    assert got.stride == want.stride
    assert len(got) == len(want)
    if len(want):
        assert np.abs(got.coeffs - want.coeffs).max() <= COEFF_ATOL


fields = st.sampled_from(FIELDS).map(lambda pc: FieldParams(*pc))


def random_masks(draw, params, count, max_length=12):
    """Masks of strides 1, q and q^2 with normal coefficients; some are zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = []
    for _ in range(count):
        n = draw(st.integers(0, max_length))
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        masks.append(Mask(params, coeffs, params.q ** draw(st.integers(0, 2))))
    return masks


@given(params=fields, data=st.data())
def test_mask_mul_matches_convolution(params, data):
    a, b = random_masks(data.draw, params, 2)
    assert_same_mask(mask_mul(a, b), reference_mask_mul(a, b))


@given(params=fields, seed=st.integers(0, 2 ** 16), size=st.integers(1, 3), delay=st.integers(0, 2))
def test_compose_matches_convolution(params, seed, size, delay):
    a = seeded_paraunitary(params, size, seed)
    b = compose(delay_block(params, size, seed % size, delay), seeded_paraunitary(params, size, seed + 1))
    got = compose(a, b)
    for got_row, want_row in zip(got.entries, reference_compose(a, b), strict=True):
        for g, w in zip(got_row, want_row, strict=True):
            assert_same_mask(g, w)


@given(params=fields, seed=st.integers(0, 2 ** 16), size=st.integers(1, 4))
def test_seeded_paraunitary_matches_factor_chain(params, seed, size):
    # the definition: constant unitaries and unit delay blocks, composed in
    # order, with every intermediate product trimmed
    rng = np.random.default_rng([0x9A, seed])
    want = constant_paraunitary(params, size, seed)
    for step in range(int(rng.integers(1, 3))):
        delay = delay_block(params, size, int(rng.integers(size)), 1)
        want = Paraunitary(params, size, reference_compose(want, delay))
        constant = constant_paraunitary(params, size, seed + step + 1)
        want = Paraunitary(params, size, reference_compose(want, constant))
    got = seeded_paraunitary(params, size, seed)
    for got_row, want_row in zip(got.entries, want.entries, strict=True):
        for g, w in zip(got_row, want_row, strict=True):
            assert_same_mask(g, w)


@given(params=fields, seed=st.integers(0, 2 ** 16), length=st.integers(1, 2), data=st.data())
def test_mix_wavelets_matches_convolution(params, seed, length, data):
    matrix = seeded_paraunitary(params, 2 * length, seed)
    m0, *wavelets = random_masks(data.draw, params, length + 1)
    offset = data.draw(st.integers(0, length))
    got = _mix_wavelets(matrix, offset, FilterBank(params, m0, wavelets))
    assert got.m0 is m0
    for g, w in zip(got.wavelets, reference_mix(matrix, offset, wavelets), strict=True):
        assert_same_mask(g, w)


@given(params=fields, seed=st.integers(0, 2 ** 16), length=st.integers(1, 2), data=st.data())
def test_mix_wavelets_ignores_the_width_of_m0(params, seed, length, data):
    # the wavelet rows keep their own width, so an m0 that reaches past the
    # covering depth of the matrix and the wavelets does not deepen the
    # product grid: the same wavelets come out under a short and a long m0
    matrix = seeded_paraunitary(params, 2 * length, seed)
    wavelets = random_masks(data.draw, params, length)
    top = max(matrix.max_index, *(m.max_index for m in wavelets))
    long_m0 = Mask(params, np.ones(params.q ** covering_depth(top, params.q) + 1))
    short, long = (_mix_wavelets(matrix, 0, FilterBank(params, m0, wavelets))
                   for m0 in (zero_mask(params), long_m0))
    for a, b in zip(short.wavelets, long.wavelets, strict=True):
        assert a.stride == b.stride
        assert np.array_equal(a.coeffs, b.coeffs)


@given(params=fields, seed=st.integers(0, 2 ** 16), size=st.integers(1, 3))
def test_orthogonal_family_ignores_the_width_of_m0(params, seed, size):
    # the Haar m0 times a stride-q unit delay: still tight, and one digit
    # wider than the wavelets, which a constant matrix does not widen, so
    # the product grid is that of the Haar bank and so are the wavelets
    haar = haar_bank(params)
    delayed = FilterBank(params, Mask(params, np.r_[np.zeros(params.q), haar.m0.coeffs]),
                         haar.wavelets)
    matrix = constant_paraunitary(params, size, seed)
    for a, b in zip(orthogonal_family(haar, matrix), orthogonal_family(delayed, matrix),
                    strict=True):
        for wa, wb in zip(a.wavelets, b.wavelets, strict=True):
            assert wa.stride == wb.stride
            assert np.array_equal(wa.coeffs.view(np.int64), wb.coeffs.view(np.int64))


@given(params=fields, seed=st.integers(0, 2 ** 16), size=st.integers(1, 3), delay=st.integers(0, 2))
def test_orthogonal_family_matches_convolution(params, seed, size, delay):
    bank = random_bank(params, seed, max_delay=delay)
    matrix = seeded_paraunitary(params, size, seed)
    for r, family in enumerate(orthogonal_family(bank, matrix)):
        want = [
            trim_mask(reference_mask_mul(matrix.entries[l][r], m_n), TRIM_CUTOFF)
            for m_n in bank.wavelets
            for l in range(size)
        ]
        assert family.m0 is bank.m0
        for got, w in zip(family.wavelets, want, strict=True):
            assert_same_mask(got, w)


@given(params=st.sampled_from(FIELDS + [(7, 1), (2, 4)]).map(lambda pc: FieldParams(*pc)),
       seed=st.integers(0, 2 ** 16), size=st.integers(1, 4))
def test_compose_with_adjoint_is_identity(params, seed, size):
    a = seeded_paraunitary(params, size, seed)
    prod = compose(a, paraunitary_adjoint(a))
    for i, row in enumerate(prod.entries):
        for j, m in enumerate(row):
            want = np.zeros(max(len(m), 1), dtype=np.complex128)
            want[0] = 1.0 if i == j else 0.0
            have = np.zeros_like(want)
            have[: len(m)] = m.coeffs
            assert m.stride == params.q
            assert np.abs(have - want).max() <= IDENTITY_ATOL


@given(params=fields, data=st.data())
def test_mask_adjoint_is_involution(params, data):
    (m,) = random_masks(data.draw, params, 1)
    back = mask_adjoint(mask_adjoint(m))
    assert back.stride == m.stride
    assert np.array_equal(back.coeffs, m.coeffs)


def test_only_mask_scales_symbols():
    # mask.symbols applies the sqrt(q) scale and mask.lattice_symbols the
    # stride-q read; a sqrt of a field size in another module (the per-point
    # reference route aside) would be a second copy of that rule
    for path in sorted(Path(mask.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem not in ("mask", "reference"):
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                if getattr(func, "attr", getattr(func, "id", None)) == "sqrt":
                    names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node.args[0])}
                    assert "q" not in names, f"{path.name}:{node.lineno}"
        if path.stem == "construct":
            used = {getattr(n, "name", getattr(n, "attr", getattr(n, "id", None)))
                    for n in ast.walk(tree)}
            assert not used & {"_grid_transform", "coset_values"}


@given(params=fields, data=st.data())
def test_lattice_symbols_read_the_symbols_at_t_x(params, data):
    # a row on q*N0 spread onto N0 (its coefficients at every q-th slot) has
    # at the coset representative t*x, grid index q*x, the value its
    # lattice row has at x; and coefficient_rows takes symbols back to rows
    q = params.q
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n, k, width = (data.draw(st.integers(1, 3)) for _ in range(3))
    rows = rng.standard_normal((n, k, width)) + 1j * rng.standard_normal((n, k, width))
    depth = covering_depth(q * (width - 1), q) + data.draw(st.integers(0, 1))
    spread = np.zeros((n * k, q * width), dtype=np.complex128)
    spread[:, ::q] = rows.reshape(n * k, width)
    full = symbols(params, spread, depth)
    lattice = lattice_symbols(params, rows, depth)
    assert lattice.shape == (n, k, q ** (depth - 1))
    assert np.abs(lattice.reshape(n * k, -1) - full[:, ::q]).max() <= COEFF_ATOL
    want = np.zeros_like(full)
    want[:, : q * width] = spread
    assert np.abs(coefficient_rows(params, full) - want).max() <= COEFF_ATOL
