"""The character transform against the definitional evaluation route, and
its identities at fields past that route's reach."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from framefield import kernels, mask
from framefield.construct import seeded_paraunitary
from framefield.galois import FieldParams, _is_irreducible, field_tables
from framefield.localfield import FieldElement, grid_point, index_add
from framefield.mask import (
    FACTOR_CACHE,
    GRAM_BLOCK,
    FilterBank,
    Mask,
    _character_factor,
    _grid_transform,
    block_masks,
    character_table,
    coefficient_block,
    coefficient_rows,
    covering_depth,
    from_spectrum,
    mask_values_at_digits,
    spectrum,
)
from framefield.reference import eval_mask

from helpers import reference_character_transform


def test_root_table_exactness():
    r2 = kernels.root_table(2)
    assert r2[0] == 1.0 and r2[1] == -1.0
    r5 = kernels.root_table(5)
    assert np.allclose(np.abs(r5), 1.0, atol=1e-15)


@pytest.mark.parametrize("q, e", [(2, 0), (2, 5), (3, 3), (4, 2)])
def test_character_transform_is_kronecker_power(rng, q, e):
    factor = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    coeffs = rng.standard_normal((3, q ** e)) + 1j * rng.standard_normal((3, q ** e))
    # the digit at power 0 cycles fastest, so it is the last Kronecker factor
    dense = np.ones((1, 1))
    for _ in range(e):
        dense = np.kron(factor, dense)
    out = kernels.character_transform(coeffs.copy(), factor, GRAM_BLOCK)
    assert np.allclose(out, coeffs @ dense, atol=1e-12, rtol=0)


@pytest.mark.parametrize("field", [(2, 3), (3, 2), (5, 2), (2, 4, (1, 1, 1, 1, 1))])
def test_character_factor_is_permuted_kronecker_power(field):
    # F[a, x] = conj omega**(a^T M x): the c-fold Kronecker power of the
    # p-by-p table conj omega**(i*j), column x moved to the code of M x
    params = FieldParams(*field)
    p, c, q = params.p, params.c, params.q
    small = np.conj(kernels.root_table(p)[np.outer(np.arange(p), np.arange(p)) % p])
    dense = np.ones((1, 1))
    for _ in range(c):
        dense = np.kron(small, dense)
    coords = np.arange(q)[:, None] // p ** np.arange(c) % p
    moved = (coords @ field_tables(params) % p) @ p ** np.arange(c)
    assert np.allclose(_character_factor(params), dense[:, moved], atol=1e-12, rtol=0)


def test_character_factor_peaks_at_one_and_a_half_times_its_size():
    params = FieldParams(2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))
    field_tables(params)
    tracemalloc.start()
    try:
        factor = _character_factor.__wrapped__(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor.nbytes == 16 * 2 ** 20
    assert peak <= 24 * 2 ** 20, peak


def test_character_factor_cache_is_bounded():
    # a caller that sweeps fields keeps at most FACTOR_CACHE q-by-q tables
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
    assert len(fields) > FACTOR_CACHE
    _character_factor.cache_clear()
    try:
        for field in fields:
            _character_factor(FieldParams(*field))
        assert _character_factor.cache_info().currsize == FACTOR_CACHE
    finally:
        _character_factor.cache_clear()


# field of each q the in-place property runs on
TRANSFORM_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}


@given(
    q=st.sampled_from(sorted(TRANSFORM_FIELDS)),
    e=st.integers(0, 4),
    rows=st.integers(1, 4),
    inverse=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_in_place_transform_is_bit_identical(q, e, rows, inverse, seed):
    factor = _character_factor(FieldParams(*TRANSFORM_FIELDS[q]))
    if inverse:
        factor = np.conj(factor).T / q  # the factor from_spectrum uses
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, q ** e)) + 1j * rng.standard_normal((rows, q ** e))
    # exact and signed zeros among the values
    for part in (x.real, x.imag):
        part[rng.random(x.shape) < 0.2] = 0.0
        part[rng.random(x.shape) < 0.2] = -0.0
    want = np.ascontiguousarray(reference_character_transform(x.copy(), factor))
    got = kernels.character_transform(x, factor, GRAM_BLOCK)
    assert np.shares_memory(got, x)
    # bit patterns, so that the sign of every zero must match too
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_transform_rejects_arrays_it_cannot_overwrite(rng):
    factor = _character_factor(FieldParams(2, 1))
    x = rng.standard_normal((4, 3)) + 0j
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.character_transform(x.T, factor, GRAM_BLOCK)


@given(
    q=st.sampled_from(sorted(TRANSFORM_FIELDS)),
    e=st.integers(0, 4),
    rows=st.integers(1, 20),
    block=st.integers(1, 200),
    inverse=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
# a budget of one value gives one row per block from e = 2 on; at e = 1 a
# block holds q rows, so that with 9 + 1 rows the last product would have
# one row: BLAS's matrix-vector route, which the unblocked product of ten
# rows does not take
@example(q=2, e=1, rows=5, block=1, inverse=False, seed=0)
@example(q=9, e=1, rows=10, block=1, inverse=True, seed=1)
@example(q=3, e=3, rows=7, block=1, inverse=False, seed=2)
def test_blocked_transform_is_bit_identical(q, e, rows, block, inverse, seed):
    # transform rows are independent, so any split into blocks gives the
    # values of one unblocked product per digit, bit for bit
    params = FieldParams(*TRANSFORM_FIELDS[q])
    factor = _character_factor(params)
    if inverse:
        factor = np.conj(factor).T / q  # the factor from_spectrum uses
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, q ** e)) + 1j * rng.standard_normal((rows, q ** e))
    want = np.ascontiguousarray(reference_character_transform(x.copy(), factor))
    with mock.patch.object(mask, "GRAM_BLOCK", block):
        got = (from_spectrum if inverse else spectrum)(params, x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("e", [0, 1, 3])
def test_transform_of_no_rows_is_empty(e):
    factor = _character_factor(FieldParams(2, 1))
    out = kernels.character_transform(np.empty((0, 2 ** e), dtype=np.complex128), factor, 1)
    assert out.shape == (0, 2 ** e)


def test_transform_scratch_is_one_block():
    # 16 MB of rows: an unblocked scratch array would be a second 16 MB
    factor = _character_factor(FieldParams(2, 4))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((256, 4096)) + 1j * rng.standard_normal((256, 4096))
    tracemalloc.start()
    try:
        kernels.character_transform(x, factor, GRAM_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * GRAM_BLOCK + 2 ** 14, peak


@given(
    q=st.sampled_from(sorted(TRANSFORM_FIELDS)),
    rows=st.integers(1, 4),
    n=st.integers(1, 30),
    seed=st.integers(0, 2 ** 32 - 1),
    data=st.data(),
)
def test_grid_transform_is_one_transform_repeated(q, rows, n, seed, data):
    # the rows fold mod q**e, transform at the depth e their last slot
    # needs (capped at s), and repeat over the digits at power e and above
    params = FieldParams(*TRANSFORM_FIELDS[q])
    full = 0
    while q ** full < n:
        full += 1
    depth = data.draw(st.integers(0, full + 2), label="depth")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    # rows of a stride-1 bank are its masks, zero-padded to the longest
    for row in coeffs[1:]:
        row[data.draw(st.integers(0, n), label="length"):] = 0
    e = min(depth, full)
    # one numpy sum over the folds, so that the rounding matches
    padded = np.zeros((rows, -(-n // q ** e) * q ** e), dtype=np.complex128)
    padded[:, :n] = coeffs
    folded = padded.reshape(rows, -1, q ** e).sum(axis=1)
    want = reference_character_transform(folded, _character_factor(params)) / math.sqrt(q)
    want = np.tile(want, q ** (depth - e))
    got = _grid_transform(params, coeffs, depth)
    assert got.shape == (rows, q ** depth)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    masks = [Mask(params, row) for row in coeffs]
    bank = FilterBank(params, masks[0], masks[1:])
    got = _grid_transform(params, bank.coeffs, depth)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
    size=st.integers(1, 3),
    seed=st.integers(0, 2 ** 16),
    extra=st.integers(1, 2),
)
def test_paraunitary_symbols_repeat_above_covering_depth(field, size, seed, extra):
    params = FieldParams(*field)
    matrix = seeded_paraunitary(params, size, seed)
    cover = matrix.depth()
    want = np.tile(matrix.symbols(cover), (params.q ** extra, 1, 1))
    got = np.ascontiguousarray(matrix.symbols(cover + extra))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p, c, e", [(2, 1, 6), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2)])
def test_inverse_transform_recovers_coefficients(rng, p, c, e):
    # F = sqrt(q) * (unitary table), so the inverse factor is conj(F).T / q
    q = p ** c
    factor = character_table(FieldParams(p, c)) * math.sqrt(q)
    coeffs = rng.standard_normal((3, q ** e)) + 1j * rng.standard_normal((3, q ** e))
    values = kernels.character_transform(coeffs.copy(), factor, GRAM_BLOCK)
    back = kernels.character_transform(values, np.conj(factor).T / q, GRAM_BLOCK)
    assert np.abs(back - coeffs).max() <= 1e-13


@pytest.mark.parametrize("p, c, e", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 1), (3, 2, 1)])
def test_spectrum_pair(rng, p, c, e):
    # spectrum is sqrt(q) times the mask values on the depth-e grid, and
    # from_spectrum undoes it
    params = FieldParams(p, c)
    q = params.q
    coeffs = rng.standard_normal((2, q ** e)) + 1j * rng.standard_normal((2, q ** e))
    values = spectrum(params, coeffs.copy())
    for row, got in zip(coeffs, values):
        want = [eval_mask(Mask(params, row), grid_point(params, e, x)) for x in range(q ** e)]
        assert np.abs(got - math.sqrt(q) * np.array(want)).max() <= 1e-12
    assert np.abs(from_spectrum(params, values) - coeffs).max() <= 1e-13


@pytest.mark.parametrize("p, c", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("lift", [0, 1])
def test_masks_from_symbols_inverts_grid_values(rng, p, c, lift):
    params = FieldParams(p, c)
    q = params.q
    base = q ** lift
    masks = [Mask(params, rng.standard_normal(n) + 1j * rng.standard_normal(n), stride)
             for n, stride in [(q * q, base), (q + 2, base * q), (2, base * q * q), (0, base)]]
    depth = covering_depth(max(m.max_index for m in masks) // base, q)
    block = coefficient_block(params, masks, base)[0]
    symbols = _grid_transform(params, block, depth) * math.sqrt(q)
    strides = [m.stride for m in masks]
    # on the lattice base*N0, column k of the rows holds index base*k
    got_masks = block_masks(params, coefficient_rows(params, symbols), strides, base)
    for got, want in zip(got_masks, masks):
        assert got.stride == want.stride and len(got) == len(want)
        assert np.abs(got.coeffs - want.coeffs).max(initial=0.0) <= 1e-13


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)]


@st.composite
def evaluation_problems(draw):
    """Masks of strides 1, q and q^2 (some zero), and digit rows of a width
    below, at or above the masks' covering depth."""
    params = FieldParams(*draw(st.sampled_from(FIELDS)))
    q = params.q
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 12))
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        masks.append(Mask(params, coeffs, q ** draw(st.integers(0, 2))))
    depth = covering_depth(max(m.max_index for m in masks), q)
    width = max(0, depth + draw(st.integers(-2, 1)))
    rows = rng.integers(0, q, size=(draw(st.integers(1, 8)), width))
    if q ** width <= 27:
        full = (np.arange(q ** width)[:, None] // q ** np.arange(width)) % q
        rows = np.concatenate([rows, full])
    return params, masks, rows.astype(np.int64)


@given(evaluation_problems())
def test_values_at_digits_match_eval_mask(problem):
    params, masks, rows = problem
    values = mask_values_at_digits(masks, rows)
    points = [FieldElement(params, 0, tuple(int(d) for d in row)) for row in rows]
    ref = np.array([[eval_mask(m, x) for x in points] for m in masks])
    assert np.abs(values - ref).max() <= 1e-13


def test_short_masks_accept_digit_rows_wider_than_the_grid_cap(p2, rng):
    # 2**30 points is past the grid cap, but masks of at most 4 slots read
    # only the digits below their covering depth
    masks = [Mask(p2, rng.standard_normal(n) + 1j * rng.standard_normal(n), stride)
             for n, stride in [(4, 1), (3, 1), (2, 2), (1, 4)]]
    rows = rng.integers(0, 2, size=(16, 30))
    values = mask_values_at_digits(masks, rows)
    points = [FieldElement(p2, 0, tuple(int(d) for d in row)) for row in rows]
    ref = np.array([[eval_mask(m, x) for x in points] for m in masks])
    assert np.abs(values - ref).max() <= 1e-13


@pytest.mark.parametrize("p, c", [(2, 1), (3, 1), (2, 2)])
def test_lifted_grid_values_match_eval_mask(rng, p, c):
    # the block of masks on the lattice q**lift * N0 gives their values at
    # t**lift * x: the coset representatives of the polyphase and
    # paraunitary sweeps are the lift = 1 case
    params = FieldParams(p, c)
    q = params.q
    masks = [Mask(params, rng.standard_normal(n) + 1j * rng.standard_normal(n), stride)
             for n, stride in [(q * q + 1, 1), (q + 2, q), (3, q * q)]]
    for lift in (1, 2):
        on_lattice = [m for m in masks if m.stride % q ** lift == 0]
        block = coefficient_block(params, on_lattice, q ** lift)[0]
        for depth in (0, 1, 2):
            values = _grid_transform(params, block, depth)
            for g in range(q ** depth):
                x = FieldElement(params, lift, tuple((g // q ** i) % q for i in range(depth)))
                for m, value in zip(on_lattice, values[:, g], strict=True):
                    assert abs(value - eval_mask(m, x)) <= 1e-13


# ---------------------------------------------------------------------------
# identities that need no per-point route, up to GF(1024)

U = 2.0 ** -53  # unit roundoff of a double


@st.composite
def wide_fields(draw):
    """GF(p^c) for p = 2 with c <= 10, p = 3 with c <= 6 and p = 5, 7 with
    c <= 3, under the first irreducible monic modulus at or after a random
    one in the order of their codes."""
    p, top = draw(st.sampled_from([(2, 10), (3, 6), (5, 3), (7, 3)]), label="p")
    c = draw(st.integers(1, top), label="c")
    start = draw(st.integers(0, p ** c - 1), label="start")
    for code in itertools.chain(range(start, p ** c), range(start)):
        modulus = tuple(code // p ** i % p for i in range(c)) + (1,)
        if _is_irreducible(modulus, p, c):
            return FieldParams(p, c, modulus)
    raise AssertionError(f"no irreducible modulus of degree {c} over GF({p})")


@given(params=wide_fields())
def test_character_factor_is_sqrt_q_times_unitary(params):
    # F F* = qI: each entry sums n = q products of two roots of unity, each
    # product within a few u of its value, so within 2n * (n u) of q or 0
    n = params.q
    factor = _character_factor.__wrapped__(params)  # not cached: up to 16 MB each
    gram = factor @ np.conj(factor).T
    assert np.abs(gram - n * np.eye(n)).max() <= 2 * n * (n * U)


@given(params=wide_fields(), data=st.data())
def test_character_factor_rows_multiply_as_characters(params, data):
    # F[a (+) b] = F[a] o F[b] for the carry-free sum (+) of digit codes:
    # each entry is n = 1 product of two rounded roots of unity, so within
    # 16 n u of the rounded root it should equal
    q = params.q
    factor = _character_factor.__wrapped__(params)
    codes = st.lists(st.integers(0, q - 1), min_size=8, max_size=8)
    a, b = np.array(data.draw(codes, label="a")), np.array(data.draw(codes, label="b"))
    total = [index_add(params, int(x), int(y)) for x, y in zip(a, b)]
    assert np.abs(factor[total] - factor[a] * factor[b]).max() <= 16 * U


@given(params=wide_fields(), data=st.data())
def test_spectrum_round_trip_and_energy(params, data):
    # over n = q**e points: from_spectrum(spectrum(x)) = x, and spectrum
    # scales ||x||**2 by n; each value sums n terms through e stages, and
    # both relative errors stay within 8 n u
    q = params.q
    e = data.draw(st.integers(1, 2 if q <= 64 else 1), label="e")
    n = q ** e
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    energy = np.sum(np.abs(x) ** 2, axis=1)
    try:
        values = spectrum(params, x.copy())
        scaled = np.sum(np.abs(values) ** 2, axis=1) / energy
        back = from_spectrum(params, values)
    finally:
        _character_factor.cache_clear()  # one table of up to 16 MB per field drawn
    assert np.abs(scaled / n - 1).max() <= 8 * n * U
    error = np.linalg.norm(back - x, axis=1) / np.sqrt(energy)
    assert error.max() <= 8 * n * U
