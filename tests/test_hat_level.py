"""The hat-level routes against their per-point references.

``cascade_phihat`` and ``multiplier_orthogonality_check`` read covering-depth
mask tables through one dilation-index rule, and ``partition_sums`` gathers
one block of translates at a time.  The references below are the direct routes: the
cascade gathers its table through the full hat digit matrix, the multiplier
check walks base points x dilations x wavelets with ``eval_mask`` and
``cascade_value`` on exact field elements, and the partition sums add
translates one point at a time through ``lf_add`` and ``HatGrid.__call__``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefield import kernels
from framefield.construct import FramePair
from framefield.errors import ParameterError
from framefield.galois import FieldParams
from framefield.localfield import FieldElement, grid_digits, grid_point
from framefield.mask import (
    FilterBank,
    covering_depth,
    mask_values_on_grid,
)
from framefield.reference import cascade_value, eval_mask, lf_add, u_map
from framefield.verify import (
    HatGrid,
    cascade_phihat,
    constant_hat,
    multiplier_orthogonality_check,
    partition_sums,
)

from helpers import mask_scale, random_bank

CASCADE_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]
MULTIPLIER_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]
MAX_HAT_POINTS = 4096
MAX_MULTIPLIER_POINTS = 243
MAX_PARTITION_POINTS = 729
DEV_RTOL = 1e-13
WORST_ATOL = 1e-12


def reference_cascade(m0, iterations, j_neg, j_pos):
    """Values and stabilization index through the hat digit matrix."""
    params = m0.params
    q = params.q
    width = j_neg + j_pos
    digits = grid_digits(params, width)
    support_depth = covering_depth(m0.max_index, q)
    table = mask_values_on_grid([m0], support_depth)[0]
    values = np.ones(q ** width, dtype=np.complex128)
    for j in range(1, iterations + 1):
        # digit of t**j x at power i is column i - j + j_neg of the matrix
        g = np.zeros(len(values), dtype=np.int64)
        needs_any = False
        for i in range(support_depth):
            src = i - j + j_neg
            if 0 <= src < width:
                g += digits[:, src] * q ** i
                needs_any = True
        if not needs_any:
            return values, j
        values *= table[g]
    return values, None


def reference_multiplier(pair, g_hat, h_hat, dilations=None):
    """Per-point deviations of the truncated cross sums, and the window."""
    params = pair.params
    q = params.q
    support_depth = covering_depth(max(pair.primal.max_index, pair.dual.max_index), q)
    j_hi = g_hat.j_neg
    j_lo = -(support_depth + 1)
    if dilations is not None:
        j_lo = max(j_lo, -dilations)
        j_hi = min(j_hi, dilations)
    base_depth = g_hat.j_pos
    devs = np.zeros(q ** base_depth)
    for g in range(q ** base_depth):
        xi = grid_point(params, base_depth, g)
        total = 0.0 + 0.0j
        for j in range(j_lo, j_hi + 1):
            x = FieldElement(params, xi.v - j, xi.digits)
            tx = FieldElement(params, x.v + 1, x.digits)
            phi_p = cascade_value(pair.primal.m0, tx)
            phi_d = cascade_value(pair.dual.m0, tx)
            if phi_p == 0 or phi_d == 0:
                continue
            gv = g_hat(x)
            hv = h_hat(x)
            for l in range(pair.primal.n_wavelets):
                psi = eval_mask(pair.primal.wavelets[l], tx) * phi_p * gv
                phi = eval_mask(pair.dual.wavelets[l], tx) * phi_d * hv
                total += psi * np.conj(phi)
        devs[g] = abs(total)
    return devs, {"dilation_low": j_lo, "dilation_high": j_hi}


def normalized_bank(params, seed, unitary, delay):
    """A random bank whose refinement mask is scaled so that m0(0) = 1."""
    bank = random_bank(params, seed, unitary=unitary, max_delay=delay)
    at_zero = mask_values_on_grid([bank.m0], 1)[0, 0]
    return FilterBank(params, mask_scale(bank.m0, 1 / at_zero), bank.wavelets)


def hat_window(data, q, max_points):
    width = 0
    while q ** (width + 1) <= max_points:
        width += 1
    j_neg = data.draw(st.integers(0, min(4, width)))
    j_pos = data.draw(st.integers(0, min(4, width - j_neg)))
    return j_neg, j_pos


@given(
    field=st.sampled_from(CASCADE_FIELDS),
    seed=st.integers(0, 2 ** 16),
    unitary=st.booleans(),
    delay=st.integers(0, 3),
    iterations=st.integers(1, 12),
    data=st.data(),
)
def test_cascade_matches_digit_matrix(field, seed, unitary, delay, iterations, data):
    params = FieldParams(*field)
    m0 = normalized_bank(params, seed, unitary, delay).m0
    j_neg, j_pos = hat_window(data, params.q, MAX_HAT_POINTS)
    hat = cascade_phihat(m0, iterations, j_neg, j_pos)
    values, stabilized_at = reference_cascade(m0, iterations, j_neg, j_pos)
    assert np.array_equal(hat.values, values)
    assert hat.stabilized_at == stabilized_at


@pytest.mark.parametrize("field, j_neg, j_pos", [((2, 1), 7, 9), ((3, 1), 4, 6)])
def test_cascade_blocks_match_digit_matrix(field, j_neg, j_pos):
    # windows of 2**16 and 3**10 points span two and more cascade blocks
    params = FieldParams(*field)
    assert params.q ** (j_neg + j_pos) > kernels.BLOCK_BYTES // 8
    m0 = normalized_bank(params, 7, False, 3).m0
    hat = cascade_phihat(m0, 12, j_neg, j_pos)
    values, stabilized_at = reference_cascade(m0, 12, j_neg, j_pos)
    assert np.array_equal(hat.values, values)
    assert hat.stabilized_at == stabilized_at


def test_cascade_values_do_not_depend_on_how_they_are_read():
    # one point at a time, in reverse or by gather, every point gets the bits
    # the whole window gives it (numpy rounds a lone complex product apart)
    m0 = normalized_bank(FieldParams(3), 7, False, 3).m0
    want = cascade_phihat(m0, 12, 2, 3).values
    hat = cascade_phihat(m0, 12, 2, 3)
    reads = [
        np.concatenate([hat[h:h + 1] for h in range(len(hat))]),
        np.concatenate([hat.gather(np.array([h])) for h in range(len(hat))]),
        np.ascontiguousarray(hat[::-1][::-1]),
        hat.gather(np.arange(len(hat))),
    ]
    assert "values" not in hat.__dict__
    for got in reads:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_cascade_memory_is_values_plus_one_block(haar2):
    cascade_phihat(haar2.m0, 12, 1, 1)  # field and character tables
    tracemalloc.start()
    try:
        values = cascade_phihat(haar2.m0, 12, 8, 10).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == 2 ** 18
    assert peak <= values.nbytes + 2 * 2 ** 20


def test_hat_grid_keeps_frozen_values_and_copies_others(p2, haar2):
    hat = cascade_phihat(haar2.m0, 6, 2, 3)
    assert not hat.values.flags.writeable
    assert HatGrid(p2, 2, 3, hat.values).values is hat.values
    caller = np.arange(32, dtype=np.complex128)
    grid = HatGrid(p2, 2, 3, caller)
    caller[:] = -1
    assert np.array_equal(grid.values, np.arange(32))
    # a read-only view of a writable array is copied too
    view = caller[:]
    view.flags.writeable = False
    grid = HatGrid(p2, 2, 3, view)
    caller[:] = 7
    assert np.all(grid.values == -1)


@given(
    field=st.sampled_from(MULTIPLIER_FIELDS),
    seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
    unitary=st.booleans(),
    delays=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    dilations=st.sampled_from([None, 0, 2]),
    data=st.data(),
)
def test_multiplier_matches_point_loop(field, seeds, unitary, delays, dilations, data):
    params = FieldParams(*field)
    q = params.q
    pair = FramePair(
        normalized_bank(params, seeds[0], True, delays[0]),
        normalized_bank(params, seeds[1], unitary, delays[1]),
    )
    j_neg, j_pos = hat_window(data, q, MAX_MULTIPLIER_POINTS)
    rng = np.random.default_rng(list(seeds))
    size = q ** (j_neg + j_pos)
    g_hat, h_hat = (
        HatGrid(params, j_neg, j_pos, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for _ in range(2)
    )
    report = multiplier_orthogonality_check(pair, g_hat, h_hat, dilations=dilations)
    ref, details = reference_multiplier(pair, g_hat, h_hat, dilations)
    dev = ref.max()
    assert abs(report.max_deviation - dev) <= DEV_RTOL * max(1.0, dev)
    assert report.passed == bool(dev <= report.tolerance)
    assert report.details == details
    worst =sum(report.worst_point.digit_at(i) * q ** i for i in range(j_pos))
    assert abs(ref[worst] - dev) <= WORST_ATOL


def test_multiplier_requires_normalized_mask(p2, haar2):
    one = constant_hat(p2, 2, 3)
    for primal, dual in ((0.5, 1.0), (1.0, 2.0)):
        pair = FramePair(
            FilterBank(p2, mask_scale(haar2.m0, primal), haar2.wavelets),
            FilterBank(p2, mask_scale(haar2.m0, dual), haar2.wavelets),
        )
        with pytest.raises(ParameterError, match="not normalized"):
            multiplier_orthogonality_check(pair, one, one)


def reference_partition(phihat, translates):
    """sum_{k<K} |phihat(xi + u(k))|**2 point by point on the base grid."""
    params = phihat.params
    sums = np.zeros(params.q ** phihat.j_pos)
    for g in range(len(sums)):
        xi = grid_point(params, phihat.j_pos, g)
        for k in range(translates):
            sums[g] += abs(phihat(lf_add(xi, u_map(params, k)))) ** 2
    return sums


@given(field=st.sampled_from(CASCADE_FIELDS), seed=st.integers(0, 2 ** 16), data=st.data())
def test_partition_sums_match_point_loop(field, seed, data):
    params = FieldParams(*field)
    q = params.q
    j_neg, j_pos = hat_window(data, q, MAX_PARTITION_POINTS)
    translates = data.draw(st.integers(1, q ** j_neg))
    rng = np.random.default_rng(seed)
    size = q ** (j_neg + j_pos)
    hat = HatGrid(params, j_neg, j_pos, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    got = partition_sums(hat, translates)
    want = reference_partition(hat, translates)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= DEV_RTOL * want.max()


@pytest.mark.parametrize("field, j_neg, j_pos, translates", [
    ((2, 1), 8, 10, 256), ((2, 1), 8, 10, 200), ((3, 1), 6, 4, 700), ((2, 2), 4, 4, 256),
])
def test_partition_blocks_match_one_gather(field, j_neg, j_pos, translates):
    # the one-gather sum, bit for bit, with the translates spread over
    # 8, 8, 2 and 2 blocks
    params = FieldParams(*field)
    q = params.q
    rng = np.random.default_rng(3)
    size = q ** (j_neg + j_pos)
    hat = HatGrid(params, j_neg, j_pos, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    base = np.arange(q ** j_pos) * q ** j_neg
    k = np.arange(translates)
    offsets = sum((k // q ** i % q) * q ** (j_neg - 1 - i) for i in range(j_neg))
    want = (np.abs(hat.values[offsets[:, None] + base]) ** 2).sum(axis=0)
    assert np.array_equal(partition_sums(hat, translates), want)


def test_partition_memory_is_one_block(haar2):
    hat = cascade_phihat(haar2.m0, 12, 8, 10)
    assert len(hat.values) == 2 ** 18  # computed on first read, before the sums
    tracemalloc.start()
    try:
        sums = partition_sums(hat, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sums) == 2 ** 10
    # beyond the hat values, which were there before; one gather of all
    # 256 translates took 6.0 MB
    assert peak <= 2 ** 20
