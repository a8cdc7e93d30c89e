"""Cascade, partition of unity, discrete transforms, and the experiments."""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from framefield import kernels
from framefield.construct import (
    FramePair,
    compose,
    delay_block,
    derive_pair,
    haar_bank,
    seeded_paraunitary,
)
from framefield.errors import ConstructionError, CoverageError, DepthError, ParameterError
from framefield.galois import FieldParams
from framefield.localfield import FieldElement, index_add
from framefield.mask import FilterBank, Mask, check_uep, mask_values_on_grid, zero_mask
from framefield.reference import cascade_value, eval_mask, fe_prime_power, fe_zero, u_map
from framefield.verify import (
    HatGrid,
    analysis_step,
    cascade_phihat,
    constant_hat,
    mixed_frame_experiment,
    multiplier_orthogonality_check,
    parseval_experiment,
    partition_of_unity_check,
    partition_sums,
    random_signal,
    synthesis_step,
)

from helpers import long_pair, mask_scale, random_bank

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# cascade and partition of unity


def test_cascade_haar_is_indicator(p2, haar2):
    # on the ring of integers every factor is identically one
    hat = cascade_phihat(haar2.m0, 8, j_neg=0, j_pos=3)
    assert np.array_equal(hat.values, np.ones(8))
    assert hat.stabilized_at == 1
    # outside, the first factor kills the product exactly
    wide = cascade_phihat(haar2.m0, 8, j_neg=2, j_pos=2)
    outside = [h for h in range(len(wide.values)) if h % 4 != 0]
    assert np.all(wide.values[outside] == 0)
    assert wide.stabilized_at == 3


def test_cascade_value_at_zero(p3, haar3):
    hat = cascade_phihat(haar3.m0, 6, j_neg=1, j_pos=2)
    assert hat.values[0] == pytest.approx(1.0, abs=1e-14)
    assert cascade_value(haar3.m0, fe_zero(p3)) == 1.0
    assert cascade_value(haar3.m0, u_map(p3, 1)) == pytest.approx(0.0, abs=1e-15)


def test_cascade_requires_normalized_mask(p2, haar2):
    with pytest.raises(ParameterError):
        cascade_phihat(mask_scale(haar2.m0, 0.5), 4)


def test_cascade_bounded_for_subqmf(p3, haar3):
    hat = cascade_phihat(haar3.m0, 8, j_neg=2, j_pos=3)
    assert np.abs(hat.values).max() <= 1 + 1e-9
    assert hat.values[0] == pytest.approx(1.0, abs=1e-14)


def test_hat_grid_indexing(p2):
    hat = constant_hat(p2, 2, 2)
    for h in range(16):
        assert hat.index_of(hat.point(h)) == h
    # resolution truncation: digits at powers >= j_pos fold away
    fine = FieldElement(p2, 3, (1,))
    assert hat.index_of(fine) == 0
    with pytest.raises(CoverageError):
        hat.index_of(fe_prime_power(p2, -3))


def test_partition_haar(p2, haar2):
    hat = cascade_phihat(haar2.m0, 8, j_neg=2, j_pos=3)
    report, sums = partition_of_unity_check(hat, 4, tol=1e-12)
    assert report.passed
    assert report.details["translates"] == 4
    assert np.array_equal(sums, partition_sums(hat, 4))
    # only the k = 0 term contributes for the indicator scaling function
    single, _ = partition_of_unity_check(hat, 1, tol=1e-12)
    assert single.passed


def test_partition_doubled_fails(p2, haar2):
    hat = cascade_phihat(haar2.m0, 8, j_neg=2, j_pos=3)
    doubled = HatGrid(p2, 2, 3, 2.0 * hat.values)
    report, _ = partition_of_unity_check(doubled, 4)
    assert not report.passed
    assert report.max_deviation == pytest.approx(3.0, abs=1e-12)


def test_partition_coverage_error(p2, haar2):
    hat = cascade_phihat(haar2.m0, 8, j_neg=1, j_pos=2)
    with pytest.raises(CoverageError):
        partition_of_unity_check(hat, 8)


# ---------------------------------------------------------------------------
# discrete transforms


def test_analysis_delta_signal(p2, haar2):
    v = np.zeros(8, dtype=np.complex128)
    v[0] = 1.0
    branches = analysis_step(v, haar2)
    assert branches.shape == (2, 4)
    assert branches[0, 0] == pytest.approx(1 / SQRT2)
    assert branches[1, 0] == pytest.approx(1 / SQRT2)
    assert np.count_nonzero(np.abs(branches) > 1e-15) == 2


def test_analysis_constant_kills_wavelet(p2, haar2):
    v = np.ones(16, dtype=np.complex128)
    branches = analysis_step(v, haar2)
    assert np.allclose(branches[1], 0.0, atol=1e-14)
    assert np.allclose(branches[0], SQRT2, atol=1e-14)


def test_perfect_reconstruction_haar(p2, haar2, rng):
    for _ in range(50):
        v = random_signal(p2, 4, rng)
        rec = synthesis_step(analysis_step(v, haar2), haar2)
        assert np.max(np.abs(rec - v)) < 1e-12


def test_synthesis_is_adjoint(p3, haar3, rng):
    v = random_signal(p3, 3, rng)
    w = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
    lhs = np.vdot(w, analysis_step(v, haar3))
    rhs = np.vdot(synthesis_step(w, haar3), v)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_transform_support_guard(p2, haar2):
    from framefield.mask import Mask

    long_m0 = Mask(p2, np.r_[haar2.m0.coeffs, np.zeros(14), 0.1])
    bank = FilterBank(p2, long_m0, haar2.wavelets)
    with pytest.raises(DepthError):
        analysis_step(np.ones(8, dtype=np.complex128), bank)


@pytest.mark.parametrize("seed", range(15))
def test_pr_iff_uep(p2, seed):
    bank = random_bank(p2, seed=seed, unitary=(seed % 2 == 0), max_delay=seed % 3)
    rng = np.random.default_rng(seed)
    v = random_signal(p2, 4, rng)
    rec = synthesis_step(analysis_step(v, bank), bank)
    pr_ok = np.max(np.abs(rec - v)) < 1e-10
    assert pr_ok == check_uep(bank, 3).passed


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)]
MAX_SIGNAL = 729


@functools.lru_cache(maxsize=None)
def reference_indices(params: FieldParams, levels: int) -> np.ndarray:
    """idx[m, k] = m boxplus q*k for m < q**levels and k < q**(levels-1),
    one index_add per entry: the dense route the transforms must match."""
    q = params.q
    return np.array(
        [[index_add(params, m, q * k) for k in range(q ** (levels - 1))] for m in range(q ** levels)],
        dtype=np.int64,
    )


@st.composite
def transform_problems(draw):
    """A field, a signal of q**levels samples (levels up to 6, at most
    MAX_SIGNAL samples), and a mask support whose polyphase components have
    covering depth e for any e from 0 up to levels - 1."""
    p, c = draw(st.sampled_from(FIELDS))
    q = p ** c
    levels = draw(st.integers(1, max(k for k in range(1, 7) if q ** k <= MAX_SIGNAL)))
    e = draw(st.integers(0, levels - 1))
    support = draw(st.integers(q ** e + 1 if e else 1, q ** (e + 1)))
    return (p, c), levels, support, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32 - 1))


@given(transform_problems())
# components of covering depth 2 and 1 on index groups of depth 4 and 3
@example(((2, 1), 5, 5, 2, 0))
@example(((3, 1), 4, 4, 3, 1))
def test_transforms_match_dense_reference(problem):
    (p, c), levels, support, n_masks, seed = problem
    params = FieldParams(p, c)
    n = params.q ** levels
    rng = np.random.default_rng(seed)

    def unit_normal(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / SQRT2

    coeffs = unit_normal(n_masks, support) / math.sqrt(support)
    bank = FilterBank(params, Mask(params, coeffs[0]), tuple(Mask(params, row) for row in coeffs[1:]))
    idx = reference_indices(params, levels)[:support]
    v = unit_normal(n)
    assert np.abs(analysis_step(v, bank) - kernels.analysis_apply(coeffs, v, idx)).max() <= 1e-13
    b = unit_normal(n_masks, n // params.q)
    assert np.abs(synthesis_step(b, bank) - kernels.synthesis_apply(coeffs, b, idx, n)).max() <= 1e-13


# ---------------------------------------------------------------------------
# experiments


def test_parseval_haar(p2, haar2):
    report = parseval_experiment(haar2, 6, 5, trials=10, seed=1)
    assert report.passed
    assert report.max_deviation < 1e-12
    assert len(report.details["per_trial"]) == 10


def test_parseval_rejects_nonunitary(p2, haar2):
    halved = FilterBank(
        p2, mask_scale(haar2.m0, 0.5), tuple(mask_scale(m, 0.5) for m in haar2.wavelets)
    )
    with pytest.raises(ConstructionError) as err:
        parseval_experiment(halved, 4, 2, trials=2)
    assert err.value.report is not None
    # measured without the precondition: one half-scaled level keeps a quarter
    # of the energy, so the drift is exactly three quarters
    report = parseval_experiment(halved, 4, 1, trials=5, enforce_precondition=False)
    assert not report.passed
    assert report.max_deviation == pytest.approx(0.75, abs=1e-12)


def test_parseval_family_bank(p2, haar2):
    from framefield.construct import orthogonal_family

    families = orthogonal_family(haar2, seeded_paraunitary(p2, 2, seed=2))
    for family in families:
        report = parseval_experiment(family, 6, 4, trials=5, seed=3)
        assert report.passed and report.max_deviation < 1e-10


def test_mixed_frame_orthogonal_pair(p2, haar2):
    matrix = compose(delay_block(p2, 2, 0, 1), seeded_paraunitary(p2, 2, seed=4))
    pair = derive_pair(haar2, haar2, matrix)
    report = mixed_frame_experiment(pair, 6, 4, trials=10, seed=5)
    assert report.passed
    assert report.max_deviation < 1e-10


def test_mixed_frame_self_pair_large(p2, haar2):
    pair = FramePair(haar2, haar2)
    report = mixed_frame_experiment(pair, 6, 4, trials=5, seed=6)
    assert not report.passed
    assert report.max_deviation > 0.5


def test_mixed_frame_zero_dual(p2, haar2):
    zero_dual = FilterBank(p2, haar2.m0, (zero_mask(p2),))
    pair = FramePair(haar2, zero_dual)
    report = mixed_frame_experiment(pair, 5, 3, trials=3, enforce_precondition=False)
    assert report.max_deviation == 0.0


def test_energy_monotonicity(p2, haar2, rng):
    # dropping a wavelet branch loses energy for generic signals
    reduced = 0
    for _ in range(100):
        v = random_signal(p2, 4, rng)
        branches = analysis_step(v, haar2)
        full = float(np.sum(np.abs(branches) ** 2))
        dropped = full - float(np.sum(np.abs(branches[1]) ** 2))
        if dropped < full:
            reduced += 1
    assert reduced >= 95


INPUT_FIELDS = [(2, 1), (3, 1), (2, 2)]


def _transform_banks(params, seed, delay):
    """A bank of q masks, the two banks of a derived pair (2L + 1 masks
    each), and, past GF(2), a bank of two masks: tables with as many rows
    as the signal components, more and fewer."""
    primal = random_bank(params, seed, max_delay=delay)
    matrix = seeded_paraunitary(params, 2 * primal.n_wavelets, seed)
    pair = derive_pair(primal, random_bank(params, seed + 1, max_delay=delay), matrix)
    banks = [primal, pair.primal, pair.dual]
    if params.q > 2:
        banks.append(FilterBank(params, primal.m0, primal.wavelets[:1]))
    return banks, pair


@given(field=st.sampled_from(INPUT_FIELDS), seed=st.integers(0, 2 ** 16),
       delay=st.integers(0, 2), levels=st.integers(1, 2))
def test_transforms_and_experiments_leave_their_inputs_unchanged(field, seed, delay, levels):
    params = FieldParams(*field)
    q = params.q
    banks, pair = _transform_banks(params, seed, delay)
    m0 = mask_scale(banks[0].m0, 1 / mask_values_on_grid([banks[0].m0], 1)[0, 0])
    size = levels + 3  # the deepest level still covers supports of 3q
    rng = np.random.default_rng(seed)
    signal = random_signal(params, size, rng)
    signal[::7] = -0.0
    arrays = [signal, m0.coeffs, *(bank.coeffs for bank in banks),
              *(mask.coeffs for bank in banks for mask in bank.masks)]
    branch_sets = [rng.standard_normal((len(bank.masks), q ** (size - 1))) + 0j for bank in banks]
    arrays += branch_sets
    before = [a.tobytes() for a in arrays]
    for bank, branches in zip(banks, branch_sets):
        analysis_step(signal, bank)
        synthesis_step(branches, bank)
    for bank in banks[:3]:
        parseval_experiment(bank, size, levels, 1, seed=seed, enforce_precondition=False)
    mixed_frame_experiment(pair, size, levels, 1, seed=seed, enforce_precondition=False)
    hat = cascade_phihat(m0, 6, 2, 2)
    assert np.array_equal(hat[0:len(hat)], hat.values)
    assert [a.tobytes() for a in arrays] == before


@given(field=st.sampled_from(INPUT_FIELDS), seed=st.integers(0, 2 ** 16),
       delay=st.integers(0, 2), block=st.integers(1, 400))
def test_blocked_symbol_products_are_bit_identical(field, seed, delay, block):
    # with an unbounded block, every residue goes into one matrix product
    params = FieldParams(*field)
    banks, _ = _transform_banks(params, seed, delay)
    signal = random_signal(params, 4, np.random.default_rng(seed))
    results = []
    for block_bytes in (2 ** 66, 16 * block):
        with mock.patch.object(kernels, "BLOCK_BYTES", block_bytes):
            results.append([np.concatenate([analysis_step(signal, bank).ravel(),
                                            synthesis_step(analysis_step(signal, bank), bank)])
                            for bank in banks])
    for whole, blocked in zip(*results):
        assert whole.tobytes() == blocked.tobytes()


def test_mixed_trial_holds_each_level_once():
    # masks 2,073 long over GF(3), as in the benchmark's longpair input: the
    # polyphase table has 729 residues, and a level of 3**9 samples is
    # 315 kB.  Each level holds its input, its output and one transform
    # buffer (1.97 MB traced in all); a level that also kept the products
    # beside the buffer and stacked its branches anew held 2.83 MB.
    pair = long_pair(FieldParams(3), 690, 1)
    assert pair.primal.max_index == 2072
    mixed_frame_experiment(pair, 8, 1, 1, enforce_precondition=False)  # field tables
    tracemalloc.start()
    try:
        report = mixed_frame_experiment(pair, 9, 3, 1, enforce_precondition=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 2.4 * 2 ** 20


# ---------------------------------------------------------------------------
# telescoping identities


def test_telescoping_partial_sums(p2, haar2):
    # the dilation-energy differences collapse to the endpoint energies
    x = FieldElement(p2, -3, (1, 0, 1, 1, 0, 1))
    j_range = range(-4, 5)
    energies = {
        j: abs(cascade_value(haar2.m0, FieldElement(p2, x.v + j, x.digits))) ** 2
        for j in list(j_range) + [5]
    }
    total = sum(energies[j + 1] - energies[j] for j in j_range)
    assert total == pytest.approx(energies[5] - energies[-4], abs=1e-12)


def test_telescoping_refinement_identity(p2, haar2):
    # wavelet energy at one scale equals the drop in scaling energy
    hat = cascade_phihat(haar2.m0, 10, j_neg=3, j_pos=4)
    checked = 0
    for h in range(len(hat.values)):
        x = hat.point(h)
        tx = FieldElement(p2, x.v + 1, x.digits)
        phi_x = cascade_value(haar2.m0, x)
        phi_tx = cascade_value(haar2.m0, tx)
        lhs = sum(
            abs(eval_mask(m, tx) * phi_tx) ** 2 for m in haar2.wavelets
        )
        rhs = abs(phi_tx) ** 2 - abs(phi_x) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-8)
        checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# multiplier orthogonality


def _orthogonal_pair(p2, haar2, seed=7):
    matrix = seeded_paraunitary(p2, 2, seed=seed)
    return derive_pair(haar2, haar2, matrix)


def test_multiplier_identity_reduces_to_cross_sum(p2, haar2):
    pair = _orthogonal_pair(p2, haar2)
    one = constant_hat(p2, 2, 3)
    report = multiplier_orthogonality_check(pair, one, one)
    assert report.passed
    assert report.max_deviation < 1e-10


def test_multiplier_bounded_random(p2, haar2, rng):
    pair = _orthogonal_pair(p2, haar2, seed=9)
    shape = 2 ** 5
    g = HatGrid(p2, 2, 3, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    h = HatGrid(p2, 2, 3, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    report = multiplier_orthogonality_check(pair, g, h)
    assert report.passed
    assert report.max_deviation < 1e-10


def test_multiplier_self_pair_fails(p2, haar2):
    pair = FramePair(haar2, haar2)
    one = constant_hat(p2, 2, 3)
    report = multiplier_orthogonality_check(pair, one, one)
    assert not report.passed
    assert report.max_deviation > 0.1


def test_multiplier_rejects_unbounded(p2, haar2):
    pair = _orthogonal_pair(p2, haar2)
    bad = np.ones(32, dtype=np.complex128)
    bad[3] = np.inf
    with pytest.raises(ParameterError):
        multiplier_orthogonality_check(pair, HatGrid(p2, 2, 3, bad), constant_hat(p2, 2, 3))
