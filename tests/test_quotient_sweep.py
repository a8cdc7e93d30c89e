"""The coset-quotient sweeps against the full-grid formulation.

The reference below is the direct route: mask values at every point of the
requested grid, the q shifted columns gathered through ``shift_map``, and
one Gram per point.  The checkers sweep coset representatives at covering
depth instead; both must give the same verdict, the same maximum deviation
to rounding, and a worst point where the reference attains that maximum.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefield.construct import Paraunitary
from framefield.errors import ConstructionError
from framefield import kernels
from framefield.cli import main
from framefield.galois import FieldParams
from framefield.localfield import grid_point
from framefield.mask import (
    DEFAULT_MATRIX_TOL,
    FilterBank,
    Mask,
    check_mixed_orthogonality,
    check_polyphase_unitary,
    check_subqmf,
    check_uep,
    coset_values,
    covering_depth,
    gram_deviation,
    make_report,
    mask_values_on_grid,
    polyphase_symbols,
    sweep_report,
)
from framefield.reference import eval_symbol, polyphase_split

from helpers import random_bank, shift_map

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]
DEV_ATOL = 1e-14
WORST_ATOL = 1e-12
REAL_DEVIATION = 1e-6


def _shifted(masks, depth):
    values = mask_values_on_grid(masks, depth)
    return values[:, shift_map(masks[0].params, depth)]  # (M, G, q)


def reference_deviations(condition, bank, dual, depth):
    """Per-point deviations on the full depth-s grid."""
    q = bank.params.q
    if condition == "uep":
        h = _shifted(bank.masks, depth)
        gram = np.einsum("lgk,lgj->gkj", np.conj(h), h) - np.eye(q)
        return np.abs(gram).max(axis=(1, 2))
    if condition == "subqmf":
        h = _shifted([bank.m0], depth)[0]
        return np.maximum(0.0, (np.abs(h) ** 2).sum(axis=1) - 1.0)
    if condition == "polyphase_unitary":
        comps = [c for m in bank.masks for c in polyphase_split(m)]
        gamma = mask_values_on_grid(comps, depth) * math.sqrt(q)
        gamma = gamma.reshape(len(bank.masks), q, -1)
        gram = np.einsum("lrg,lsg->grs", gamma, np.conj(gamma)) - np.eye(q)
        return np.abs(gram).max(axis=(1, 2))
    if condition == "mixed_orthogonality":
        a, b = _shifted(bank.wavelets, depth), _shifted(dual.wavelets, depth)
        cross = np.einsum("lgk,lgj->gkj", np.conj(a), b)
        sel = np.eye(q, dtype=bool)
        sel[0, :] = sel[:, 0] = True
        return np.abs(cross[:, sel]).max(axis=1)
    raise ValueError(condition)


def reference_paraunitary(params, entries):
    """Per-point column deviations of a symbol matrix at covering depth."""
    flat = [m for row in entries for m in row]
    depth = covering_depth(max(m.max_index for m in flat), params.q)
    size = len(entries)
    a = mask_values_on_grid(flat, depth) * math.sqrt(params.q)
    a = a.reshape(size, size, -1)
    gram = np.einsum("ikg,ijg->gkj", np.conj(a), a) - np.eye(size)
    return np.abs(gram).max(axis=(1, 2)), depth


def grid_index(point, depth):
    q = point.params.q
    return sum(point.digit_at(j) * q ** j for j in range(depth))


def assert_matches(report, ref, depth, max_index):
    q = report.worst_point.params.q
    assert report.grid_depth == depth
    swept = min(depth, covering_depth(max_index, q))
    assert report.details == {"swept_depth": swept, "cosets_swept": q ** (swept - 1)}
    assert report.passed == bool(ref.max() <= report.tolerance)
    assert abs(report.max_deviation - ref.max()) <= DEV_ATOL
    worst = grid_index(report.worst_point, depth)
    assert abs(ref[worst] - report.max_deviation) <= WORST_ATOL
    if report.max_deviation > REAL_DEVIATION:
        # away from rounding noise, ties are exact and the first point wins
        assert worst == int(np.argmax(ref >= report.max_deviation - WORST_ATOL))


banks = st.builds(
    lambda field, seed, unitary, delay: random_bank(
        FieldParams(*field), seed, unitary=unitary, max_delay=delay
    ),
    st.sampled_from(FIELDS),
    st.integers(0, 2 ** 16),
    st.booleans(),
    st.integers(0, 3),
)


@given(bank=banks, extra=st.integers(0, 1), data=st.data())
def test_quotient_sweeps_match_full_grid(bank, extra, data):
    dual = random_bank(
        bank.params,
        data.draw(st.integers(0, 2 ** 16)),
        unitary=data.draw(st.booleans()),
        max_delay=data.draw(st.integers(0, 3)),
    )
    q = bank.params.q
    top = max(bank.max_index, dual.max_index)
    depth = covering_depth(top, q) + extra
    reports = [
        (check_uep(bank, depth), bank.max_index),
        (check_subqmf(bank.m0, depth), bank.m0.max_index),
        (check_polyphase_unitary(bank, depth), bank.max_index),
        (check_mixed_orthogonality(bank, dual, depth), top),
    ]
    for report, max_index in reports:
        ref = reference_deviations(report.condition, bank, dual, depth)
        assert_matches(report, ref, depth, max_index)


@given(bank=banks)
def test_quotient_paraunitary_matches_full_grid(bank):
    # the polyphase matrix of a bank as a matrix of stride-q symbols
    q = bank.params.q
    entries = [[polyphase_split(m)[r] for m in bank.masks] for r in range(q)]
    try:
        report = Paraunitary(bank.params, q, entries).unitarity_report()
    except ConstructionError as exc:
        report = exc.report
    assert report.tolerance == DEFAULT_MATRIX_TOL
    ref, depth = reference_paraunitary(bank.params, entries)
    assert_matches(report, ref, depth, max(m.max_index for row in entries for m in row))


@given(bank=banks)
def test_polyphase_symbols_match_components(bank):
    # column x of the table is component (l, r) at the coset representative
    # t*x, the depth-(e+1) point with digit 0 at power 0
    params = bank.params
    q = params.q
    e = covering_depth(bank.max_index, q) - 1
    table = polyphase_symbols(bank)
    assert table.shape == (len(bank.masks), q, q ** e)
    points = [grid_point(params, e + 1, q * x) for x in range(q ** e)]
    for l, m in enumerate(bank.masks):
        for r, comp in enumerate(polyphase_split(m)):
            want = np.array([eval_symbol(comp, xi) for xi in points])
            assert np.abs(table[l, r] - want).max() <= 1e-12


@pytest.mark.parametrize("wavelet", [[], [1.0, 1.0]], ids=["zero", "nonzero"])
def test_polyphase_symbols_of_strided_bank_are_those_of_its_block_rows(p2, haar2, wavelet, tmp_path):
    # a bank's block rows are stride-1 rows, whatever its masks' strides
    bank = FilterBank(p2, haar2.m0, (*haar2.wavelets, Mask(p2, wavelet, stride=2)))
    rows = FilterBank(p2, Mask(p2, bank.coeffs[0]), tuple(Mask(p2, row) for row in bank.coeffs[1:]))
    assert bank.strides == (1, 1, 2) and rows.strides == (1, 1, 1)
    got, want = polyphase_symbols(bank), polyphase_symbols(rows)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the reference route splits each mask's block row the same way
    e = covering_depth(bank.max_index, 2) - 1
    points = [grid_point(p2, e + 1, 2 * x) for x in range(2 ** e)]
    for l, m in enumerate(bank.masks):
        for r, comp in enumerate(polyphase_split(m)):
            assert np.abs(got[l, r] - [eval_symbol(comp, xi) for xi in points]).max() <= 1e-12
    if not wavelet:
        # the Haar bank plus a zero wavelet is still a tight frame
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(bank.to_json()))
        report = tmp_path / "report.json"
        assert main(["verify", str(path), "--checks", "uep,polyphase", "--out", str(report)]) == 0
        experiment = ["experiment", "--kind", "parseval", "--bank", str(path)]
        assert main([*experiment, "--out", str(tmp_path / "parseval.json")]) == 0


@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 30), st.integers(1, 6)),
       block=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_gram_matches_one_einsum(shape, block, seed):
    # each representative's Gram is the sum one unblocked einsum computes,
    # bit for bit, whatever the block of representatives
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gram = np.einsum("lrk,lrj->rkj", np.conj(cols), cols)
    gram -= np.eye(shape[2])
    want = np.abs(gram).max(axis=(1, 2))
    with mock.patch.object(kernels, "BLOCK_BYTES", 16 * block):
        got = gram_deviation(cols)
        # conjugated columns have conjugated Grams: the same deviations,
        # which lets the polyphase check skip its conjugated copy
        conjugated = gram_deviation(np.conj(cols))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(conjugated.view(np.int64), want.view(np.int64))


@given(bank=banks, block=st.integers(1, 200), data=st.data())
def test_blocked_mixed_check_matches_one_einsum(bank, block, data):
    dual = random_bank(bank.params, data.draw(st.integers(0, 2 ** 16)),
                       unitary=data.draw(st.booleans()), max_delay=data.draw(st.integers(0, 3)))
    depth = covering_depth(max(bank.max_index, dual.max_index), bank.params.q)
    va = coset_values(bank.params, bank.coeffs[1:], depth)
    vb = coset_values(dual.params, dual.coeffs[1:], depth)
    cross = np.abs(np.einsum("lrk,lrj->rkj", np.conj(va), vb))
    diag = np.diagonal(cross, axis1=1, axis2=2).max(axis=1)
    want = np.maximum(np.maximum(cross.max(axis=2), cross.max(axis=1)), diag[:, None]).ravel()
    with mock.patch.object(kernels, "BLOCK_BYTES", 16 * block):
        report = check_mixed_orthogonality(bank, dual, depth)
    worst = int(np.argmax(want))
    assert np.float64(report.max_deviation).view(np.int64) == want[worst].view(np.int64)
    assert grid_index(report.worst_point, depth) == worst


@given(field=st.sampled_from(FIELDS), swept=st.integers(1, 3), extra=st.integers(0, 2),
       data=st.data())
def test_sweep_report_folds_one_deviation_per_coset(field, swept, extra, data):
    # a representative's deviation holds on the q points of its coset: the
    # report is that of the deviations repeated q times, ties and NaN alike
    params = FieldParams(*field)
    q, depth = params.q, swept + extra
    reps = q ** (swept - 1)
    levels = st.sampled_from([0.0, 1e-13, 0.25, 0.25, 1.0])  # few levels: many ties
    dev = np.array(data.draw(st.lists(levels, min_size=reps, max_size=reps)))
    if data.draw(st.booleans()):
        dev[data.draw(st.integers(0, len(dev) - 1))] = np.nan
    details = {"swept_depth": swept, "cosets_swept": reps}
    want = make_report("uep", depth, np.repeat(dev, q), 1e-10, params, details)
    for deviations in (dev, np.repeat(dev, q)):
        got = sweep_report("uep", depth, swept, deviations, 1e-10, params)
        bits = np.float64([got.max_deviation, want.max_deviation]).view(np.int64)
        assert bits[0] == bits[1]
        assert got.worst_point == want.worst_point
        assert (got.passed, got.grid_depth, got.details) == (want.passed, depth, details)
