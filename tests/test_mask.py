"""Masks, modulation/polyphase matrices, and the condition checkers."""

import json
import math

import numpy as np
import pytest

from framefield.construct import haar_bank
from framefield.errors import DepthError, ParameterError, SizeError
from framefield.galois import FieldParams
from framefield.localfield import grid_point, index_add
from framefield.mask import (
    CheckReport,
    FilterBank,
    Mask,
    character_table,
    check_mixed_orthogonality,
    check_polyphase_unitary,
    check_subqmf,
    check_uep,
    mask_add,
    mask_mul,
    mask_values_at_digits,
    mask_values_on_grid,
    zero_mask,
)
from framefield.reference import (
    chi_n,
    eval_mask,
    eval_symbol,
    fe_prime_power,
    fe_zero,
    grid,
    lf_add,
    lf_mul,
    modulation_matrix,
    polyphase_matrix,
    polyphase_split,
    u_map,
)

from helpers import delta_mask, mask_scale, random_bank, shift_map

SQRT2 = math.sqrt(2.0)


def random_mask(params, rng, length=6, stride=1):
    coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return Mask(params, coeffs, stride)


def test_eval_examples(p2, haar2):
    assert eval_mask(zero_mask(p2), grid_point(p2, 2, 3)) == 0
    assert eval_mask(haar2.m0, fe_zero(p2)) == pytest.approx(1.0, abs=1e-15)
    shift = lf_mul(fe_prime_power(p2, 1), u_map(p2, 1))
    assert eval_mask(haar2.m0, shift) == pytest.approx(0.0, abs=1e-15)
    assert eval_mask(haar2.wavelets[0], shift) == pytest.approx(1.0, abs=1e-15)


def test_grid_kernel_matches_exact_eval(p3, rng):
    # table-driven sweep against the definitional one-point route
    masks = [random_mask(p3, rng, 7), random_mask(p3, rng, 3, stride=3)]
    values = mask_values_on_grid(masks, 2)
    for i, m in enumerate(masks):
        for g, xi in enumerate(grid(p3, 2)):
            assert values[i, g] == pytest.approx(eval_mask(m, xi), abs=1e-13)


def test_evaluation_grid_cap():
    # 70000 slots at q = 251 need the 251**3-point grid, past the cap
    m = Mask(FieldParams(251, 1), np.ones(70000))
    with pytest.raises(SizeError):
        mask_values_at_digits([m], np.zeros((1, 3), dtype=np.int64))
    with pytest.raises(SizeError):
        mask_values_on_grid([m], 3)
    assert mask_values_on_grid([m], 1).shape == (1, 251)


def test_mask_constant_on_cosets(p2, rng):
    # support below q**s makes the mask constant on B^s cosets, exactly
    from framefield.localfield import FieldElement

    m = random_mask(p2, rng, 4)  # support < 2**2
    for _ in range(20):
        xi = grid_point(p2, 2, int(rng.integers(4)))
        tail = tuple(int(t) for t in rng.integers(0, 2, size=3))
        bump = FieldElement(p2, 2, tail)
        assert eval_mask(m, lf_add(xi, bump)) == eval_mask(m, xi)


def test_mask_mul_identity_symbol(p2, rng):
    one = delta_mask(p2, 1.0, slot=0, stride=2)
    b = random_mask(p2, rng, 5)
    prod = mask_mul(one, b)
    assert prod.stride == 1
    assert np.allclose(prod.coeffs, b.coeffs, atol=0)


def test_mask_mul_delay_example(p3):
    q = p3.q
    a = delta_mask(p3, 1.0, slot=1, stride=q)
    b = delta_mask(p3, math.sqrt(q), slot=0, stride=1)
    prod = mask_mul(a, b)
    assert prod.stride == 1
    assert len(prod.coeffs) == q + 1
    assert prod.coeffs[q] == pytest.approx(math.sqrt(q))
    assert np.count_nonzero(prod.coeffs) == 1


def test_mask_mul_pointwise(p3, rng):
    a = random_mask(p3, rng, 3, stride=3)
    b = random_mask(p3, rng, 5)
    prod = mask_mul(a, b)
    sq = math.sqrt(p3.q)
    for _ in range(100):
        xi = grid_point(p3, 3, int(rng.integers(27)))
        want = sq * eval_mask(a, xi) * eval_mask(b, xi)
        assert eval_mask(prod, xi) == pytest.approx(want, abs=1e-12)


def test_mask_mul_param_mismatch(p2, p3):
    with pytest.raises(ParameterError):
        mask_mul(delta_mask(p2, 1.0), delta_mask(p3, 1.0))


def test_mask_add_lattice(p2):
    a = delta_mask(p2, 2.0, slot=1, stride=2)  # index 2
    b = delta_mask(p2, 3.0, slot=1, stride=1)  # index 1
    s = mask_add(a, b)
    assert s.stride == 1
    assert np.allclose(s.coeffs, [0, 3.0, 2.0])


def test_modulation_matrix_haar(p2, haar2):
    sample = modulation_matrix(haar2, fe_zero(p2))
    assert sample.kind == "modulation"
    assert np.allclose(sample.entries, np.eye(2), atol=1e-15)


def test_modulation_matrix_zero_bank(p2):
    bank = FilterBank(p2, zero_mask(p2), (zero_mask(p2),))
    sample = modulation_matrix(bank, grid_point(p2, 1, 1))
    assert np.all(sample.entries == 0)


def test_modulation_column_shift(p3, rng):
    bank = random_bank(p3, seed=5, unitary=True, max_delay=1)
    t = fe_prime_power(p3, 1)
    xi = grid_point(p3, 2, int(rng.integers(9)))
    base = modulation_matrix(bank, xi).entries
    for j in range(p3.q):
        shifted = modulation_matrix(bank, lf_add(xi, lf_mul(t, u_map(p3, j)))).entries
        perm = [index_add(p3, j, k) for k in range(p3.q)]
        assert np.allclose(shifted, base[:, perm], atol=1e-13)


def test_polyphase_split_haar(p2, haar2):
    comps = polyphase_split(haar2.m0)
    assert len(comps) == 2
    for comp in comps:
        assert comp.stride == 2
        assert np.allclose(comp.coeffs, [1 / SQRT2])


def test_polyphase_split_delta(p3):
    comps = polyphase_split(delta_mask(p3, 0.7))
    assert np.allclose(comps[0].coeffs, [0.7])
    assert all(c.is_zero() for c in comps[1:])


def test_polyphase_reconstruction(p3, rng):
    m = random_mask(p3, rng, 8)
    comps = polyphase_split(m)
    for _ in range(50):
        xi = grid_point(p3, 2, int(rng.integers(9)))
        total = sum(
            np.conj(chi_n(r, xi)) * eval_symbol(comps[r], xi) for r in range(p3.q)
        ) / math.sqrt(p3.q)
        assert total == pytest.approx(eval_mask(m, xi), abs=1e-12)


def test_polyphase_matrix_haar(p2, haar2):
    for g in range(4):
        sample = polyphase_matrix(haar2, grid_point(p2, 2, g))
        assert sample.kind == "polyphase"
        want = np.array([[1, 1], [1, -1]]) / SQRT2
        assert np.allclose(sample.entries, want, atol=1e-15)
        gram = sample.entries @ sample.entries.conj().T
        assert np.allclose(gram, np.eye(2), atol=1e-15)


def test_polyphase_matrix_delta_bank(p3):
    bank = FilterBank(p3, delta_mask(p3, 0.5), (zero_mask(p3),))
    entries = polyphase_matrix(bank, fe_zero(p3)).entries
    assert np.allclose(entries[:, 0], [0.5, 0, 0])
    assert np.all(entries[:, 1] == 0)


def test_modulation_polyphase_conjugation(p3, rng):
    # H(xi)^T = V D(xi) Gamma(xi) with V the character table
    bank = random_bank(p3, seed=11, unitary=True, max_delay=1)
    v = character_table(p3)
    for g in [0, 4, 8]:
        xi = grid_point(p3, 2, g)
        h = modulation_matrix(bank, xi).entries
        gamma = polyphase_matrix(bank, xi).entries
        d = np.diag([np.conj(chi_n(r, xi)) for r in range(p3.q)])
        assert np.allclose(h.T, v @ d @ gamma, atol=1e-12)


def test_check_uep_haar(haar2):
    report = check_uep(haar2, 2)
    assert report.passed and report.max_deviation < 1e-14


def test_check_uep_m0_only(p2, haar2):
    bank = FilterBank(p2, haar2.m0, ())
    report = check_uep(bank, 2)
    assert not report.passed


def test_check_uep_scaled(p2, haar2):
    doubled = FilterBank(
        p2, mask_scale(haar2.m0, 2.0), tuple(mask_scale(m, 2.0) for m in haar2.wavelets)
    )
    report = check_uep(doubled, 2)
    assert not report.passed
    assert report.max_deviation == pytest.approx(3.0, abs=1e-12)


def test_check_uep_depth_error(p2, haar2):
    long_mask = delta_mask(p2, 1.0, slot=8)
    bank = FilterBank(p2, long_mask, haar2.wavelets)
    with pytest.raises(DepthError):
        check_uep(bank, 2)


def test_parseval_per_point(p3):
    # diagonal of H*H: the squared mask values at every shift sum to 1
    bank = random_bank(p3, seed=3, unitary=True, max_delay=1)
    values = mask_values_on_grid(bank.masks, 2)
    sums = (np.abs(values[:, shift_map(p3, 2)]) ** 2).sum(axis=0)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_check_subqmf(p2, haar2):
    report = check_subqmf(haar2.m0, 2)
    assert report.passed and report.max_deviation == 0.0
    doubled = check_subqmf(mask_scale(haar2.m0, 2.0), 2)
    assert not doubled.passed
    assert doubled.max_deviation == pytest.approx(3.0, abs=1e-12)
    assert doubled.worst_point == fe_zero(p2)
    assert check_subqmf(zero_mask(p2), 2).passed


def test_check_polyphase_unitary(p2, haar2):
    assert check_polyphase_unitary(haar2, 2).passed
    dropped = FilterBank(p2, haar2.m0, ())
    assert not check_polyphase_unitary(dropped, 2).passed


@pytest.mark.parametrize("q_seed", [(2, 0), (3, 1)])
def test_uep_polyphase_verdicts_agree(q_seed):
    q, seed0 = q_seed
    params = FieldParams(q, 1)
    for i in range(20):
        bank = random_bank(
            params, seed=seed0 * 100 + i, unitary=(i % 2 == 0), max_delay=i % 3
        )
        depth = 3
        a = check_uep(bank, depth, 1e-8)
        b = check_polyphase_unitary(bank, depth, 1e-8)
        assert a.passed == b.passed


def test_check_mixed_orthogonality(p2, haar2):
    zero_bank = FilterBank(p2, haar2.m0, (zero_mask(p2),))
    assert check_mixed_orthogonality(haar2, zero_bank, 2).passed
    self_report = check_mixed_orthogonality(haar2, haar2, 2)
    assert not self_report.passed
    assert self_report.max_deviation == pytest.approx(1.0, abs=1e-12)


def test_check_mixed_shape_mismatch(p2, p3, haar2, haar3):
    with pytest.raises(ParameterError):
        check_mixed_orthogonality(haar2, haar3, 2)
    padded = FilterBank(p2, haar2.m0, haar2.wavelets + (zero_mask(p2),))
    with pytest.raises(ParameterError):
        check_mixed_orthogonality(haar2, padded, 2)


def test_worst_point_is_first_lexicographic(p2):
    # a constant deviation ties everywhere; the origin must be reported
    bank = FilterBank(p2, zero_mask(p2), (zero_mask(p2),))
    report = check_uep(bank, 2)
    assert report.worst_point == fe_zero(p2)
    assert report.max_deviation == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mask_load_rejects_non_finite(p2, bad):
    for coeff in ([1.0, bad], [bad, 0.0]):
        mask = {"role": "m0", "stride": 1, "coeffs": [[1.0, 0.0], coeff]}
        with pytest.raises(ParameterError, match="finite"):
            FilterBank.from_json({"field": p2.to_json(), "masks": [mask]})


def test_report_says_what_was_swept(p3, haar2):
    # Haar masks are constant on cosets of B^1: deeper grids add nothing
    report = check_uep(haar2, 6)
    assert report.grid_depth == 6
    assert report.details == {"swept_depth": 1, "cosets_swept": 1}
    bank = random_bank(p3, seed=9, unitary=True, max_delay=3)  # indices up to 11 < 3**3
    for depth in (3, 4):
        for report in (check_uep(bank, depth), check_polyphase_unitary(bank, depth)):
            assert report.details == {"swept_depth": 3, "cosets_swept": 9}


def test_depth_zero_rejected(p2, haar2):
    with pytest.raises(DepthError):
        check_subqmf(delta_mask(p2, 1.0), 0)


def test_stride_validation(p2):
    with pytest.raises(ParameterError):
        Mask(p2, np.ones(2), stride=3)
    Mask(p2, np.ones(2), stride=4)  # a power of q is fine


def test_mask_trims_trailing_zeros(p2):
    m = Mask(p2, np.array([1.0, 0.0, 0.0]))
    assert len(m.coeffs) == 1
    assert m.max_index == 0


def test_bank_json_roundtrip(p3, haar3):
    obj = haar3.to_json()
    again = FilterBank.from_json(obj)
    assert again.params == p3
    for a, b in zip(again.masks, haar3.masks):
        assert np.allclose(a.coeffs, b.coeffs, atol=0)
        assert a.stride == b.stride


def test_mask_json_matches_per_coefficient_form(p3, rng):
    coeffs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    coeffs[:6] = [-0.0, complex(0.0, -0.0), 5e-324, complex(-2.2e-308, 1e-310),
                  complex(1e308, -1e308), complex(-0.0, 0.1)]
    mask = Mask(p3, coeffs, stride=3)
    obj = mask.to_json(role="wavelet")
    per_coefficient = [[float(z.real), float(z.imag)] for z in mask.coeffs]
    assert obj["coeffs"] == per_coefficient
    want = {"role": "wavelet", "stride": 3, "coeffs": per_coefficient}
    assert json.dumps(obj, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert zero_mask(p3).to_json()["coeffs"] == []


def test_bank_load_rejects_unnormalized(p2, haar2):
    obj = haar2.to_json()
    obj["masks"][0]["coeffs"][0] = [2.0, 0.0]
    with pytest.raises(ParameterError):
        FilterBank.from_json(obj)
    FilterBank.from_json(obj, require_normalized=False)


def test_report_json(p2, haar2):
    report = check_uep(haar2, 2)
    obj = report.to_json()
    assert obj["pass"] is True
    assert obj["condition"] == "uep"
    assert obj["worst_point"]["v"] == 0 or obj["worst_point"]["digits"] is not None
    assert isinstance(obj["max_deviation"], float)
    # the verdict is the report's own rule, max_deviation <= tolerance, and
    # no argument can set it: a NaN deviation fails
    for deviation, passed in ((0.5, True), (1.0, True), (1.5, False), (math.nan, False)):
        report = CheckReport("c", 1, deviation, 1.0, None)
        assert report.passed is passed and report.to_json()["pass"] is passed
        assert str(report).startswith("[PASS]" if passed else "[FAIL]")
    with pytest.raises(TypeError):
        CheckReport("c", 1, 0.0, 1.0, None, passed=False)
