"""Canonical banks, paraunitary builders, and the two frame constructions."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefield.cli import _load_json
from framefield.construct import (
    FramePair,
    Paraunitary,
    _seeded_rows,
    certify_family,
    compose,
    constant_paraunitary,
    delay_block,
    derive_pair,
    haar_bank,
    orthogonal_family,
    paraunitary_adjoint,
    require_tight,
    seeded_paraunitary,
)
from framefield.errors import ConstructionError, ParameterError
from framefield.galois import FieldParams
from framefield.localfield import grid_point
from framefield.mask import (
    DEFAULT_MATRIX_TOL,
    TRIM_CUTOFF,
    FilterBank,
    Mask,
    _character_factor,
    _grid_transform,
    check_mixed_orthogonality,
    coefficient_block,
    check_uep,
    coeff_pairs,
    covering_depth,
    mask_values_on_grid,
    sweep_report,
    zero_mask,
)
from framefield.reference import eval_mask, eval_symbol, fe_zero

from helpers import delta_mask, mask_adjoint, mask_scale, random_bank, reference_character_transform

SQRT2 = math.sqrt(2.0)


def constant_matrix(params, unitary):
    size = len(unitary)
    entries = tuple(
        tuple(delta_mask(params, unitary[i][j], slot=0, stride=params.q) for j in range(size))
        for i in range(size)
    )
    return Paraunitary(params, size, entries)


def dft2(params):
    return constant_matrix(params, [[1 / SQRT2, 1 / SQRT2], [1 / SQRT2, -1 / SQRT2]])


def identity_matrix(params, size):
    eye = np.eye(size)
    return constant_matrix(params, eye)


# ---------------------------------------------------------------------------
# haar banks


def test_haar_q2(haar2):
    assert np.allclose(haar2.m0.coeffs, [1 / SQRT2, 1 / SQRT2])
    assert np.allclose(haar2.wavelets[0].coeffs, [1 / SQRT2, -1 / SQRT2])


def test_haar_q3_dft(p3, haar3):
    omega = np.exp(2j * np.pi / 3)
    for j, m in enumerate(haar3.masks):
        want = np.array([omega ** (-j * k) for k in range(3)]) / math.sqrt(3)
        assert np.allclose(m.coeffs, want, atol=1e-15)
    assert check_uep(haar3, 2).max_deviation < 1e-14


@pytest.mark.parametrize("pc", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_haar_m0_at_zero(pc):
    params = FieldParams(*pc)
    bank = haar_bank(params)
    assert eval_mask(bank.m0, fe_zero(params)) == pytest.approx(1.0, abs=1e-14)
    assert bank.n_wavelets == params.q - 1


# ---------------------------------------------------------------------------
# paraunitary builders


def test_constant_paraunitary_scalar(p2):
    a = constant_paraunitary(p2, 1, seed=4)
    val = eval_symbol(a.entries[0][0], fe_zero(p2))
    assert abs(abs(val) - 1.0) < 1e-12


def test_constant_paraunitary_deterministic(p3):
    a = constant_paraunitary(p3, 3, seed=9)
    b = constant_paraunitary(p3, 3, seed=9)
    for ra, rb in zip(a.entries, b.entries):
        for ma, mb in zip(ra, rb):
            assert np.array_equal(ma.coeffs, mb.coeffs)
    c = constant_paraunitary(p3, 3, seed=10)
    assert any(
        not np.array_equal(ma.coeffs, mc.coeffs)
        for ra, rc in zip(a.entries, c.entries)
        for ma, mc in zip(ra, rc)
    )


def test_delay_block_unitary(p2):
    a = delay_block(p2, 2, 0, 1)
    assert a.unitarity_report().max_deviation < 1e-14
    # the delayed entry is a unit-modulus symbol on the grid
    for g in range(4):
        val = eval_symbol(a.entries[0][0], grid_point(p2, 2, g))
        assert abs(abs(val) - 1.0) < 1e-14


def test_compose_with_adjoint_is_identity(p2):
    a = seeded_paraunitary(p2, 2, seed=21)
    prod = compose(a, paraunitary_adjoint(a))
    for i in range(2):
        for j in range(2):
            for g in range(8):
                val = eval_symbol(prod.entries[i][j], grid_point(p2, 3, g))
                want = 1.0 if i == j else 0.0
                assert val == pytest.approx(want, abs=1e-12)


def test_mask_adjoint_conjugates_symbol(p3, rng):
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    m = Mask(p3, coeffs, stride=3)
    adj = mask_adjoint(m)
    for g in range(27):
        xi = grid_point(p3, 3, g)
        assert eval_symbol(adj, xi) == pytest.approx(np.conj(eval_symbol(m, xi)), abs=1e-13)


def test_paraunitary_entries_shift_invariant(p2):
    # stride-q symbols cannot see shifts by t*u(k)
    from framefield.reference import fe_prime_power, lf_add, lf_mul, u_map

    a = seeded_paraunitary(p2, 2, seed=19)
    t = fe_prime_power(p2, 1)
    for g in range(8):
        xi = grid_point(p2, 3, g)
        for k in range(p2.q):
            shifted = lf_add(xi, lf_mul(t, u_map(p2, k)))
            for row in a.entries:
                for m in row:
                    assert eval_symbol(m, shifted) == eval_symbol(m, xi)


def test_paraunitary_rejects_nonunitary(p2):
    entries = ((delta_mask(p2, 2.0, stride=2), zero_mask(p2, 2)),
               (zero_mask(p2, 2), delta_mask(p2, 1.0, stride=2)))
    with pytest.raises(ConstructionError):
        Paraunitary(p2, 2, entries)


@pytest.mark.parametrize("route", ["_of_block", "_of_entries", "from_json", "from_symbols"])
def test_every_route_to_a_paraunitary_certifies(p2, route):
    # diag(2, 1), refused as Paraunitary(params, size, entries) refuses it
    # above, by each route that makes a matrix from a block, a file or symbols
    entries = [[{"stride": 2, "coeffs": [[2.0, 0.0]]}, {"stride": 2, "coeffs": []}],
               [{"stride": 2, "coeffs": []}, {"stride": 2, "coeffs": [[1.0, 0.0]]}]]
    make = {
        "_of_block": lambda: Paraunitary._of_block(p2, np.array([[2.0], [0], [0], [1]], complex)),
        "_of_entries": lambda: Paraunitary._of_entries(p2, [*entries[0], *entries[1]]),
        "from_json": lambda: Paraunitary.from_json(
            {"field": p2.to_json(), "size": 2, "entries": entries}),
        "from_symbols": lambda: Paraunitary.from_symbols(p2, np.diag([2.0, 1.0])[None]),
    }[route]
    with pytest.raises(ConstructionError, match="^matrix is not paraunitary") as info:
        make()
    assert info.value.report.condition == "paraunitary" and not info.value.report.passed


def test_paraunitary_json_roundtrip(p2):
    a = seeded_paraunitary(p2, 2, seed=13)
    again = Paraunitary.from_json(a.to_json())
    for ra, rb in zip(a.entries, again.entries):
        for ma, mb in zip(ra, rb):
            assert np.array_equal(ma.coeffs, mb.coeffs)
            assert ma.stride == mb.stride


# ---------------------------------------------------------------------------
# derive_pair


def test_derive_pair_identity_pads_with_zeros(p2, haar2):
    pair = derive_pair(haar2, haar2, identity_matrix(p2, 2))
    g1, g2 = pair.primal.wavelets
    d1, d2 = pair.dual.wavelets
    assert np.array_equal(g1.coeffs, haar2.wavelets[0].coeffs)
    assert g2.is_zero()
    assert d1.is_zero()
    assert np.array_equal(d2.coeffs, haar2.wavelets[0].coeffs)
    assert check_mixed_orthogonality(pair.primal, pair.dual, 2).max_deviation == 0.0


def test_derive_pair_dft_cancellation(p2, haar2):
    pair = derive_pair(haar2, haar2, dft2(p2))
    m1 = haar2.wavelets[0].coeffs
    assert np.allclose(pair.primal.wavelets[0].coeffs, m1 / SQRT2)
    assert np.allclose(pair.primal.wavelets[1].coeffs, m1 / SQRT2)
    assert np.allclose(pair.dual.wavelets[0].coeffs, m1 / SQRT2)
    assert np.allclose(pair.dual.wavelets[1].coeffs, -m1 / SQRT2)
    report = check_mixed_orthogonality(pair.primal, pair.dual, 2)
    assert report.max_deviation < 1e-15


def test_derive_pair_with_delays_certifies(p2, haar2):
    matrix = compose(delay_block(p2, 2, 0, 1), dft2(p2))
    pair = derive_pair(haar2, haar2, matrix)
    for report in certify_family([pair.primal, pair.dual]):
        assert report.passed, report
        assert report.max_deviation < 1e-12


def test_derive_pair_keeps_scaling_mask(p2, haar2):
    pair = derive_pair(haar2, haar2, seeded_paraunitary(p2, 2, 3))
    assert pair.primal.m0 is haar2.m0
    assert pair.dual.m0 is haar2.m0


def test_derive_pair_rejects_bad_input(p2, haar2):
    bad_m0 = mask_scale(haar2.m0, 2.0)
    with pytest.raises(ConstructionError) as err:
        derive_pair(FilterBank(p2, bad_m0, haar2.wavelets), haar2, identity_matrix(p2, 2))
    assert err.value.report is not None
    assert not err.value.report.passed


def test_derive_pair_shape_checks(p2, haar2):
    with pytest.raises(ParameterError):
        derive_pair(haar2, haar2, identity_matrix(p2, 4))


def test_derive_pair_rejects_mixed_fields_and_counts(p2, p3, haar2, haar3):
    # checked before any transform: a bank of another field is never mixed
    # under the matrix's field
    with pytest.raises(ParameterError, match="share field parameters"):
        derive_pair(haar2, haar3, identity_matrix(p2, 2))
    with pytest.raises(ParameterError, match="share field parameters"):
        derive_pair(haar3, haar3, identity_matrix(p2, 4))
    two_wavelets = orthogonal_family(haar2, dft2(p2))[0]
    with pytest.raises(ParameterError, match="equal wavelet counts"):
        derive_pair(haar2, two_wavelets, identity_matrix(p2, 2))


def test_mixed_check_symmetry(p2, haar2):
    pair = derive_pair(haar2, haar2, seeded_paraunitary(p2, 2, 17))
    ab = check_mixed_orthogonality(pair.primal, pair.dual, 3)
    ba = check_mixed_orthogonality(pair.dual, pair.primal, 3)
    assert ab.passed == ba.passed
    assert ab.max_deviation == pytest.approx(ba.max_deviation, abs=1e-15)


# ---------------------------------------------------------------------------
# orthogonal_family


def test_family_identity(p2, haar2):
    families = orthogonal_family(haar2, identity_matrix(p2, 2))
    assert len(families) == 2
    f1, f2 = families
    assert np.array_equal(f1.wavelets[0].coeffs, haar2.wavelets[0].coeffs)
    assert f1.wavelets[1].is_zero()
    assert f2.wavelets[0].is_zero()
    assert np.array_equal(f2.wavelets[1].coeffs, haar2.wavelets[0].coeffs)
    assert check_mixed_orthogonality(f1, f2, 2).max_deviation == 0.0


def test_family_dft(p2, haar2):
    f1, f2 = orthogonal_family(haar2, dft2(p2))
    m1 = haar2.wavelets[0].coeffs
    assert np.allclose(f1.wavelets[0].coeffs, m1 / SQRT2)
    assert np.allclose(f1.wavelets[1].coeffs, m1 / SQRT2)
    assert np.allclose(f2.wavelets[0].coeffs, m1 / SQRT2)
    assert np.allclose(f2.wavelets[1].coeffs, -m1 / SQRT2)
    assert check_mixed_orthogonality(f1, f2, 2).max_deviation < 1e-15


def test_family_with_delays_certifies(p2, haar2):
    matrix = compose(dft2(p2), delay_block(p2, 2, 1, 1))
    families = orthogonal_family(haar2, matrix)
    reports = certify_family(families)
    assert len(reports) == 3  # 2 UEP + 1 mixed
    for report in reports:
        assert report.passed, report
        assert report.max_deviation < 1e-10


def test_family_scaling_mask_unchanged(p2, haar2):
    for family in orthogonal_family(haar2, seeded_paraunitary(p2, 3, 5)):
        assert family.m0 is haar2.m0
        assert family.n_wavelets == 3


def test_family_column_length_preservation(p3, haar3):
    matrix = seeded_paraunitary(p3, 2, seed=8)
    families = orthogonal_family(haar3, matrix)
    depth = max(family.depth() for family in families)
    base = mask_values_on_grid(list(haar3.wavelets), depth)
    base_energy = (np.abs(base) ** 2).sum(axis=0)
    for family in families:
        vals = mask_values_on_grid(list(family.wavelets), depth)
        energy = (np.abs(vals) ** 2).sum(axis=0)
        assert np.allclose(energy, base_energy, atol=1e-12)


def test_family_rejects_bad_bank(p2, haar2):
    bad = FilterBank(p2, haar2.m0, (mask_scale(haar2.wavelets[0], 0.5),))
    with pytest.raises(ConstructionError):
        orthogonal_family(bad, identity_matrix(p2, 2))


# ---------------------------------------------------------------------------
# random banks and the frame pair wrapper


def test_random_bank_deterministic(p3):
    a = random_bank(p3, seed=6, unitary=True, max_delay=2)
    b = random_bank(p3, seed=6, unitary=True, max_delay=2)
    for ma, mb in zip(a.masks, b.masks):
        assert np.array_equal(ma.coeffs, mb.coeffs)


def test_random_bank_unitary_passes_perturbed_fails(p2):
    good = random_bank(p2, seed=1, unitary=True, max_delay=1)
    bad = random_bank(p2, seed=1, unitary=False, max_delay=1)
    assert check_uep(good, 3).passed
    report = check_uep(bad, 3)
    assert not report.passed
    assert report.max_deviation > 1e-4


def test_frame_pair_validation(p2, p3, haar2, haar3):
    with pytest.raises(ParameterError):
        FramePair(haar2, haar3)
    pair = FramePair(haar2, haar2)
    obj = pair.to_json(provenance={"algorithm": "test"})
    again = FramePair.from_json(obj)
    assert again.primal.n_wavelets == 1


def test_require_tight(p2, haar2):
    require_tight(haar2, "input")
    loose = FilterBank(p2, haar2.m0, (zero_mask(p2),))
    with pytest.raises(ConstructionError, match="^input bank fails the tight-frame check$") as info:
        require_tight(loose, "input")
    assert info.value.report.condition == "uep"
    assert not info.value.report.passed


# ---------------------------------------------------------------------------
# the coefficient block against the per-mask route


def reference_from_symbols(params, symbols):
    """One mask per entry: the entry rows of the stack, as they lie in it,
    through the allocating inverse transform, trimmed, then cut into masks."""
    q = params.q
    size = symbols.shape[1]
    rows = symbols.transpose(1, 2, 0).reshape(size * size, -1)
    coeffs = reference_character_transform(rows, np.conj(_character_factor(params)).T / q)
    coeffs = np.where(np.abs(coeffs) < TRIM_CUTOFF, 0.0, coeffs)
    flat = [Mask(params, row, q) for row in coeffs]
    return [flat[i * size : (i + 1) * size] for i in range(size)]


def reference_unitarity(params, entries):
    """The report of one unblocked Gram per coset representative, on the
    entries' symbols grouped by stride."""
    flat = [m for row in entries for m in row]
    depth = covering_depth(max(m.max_index for m in flat), params.q)
    size = len(entries)
    # stride-q symbols at the coset representatives t*x, x on the depth-(s-1) grid
    block = coefficient_block(params, flat, params.q)[0]
    values = _grid_transform(params, block, depth - 1) * math.sqrt(params.q)
    values = values.reshape(size, size, -1)
    cols = values.transpose(0, 2, 1)  # (row of the matrix, representative, column)
    gram = np.einsum("lrk,lrj->rkj", np.conj(cols), cols) - np.eye(size)
    dev = np.abs(gram).max(axis=(1, 2))
    return sweep_report("paraunitary", depth, depth, np.repeat(dev, params.q),
                        DEFAULT_MATRIX_TOL, params)


def assert_same_entries(got, want):
    for got_row, want_row in zip(got.entries, want, strict=True):
        for g, w in zip(got_row, want_row, strict=True):
            assert g.stride == w.stride
            assert np.array_equal(g.coeffs.view(np.int64), w.coeffs.view(np.int64))


def assert_same_report(got, want):
    assert got.to_json() == want.to_json()
    assert np.float64(got.max_deviation).view(np.int64) == np.float64(want.max_deviation).view(np.int64)


def test_seeded_paraunitary_memory_is_three_stacks():
    # the benchmark's largest matrix: 2L = 48 over GF(25), whose symbol
    # stack at the 25 coset representatives is 0.92 MB; the per-mask
    # route peaked at 5.5 MB
    params = FieldParams(5, 2)
    seeded_paraunitary(params, 2, 0)  # field tables outside the trace
    stack = params.q * 48 * 48 * 16
    for seed in (1, 3):
        tracemalloc.start()
        try:
            matrix = seeded_paraunitary(params, 48, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.size == 48
        assert peak <= 3 * stack


def test_derive_pair_transforms_each_half_of_the_matrix_alone():
    # the GF(25) 48 x 48 seeded matrix again: each half of the pair reads
    # its own 24 columns, half the 0.92 MB stack; mixing both halves out of
    # one whole stack each peaked at 2.09 MB (seeds 1 and 3)
    params = FieldParams(5, 2)
    bank = haar_bank(params)
    for seed in (1, 3):
        matrix = seeded_paraunitary(params, 48, seed)
        tracemalloc.start()
        try:
            pair = derive_pair(bank, bank, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.primal.n_wavelets == 48
        assert peak <= 1.85 * 2 ** 20, peak


@given(field=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]),
       seed=st.integers(0, 2 ** 16), size=st.integers(1, 4), composed=st.booleans())
def test_block_round_trip_matches_per_mask_route(field, seed, size, composed):
    params = FieldParams(*field)
    symbols = _seeded_rows(params, size, seed).reshape(size, size, -1).transpose(2, 0, 1)
    if composed:
        # a deeper product: a delayed matrix after the seeded one
        other = compose(delay_block(params, size, seed % size, 1 + seed % 3),
                        seeded_paraunitary(params, size, seed + 1))
        depth = covering_depth(max(other.max_index, 2 * params.q - 1), params.q)
        first = seeded_paraunitary(params, size, seed)
        symbols = first.symbols(depth) @ other.symbols(depth)
    want = reference_from_symbols(params, symbols.copy())
    matrix = Paraunitary.from_symbols(params, symbols)
    assert_same_entries(matrix, want)
    assert_same_report(matrix.unitarity_report(), reference_unitarity(params, want))
    again = Paraunitary.from_json(json.loads(json.dumps(matrix.to_json())))
    assert_same_entries(again, want)
    assert again.coeffs.shape == matrix.coeffs.shape
    assert np.array_equal(again.coeffs.view(np.int64), matrix.coeffs.view(np.int64))
    assert_same_report(again.unitarity_report(), reference_unitarity(params, want))
    # the block adjoint moves each entry as the per-mask adjoint does
    adjoint = [[mask_adjoint(want[j][i]) for j in range(size)] for i in range(size)]
    assert_same_entries(paraunitary_adjoint(matrix), adjoint)


def test_paraunitary_file_keeps_entry_strides(tmp_path, p3):
    # zero entries written with stride 1 and a unit entry with stride q**2,
    # as a user's file may hold them
    obj = compose(delay_block(p3, 3, 1, 2), delay_block(p3, 3, 2, 1)).to_json()
    obj["entries"][0][0]["stride"] = 9
    for row in obj["entries"]:
        for entry in row:
            if not entry["coeffs"]:
                entry["stride"] = 1
    path = tmp_path / "pu.json"
    path.write_text(json.dumps(obj))
    loaded = Paraunitary.from_json(_load_json(path, {}))
    want = [[Mask(p3, coeff_pairs(m["coeffs"]).view(complex)[:, 0], m["stride"]) for m in row]
            for row in json.loads(path.read_text())["entries"]]
    assert {m.stride for row in want for m in row} == {1, 3, 9}
    assert_same_entries(loaded, want)
    assert_same_report(loaded.unitarity_report(), reference_unitarity(p3, want))
    assert Paraunitary.from_json(loaded.to_json()).to_json() == obj


def test_matrix_file_is_read_and_written_without_masks(monkeypatch, p3):
    # the entries go from the file's rows into the block and back, with no
    # mask made on either way
    matrix = compose(delay_block(p3, 3, 1, 2), constant_paraunitary(p3, 3, 5))
    made = []
    post_init = Mask.__post_init__
    monkeypatch.setattr(Mask, "__post_init__", lambda self: made.append(self) or post_init(self))
    obj = json.loads(json.dumps(matrix.to_json()))
    loaded = Paraunitary.from_json(obj)
    assert loaded.to_json() == obj
    assert made == []


def per_mask_json(matrix):
    """The matrix's JSON object as its entry masks write themselves."""
    entries = [[m.to_json() for m in row] for row in matrix.entries]
    return {"field": matrix.params.to_json(), "size": matrix.size, "entries": entries}


@st.composite
def matrices(draw):
    """A constant or delay matrix, maybe composed with another and maybe
    adjoined, over GF(2**c) for c <= 4, GF(3), GF(9) or GF(5)."""
    params = FieldParams(*draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                                 (5, 1)])))
    size = draw(st.integers(1, 3))

    def factor():
        if draw(st.booleans()):
            return constant_paraunitary(params, size, draw(st.integers(0, 2 ** 16)))
        return delay_block(params, size, draw(st.integers(0, size - 1)), draw(st.integers(0, 3)))

    matrix = factor()
    if draw(st.booleans()):
        matrix = compose(matrix, factor())
    return paraunitary_adjoint(matrix) if draw(st.booleans()) else matrix


@given(matrices(), st.data())
def test_matrix_file_round_trip_is_exact(matrix, data):
    obj = matrix.to_json()
    assert json.dumps(obj) == json.dumps(per_mask_json(matrix))
    # a file may give a zero entry any stride, and an entry of one
    # coefficient any stride on the lattice q*N0
    q = matrix.params.q
    for row in obj["entries"]:
        for entry in row:
            if len(entry["coeffs"]) <= 1:
                entry["stride"] = q ** data.draw(st.integers(1 if entry["coeffs"] else 0, 3))
    text = json.dumps(obj)
    loaded = Paraunitary.from_json(json.loads(text))
    assert loaded.strides == tuple(entry["stride"] for row in obj["entries"] for entry in row)
    assert loaded.coeffs.shape == matrix.coeffs.shape
    assert np.array_equal(loaded.coeffs.view(np.int64), matrix.coeffs.view(np.int64))
    assert json.dumps(loaded.to_json()) == text
    assert json.dumps(per_mask_json(loaded)) == text
