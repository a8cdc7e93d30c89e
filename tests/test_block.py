"""Filter banks as one coefficient block: a stride-s mask fills every s-th
column of its row, and the block gives back the masks it was built from."""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from framefield import reference
from framefield.galois import FieldParams
from framefield.localfield import grid_point
from framefield.mask import FilterBank, Mask, _grid_transform, block_masks
from framefield.reference import eval_mask

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
SPECIAL = [-0.0, 5e-324, -5e-324, 2.2e-310, 1e308, -1e308]


@st.composite
def banks(draw, values):
    """A bank of one to four masks of strides 1, q and q**2, some of them
    zero, with coefficients drawn from ``values``."""
    params = FieldParams(*draw(st.sampled_from(FIELDS)))
    number = st.builds(complex, values, values)
    masks = [Mask(params, np.array(draw(st.lists(number, max_size=6)), dtype=np.complex128),
                  params.q ** draw(st.integers(0, 2)))
             for _ in range(draw(st.integers(1, 4)))]
    return FilterBank(params, masks[0], masks[1:])


finite = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
moderate = st.floats(-2.0, 2.0)


def assert_same_masks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.stride == w.stride
        assert np.array_equal(g.coeffs.view(np.int64), w.coeffs.view(np.int64))


@given(banks(finite))
def test_block_gives_back_the_masks(bank):
    assert bank.coeffs.flags.c_contiguous and not bank.coeffs.flags.writeable
    assert bank.strides == tuple(m.stride for m in bank.masks)
    assert bank.max_index == max(m.max_index for m in bank.masks)
    # a bank made from the block alone splits it into the same masks
    split = FilterBank._of_block(bank.params, bank.coeffs, bank.strides)
    assert_same_masks(split.masks, bank.masks)
    assert_same_masks((split.m0,), (bank.m0,))
    assert_same_masks(split.wavelets, bank.wavelets)
    assert_same_masks(block_masks(bank.params, bank.coeffs, bank.strides), bank.masks)
    # stride-1 rows of the frozen block are read as views, not copied
    for m in split.masks:
        assert not m.coeffs.flags.writeable
        assert np.shares_memory(m.coeffs, bank.coeffs) or m.stride != 1 or len(m) == 0


@given(banks(finite))
def test_json_round_trip_keeps_the_block(bank):
    back = FilterBank.from_json(json.loads(json.dumps(bank.to_json())), require_normalized=False)
    assert back.coeffs.shape == bank.coeffs.shape
    assert back.strides == bank.strides
    assert np.array_equal(back.coeffs.view(np.int64), bank.coeffs.view(np.int64))


@given(banks(moderate))
def test_block_values_match_eval_mask(bank):
    params = bank.params
    q = params.q
    depth = 0
    while q ** depth <= 27:
        values = _grid_transform(params, bank.coeffs, depth)
        points = [grid_point(params, depth, g) for g in range(q ** depth)]
        ref = np.array([[eval_mask(m, x) for x in points] for m in bank.masks])
        assert np.abs(values - ref).max() <= 1e-13
        depth += 1


def test_bank_load_does_not_evaluate_through_the_reference_route(monkeypatch, haar3):
    # m0(0) is row 0's coefficient sum over sqrt(q), not an eval_mask call
    def refuse(*args):
        raise AssertionError("eval_mask called")

    monkeypatch.setattr(reference, "eval_mask", refuse)
    bank = FilterBank.from_json(haar3.to_json())
    assert bank.n_wavelets == 2
