"""Bank files read and written one mask at a time.

``_write_json`` must give the bytes of ``json.dumps(payload, sort_keys=True)``
while it converts one mask at a time, and ``_load_json`` turns each mask's
``coeffs`` into an array as soon as the mask is parsed; malformed
coefficients are still input errors.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefield import cli
from framefield.cli import _deferred, _load_json, _mask_json, _write_json, main
from framefield.construct import FramePair, orthogonal_family, seeded_paraunitary
from framefield.errors import ParameterError
from framefield.galois import FieldParams
from framefield.mask import (
    CoefficientBlock,
    FilterBank,
    Mask,
    coeff_pairs,
    coefficient_block,
    zero_mask,
)

from helpers import random_bank, reference_block

CREATED = "2000-01-01T00:00:00+00:00"
SPECIAL = [-0.0, 0.0, 5e-324, -2.2e-308, 1e-310, 1e308, -1e308, 0.1, -1.0]


@pytest.fixture(autouse=True)
def fixed_clock(monkeypatch):
    monkeypatch.setattr(cli, "_now", lambda: CREATED)


def dumped(payload):
    """What the writer must produce: one json.dumps line of the payload."""
    return json.dumps({**payload, "metadata": {"created": CREATED}}, sort_keys=True) + "\n"


def special_bank(params):
    """Signed zeros, subnormals and +-1e308 in the coefficients, a zero
    wavelet and a strided one."""
    q = params.q
    values = np.array(SPECIAL)
    coeffs = values[:, None] + 1j * values[None, ::-1]
    m0 = Mask(params, np.full(q, q ** -0.5))
    wavelets = (
        Mask(params, coeffs.ravel()),
        zero_mask(params),
        Mask(params, coeffs[:, 0], stride=q),
        zero_mask(params, q),
    )
    return FilterBank(params, m0, wavelets)


def test_writer_bytes_match_json_dumps_for_banks(tmp_path, p3):
    for bank in (special_bank(p3), random_bank(FieldParams(2, 2), 4, max_delay=5)):
        path = tmp_path / "bank.json"
        _write_json(path, {**bank.to_json(_deferred), "provenance": {"seed": 1}})
        assert path.read_text() == dumped({**bank.to_json(), "provenance": {"seed": 1}})


def test_writer_bytes_match_json_dumps_for_pairs_and_families(tmp_path, p3):
    noisy = random_bank(p3, 2, unitary=False, max_delay=3)
    pair = FramePair(special_bank(p3), FilterBank(p3, noisy.m0, noisy.wavelets * 2))
    provenance = {"algorithm": "derive_pair", "inputs": {"a.json": "0" * 64}, "seed": None}
    path = tmp_path / "pair.json"
    _write_json(path, {**pair.to_json(provenance, _deferred), "reports": [{"pass": True}]})
    assert path.read_text() == dumped({**pair.to_json(provenance), "reports": [{"pass": True}]})
    bank = random_bank(p3, 5, max_delay=2)
    for family in orthogonal_family(bank, seeded_paraunitary(p3, 2, 3)):
        _write_json(path, {**family.to_json(_deferred), "provenance": {"column": 1}})
        assert path.read_text() == dumped({**family.to_json(), "provenance": {"column": 1}})


def test_cli_outputs_are_json_dumps_lines(tmp_path):
    bank, pair, family = tmp_path / "bank.json", tmp_path / "pair.json", tmp_path / "family"
    assert main(["gen", "haar", "--p", "3", "--c", "2", "--out", str(bank)]) == 0
    assert main(["pair", "--primal", str(bank), "--dual", str(bank), "--seed", "4",
                 "--out", str(pair)]) == 0
    assert main(["family", "--bank", str(bank), "--seed", "2", "--size", "3",
                 "--out-dir", str(family)]) == 0
    for path in (bank, pair, *sorted(family.iterdir())):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
# values that repeat, so that one formatted text serves many coefficients
repeated = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.0, -3.0,
                            2.0 ** 53, 1e16, 0.1])
bank_floats = st.one_of(repeated, finite)


@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    masks=st.lists(
        st.tuples(st.lists(st.builds(complex, bank_floats, bank_floats), max_size=16),
                  st.sampled_from([0, 1])),
        min_size=1, max_size=4,
    ),
)
def test_mask_text_matches_json_dumps(tmp_path_factory, field, masks):
    params = FieldParams(*field)
    built = [Mask(params, np.array(c, dtype=np.complex128), params.q ** k) for c, k in masks]
    for mask in built:
        for role in (None, "m0", "wavelet"):
            text = _mask_json(mask.coeffs, mask.stride, role)
            assert text == json.dumps(mask.to_json(role), sort_keys=True)
    bank = FilterBank(params, built[0], tuple(built[1:]))
    path = tmp_path_factory.mktemp("text") / "bank.json"
    _write_json(path, bank.to_json(_deferred))
    assert path.read_text() == dumped(bank.to_json())


def test_mask_text_of_non_finite_values_matches_json_dumps(p2):
    # no file holds them, but the algebra could overflow to them
    mask = Mask(p2, np.array([np.inf, complex(np.nan, -np.inf), 1.5, complex(-np.inf, 0.0)]))
    text = _mask_json(mask.coeffs, mask.stride, "wavelet")
    assert text == json.dumps(mask.to_json("wavelet"), sort_keys=True)


@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    masks=st.lists(
        st.tuples(st.lists(complexes, max_size=12), st.sampled_from([0, 1])), min_size=1, max_size=4
    ),
)
def test_bank_file_round_trip_is_exact(tmp_path_factory, field, masks):
    params = FieldParams(*field)
    built = [Mask(params, np.array(c, dtype=np.complex128), params.q ** k) for c, k in masks]
    bank = FilterBank(params, built[0], tuple(built[1:]))
    path = tmp_path_factory.mktemp("round") / "bank.json"
    _write_json(path, bank.to_json(_deferred))
    back = FilterBank.from_json(_load_json(path, {}), require_normalized=False)
    assert back.params == bank.params
    assert len(back.masks) == len(bank.masks)
    for got, want in zip(back.masks, bank.masks):
        assert got.stride == want.stride
        # bit patterns, so that -0.0 must stay -0.0
        assert np.array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64))


MALFORMED = {
    "triple": "[[0.5, 0, 1]]",
    "single": "[[1]]",
    "empty-pair": "[[]]",
    "string-element": '["ab"]',
    "numeric-string": '[["0.7", 0]]',
    "string-imaginary": '[[0.5, "x"]]',
    "string": '"abab"',
    "empty-string": '""',
    "null-element": "[[null, 0]]",
    "null": "null",
    "nested": "[[[1], 0]]",
    "nested-pairs": "[[[1, 2], [3, 4]]]",
    "ragged": "[[1, 0], [1]]",
    "object-element": '[{"a": 1, "b": 2}]',
    "object": "{}",
    "number": "5",
    "bool": "true",
    "int-beyond-float": "[[1" + "0" * 400 + ", 0]]",
    "nan": "[[NaN, 0]]",
    "infinity": "[[0, -Infinity]]",
    "overflow": "[[1e999, 0]]",
}


def _with_coeffs(obj: dict, mask: dict, text: str) -> str:
    """``obj`` as JSON with ``text`` for the coefficients of ``mask``."""
    mask["coeffs"] = "@COEFFS@"
    return json.dumps(obj).replace('"@COEFFS@"', text)


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_coeffs_exit_2(tmp_path, capsys, haar2, text):
    bank = tmp_path / "bank.json"
    obj = haar2.to_json()
    bank.write_text(_with_coeffs(obj, obj["masks"][1], text))
    out = tmp_path / "r.json"
    assert main(["verify", str(bank), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not out.exists()


@pytest.mark.parametrize("text", ["[[1, 0], [0.5]]", '[[0.5, "x"]]', "[[1e999, 0]]"])
def test_malformed_coeffs_in_a_pair_exit_2(tmp_path, capsys, haar2, text):
    obj = {"primal": haar2.to_json(), "dual": haar2.to_json()}
    pair = tmp_path / "pair.json"
    pair.write_text(_with_coeffs(obj, obj["dual"]["masks"][1], text))
    out = tmp_path / "exp.json"
    assert main(["experiment", "--kind", "mixed", "--pair", str(pair), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_coeff_pairs_accepts_json_numbers():
    assert coeff_pairs([]).shape == (0, 2)
    pairs = coeff_pairs([[1, -0.0], [True, 2 ** 70]])
    assert pairs.dtype == np.float64
    assert pairs.tolist() == [[1.0, -0.0], [1.0, float(2 ** 70)]]
    assert np.signbit(pairs[0, 1])


entry_values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e300])
zero_pairs = st.sampled_from([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])


@st.composite
def file_entries(draw, count, q, lowest_power):
    """``count`` mask objects: values with interior signed zeros, trailing
    zeros (-0.0 among them), empty and all-zero rows, and strides q**k for
    k from ``lowest_power`` to 2, mixed; an all-zero row may have stride 1."""
    entries = []
    for _ in range(count):
        coeffs = draw(st.lists(st.lists(entry_values, min_size=2, max_size=2), max_size=5))
        coeffs += draw(st.lists(zero_pairs, max_size=3))
        stride = q ** draw(st.integers(lowest_power, 2))
        if not any(re or im for re, im in coeffs):
            stride = draw(st.sampled_from([1, stride]))
        entries.append({"stride": stride, "coeffs": coeffs})
    return entries


class LatticeBlock(CoefficientBlock):
    """The matrix reader's lattice, q*N0, without Paraunitary's certificate,
    so that entries that are not paraunitary can be read."""

    lattice_power = 1


@given(field=st.sampled_from([(2, 1), (3, 1), (2, 2)]), matrix=st.booleans(), data=st.data())
def test_reader_matches_the_block_of_masks(field, matrix, data):
    # the reader's block and strides are those of coefficient_block over one
    # Mask per entry, bit for bit, whether the entries' coeffs are lists or
    # the arrays the load hook makes of them; both place their rows through
    # one routine, so both are held to a block built one row at a time
    params = FieldParams(*field)
    count = data.draw(st.integers(1, 3)) ** 2 if matrix else data.draw(st.integers(1, 5))
    entries = data.draw(file_entries(count, params.q, int(matrix)))
    if matrix:
        size = math.isqrt(count)
        obj = {"field": params.to_json(), "size": size,
               "entries": [entries[i * size : (i + 1) * size] for i in range(size)]}
    else:
        m0 = data.draw(st.integers(0, count - 1))
        for i, entry in enumerate(entries):
            entry["role"] = "m0" if i == m0 else "wavelet"
        obj = {"field": params.to_json(), "masks": entries}
        entries = [entries[m0], *entries[:m0], *entries[m0 + 1 :]]
    masks = [Mask(params, coeff_pairs(e["coeffs"]).view(complex)[:, 0], e["stride"])
             for e in entries]
    want, strides = reference_block(masks, params.q ** matrix)
    got = [coefficient_block(params, masks, params.q ** matrix)]
    text = json.dumps(obj)
    for parsed in (json.loads(text), json.loads(text, object_hook=cli._coeff_arrays)):
        if matrix:
            flat = itertools.chain.from_iterable(parsed["entries"])
            block = LatticeBlock._of_entries(params, flat)
        else:
            block = FilterBank.from_json(parsed, require_normalized=False)
        got.append((block.coeffs, block.strides))
    for coeffs, got_strides in got:
        assert got_strides == strides
        assert coeffs.shape == want.shape
        assert np.array_equal(coeffs, want)
        assert np.array_equal(np.signbit(coeffs.view(np.float64)), np.signbit(want.view(np.float64)))


@pytest.mark.parametrize("masks", ["abc", {"a": 1}, [[1, 2]], [{"stride": 1}]],
                         ids=["string", "object", "lists", "no-coeffs"])
def test_bank_entries_are_read_before_m0_is_counted(p2, masks):
    # none of these holds an m0 entry, yet the first bad entry is what is named
    with pytest.raises(ParameterError, match="^bad mask object: "):
        FilterBank.from_json({"field": p2.to_json(), "masks": masks})


def test_reader_keeps_strides_past_int64(p2):
    # a zero row, or one holding only index 0, may have any power of q as
    # its stride, however large; the block stays two columns wide
    obj = {"field": p2.to_json(), "masks": [
        {"role": "m0", "stride": 1, "coeffs": [[0.5 ** 0.5, 0.0], [0.5 ** 0.5, 0.0]]},
        {"role": "wavelet", "stride": 2 ** 70, "coeffs": [[0.0, 0.0]]},
        {"role": "wavelet", "stride": 2 ** 80, "coeffs": [[1.0, 0.0], [-0.0, 0.0]]},
    ]}
    bank = FilterBank.from_json(obj)
    assert bank.strides == (1, 2 ** 70, 2 ** 80)
    assert bank.coeffs.tolist() == [[0.5 ** 0.5, 0.5 ** 0.5], [0, 0], [1, 0]]


def _peak_during(call):
    """Peak traced bytes while ``call`` runs, beyond those traced before it,
    and the bytes still traced after it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, after - before


def test_load_holds_one_mask_of_lists(tmp_path, p3):
    # the shape of the benchmark's lpair3 file: GF(3), a delay of 690, so
    # 2,073 pairs per mask, all but three of them zero
    coeffs = np.zeros((6, 3 * 690 + 3), dtype=np.complex128)
    coeffs[:, [0, 1000, 2072]] = np.random.default_rng(1).standard_normal((6, 3))
    masks = [Mask(p3, row) for row in coeffs]
    pair = FramePair(FilterBank(p3, masks[0], masks[1:3]), FilterBank(p3, masks[3], masks[4:]))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair.to_json()))
    obj, peak, _ = _peak_during(lambda: _load_json(path, {}))
    loaded = FramePair.from_json(obj, require_normalized=False)
    assert loaded.primal.masks[1].max_index == pair.primal.masks[1].max_index
    arrays = sum(coeff_pairs(m["coeffs"]).nbytes for b in ("primal", "dual") for m in obj[b]["masks"])
    # the text plus one mask's lists; parsing them all took 3.5 MB
    assert peak <= arrays + 2 ** 20


def test_write_holds_one_mask_of_lists(tmp_path):
    # the size of the benchmark's long4 pair output, with every coefficient
    # a full 17-digit float
    params = FieldParams(2, 2)
    rng = np.random.default_rng(4)
    masks = [Mask(params, rng.standard_normal(1004) + 1j * rng.standard_normal(1004))
             for _ in range(8)]
    pair = FramePair(FilterBank(params, masks[0], tuple(masks[1:4])),
                     FilterBank(params, masks[4], tuple(masks[5:])))
    path = tmp_path / "pair.json"
    _, peak, _ = _peak_during(lambda: _write_json(path, pair.to_json({}, _deferred)))
    assert path.stat().st_size > 300_000
    # one mask's lists and text; the whole payload at once took 4.5 MB
    assert peak <= 2 ** 20
