"""GF(p^c) digit arithmetic: axioms, bijections, and parameter validation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefield.errors import ParameterError, RangeError, SizeError
from framefield.galois import FieldParams, _is_irreducible, field_tables
from framefield.localfield import FieldElement, index_add, index_sub
from framefield.reference import (
    GFElem,
    gf_add,
    gf_from_digit,
    gf_mul,
    gf_one,
    gf_proj0,
    gf_to_digit,
    lf_add,
    lf_mul,
)

from helpers import code_tables, gf_inv, gf_neg, gf_zero

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


def all_elems(params):
    return [gf_from_digit(params, d) for d in range(params.q)]


def test_add_examples():
    p2 = FieldParams(2, 1)
    assert gf_add(gf_from_digit(p2, 1), gf_from_digit(p2, 1)) == gf_zero(p2)
    p3 = FieldParams(3, 1)
    assert gf_to_digit(gf_add(gf_from_digit(p3, 2), gf_from_digit(p3, 2))) == 1
    gf4 = FieldParams(2, 2)
    assert gf_add(GFElem(gf4, (1, 1)), GFElem(gf4, (0, 1))).coords == (1, 0)


def test_mul_identity_and_annihilator():
    for p, c in [(2, 2), (3, 1), (5, 1)]:
        params = FieldParams(p, c)
        for a in all_elems(params):
            assert gf_mul(a, gf_one(params)) == a
            assert gf_mul(a, gf_zero(params)) == gf_zero(params)


def test_mul_generator_squared_gf4():
    # x * x = x + 1 modulo x^2 + x + 1 over GF(2), checked by hand
    gf4 = FieldParams(2, 2, (1, 1, 1))
    zeta = GFElem(gf4, (0, 1))
    assert gf_mul(zeta, zeta).coords == (1, 1)


def test_proj0():
    gf4 = FieldParams(2, 2)
    assert gf_proj0(GFElem(gf4, (0, 1))) == 0
    assert gf_proj0(GFElem(gf4, (1, 1))) == 1
    p5 = FieldParams(5, 1)
    for d in range(5):
        assert gf_proj0(gf_from_digit(p5, d)) == d


def test_digit_bijection():
    for p, c in SMALL_FIELDS:
        params = FieldParams(p, c)
        seen = set()
        for d in range(params.q):
            e = gf_from_digit(params, d)
            assert gf_to_digit(e) == d
            seen.add(e.coords)
        assert len(seen) == params.q


def test_digit_examples():
    gf4 = FieldParams(2, 2)
    assert gf_from_digit(gf4, 0).coords == (0, 0)
    assert gf_from_digit(gf4, 2).coords == (0, 1)
    assert gf_from_digit(FieldParams(3, 1), 2).coords == (2,)


def test_digit_range_error():
    params = FieldParams(2, 2)
    with pytest.raises(RangeError):
        gf_from_digit(params, 4)
    with pytest.raises(RangeError):
        gf_from_digit(params, -1)


@pytest.mark.parametrize("p,c", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, c):
    params = FieldParams(p, c)
    elems = all_elems(params)
    zero, one = gf_zero(params), gf_one(params)
    for a in elems:
        assert gf_add(a, zero) == a
        assert gf_mul(a, one) == a
        if not a.is_zero():
            assert gf_mul(a, gf_inv(a)) == one
        for b in elems:
            assert gf_add(a, b) == gf_add(b, a)
            assert gf_mul(a, b) == gf_mul(b, a)
            for d in elems:
                assert gf_add(gf_add(a, b), d) == gf_add(a, gf_add(b, d))
                assert gf_mul(gf_mul(a, b), d) == gf_mul(a, gf_mul(b, d))
                assert gf_mul(a, gf_add(b, d)) == gf_add(gf_mul(a, b), gf_mul(a, d))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_mul_matches_integers(p):
    params = FieldParams(p, 1)
    for a in range(p):
        for b in range(p):
            got = gf_to_digit(gf_mul(gf_from_digit(params, a), gf_from_digit(params, b)))
            assert got == (a * b) % p


def _scalar_tables(params):
    """The field operations through the scalar gf_* route, entry by entry."""
    elems = all_elems(params)
    add = np.array([[gf_to_digit(gf_add(a, b)) for b in elems] for a in elems])
    mul = np.array([[gf_to_digit(gf_mul(a, b)) for b in elems] for a in elems])
    sub = np.array([[gf_to_digit(gf_add(a, gf_neg(b))) for b in elems] for a in elems])
    proj0 = np.array([gf_proj0(a) for a in elems])
    exponent = np.array([[gf_proj0(gf_mul(a, b)) for b in elems] for a in elems])
    return {"add": add, "sub": sub, "mul": mul, "proj0": proj0, "exponent": exponent}


def _hankel_exponent(params, a: GFElem, b: GFElem) -> int:
    """proj0(a*b) read from the field state: a^T M b mod p."""
    return int(np.array(a.coords) @ field_tables(params) @ np.array(b.coords) % params.p)


def _code_product(params, a: int, b: int) -> int:
    """The exp/log product of two digit codes, through lf_mul."""
    return lf_mul(FieldElement(params, 0, (a,)), FieldElement(params, 0, (b,))).digit_at(0)


# the moduli of the seven extension fields that once had a built-in table,
# (p, c) -> (a0, ..., ac); the least-code rule must give each of them
TABLE_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 0, 1),        # x^2 + 2
    (5, 3): (1, 1, 0, 1),     # x^3 + x + 1
}

# every table field with q <= 32, and prime fields
TABLE_FIELDS = [(2, 1), (3, 1), (31, 1)] + sorted(
    key for key in TABLE_MODULI if key[0] ** key[1] <= 32
)


def test_tables_match_elementwise_ops():
    for p, c in TABLE_FIELDS:
        params = FieldParams(p, c)
        q = params.q
        elems = all_elems(params)
        add, mul = code_tables(params)
        got = {
            "add": add,
            "sub": np.array([[index_sub(params, a, b) for b in range(q)] for a in range(q)]),
            "mul": mul,
            "proj0": np.arange(q) % p,
            "exponent": np.array([[_hankel_exponent(params, a, b) for b in elems] for a in elems]),
        }
        for name, ref in _scalar_tables(params).items():
            assert np.array_equal(got[name], ref), (p, c, name)


@pytest.mark.parametrize("p, c", [(5, 3), (251, 1)])
def test_large_tables_match_elementwise_ops_on_random_pairs(p, c, rng):
    params = FieldParams(p, c)
    for i, j in rng.integers(0, params.q, size=(200, 2)).tolist():
        a, b = gf_from_digit(params, i), gf_from_digit(params, j)
        assert index_add(params, i, j) == gf_to_digit(gf_add(a, b))
        assert index_sub(params, i, j) == gf_to_digit(gf_add(a, gf_neg(b)))
        assert _code_product(params, i, j) == gf_to_digit(gf_mul(a, b))
        assert _hankel_exponent(params, a, b) == gf_proj0(gf_mul(a, b))
        assert i % p == gf_proj0(a)


@st.composite
def user_fields(draw):
    """GF(p^c), p <= 7 and c <= 4, with a random monic modulus drawn by
    rejection through the irreducibility test."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c = draw(st.integers(1, 4))
    low = st.tuples(*[st.integers(0, p - 1)] * c)
    modulus = draw(low.map(lambda a: a + (1,)).filter(lambda m: _is_irreducible(m, p, c)))
    return FieldParams(p, c, modulus)


@given(params=user_fields(), data=st.data())
def test_field_state_matches_scalar_route_on_user_moduli(params, data):
    codes = st.integers(0, params.q - 1)
    for _ in range(8):
        i, j = data.draw(codes), data.draw(codes)
        a, b = gf_from_digit(params, i), gf_from_digit(params, j)
        assert _hankel_exponent(params, a, b) == gf_proj0(gf_mul(a, b))
        assert _code_product(params, i, j) == gf_to_digit(gf_mul(a, b))
        assert index_add(params, i, j) == gf_to_digit(gf_add(a, b))
        assert index_sub(params, i, j) == gf_to_digit(gf_add(a, gf_neg(b)))
        digit_sum = lf_add(FieldElement(params, 0, (i,)), FieldElement(params, 0, (j,)))
        assert digit_sum.digit_at(0) == gf_to_digit(gf_add(a, b))


@given(params=user_fields(), data=st.data())
def test_carry_free_index_law_is_digitwise_field_addition(params, data):
    q = params.q
    m, n = data.draw(st.integers(0, q ** 8 - 1)), data.draw(st.integers(0, q ** 8 - 1))
    s = index_add(params, m, n)
    for d in range(8):
        a, b = gf_from_digit(params, m // q ** d % q), gf_from_digit(params, n // q ** d % q)
        assert s // q ** d % q == gf_to_digit(gf_add(a, b))
    assert s < q ** 8
    assert index_sub(params, s, n) == m


def test_field_state_is_c_by_c():
    # GF(2048) once kept three 2048 x 2048 int64 tables (96 MB)
    params = FieldParams(2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hankel = field_tables.__wrapped__(params)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hankel.shape == (11, 11)
    assert kept < 64 * 1024


def _monic(code, deg, p):
    return tuple((code // p ** i) % p for i in range(deg)) + (1,)


def _poly_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducibility_matches_every_product_of_monic_factors(p):
    for c in (2, 3, 4):
        reducible = {
            _poly_product(_monic(i, d, p), _monic(j, c - d, p), p)
            for d in range(1, c)
            for i in range(p ** d)
            for j in range(p ** (c - d))
        }
        for code in range(p ** c):
            modulus = _monic(code, c, p)
            assert _is_irreducible(modulus, p, c) == (modulus not in reducible), (p, modulus)
        # the default is the irreducible of least code, whose most
        # significant digit is the highest coefficient below the leading 1
        irreducible = {_monic(code, c, p) for code in range(p ** c)} - reducible
        assert FieldParams(p, c).modulus == min(irreducible, key=lambda m: m[::-1]), (p, c)


def test_default_modulus_is_the_least_code_irreducible():
    for (p, c), modulus in TABLE_MODULI.items():
        assert FieldParams(p, c).modulus == modulus, (p, c)
    for p in (2, 3, 31):
        assert FieldParams(p, 1).modulus == (0, 1)
        assert FieldParams(p, 1, (1, 1)).modulus == (0, 1)  # ignored at c = 1
    assert FieldParams(2, 8).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)  # x^8 + x^4 + x^3 + x + 1
    assert FieldParams(2, 10).modulus == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)  # x^10 + x^3 + 1


def test_found_modulus_is_tested_once(monkeypatch):
    # the search tests each candidate once, and a given modulus is tested
    from framefield import galois

    tested = []
    monkeypatch.setattr(galois, "_is_irreducible",
                        lambda m, p, c: tested.append(m) or _is_irreducible(m, p, c))
    found = FieldParams(2, 16).modulus
    assert tested.count(found) == 1 and tested[-1] == found
    tested.clear()
    assert FieldParams(2, 16, found).modulus == found and tested == [found]
    with pytest.raises(ParameterError, match="reducible"):
        FieldParams(2, 2, (1, 0, 1))
    for (p, c), modulus in TABLE_MODULI.items():
        assert FieldParams(p, c).modulus == modulus, (p, c)


def test_bad_params_rejected():
    with pytest.raises(ParameterError):
        FieldParams(4, 1)
    with pytest.raises(ParameterError):
        FieldParams(1, 1)
    with pytest.raises(ParameterError):
        FieldParams(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ParameterError):
        FieldParams(2, 2, (1, 1, 1, 1))  # wrong degree
    with pytest.raises(ParameterError):
        FieldParams(2, 2, (1, 1, 2))  # not monic / out of range
    assert FieldParams(7, 2).modulus == (1, 0, 1)  # found by the least-code rule


def test_params_beyond_address_space_rejected_before_search():
    # 2**61 - 1 is prime: trial division alone would take minutes
    with pytest.raises(SizeError, match="address space"):
        FieldParams(2 ** 61 - 1)
    # a huge degree stops after a few factors of q, not c of them
    with pytest.raises(SizeError, match="address space"):
        FieldParams(3, 10 ** 12)


def test_mismatched_params_rejected():
    a = gf_one(FieldParams(2, 1))
    b = gf_one(FieldParams(3, 1))
    with pytest.raises(ParameterError):
        gf_add(a, b)
    with pytest.raises(ParameterError):
        gf_mul(a, b)


def test_params_json_roundtrip():
    params = FieldParams(2, 3)
    again = FieldParams.from_json(params.to_json())
    assert again == params
