"""Field-element arithmetic, the coset map, characters, and grids."""

import numpy as np
import pytest

from framefield.errors import ParameterError, SizeError
from framefield.galois import FieldParams
from framefield.localfield import FieldElement, grid_point, index_add, index_sub
from framefield.reference import chi, chi_n, fe_prime_power, fe_zero, grid, lf_add, lf_mul, u_map

from helpers import fe_one


def random_element(params, rng, span=4):
    v = int(rng.integers(-span, span))
    digits = tuple(int(d) for d in rng.integers(0, params.q, size=span))
    return FieldElement(params, v, digits)


def test_add_examples(p2):
    x = u_map(p2, 5)
    assert lf_add(x, fe_zero(p2)) == x
    half = fe_prime_power(p2, -1)
    assert lf_add(half, half).is_zero()
    two = fe_prime_power(p2, -2)
    s = lf_add(half, two)
    assert s.v == -2 and s.digits == (1, 1)
    assert abs(s) == 4.0


def test_mul_examples(p2):
    x = u_map(p2, 3)
    assert lf_mul(x, fe_zero(p2)).is_zero()
    assert lf_mul(fe_prime_power(p2, -1), fe_prime_power(p2, 1)) == fe_one(p2)
    # (t^-1 + t^-2) * t = 1 + t^-1, convolved by hand
    s = lf_add(fe_prime_power(p2, -1), fe_prime_power(p2, -2))
    prod = lf_mul(s, fe_prime_power(p2, 1))
    assert prod.v == -1 and prod.digits == (1, 1)


def test_normalization_and_abs(p2):
    x = FieldElement(p2, -2, (0, 1, 0, 0))
    assert x.v == -1 and x.digits == (1,)
    assert abs(x) == 2.0
    assert abs(fe_zero(p2)) == 0.0
    assert FieldElement(p2, 5, (0, 0)).is_zero()


def test_ultrametric_and_multiplicativity(p3, rng):
    # |x| = q**-v, so both laws are exact statements about valuations
    for _ in range(1000):
        x = random_element(p3, rng)
        y = random_element(p3, rng)
        s = lf_add(x, y)
        if not s.is_zero():
            assert not (x.is_zero() and y.is_zero())
            others = [z.v for z in (x, y) if not z.is_zero()]
            assert s.v >= min(others)
        prod = lf_mul(x, y)
        if x.is_zero() or y.is_zero():
            assert prod.is_zero()
        else:
            assert prod.v == x.v + y.v


def test_u_map_examples(p2, gf4):
    assert u_map(p2, 0).is_zero()
    assert u_map(p2, 1) == fe_prime_power(p2, -1)
    three = u_map(p2, 3)
    assert three.v == -2 and three.digits == (1, 1)
    # q = 4: u(2) is the second basis digit over t^-1
    two = u_map(gf4, 2)
    assert two.v == -1 and two.digits == (2,)


def test_u_zero_iff_zero(p3):
    for n in range(1, 200):
        assert not u_map(p3, n).is_zero()


@pytest.mark.parametrize("pc", [(2, 1), (3, 1)])
def test_index_group_law_exhaustive(pc):
    params = FieldParams(*pc)
    q4 = params.q ** 4
    for m in range(q4):
        um = u_map(params, m)
        for n in range(q4):
            s = index_add(params, m, n)
            assert lf_add(um, u_map(params, n)) == u_map(params, s)
            assert index_sub(params, s, n) == m


def test_index_add_examples(p2):
    assert index_add(p2, 7, 0) == 7
    assert index_add(p2, 1, 1) == 0
    assert index_add(p2, 1, 2) == 3


def test_chi_examples(p2, p3, gf4):
    assert chi(fe_one(p2)) == 1
    assert chi(fe_prime_power(p2, -1)) == -1
    val = chi(fe_prime_power(p3, -1))
    assert val == pytest.approx(np.exp(2j * np.pi / 3))
    # the non-initial basis digit is invisible to the character
    assert chi(fe_prime_power(gf4, -1, digit=2)) == 1
    assert chi(fe_prime_power(gf4, -1, digit=1)) == -1


def test_chi_additivity(p3, rng):
    for _ in range(1000):
        x = random_element(p3, rng)
        y = random_element(p3, rng)
        assert abs(chi(lf_add(x, y)) - chi(x) * chi(y)) < 1e-15


def test_chi_n_examples(p2):
    xi = grid_point(p2, 2, 3)
    assert chi_n(0, xi) == 1
    assert chi_n(5, fe_zero(p2)) == 1
    # chi_1 at t*u(1): the product u(1)*t*u(1) has digit 1 at power -1
    point = lf_mul(fe_prime_power(p2, 1), u_map(p2, 1))
    assert chi_n(1, point) == -1


def test_chi_n_multiplicative_in_index(p3, rng):
    params = p3
    for _ in range(200):
        xi = grid_point(params, 3, int(rng.integers(27)))
        m = int(rng.integers(81))
        n = int(rng.integers(81))
        lhs = chi_n(index_add(params, m, n), xi)
        rhs = chi_n(m, xi) * chi_n(n, xi)
        assert abs(lhs - rhs) < 1e-14


def test_chi_cocycle(p3, rng):
    # chi_k(xi + t u(j)) = chi_k(xi) * chi(t u(k) u(j))
    params = p3
    t = fe_prime_power(params, 1)
    for _ in range(200):
        xi = grid_point(params, 3, int(rng.integers(27)))
        k = int(rng.integers(params.q))
        j = int(rng.integers(params.q))
        shifted = lf_add(xi, lf_mul(t, u_map(params, j)))
        factor = chi(lf_mul(t, lf_mul(u_map(params, k), u_map(params, j))))
        assert abs(chi_n(k, shifted) - chi_n(k, xi) * factor) < 1e-14


@pytest.mark.parametrize("pc", [(2, 1), (3, 1), (2, 2)])
def test_chi_trivial_on_u_products(pc):
    params = FieldParams(*pc)
    q3 = params.q ** 3
    for m in range(q3):
        um = u_map(params, m)
        for n in range(q3):
            assert chi(lf_mul(um, u_map(params, n))) == 1


def test_grid_examples(p2, p3):
    assert grid(p2, 0) == [fe_zero(p2)]
    assert grid(p2, 1) == [fe_zero(p2), fe_one(p2)]
    assert len(grid(p3, 2)) == 9


def test_grid_enumeration_order(p3):
    # power-0 digit cycles fastest
    pts = grid(p3, 2)
    assert pts[1].digits == (1,) and pts[1].v == 0
    assert pts[3].digit_at(0) == 0 and pts[3].digit_at(1) == 1
    assert pts[4].digit_at(0) == 1 and pts[4].digit_at(1) == 1


def test_grid_size_cap(p2):
    with pytest.raises(SizeError):
        grid(p2, 40)


def test_mismatched_field_rejected(p2, p3):
    with pytest.raises(ParameterError):
        lf_add(fe_one(p2), fe_one(p3))


def test_element_json_roundtrip(p3):
    x = FieldElement(p3, -2, (2, 0, 1, 2))
    obj = x.to_json()
    assert obj["v"] == -2
    assert FieldElement.from_json(p3, obj) == x


@pytest.mark.parametrize(
    "key, value", [("v", 1.5), ("v", "1"), ("digits", [[1.0]]), ("digits", [[True]])]
)
def test_element_json_numbers_must_be_integers(p3, key, value):
    obj = {"v": 0, "digits": [[1]], key: value}
    with pytest.raises(ParameterError, match="must be an integer"):
        FieldElement.from_json(p3, obj)
