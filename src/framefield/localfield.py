"""The local field K = GF(q)((t)) with prime element t, and its character theory.

Elements are finite Laurent polynomials in the prime element: a valuation
offset ``v`` plus a tuple of GF(q) digit codes, digit i sitting at power
v + i.  Every point the algorithms touch (coset representatives u(n), grid
points, their sums and products) has finite support, so all arithmetic here
is exact.

The additive character chi is pinned to: chi(x) = exp(2*pi*i * a / p) where
a is the 1-coordinate of the digit of x at power -1.  It is trivial on the
ring of integers and nontrivial one level below, and chi_n(x) = chi(u(n) x)
are the generalized Walsh characters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, SizeError
from .galois import FieldParams, field_tables
from .kernels import root_table

MAX_GRID_POINTS = 1 << 22


@dataclass(frozen=True)
class FieldElement:
    """x = sum of digits[i] * t^(v+i); normalized so digits[0] != 0 unless x = 0.

    Digits are integer codes in [0, q); the code's p-ary expansion gives the
    coordinates of the residue-field digit.
    """

    params: FieldParams
    v: int
    digits: tuple

    def __post_init__(self):
        q = self.params.q
        digits = tuple(int(d) for d in self.digits)
        if any(not (0 <= d < q) for d in digits):
            raise ParameterError("digit codes must lie in [0, q)")
        v = self.v
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        while digits and digits[0] == 0:
            digits = digits[1:]
            v += 1
        if not digits:
            v = 0
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "v", v)

    def is_zero(self) -> bool:
        return not self.digits

    def __abs__(self) -> float:
        if self.is_zero():
            return 0.0
        return float(self.params.q) ** (-self.v)

    def __add__(self, other):
        return lf_add(self, other)

    def __mul__(self, other):
        return lf_mul(self, other)

    def digit_at(self, power: int) -> int:
        """Digit code at t^power (0 if outside the support)."""
        i = power - self.v
        if 0 <= i < len(self.digits):
            return self.digits[i]
        return 0

    def __repr__(self):
        if self.is_zero():
            return "FieldElement(0)"
        terms = ",".join(f"{d}@{self.v + i}" for i, d in enumerate(self.digits))
        return f"FieldElement({terms})"

    def to_json(self) -> dict:
        p, c = self.params.p, self.params.c
        return {
            "v": self.v,
            "digits": [[(d // p ** i) % p for i in range(c)] for d in self.digits],
        }

    @classmethod
    def from_json(cls, params: FieldParams, obj: dict) -> "FieldElement":
        p = params.p
        try:
            digits = tuple(
                sum(int(a) * p ** i for i, a in enumerate(coords)) for coords in obj["digits"]
            )
            return cls(params, int(obj["v"]), digits)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"bad field element: {exc}") from exc


def fe_zero(params: FieldParams) -> FieldElement:
    return FieldElement(params, 0, ())


def fe_one(params: FieldParams) -> FieldElement:
    return FieldElement(params, 0, (1,))


def fe_prime_power(params: FieldParams, j: int, digit: int = 1) -> FieldElement:
    """digit * t^j."""
    return FieldElement(params, j, (digit,))


def _check_shared(x: FieldElement, y: FieldElement):
    if x.params != y.params:
        raise ParameterError("operands belong to different fields")


def lf_add(x: FieldElement, y: FieldElement) -> FieldElement:
    """Digit-wise GF(q) addition after aligning valuations."""
    _check_shared(x, y)
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    add = field_tables(x.params).add
    lo = min(x.v, y.v)
    hi = max(x.v + len(x.digits), y.v + len(y.digits))
    digits = [int(add[x.digit_at(j), y.digit_at(j)]) for j in range(lo, hi)]
    return FieldElement(x.params, lo, tuple(digits))


def lf_mul(x: FieldElement, y: FieldElement) -> FieldElement:
    """Cauchy product of the digit sequences; val(xy) = val(x) + val(y)."""
    _check_shared(x, y)
    if x.is_zero() or y.is_zero():
        return fe_zero(x.params)
    tab = field_tables(x.params)
    out = [0] * (len(x.digits) + len(y.digits) - 1)
    for i, a in enumerate(x.digits):
        if a == 0:
            continue
        for j, b in enumerate(y.digits):
            out[i + j] = int(tab.add[out[i + j], tab.mul[a, b]])
    result = FieldElement(x.params, x.v + y.v, tuple(out))
    assert result.v == x.v + y.v, "leading digits of a field product cannot cancel"
    return result


def _base_q_digits(n: int, q: int) -> list:
    if n == 0:
        return []
    out = []
    while n:
        n, r = divmod(n, q)
        out.append(r)
    return out


def u_map(params: FieldParams, n: int) -> FieldElement:
    """Coset representative u(n): base-q digit b_i of n lands at power -(i+1)."""
    if n < 0:
        raise RangeError("u(n) is defined for non-negative n")
    b = _base_q_digits(n, params.q)
    return FieldElement(params, -len(b), tuple(reversed(b)))


def _index_digitwise(table: np.ndarray, q: int, m: int, n: int) -> int:
    """Digit-wise table[a, b] over the base-q digits of m and n."""
    if m < 0 or n < 0:
        raise RangeError("indices must be non-negative")
    out, shift = 0, 1
    while m or n:
        m, a = divmod(m, q)
        n, b = divmod(n, q)
        out += int(table[a, b]) * shift
        shift *= q
    return out


def index_add(params: FieldParams, m: int, n: int) -> int:
    """Carry-free index group law: u(m) + u(n) = u(index_add(m, n))."""
    return _index_digitwise(field_tables(params).add, params.q, m, n)


def index_sub(params: FieldParams, m: int, n: int) -> int:
    """Inverse of index_add: index_sub(index_add(m, n), n) = m."""
    return _index_digitwise(field_tables(params).sub, params.q, m, n)


def chi(x: FieldElement) -> complex:
    """The fixed additive character: reads only the digit at power -1."""
    a = field_tables(x.params).proj0[x.digit_at(-1)]
    return complex(root_table(x.params.p)[a])


def chi_n(n: int, xi: FieldElement) -> complex:
    """Generalized Walsh character chi(u(n) * xi)."""
    return chi(lf_mul(u_map(xi.params, n), xi))


def check_grid_points(q: int, depth: int):
    """SizeError when the depth-s grid has more than MAX_GRID_POINTS points."""
    if q ** depth > MAX_GRID_POINTS:
        raise SizeError(f"grid of {q ** depth} points exceeds the {MAX_GRID_POINTS} cap")


def grid_digits(params: FieldParams, depth: int) -> np.ndarray:
    """Digit matrix of the depth-s grid: row g holds the digits of point g
    at powers 0..s-1, with the power-0 digit cycling fastest as g increases.
    """
    if depth < 0:
        raise RangeError("depth must be non-negative")
    q = params.q
    check_grid_points(q, depth)
    g = np.arange(q ** depth, dtype=np.int64)
    return np.stack([(g // q ** j) % q for j in range(depth)], axis=1) if depth else np.zeros((1, 0), dtype=np.int64)


def grid_point(params: FieldParams, depth: int, g: int) -> FieldElement:
    """FieldElement of grid index g at the given depth."""
    q = params.q
    return FieldElement(params, 0, tuple((g // q ** j) % q for j in range(depth)))


def grid(params: FieldParams, depth: int) -> list:
    """All q^s coset representatives of B^s in D, in enumeration order."""
    check_grid_points(params.q, depth)
    return [grid_point(params, depth, g) for g in range(params.q ** depth)]
