"""The local field K = GF(q)((t)) with prime element t: its elements, the
index group of the coset representatives u(n), and its grids.

Elements are finite Laurent polynomials in the prime element: a valuation
offset ``v`` plus a tuple of GF(q) digit codes, digit i sitting at power
v + i.  Every point a sweep reports (a grid point, a hat point) has finite
support.  u(n) puts base-q digit i of n at power -(i+1), and
u(m) + u(n) = u(index_add(m, n)) under the carry-free index group law.

The additive character chi is pinned to: chi(x) = exp(2*pi*i * a / p) where
a is the 1-coordinate of the digit of x at power -1.  It is trivial on the
ring of integers and nontrivial one level below, and chi_n(x) = chi(u(n) x)
are the generalized Walsh characters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, SizeError
from .galois import FieldParams, digit_count, json_int

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
                sum(json_int(a, "digit coordinate") * p ** i for i, a in enumerate(coords))
                for coords in obj["digits"]
            )
            return cls(params, json_int(obj["v"], "valuation"), digits)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"bad field element: {exc}") from exc


def _carry_free(p: int, m: int, n: int, sign: int = 1) -> int:
    """Base-p digit-wise m + sign*n mod p: the sum or difference of digit
    codes (whose base-p digits are coordinates) and of indices alike."""
    if m < 0 or n < 0:
        raise RangeError("indices must be non-negative")
    out, place = 0, 1
    while m or n:
        m, a = divmod(m, p)
        n, b = divmod(n, p)
        out += (a + sign * b) % p * place
        place *= p
    return out


def index_add(params: FieldParams, m: int, n: int) -> int:
    """Carry-free index group law: u(m) + u(n) = u(index_add(m, n))."""
    return _carry_free(params.p, m, n)


def index_sub(params: FieldParams, m: int, n: int) -> int:
    """Inverse of index_add: index_sub(index_add(m, n), n) = m."""
    return _carry_free(params.p, m, n, -1)


def check_grid_points(q: int, depth: int):
    """SizeError when the depth-s grid has more than MAX_GRID_POINTS points."""
    if depth >= digit_count(MAX_GRID_POINTS, q):
        raise SizeError(f"grid of {q}^{depth} points exceeds the {MAX_GRID_POINTS} cap")


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
    """FieldElement of index g < q**depth on the depth-s grid: base-q digit
    j of g at power j.  The digits above g's own are zeros, which a
    FieldElement drops, so the depth is never expanded."""
    digits = []
    while g:
        g, d = divmod(g, params.q)
        digits.append(d)
    return FieldElement(params, 0, tuple(digits))
