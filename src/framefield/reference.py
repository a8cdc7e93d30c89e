"""The per-point reference route: exact values at one point at a time.

Every term goes through exact field elements: GF(q) digits multiplied as
polynomials (or through the discrete logarithm), Laurent digits through
their Cauchy product, and each character through u(n), lf_mul and chi.
It shares only the p-th roots of unity with the grid kernels, so it is
the independent oracle the character transform, the Gram sweeps and the
cascade are compared with.  No command imports this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError
from .galois import FieldParams, _poly_rem
from .kernels import root_table
from .localfield import FieldElement, _carry_free, check_grid_points, grid_point
from .mask import FilterBank, Mask, coefficient_block, covering_depth


@dataclass(frozen=True)
class GFElem:
    """An element of GF(q) as its coordinate vector in the polynomial basis."""

    params: FieldParams
    coords: tuple

    def __post_init__(self):
        coords = tuple(int(a) for a in self.coords)
        if len(coords) != self.params.c:
            raise ParameterError(f"expected {self.params.c} coordinates, got {len(coords)}")
        if any(not (0 <= a < self.params.p) for a in coords):
            raise ParameterError("coordinates must lie in [0, p)")
        object.__setattr__(self, "coords", coords)

    def __add__(self, other):
        return gf_add(self, other)

    def __mul__(self, other):
        return gf_mul(self, other)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


def _check_shared(a, b):
    """ParameterError unless two GF(q) or local-field operands share a field."""
    if a.params != b.params:
        raise ParameterError("operands belong to different fields")


def gf_one(params: FieldParams) -> GFElem:
    return GFElem(params, (1,) + (0,) * (params.c - 1))


def gf_add(a: GFElem, b: GFElem) -> GFElem:
    """Component-wise sum mod p."""
    _check_shared(a, b)
    p = a.params.p
    return GFElem(a.params, tuple((x + y) % p for x, y in zip(a.coords, b.coords)))


def gf_mul(a: GFElem, b: GFElem) -> GFElem:
    """Product of representing polynomials, reduced mod the modulus and mod p."""
    _check_shared(a, b)
    p, c = a.params.p, a.params.c
    prod = [0] * (2 * c - 1)
    for i, x in enumerate(a.coords):
        if x == 0:
            continue
        for j, y in enumerate(b.coords):
            prod[i + j] = (prod[i + j] + x * y) % p
    rem = _poly_rem(prod, a.params.modulus, p)
    rem += [0] * (c - len(rem))
    return GFElem(a.params, tuple(rem))


def gf_proj0(a: GFElem) -> int:
    """Coordinate along the basis element 1 (the only one the character sees)."""
    return a.coords[0]


def gf_from_digit(params: FieldParams, d: int) -> GFElem:
    """p-ary digit vector of d, for d in [0, q)."""
    if not (0 <= d < params.q):
        raise RangeError(f"digit {d} out of range [0, {params.q})")
    p = params.p
    return GFElem(params, tuple((d // p ** i) % p for i in range(params.c)))


def gf_to_digit(a: GFElem) -> int:
    p = a.params.p
    return sum(x * p ** i for i, x in enumerate(a.coords))


def _primitive_powers(params: FieldParams) -> list:
    """Codes of g**0, ..., g**(q-2) for the primitive element g of smallest code."""
    one = gf_one(params)
    for code in range(1, params.q):
        g = gf_from_digit(params, code)
        powers = [1]
        x = g
        while x != one:
            powers.append(gf_to_digit(x))
            x = gf_mul(x, g)
        if len(powers) == params.q - 1:
            return powers
    raise ParameterError("no primitive element found; field parameters are inconsistent")


@functools.lru_cache(maxsize=None)
def log_tables(params: FieldParams) -> tuple:
    """Lists exp[k] = g**k and log[g**k] = k for the primitive element g:
    a*b = exp[(log a + log b) mod (q-1)] for nonzero codes a and b."""
    exp = _primitive_powers(params)
    log = [0] * params.q
    for k, code in enumerate(exp):
        log[code] = k
    return exp, log


def fe_zero(params: FieldParams) -> FieldElement:
    return FieldElement(params, 0, ())


def fe_prime_power(params: FieldParams, j: int, digit: int = 1) -> FieldElement:
    """digit * t^j."""
    return FieldElement(params, j, (digit,))


def lf_add(x: FieldElement, y: FieldElement) -> FieldElement:
    """Digit-wise GF(q) addition after aligning valuations."""
    _check_shared(x, y)
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    p = x.params.p
    lo = min(x.v, y.v)
    hi = max(x.v + len(x.digits), y.v + len(y.digits))
    digits = [_carry_free(p, x.digit_at(j), y.digit_at(j)) for j in range(lo, hi)]
    return FieldElement(x.params, lo, tuple(digits))


def lf_mul(x: FieldElement, y: FieldElement) -> FieldElement:
    """Cauchy product of the digit sequences; val(xy) = val(x) + val(y)."""
    _check_shared(x, y)
    if x.is_zero() or y.is_zero():
        return fe_zero(x.params)
    p, order = x.params.p, x.params.q - 1
    exp, log = log_tables(x.params)
    out = [0] * (len(x.digits) + len(y.digits) - 1)
    for i, a in enumerate(x.digits):
        if a == 0:
            continue
        for j, b in enumerate(y.digits):
            if b:
                out[i + j] = _carry_free(p, out[i + j], exp[(log[a] + log[b]) % order])
    result = FieldElement(x.params, x.v + y.v, tuple(out))
    assert result.v == x.v + y.v, "leading digits of a field product cannot cancel"
    return result


def u_map(params: FieldParams, n: int) -> FieldElement:
    """Coset representative u(n): base-q digit b_i of n lands at power -(i+1)."""
    if n < 0:
        raise RangeError("u(n) is defined for non-negative n")
    digits = []
    while n:
        n, b = divmod(n, params.q)
        digits.append(b)
    return FieldElement(params, -len(digits), tuple(reversed(digits)))


def chi(x: FieldElement) -> complex:
    """The fixed additive character: reads only the digit at power -1."""
    p = x.params.p
    return complex(root_table(p)[x.digit_at(-1) % p])


def chi_n(n: int, xi: FieldElement) -> complex:
    """Generalized Walsh character chi(u(n) * xi)."""
    return chi(lf_mul(u_map(xi.params, n), xi))


def grid(params: FieldParams, depth: int) -> list:
    """All q^s coset representatives of B^s in D, in enumeration order."""
    check_grid_points(params.q, depth)
    return [grid_point(params, depth, g) for g in range(params.q ** depth)]


def eval_mask(m: Mask, xi: FieldElement) -> complex:
    """Exact single-point evaluation through the character definition:
    each term goes through u(n), lf_mul and chi on exact field elements."""
    if m.params != xi.params:
        raise ParameterError("mask and point belong to different fields")
    q = m.params.q
    total = 0.0 + 0.0j
    for slot, h in enumerate(m.coeffs):
        if h == 0:
            continue
        total += h * np.conj(chi_n(slot * m.stride, xi))
    return complex(total / math.sqrt(q))


def eval_symbol(m: Mask, xi: FieldElement) -> complex:
    """Symbol-convention value of a stride-q mask (no q**-0.5 prefactor)."""
    return complex(math.sqrt(m.params.q) * eval_mask(m, xi))


@dataclass(frozen=True)
class MatrixSample:
    """A modulation or polyphase matrix evaluated at one point."""

    point: FieldElement
    entries: np.ndarray
    kind: str


def modulation_matrix(bank: FilterBank, xi: FieldElement) -> MatrixSample:
    """(L+1) x q matrix of mask values at the q shifts xi + t*u(k)."""
    params = bank.params
    shifts = [lf_add(xi, lf_mul(fe_prime_power(params, 1), u_map(params, k))) for k in range(params.q)]
    entries = np.array(
        [[eval_mask(m, s) for s in shifts] for m in bank.masks], dtype=np.complex128
    )
    return MatrixSample(point=xi, entries=entries, kind="modulation")


def polyphase_split(m: Mask) -> list:
    """The q sub-masks on the residue classes n = r (mod q), reindexed by
    (n - r)/q; returned as stride-q masks holding the raw coefficients of
    the mask's stride-1 block row.
    """
    q = m.params.q
    row = coefficient_block(m.params, [m])[0][0]
    return [Mask(m.params, row[r::q], stride=q) for r in range(q)]


def polyphase_matrix(bank: FilterBank, xi: FieldElement) -> MatrixSample:
    """q x (L+1) matrix of polyphase-component symbol values at xi."""
    comps = [polyphase_split(m) for m in bank.masks]
    entries = np.array(
        [[eval_symbol(comps[l][r], xi) for l in range(len(bank.masks))] for r in range(bank.params.q)],
        dtype=np.complex128,
    )
    return MatrixSample(point=xi, entries=entries, kind="polyphase")


def cascade_value(m0: Mask, x: FieldElement, max_factors: int = 64) -> complex:
    """Exact stabilized cascade product at a single point."""
    params = m0.params
    support_depth = covering_depth(m0.max_index, params.q)
    out = 1.0 + 0.0j
    for j in range(1, max_factors + 1):
        point = FieldElement(params, x.v + j, x.digits)
        if point.is_zero() or point.v >= support_depth:
            break
        out *= eval_mask(m0, point)
    return out
