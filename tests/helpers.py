"""Test-only constructions: seeded random banks, long frame pairs, delta
and scaled masks, the reference shifted-column gather of the quotient
sweep, the allocating character transform, the per-mask adjoint, the add
and mul tables of digit codes, and the GF(q) and local-field elements that
no program path needs."""

import functools

import numpy as np

from framefield.construct import _seeded_unitary, haar_bank
from framefield.errors import ParameterError
from framefield.galois import FieldParams
from framefield.localfield import FieldElement, index_add, index_sub
from framefield.mask import FilterBank, FramePair, Mask
from framefield.reference import GFElem, gf_from_digit, gf_mul, gf_one, lf_mul


def random_bank(
    params: FieldParams,
    seed: int,
    *,
    unitary: bool = True,
    max_delay: int = 0,
    noise: float = 1e-2,
) -> FilterBank:
    """Seeded random bank of q masks: a random unitary coefficient matrix,
    optionally spread over delayed polyphase components, and optionally
    perturbed so the tight-frame identities fail by about ``noise``.
    """
    q = params.q
    rng = np.random.default_rng([0xBA, seed])
    unitary_matrix = _seeded_unitary(q, 0xBB, seed)
    delays = rng.integers(0, max_delay + 1, size=q) if max_delay else np.zeros(q, dtype=int)
    length = int(q * delays.max() + q)
    coeffs = np.zeros((q, length), dtype=np.complex128)
    for r in range(q):
        coeffs[:, q * int(delays[r]) + r] = unitary_matrix[:, r]
    if not unitary:
        bump = rng.standard_normal(coeffs.shape) + 1j * rng.standard_normal(coeffs.shape)
        coeffs = coeffs + noise * bump
    masks = [Mask(params, coeffs[l]) for l in range(q)]
    return FilterBank(params, masks[0], tuple(masks[1:]))


def long_pair(params: FieldParams, delay: int, seed: int) -> FramePair:
    """An orthogonal pair of long masks, built as the benchmark's ``longpair``
    input is: in two banks of Haar rows, polyphase component r of every
    mask moves to slot q*d_r + r (d_r seeded, the last one ``delay``), and
    the wavelets mix through the two halves of the columns of a seeded
    constant 2L x 2L unitary.  The masks are q*delay + q long."""
    q = params.q
    rows = np.array([m.coeffs for m in haar_bank(params).masks])
    banks = []
    for key in (seed, seed + 1):
        delays = np.random.default_rng([0x10, key, q]).integers(0, delay + 1, size=q)
        delays[-1] = delay
        coeffs = np.zeros((q, q * delay + q), dtype=np.complex128)
        for r in range(q):
            coeffs[:, q * int(delays[r]) + r] = rows[:, r]
        banks.append(coeffs)
    mixing = _seeded_unitary(2 * (q - 1), 0xA1, seed)
    halves = []
    for coeffs, columns in zip(banks, (slice(0, q - 1), slice(q - 1, None))):
        wavelets = mixing[:, columns] @ coeffs[1:]
        halves.append(FilterBank(params, Mask(params, coeffs[0]),
                                 tuple(Mask(params, row) for row in wavelets)))
    return FramePair(*halves)


def delta_mask(params: FieldParams, value: complex = 1.0, slot: int = 0, stride: int = 1) -> Mask:
    coeffs = np.zeros(slot + 1, dtype=np.complex128)
    coeffs[slot] = value
    return Mask(params, coeffs, stride)


def mask_scale(m: Mask, scalar: complex) -> Mask:
    return Mask(m.params, m.coeffs * scalar, m.stride)


def code_tables(params: FieldParams):
    """add[a, b] and mul[a, b] on the digit codes of GF(q), through the
    carry-free sum and the exp/log product of the reference route."""
    q = params.q
    digits = [FieldElement(params, 0, (a,)) for a in range(q)]
    add = np.array([[index_add(params, a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[lf_mul(x, y).digit_at(0) for y in digits] for x in digits])
    return add, mul


@functools.lru_cache(maxsize=None)
def _shift_map_cached(params: FieldParams, depth: int) -> np.ndarray:
    """SHIFT[g, k] = grid index of xi_g + t*u(k): digit 0 moves by k in GF(q)."""
    q = params.q
    add = np.array([[index_add(params, a, k) for k in range(q)] for a in range(q)])
    g = np.arange(q ** depth, dtype=np.int64)
    base = g - (g % q)
    return base[:, None] + add[g % q, :]


def shift_map(params: FieldParams, depth: int) -> np.ndarray:
    out = _shift_map_cached(params, depth)
    out.flags.writeable = False
    return out


def reference_character_transform(coeffs: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """The allocating route: every digit step makes a new array, and the
    argument is left as it was."""
    m, n = coeffs.shape
    q = factor.shape[0]
    out = coeffs
    size = 1
    while size < n:
        out = (out.reshape(-1, q) @ factor).reshape(m, -1, q).transpose(0, 2, 1)
        size *= q
    return out.reshape(m, n)


def reference_block(masks, base: int = 1):
    """The block of ``coefficient_block``, built one row at a time: a
    stride-s mask's trimmed coefficients fill every (s/base)-th column."""
    width = max(((len(m.coeffs) - 1) * m.stride // base + 1 for m in masks if len(m.coeffs)),
                default=0)
    block = np.zeros((len(masks), width), dtype=np.complex128)
    for row, m in zip(block, masks):
        row[:: max(m.stride // base, 1)][: len(m.coeffs)] = m.coeffs
    return block, tuple(m.stride for m in masks)


def mask_adjoint(m: Mask) -> Mask:
    """Mask of the conjugated symbol: conjugate coefficients at negated indices."""
    occupied = np.flatnonzero(m.coeffs)
    slots = [index_sub(m.params, 0, int(k) * m.stride) // m.stride for k in occupied]
    coeffs = np.zeros(max(slots, default=-1) + 1, dtype=np.complex128)
    coeffs[slots] = np.conj(m.coeffs[occupied])  # negation permutes the slots
    return Mask(m.params, coeffs, m.stride)


def gf_zero(params: FieldParams) -> GFElem:
    return GFElem(params, (0,) * params.c)


def gf_neg(a: GFElem) -> GFElem:
    p = a.params.p
    return GFElem(a.params, tuple((-x) % p for x in a.coords))


def gf_inv(a: GFElem) -> GFElem:
    """Multiplicative inverse by exhaustive search (q is desk-scale)."""
    if a.is_zero():
        raise ParameterError("zero has no multiplicative inverse")
    one = gf_one(a.params)
    for code in range(1, a.params.q):
        b = gf_from_digit(a.params, code)
        if gf_mul(a, b) == one:
            return b
    raise ParameterError("no inverse found; field parameters are inconsistent")


def fe_one(params: FieldParams) -> FieldElement:
    return FieldElement(params, 0, (1,))
