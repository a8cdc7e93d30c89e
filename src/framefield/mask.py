"""Framelet symbols (masks), modulation and polyphase matrices, and the
grid-sweep checkers that certify tight-frame and orthogonality conditions.

A mask with coefficients h_k and stride t evaluates as

    m(xi) = q**-0.5 * sum_k h_k * conj(chi_{k*t}(xi)),

finitely supported, hence constant on cosets of B^s once its support fits
below q^s.  Sweeping the depth-s grid therefore checks the defining matrix
identities exactly on all of the ring of integers, not just on samples.

Stride-q masks serve as "integral periodic" symbols (polyphase components,
paraunitary entries).  Their symbol value carries no q**-0.5 factor; use
``eval_symbol`` for that convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DepthError, ParameterError
from .galois import FieldParams, field_tables
from .localfield import (
    FieldElement,
    check_grid_points,
    chi_n,
    fe_prime_power,
    grid_point,
    lf_add,
    lf_mul,
    u_map,
)

DEFAULT_MATRIX_TOL = 1e-10
DEFAULT_CASCADE_TOL = 1e-8
# coefficients the symbol-domain algebra leaves below this are rounding
TRIM_CUTOFF = 1e-14


def _is_power_of(value: int, base: int) -> bool:
    if value < 1:
        return False
    while value % base == 0:
        value //= base
    return value == 1


@dataclass(frozen=True)
class Mask:
    """Finite complex coefficient sequence on the index lattice stride*N0."""

    params: FieldParams
    coeffs: np.ndarray
    stride: int = 1

    def __post_init__(self):
        if self.stride != 1 and not _is_power_of(self.stride, self.params.q):
            raise ParameterError(f"stride must be a power of q, got {self.stride}")
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1:
            raise ParameterError("coefficients must be one-dimensional")
        nz = np.nonzero(coeffs)[0]
        coeffs = coeffs[: nz[-1] + 1].copy() if nz.size else np.zeros(0, dtype=np.complex128)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self):
        return len(self.coeffs)

    @property
    def max_index(self) -> int:
        """Largest occupied index on the integer lattice (-1 for the zero mask)."""
        return (len(self.coeffs) - 1) * self.stride if len(self.coeffs) else -1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def to_json(self, role: str | None = None) -> dict:
        obj = {
            "stride": self.stride,
            "coeffs": [[float(z.real), float(z.imag)] for z in self.coeffs],
        }
        if role is not None:
            obj = {"role": role, **obj}
        return obj

    @classmethod
    def from_json(cls, params: FieldParams, obj: dict) -> "Mask":
        try:
            coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]], dtype=np.complex128)
            stride = int(obj.get("stride", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"bad mask object: {exc}") from exc
        # checked here, where input enters, rather than on every Mask the
        # algebra builds from finite values
        if not np.isfinite(coeffs).all():
            raise ParameterError("mask coefficients must be finite")
        return cls(params, coeffs, stride)


def zero_mask(params: FieldParams, stride: int = 1) -> Mask:
    return Mask(params, np.zeros(0), stride)


def delta_mask(params: FieldParams, value: complex = 1.0, slot: int = 0, stride: int = 1) -> Mask:
    coeffs = np.zeros(slot + 1, dtype=np.complex128)
    coeffs[slot] = value
    return Mask(params, coeffs, stride)


def _require_normalized(m0_at_zero: complex) -> None:
    if abs(m0_at_zero - 1.0) > 1e-12:
        raise ParameterError(f"refinement mask is not normalized: m0(0) = {m0_at_zero}")


@dataclass(frozen=True)
class FilterBank:
    """A refinement mask plus wavelet masks over shared field parameters."""

    params: FieldParams
    m0: Mask
    wavelets: tuple

    def __post_init__(self):
        wavelets = tuple(self.wavelets)
        for m in (self.m0, *wavelets):
            if m.params != self.params:
                raise ParameterError("all masks of a bank must share field parameters")
        object.__setattr__(self, "wavelets", wavelets)

    @property
    def masks(self) -> tuple:
        return (self.m0, *self.wavelets)

    @property
    def n_wavelets(self) -> int:
        return len(self.wavelets)

    @property
    def max_index(self) -> int:
        return max(m.max_index for m in self.masks)

    def to_json(self) -> dict:
        return {
            "field": self.params.to_json(),
            "masks": [self.m0.to_json(role="m0")]
            + [m.to_json(role="wavelet") for m in self.wavelets],
        }

    @classmethod
    def from_json(cls, obj: dict, *, require_normalized: bool = True) -> "FilterBank":
        try:
            params = FieldParams.from_json(obj["field"])
            m0 = None
            wavelets = []
            for mobj in obj["masks"]:
                mask = Mask.from_json(params, mobj)
                if mobj.get("role") == "m0":
                    if m0 is not None:
                        raise ParameterError("bank declares more than one refinement mask")
                    m0 = mask
                else:
                    wavelets.append(mask)
            if m0 is None:
                raise ParameterError("bank declares no refinement mask")
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"bad bank object: {exc}") from exc
        bank = cls(params, m0, tuple(wavelets))
        if require_normalized:
            from .localfield import fe_zero

            _require_normalized(eval_mask(m0, fe_zero(params)))
        return bank


@dataclass(frozen=True)
class MatrixSample:
    """A modulation or polyphase matrix evaluated at one point."""

    point: FieldElement
    entries: np.ndarray
    kind: str


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification sweep."""

    condition: str
    grid_depth: int
    max_deviation: float
    tolerance: float
    passed: bool
    worst_point: FieldElement | None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "grid_depth": self.grid_depth,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "worst_point": None if self.worst_point is None else self.worst_point.to_json(),
            "details": self.details,
        }

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.condition}: max deviation {self.max_deviation:.3e} "
            f"(tol {self.tolerance:.1e}, depth {self.grid_depth})"
        )


def make_report(condition, depth, deviations, tol, params, details=None) -> CheckReport:
    """Fold a per-grid-point deviation array into a report (first argmax wins)."""
    worst = int(np.argmax(deviations))
    max_dev = float(deviations[worst])
    return CheckReport(
        condition=condition,
        grid_depth=depth,
        max_deviation=max_dev,
        tolerance=tol,
        passed=bool(max_dev <= tol),
        worst_point=grid_point(params, depth, worst),
        details=details or {},
    )


# ---------------------------------------------------------------------------
# evaluation


def eval_mask(m: Mask, xi: FieldElement) -> complex:
    """Exact single-point evaluation through the character definition.

    This is the reference route: each term goes through u(n), lf_mul and chi
    on exact field elements, independently of the table-driven grid kernels.
    """
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


@functools.lru_cache(maxsize=None)
def _tmod(params: FieldParams) -> np.ndarray:
    """tmod[a, b]: character exponent of the product of digit codes a, b."""
    tab = field_tables(params)
    return tab.proj0[tab.mul]


@functools.lru_cache(maxsize=None)
def _character_factor(params: FieldParams) -> np.ndarray:
    """F[a, x] = conj chi(t * u(a) * u(x)), the one-digit factor of every
    character value: conj chi_j(xi) = prod_d F[j_d, xi_d] over the base-q
    digits of j and the power-d digits of xi."""
    codes = np.arange(params.q, dtype=np.int64)[:, None]
    exps = kernels.exponent_table(codes, codes, _tmod(params), params.p)
    out = kernels.conj_char_matrix(exps, params.p)
    out.flags.writeable = False
    return out


def character_table(params: FieldParams) -> np.ndarray:
    """Unitary q-by-q table V[k, r] = q**-0.5 * conj chi(t * u(r) * u(k)).

    Its rows are the coefficient vectors of the canonical (Haar) bank, and it
    conjugates the modulation matrix into the polyphase matrix.
    """
    return _character_factor(params) / math.sqrt(params.q)


def _fold(coeffs: np.ndarray, size: int) -> np.ndarray:
    """(M, n) coefficient rows as (M, ceil(n/size), size), zero-padded."""
    padded = np.pad(coeffs, ((0, 0), (0, -coeffs.shape[1] % size)))
    return padded.reshape(len(coeffs), -1, size)


def _stride_groups(masks, lift: int = 0):
    """Masks grouped by stride, as (rows, k, coeffs): the group's rows in
    ``masks``, its coefficients zero-padded to one length, and k such that
    at the points t**lift * x the group acts as stride-q**k masks at x.

    A stride-q**k' mask with k' >= lift reads x from power k' - lift on; for
    k' < lift its lowest lift - k' index digits meet zero digits, so the
    coefficients that differ only in those digits add up.
    """
    q = masks[0].params.q
    for stride in sorted({m.stride for m in masks}):
        rows = [i for i, m in enumerate(masks) if m.stride == stride]
        coeffs = np.zeros((len(rows), max(len(masks[i].coeffs) for i in rows)), dtype=np.complex128)
        for r, i in enumerate(rows):
            coeffs[r, : len(masks[i].coeffs)] = masks[i].coeffs
        k = round(math.log(stride, q)) - lift
        if k < 0:
            coeffs = _fold(coeffs, q ** -k).sum(axis=2)
            k = 0
        yield rows, k, coeffs


def _grid_transform(params: FieldParams, coeffs: np.ndarray, depth: int):
    """Values of stride-1 coefficient rows on the depth-e grid, as
    (values, e) with e = min(depth, base-q digits of the last slot).

    Point digits at power e and above meet only zero index digits (and
    index digits at power e and above only zero point digits), so the rows
    fold mod q**e before one character transform.
    """
    q = params.q
    e = 0
    while e < depth and q ** e < coeffs.shape[1]:
        e += 1
    check_grid_points(q, e)
    folded = _fold(coeffs, q ** e).sum(axis=1)
    values = kernels.character_transform(folded, _character_factor(params))
    return values / math.sqrt(q), e


def mask_values_at_digits(masks, point_digits: np.ndarray) -> np.ndarray:
    """Values of several masks at points given by their digit rows.

    ``point_digits[g, i]`` is the digit of point g at power i; digits beyond
    the matrix width are zero.  Returns an array of shape (len(masks), npts).
    """
    params = masks[0].params
    q = params.q
    width = point_digits.shape[1]
    values = np.zeros((len(masks), point_digits.shape[0]), dtype=np.complex128)
    for rows, k, coeffs in _stride_groups(masks):
        table, e = _grid_transform(params, coeffs, width - k)
        values[rows] = table[:, point_digits[:, k : k + e] @ (q ** np.arange(e, dtype=np.int64))]
    return values


def mask_values_on_grid(masks, depth: int, lift: int = 0) -> np.ndarray:
    """Values of several masks at t**lift * x for every point x of the
    depth-s grid, in grid order."""
    params = masks[0].params
    q = params.q
    check_grid_points(q, depth)
    values = np.zeros((len(masks), q ** depth), dtype=np.complex128)
    for rows, k, coeffs in _stride_groups(masks, lift):
        table, e = _grid_transform(params, coeffs, depth - k)
        # grid index g reads the table at (g // q**k) % q**e
        low = q ** min(k, depth)
        values.reshape(len(masks), -1, q ** e, low)[rows] = table[:, None, :, None]
    return values


def masks_from_symbols(params: FieldParams, symbols: np.ndarray, strides, lift: int = 0) -> list:
    """Inverse of sqrt(q) * mask_values_on_grid(masks, e, lift): the masks
    whose symbol values at t**lift * x, for x on the depth-e grid in grid
    order, are the rows of ``symbols`` (M, q**e).

    One inverse character transform gives each row's coefficients on the
    lattice q**lift * N0; a mask of stride s keeps every (s / q**lift)-th of
    them (the others hold only rounding), and coefficients below
    TRIM_CUTOFF become zero.
    """
    # F is sqrt(q) times a unitary table, so F**-1 = conj(F).T / q
    inverse = np.conj(_character_factor(params)).T / params.q
    coeffs = kernels.character_transform(symbols, inverse)
    coeffs = np.where(np.abs(coeffs) < TRIM_CUTOFF, 0.0, coeffs)
    base = params.q ** lift
    return [Mask(params, row[:: s // base], s) for row, s in zip(coeffs, strides)]


@functools.lru_cache(maxsize=None)
def _shift_map_cached(params: FieldParams, depth: int) -> np.ndarray:
    """SHIFT[g, k] = grid index of xi_g + t*u(k): digit 0 moves by k in GF(q)."""
    q = params.q
    add = field_tables(params).add
    g = np.arange(q ** depth, dtype=np.int64)
    base = g - (g % q)
    return base[:, None] + add[g % q, :]


def shift_map(params: FieldParams, depth: int) -> np.ndarray:
    out = _shift_map_cached(params, depth)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# algebra on masks


def mask_mul(a: Mask, b: Mask) -> Mask:
    """Product of two symbols as a mask: convolution under the carry-free
    index group, so that eval(result) = sqrt(q) * eval(a) * eval(b).

    The product of the two symbol samples on the grid that covers both
    supports, transformed back (coefficients below TRIM_CUTOFF become zero).
    """
    if a.params != b.params:
        raise ParameterError("masks belong to different fields")
    q = a.params.q
    stride = math.gcd(a.stride, b.stride)
    lift = round(math.log(stride, q))
    # carry-free sums add digits position by position, so the product's
    # support fits the grid that covers both factors
    depth = covering_depth(max(a.max_index, b.max_index) // stride, q)
    sa, sb = mask_values_on_grid([a, b], depth, lift) * math.sqrt(q)
    return masks_from_symbols(a.params, (sa * sb)[None], [stride], lift)[0]


def mask_add(a: Mask, b: Mask) -> Mask:
    """Coefficient-wise sum on the common index lattice."""
    if a.params != b.params:
        raise ParameterError("masks belong to different fields")
    out_stride = math.gcd(a.stride, b.stride)
    n = max(a.max_index, b.max_index)
    if n < 0:
        return zero_mask(a.params, out_stride)
    coeffs = np.zeros(n // out_stride + 1, dtype=np.complex128)
    for m in (a, b):
        step = m.stride // out_stride
        coeffs[: len(m.coeffs) * step : step] += m.coeffs
    return Mask(a.params, coeffs, out_stride)


def mask_scale(m: Mask, scalar: complex) -> Mask:
    return Mask(m.params, m.coeffs * scalar, m.stride)


def trim_mask(m: Mask, cutoff: float = TRIM_CUTOFF) -> Mask:
    """Zero out coefficients below ``cutoff`` in magnitude."""
    coeffs = np.where(np.abs(m.coeffs) < cutoff, 0.0, m.coeffs)
    return Mask(m.params, coeffs, m.stride)


# ---------------------------------------------------------------------------
# matrices


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
    (n - r)/q; returned as stride-q masks holding the raw coefficients.
    """
    if m.stride != 1:
        raise ParameterError("polyphase decomposition expects a stride-1 mask")
    q = m.params.q
    return [Mask(m.params, m.coeffs[r::q], stride=q) for r in range(q)]


def polyphase_matrix(bank: FilterBank, xi: FieldElement) -> MatrixSample:
    """q x (L+1) matrix of polyphase-component symbol values at xi."""
    comps = [polyphase_split(m) for m in bank.masks]
    entries = np.array(
        [[eval_symbol(comps[l][r], xi) for l in range(len(bank.masks))] for r in range(bank.params.q)],
        dtype=np.complex128,
    )
    return MatrixSample(point=xi, entries=entries, kind="polyphase")


# ---------------------------------------------------------------------------
# grid-sweep checks


def covering_depth(max_index: int, q: int) -> int:
    """Smallest depth s >= 1 with q**s > max_index."""
    depth = 1
    while q ** depth <= max_index:
        depth += 1
    return depth


def _require_depth(depth: int, max_index: int, q: int):
    if depth < 1:
        raise DepthError(f"grid depth must be at least 1, got {depth}")
    if q ** depth < max_index + 1:
        raise DepthError(
            f"grid depth {depth} covers indices below {q ** depth}, "
            f"but the masks reach index {max_index}"
        )


def swept_depth(depth: int, max_index: int, q: int) -> int:
    """Depth a sweep runs at: the requested one, capped at covering depth.

    Masks whose support fits below q^s are constant on cosets of B^s, so a
    deeper grid only repeats the covering-depth values.
    """
    _require_depth(depth, max_index, q)
    return min(depth, covering_depth(max_index, q))


def coset_values(masks, depth: int) -> np.ndarray:
    """Mask values on the depth-s grid as an (M, q^(s-1), q) array:
    entry [l, r, a] is mask l at coset representative r plus a at power 0,
    so [:, r, :] holds the modulation matrix at r up to a column permutation.
    """
    return mask_values_on_grid(masks, depth).reshape(len(masks), -1, masks[0].params.q)


def representative_symbols(masks, depth: int) -> np.ndarray:
    """Symbol values of stride-q masks at the q^(s-1) coset representatives
    (the depth-s points with digit 0 at power 0, in grid order), shape
    (M, q^(s-1)); such symbols ignore the digit at power 0.

    The representatives are t * x for x on the depth-(s-1) grid, where a
    stride-q mask reads x as the stride-1 mask of its raw coefficients.
    """
    return mask_values_on_grid(masks, depth - 1, lift=1) * math.sqrt(masks[0].params.q)


def gram_deviation(cols: np.ndarray) -> np.ndarray:
    """max |A_r* A_r - I| for each matrix A_r = cols[:, r, :] of an (n, R, k)
    stack, so that mask-by-coset arrays need no transpose."""
    gram = np.einsum("lrk,lrj->rkj", np.conj(cols), cols)
    gram -= np.eye(cols.shape[2])
    return np.abs(gram).max(axis=(1, 2))


def sweep_report(condition, depth, swept, deviations, tol, params) -> CheckReport:
    """Report of a sweep at depth ``swept`` <= ``depth``, from one deviation
    per depth-``swept`` grid point.

    The requested grid repeats those values with period q^swept, so its
    first argmax is the first argmax here.
    """
    details = {"swept_depth": swept, "cosets_swept": params.q ** (swept - 1)}
    return make_report(condition, depth, deviations, tol, params, details)


def check_uep(bank: FilterBank, depth: int, tol: float = DEFAULT_MATRIX_TOL) -> CheckReport:
    """Column orthonormality of the modulation matrix at every grid point.

    Across a coset the columns are only permuted, so one Gram per coset
    representative decides all q points.
    """
    params = bank.params
    swept = swept_depth(depth, bank.max_index, params.q)
    dev = gram_deviation(coset_values(bank.masks, swept))
    return sweep_report("uep", depth, swept, np.repeat(dev, params.q), tol, params)


def check_subqmf(m0: Mask, depth: int, tol: float = DEFAULT_MATRIX_TOL) -> CheckReport:
    """One-sided bound sum_k |m0(xi + t*u(k))|^2 <= 1 over the grid."""
    params = m0.params
    swept = swept_depth(depth, m0.max_index, params.q)
    sums = (np.abs(coset_values([m0], swept)[0]) ** 2).sum(axis=1)
    dev = np.maximum(0.0, sums - 1.0)
    return sweep_report("subqmf", depth, swept, np.repeat(dev, params.q), tol, params)


def check_polyphase_unitary(
    bank: FilterBank, depth: int, tol: float = DEFAULT_MATRIX_TOL
) -> CheckReport:
    """Row orthonormality of the polyphase matrix at every grid point."""
    params = bank.params
    q = params.q
    swept = swept_depth(depth, bank.max_index, q)
    comps = []
    for m in bank.masks:
        comps.extend(polyphase_split(m))
    gamma = representative_symbols(comps, swept).reshape(len(bank.masks), q, -1)  # (L+1, q, R)
    # rows of Gamma orthonormal <=> columns of Gamma* orthonormal
    dev = gram_deviation(np.conj(gamma).transpose(0, 2, 1))
    return sweep_report("polyphase_unitary", depth, swept, np.repeat(dev, q), tol, params)


def check_mixed_orthogonality(
    bankA: FilterBank, bankB: FilterBank, depth: int, tol: float = DEFAULT_MATRIX_TOL
) -> CheckReport:
    """Vanishing of the wavelet-only cross Gram between two banks.

    For every grid point and every shift index k (0 included), the two-column
    wavelet matrices at (xi, xi + t*u(k)) must have zero cross product.  At
    the point r + a of a coset these entries are row a, column a and the
    diagonal of the cross Gram C(r) of the representative.
    """
    if bankA.params != bankB.params:
        raise ParameterError("banks belong to different fields")
    if bankA.n_wavelets != bankB.n_wavelets:
        raise ParameterError("banks must have the same number of wavelet masks")
    params = bankA.params
    swept = swept_depth(depth, max(bankA.max_index, bankB.max_index), params.q)
    va = coset_values(bankA.wavelets, swept)
    vb = coset_values(bankB.wavelets, swept)
    cross = np.abs(np.einsum("lrk,lrj->rkj", np.conj(va), vb))
    diag = np.diagonal(cross, axis1=1, axis2=2).max(axis=1)
    dev = np.maximum(np.maximum(cross.max(axis=2), cross.max(axis=1)), diag[:, None])
    return sweep_report("mixed_orthogonality", depth, swept, dev.ravel(), tol, params)
