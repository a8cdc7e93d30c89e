"""Construction algorithms: the canonical exact bank, paraunitary symbol
matrices, the split-column derivation of orthogonal frame pairs, and the
column-family construction of pairwise-orthogonal tight frames.

A paraunitary matrix here is a square array of stride-q symbol masks that is
unitary at every evaluation point.  Mixing an existing bank's wavelet masks
through its columns preserves the tight-frame property and makes distinct
outputs orthogonal, because distinct columns are pointwise orthonormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, ParameterError
from .galois import FieldParams
from .localfield import index_sub
from .mask import (
    CheckReport,
    FilterBank,
    Mask,
    character_table,
    check_mixed_orthogonality,
    check_uep,
    coset_values,
    covering_depth,
    delta_mask,
    gram_deviation,
    masks_from_symbols,
    representative_symbols,
    sweep_report,
    zero_mask,
    DEFAULT_MATRIX_TOL,
)

GRAM_SCHMIDT_RETRIES = 8


def bank_depth(*banks: FilterBank) -> int:
    return covering_depth(max(b.max_index for b in banks), banks[0].params.q)


def require_tight(bank: FilterBank, label: str) -> None:
    """Raise ConstructionError, with the report, unless ``bank`` passes the
    tight-frame (UEP) check at its covering depth."""
    report = check_uep(bank, bank_depth(bank))
    if not report.passed:
        raise ConstructionError(f"{label} bank fails the tight-frame check", report)


def haar_bank(params: FieldParams) -> FilterBank:
    """The local-field Haar bank: rows of the unitary character table.

    The refinement mask is the flat row (all coefficients q**-0.5); wavelet
    j takes the j-th character-table row, so the modulation matrix is
    unitary at every point and every check below passes exactly.
    """
    table = character_table(params)
    masks = [Mask(params, table[j, :]) for j in range(params.q)]
    return FilterBank(params, masks[0], tuple(masks[1:]))


@dataclass(frozen=True)
class Paraunitary:
    """Square matrix of stride-q symbols, unitary at every grid point."""

    params: FieldParams
    size: int
    entries: tuple

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        if len(entries) != self.size or any(len(row) != self.size for row in entries):
            raise ParameterError(f"entries must form a {self.size}x{self.size} matrix")
        for row in entries:
            for m in row:
                if m.params != self.params:
                    raise ParameterError("entries must share the matrix field parameters")
                if not m.is_zero() and m.stride % self.params.q != 0:
                    raise ParameterError("paraunitary entries must be stride-q symbols")
        object.__setattr__(self, "entries", entries)
        report = self.unitarity_report()
        if not report.passed:
            raise ConstructionError(
                f"matrix is not paraunitary (deviation {report.max_deviation:.3e})", report
            )

    @property
    def max_index(self) -> int:
        return max(m.max_index for row in self.entries for m in row)

    def depth(self) -> int:
        return covering_depth(self.max_index, self.params.q)

    def unitarity_report(self, tol: float = DEFAULT_MATRIX_TOL) -> CheckReport:
        """Column orthonormality at every covering-depth grid point.  The
        stride-q entries ignore the digit at power 0, so each coset
        representative decides its q points."""
        depth = self.depth()
        dev = gram_deviation(self.symbols(depth).transpose(1, 0, 2))
        q = self.params.q
        return sweep_report("paraunitary", depth, depth, np.repeat(dev, q), tol, self.params)

    def symbols(self, depth: int) -> np.ndarray:
        """Entry symbols at the depth-s coset representatives, (R, size, size)."""
        flat = [m for row in self.entries for m in row]
        values = representative_symbols(flat, depth).reshape(self.size, self.size, -1)
        return values.transpose(2, 0, 1)

    @classmethod
    def from_symbols(cls, params: FieldParams, symbols: np.ndarray) -> "Paraunitary":
        """The matrix whose entry symbols at the coset representatives of
        some depth are the (R, size, size) stack ``symbols``, certified."""
        size = symbols.shape[1]
        rows = symbols.transpose(1, 2, 0).reshape(size * size, -1)
        flat = masks_from_symbols(params, rows, [params.q] * size * size, lift=1)
        return cls(params, size, tuple(flat[i * size : (i + 1) * size] for i in range(size)))

    def to_json(self) -> dict:
        return {
            "field": self.params.to_json(),
            "size": self.size,
            "entries": [[m.to_json() for m in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict, params: FieldParams | None = None) -> "Paraunitary":
        try:
            if params is None:
                params = FieldParams.from_json(obj["field"])
            entries = tuple(
                tuple(Mask.from_json(params, m) for m in row) for row in obj["entries"]
            )
            return cls(params, int(obj["size"]), entries)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"bad paraunitary object: {exc}") from exc


def _seeded_unitary(size: int, *key: int) -> np.ndarray:
    """Gram-Schmidt of a random complex matrix drawn from the seed ``key``,
    redrawn while a pivot is near zero."""
    if size < 1:
        raise ParameterError("size must be at least 1")
    for attempt in range(GRAM_SCHMIDT_RETRIES):
        rng = np.random.default_rng([*key, attempt])
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        qmat, rmat = np.linalg.qr(z)
        diag = np.diagonal(rmat)
        if np.min(np.abs(diag)) >= 1e-8:
            return qmat * (diag / np.abs(diag))
    raise ConstructionError("Gram-Schmidt failed for every reseeding attempt")


def constant_paraunitary(params: FieldParams, size: int, seed: int) -> Paraunitary:
    """Gram-Schmidt of a seeded random complex matrix, as constant symbols."""
    unitary = _seeded_unitary(size, 0xC0, seed)
    q = params.q
    entries = tuple(
        tuple(delta_mask(params, unitary[i, j], slot=0, stride=q) for j in range(size))
        for i in range(size)
    )
    return Paraunitary(params, size, entries)


def delay_block(params: FieldParams, size: int, position: int, delay: int) -> Paraunitary:
    """Identity matrix with one diagonal entry replaced by a pure delay symbol."""
    if not (0 <= position < size):
        raise ParameterError("delay position out of range")
    if delay < 0:
        raise ParameterError("delay must be non-negative")
    q = params.q
    entries = [[zero_mask(params, q) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        entries[i][i] = delta_mask(params, 1.0, slot=delay if i == position else 0, stride=q)
    return Paraunitary(params, size, entries)


def mask_adjoint(m: Mask) -> Mask:
    """Mask of the conjugated symbol: conjugate coefficients at negated indices."""
    occupied = np.flatnonzero(m.coeffs)
    slots = [index_sub(m.params, 0, int(k) * m.stride) // m.stride for k in occupied]
    coeffs = np.zeros(max(slots, default=-1) + 1, dtype=np.complex128)
    coeffs[slots] = np.conj(m.coeffs[occupied])  # negation permutes the slots
    return Mask(m.params, coeffs, m.stride)


def paraunitary_adjoint(a: Paraunitary) -> Paraunitary:
    """Entry-wise adjoint transpose; compose(a, paraunitary_adjoint(a)) = I."""
    entries = tuple(
        tuple(mask_adjoint(a.entries[j][i]) for j in range(a.size)) for i in range(a.size)
    )
    return Paraunitary(a.params, a.size, entries)


def compose(a: Paraunitary, b: Paraunitary) -> Paraunitary:
    """Entry-wise mask product of two paraunitary matrices (a then b: A*B),
    as one matrix product per coset representative of the covering depth."""
    if a.params != b.params or a.size != b.size:
        raise ParameterError("composed matrices must share field and size")
    depth = covering_depth(max(a.max_index, b.max_index), a.params.q)
    return Paraunitary.from_symbols(a.params, a.symbols(depth) @ b.symbols(depth))


def seeded_paraunitary(params: FieldParams, size: int, seed: int) -> Paraunitary:
    """Deterministic mix of constant unitaries and unit delay blocks.

    At most two delay factors, so symbol supports stay small enough for the
    default experiment signal sizes.  The factors are multiplied as symbol
    samples at the coset representatives, and the product is transformed
    back and certified once.
    """
    rng = np.random.default_rng([0x9A, seed])
    # the unit delay reaches index q, and carry-free products stay on the
    # grid that covers their factors: every factor is sampled at depth 2
    delay = representative_symbols([delta_mask(params, 1.0, slot=1, stride=params.q)], 2)[0]
    prod = np.repeat(_seeded_unitary(size, 0xC0, seed)[None], len(delay), axis=0)
    for step in range(int(rng.integers(1, 3))):
        position = int(rng.integers(size))
        prod[:, :, position] *= delay[:, None]  # times delay_block(params, size, position, 1)
        prod = prod @ _seeded_unitary(size, 0xC0, seed + step + 1)
    return Paraunitary.from_symbols(params, prod)


@dataclass(frozen=True)
class FramePair:
    """A primal/dual pair of filter banks with matching generator counts."""

    primal: FilterBank
    dual: FilterBank

    def __post_init__(self):
        if self.primal.params != self.dual.params:
            raise ParameterError("pair members must share field parameters")
        if self.primal.n_wavelets != self.dual.n_wavelets:
            raise ParameterError("pair members must have equal generator counts")

    @property
    def params(self) -> FieldParams:
        return self.primal.params

    def to_json(self, provenance: dict | None = None, mask_json=Mask.to_json) -> dict:
        obj = {"primal": self.primal.to_json(mask_json), "dual": self.dual.to_json(mask_json)}
        if provenance is not None:
            obj["provenance"] = provenance
        return obj

    @classmethod
    def from_json(cls, obj: dict, *, require_normalized: bool = True) -> "FramePair":
        try:
            primal = FilterBank.from_json(obj["primal"], require_normalized=require_normalized)
            dual = FilterBank.from_json(obj["dual"], require_normalized=require_normalized)
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"bad frame pair object: {exc}") from exc
        return cls(primal, dual)


def _product_symbols(matrix: Paraunitary, wavelets):
    """Samples for products of matrix entries with wavelet masks on the grid
    that covers both: entry symbols at the coset representatives,
    (R, size, size), and wavelet symbols on the grid, (L, R, q)."""
    q = matrix.params.q
    depth = covering_depth(max([matrix.max_index] + [w.max_index for w in wavelets]), q)
    return matrix.symbols(depth), coset_values(wavelets, depth) * math.sqrt(q)


def _mix_wavelets(matrix: Paraunitary, column_offset: int, wavelets) -> list:
    """Row k of the output: sum_l entries[k][column_offset+l] * wavelets[l]."""
    entries, values = _product_symbols(matrix, wavelets)
    block = entries[:, :, column_offset : column_offset + len(wavelets)]
    out = np.einsum("Rkl,lRa->kRa", block, values).reshape(matrix.size, -1)
    return masks_from_symbols(matrix.params, out, [1] * matrix.size)


def derive_pair(
    primal_wavelets,
    dual_wavelets,
    m0: Mask,
    m0_dual: Mask,
    matrix: Paraunitary,
) -> FramePair:
    """Mix two certified banks through the split columns of a paraunitary
    matrix of size 2L: the first L columns act on the primal wavelets, the
    last L on the dual wavelets.  Scaling masks pass through unchanged.
    """
    primal_wavelets = list(primal_wavelets)
    dual_wavelets = list(dual_wavelets)
    length = len(primal_wavelets)
    if len(dual_wavelets) != length:
        raise ParameterError("primal and dual wavelet lists must have equal length")
    if matrix.size != 2 * length:
        raise ParameterError(f"matrix size {matrix.size} != 2L = {2 * length}")
    bank_in = FilterBank(m0.params, m0, tuple(primal_wavelets))
    bank_in_dual = FilterBank(m0_dual.params, m0_dual, tuple(dual_wavelets))
    require_tight(bank_in, "primal input")
    require_tight(bank_in_dual, "dual input")
    primal_out = _mix_wavelets(matrix, 0, primal_wavelets)
    dual_out = _mix_wavelets(matrix, length, dual_wavelets)
    return FramePair(
        primal=FilterBank(m0.params, m0, tuple(primal_out)),
        dual=FilterBank(m0_dual.params, m0_dual, tuple(dual_out)),
    )


def certify_pair(pair: FramePair, depth: int | None = None, tol: float = DEFAULT_MATRIX_TOL):
    """Tight-frame checks on both members plus the mixed-orthogonality check."""
    depth = depth or bank_depth(pair.primal, pair.dual)
    return [
        check_uep(pair.primal, depth, tol),
        check_uep(pair.dual, depth, tol),
        check_mixed_orthogonality(pair.primal, pair.dual, depth, tol),
    ]


def orthogonal_family(bank: FilterBank, matrix: Paraunitary) -> list:
    """One output bank per matrix column r: wavelets a[l][r] * m_n over all
    input wavelets n and rows l, scaling mask unchanged.  The outputs are
    tight and pairwise orthogonal.
    """
    if bank.params != matrix.params:
        raise ParameterError("bank and matrix must share field parameters")
    require_tight(bank, "input")
    entries, values = _product_symbols(matrix, bank.wavelets)
    families = []
    for c in range(matrix.size):
        # products [n, l] = entries[l][c] * wavelet n, on the two strides' common lattice
        out = np.einsum("Rl,nRa->nlRa", entries[:, :, c], values)
        strides = [math.gcd(matrix.entries[l][c].stride, m_n.stride)
                   for m_n in bank.wavelets for l in range(matrix.size)]
        wavelets = masks_from_symbols(bank.params, out.reshape(len(strides), -1), strides)
        families.append(FilterBank(bank.params, bank.m0, tuple(wavelets)))
    return families


def certify_family(families, depth: int | None = None, tol: float = DEFAULT_MATRIX_TOL):
    """UEP report per family plus one mixed report per unordered pair."""
    depth = depth or bank_depth(*families)
    reports = [check_uep(bank, depth, tol) for bank in families]
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            reports.append(check_mixed_orthogonality(families[i], families[j], depth, tol))
    return reports
