"""Construction algorithms: the canonical exact bank, paraunitary symbol
matrices, the split-column derivation of orthogonal frame pairs, and the
column-family construction of pairwise-orthogonal tight frames.

A paraunitary matrix here is a square array of stride-q symbol masks that is
unitary at every evaluation point.  Mixing an existing bank's wavelet masks
through its columns preserves the tight-frame property and makes distinct
outputs orthogonal, because distinct columns are pointwise orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, ParameterError
from .galois import FieldParams, field_tables
from .mask import (
    CheckReport,
    FilterBank,
    Mask,
    character_table,
    check_mixed_orthogonality,
    check_uep,
    covering_depth,
    delta_mask,
    gram_deviation,
    mask_add,
    mask_mul,
    representative_symbols,
    sweep_report,
    trim_mask,
    zero_mask,
    DEFAULT_MATRIX_TOL,
)

TRIM_CUTOFF = 1e-14
GRAM_SCHMIDT_RETRIES = 8


def bank_depth(*banks: FilterBank) -> int:
    return covering_depth(max(b.max_index for b in banks), banks[0].params.q)


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
        flat = [m for row in self.entries for m in row]
        a = representative_symbols(flat, depth).reshape(self.size, self.size, -1)
        dev = gram_deviation(a.transpose(0, 2, 1))
        q = self.params.q
        return sweep_report("paraunitary", depth, depth, np.repeat(dev, q), tol, self.params)

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
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"bad paraunitary object: {exc}") from exc


def _qr_unitary(rng: np.random.Generator, size: int) -> np.ndarray | None:
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    qmat, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat)
    if np.min(np.abs(diag)) < 1e-8:
        return None
    return qmat * (diag / np.abs(diag))


def constant_paraunitary(params: FieldParams, size: int, seed: int) -> Paraunitary:
    """Gram-Schmidt of a seeded random complex matrix, as constant symbols."""
    if size < 1:
        raise ParameterError("size must be at least 1")
    unitary = None
    for attempt in range(GRAM_SCHMIDT_RETRIES):
        unitary = _qr_unitary(np.random.default_rng([0xC0, seed, attempt]), size)
        if unitary is not None:
            break
    if unitary is None:
        raise ConstructionError("Gram-Schmidt failed for every reseeding attempt")
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
    entries = []
    for i in range(size):
        row = []
        for j in range(size):
            if i != j:
                row.append(zero_mask(params, q))
            elif i == position:
                row.append(delta_mask(params, 1.0, slot=delay, stride=q))
            else:
                row.append(delta_mask(params, 1.0, slot=0, stride=q))
        entries.append(tuple(row))
    return Paraunitary(params, size, tuple(entries))


def mask_adjoint(m: Mask) -> Mask:
    """Mask of the conjugated symbol: conjugate coefficients at negated indices."""
    from .localfield import index_sub

    if m.is_zero():
        return m
    slots = {}
    for slot, u in enumerate(m.coeffs):
        if u == 0:
            continue
        neg = index_sub(m.params, 0, slot * m.stride)
        slots[neg // m.stride] = np.conj(u)
    coeffs = np.zeros(max(slots) + 1, dtype=np.complex128)
    for slot, u in slots.items():
        coeffs[slot] = u
    return Mask(m.params, coeffs, m.stride)


def paraunitary_adjoint(a: Paraunitary) -> Paraunitary:
    """Entry-wise adjoint transpose; compose(a, paraunitary_adjoint(a)) = I."""
    entries = tuple(
        tuple(mask_adjoint(a.entries[j][i]) for j in range(a.size)) for i in range(a.size)
    )
    return Paraunitary(a.params, a.size, entries)


def compose(a: Paraunitary, b: Paraunitary) -> Paraunitary:
    """Entry-wise mask product of two paraunitary matrices (a then b: A*B)."""
    if a.params != b.params or a.size != b.size:
        raise ParameterError("composed matrices must share field and size")
    size = a.size
    entries = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = zero_mask(a.params, a.params.q)
            for k in range(size):
                acc = mask_add(acc, mask_mul(a.entries[i][k], b.entries[k][j]))
            row.append(trim_mask(acc, TRIM_CUTOFF))
        entries.append(tuple(row))
    return Paraunitary(a.params, size, tuple(entries))


def seeded_paraunitary(params: FieldParams, size: int, seed: int) -> Paraunitary:
    """Deterministic mix of constant unitaries and unit delay blocks.

    At most two delay factors, so symbol supports stay small enough for the
    default experiment signal sizes.
    """
    rng = np.random.default_rng([0x9A, seed])
    out = constant_paraunitary(params, size, seed)
    for step in range(int(rng.integers(1, 3))):
        position = int(rng.integers(size))
        out = compose(out, delay_block(params, size, position, 1))
        out = compose(out, constant_paraunitary(params, size, seed + step + 1))
    return out


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

    def to_json(self, provenance: dict | None = None) -> dict:
        obj = {"primal": self.primal.to_json(), "dual": self.dual.to_json()}
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


def _mix_wavelets(matrix: Paraunitary, column_offset: int, wavelets) -> list:
    """Row k of the output: sum_l entries[k][column_offset+l] * wavelets[l]."""
    length = len(wavelets)
    out = []
    for k in range(matrix.size):
        acc = zero_mask(matrix.params, 1)
        for l in range(length):
            acc = mask_add(acc, mask_mul(matrix.entries[k][column_offset + l], wavelets[l]))
        out.append(trim_mask(acc, TRIM_CUTOFF))
    return out


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
    for name, bank in (("primal", bank_in), ("dual", bank_in_dual)):
        report = check_uep(bank, bank_depth(bank))
        if not report.passed:
            raise ConstructionError(f"{name} input bank fails the tight-frame check", report)
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
    report = check_uep(bank, bank_depth(bank))
    if not report.passed:
        raise ConstructionError("input bank fails the tight-frame check", report)
    families = []
    for r in range(matrix.size):
        wavelets = []
        for m_n in bank.wavelets:
            for l in range(matrix.size):
                wavelets.append(trim_mask(mask_mul(matrix.entries[l][r], m_n), TRIM_CUTOFF))
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
    unitary_matrix = None
    for attempt in range(GRAM_SCHMIDT_RETRIES):
        unitary_matrix = _qr_unitary(np.random.default_rng([0xBB, seed, attempt]), q)
        if unitary_matrix is not None:
            break
    if unitary_matrix is None:
        raise ConstructionError("could not draw a unitary coefficient matrix")
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
