"""Construction algorithms: the canonical exact bank, paraunitary symbol
matrices, the split-column derivation of orthogonal frame pairs, and the
column-family construction of pairwise-orthogonal tight frames.

A paraunitary matrix here is a square array of stride-q symbol masks that is
unitary at every evaluation point.  Mixing an existing bank's wavelet masks
through its columns preserves the tight-frame property and makes distinct
outputs orthogonal, because distinct columns are pointwise orthonormal.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ConstructionError, ParameterError, SizeError
from .galois import FieldParams, addressable, json_int
from .localfield import index_sub
from .mask import (
    CheckReport,
    CoefficientBlock,
    FilterBank,
    FramePair,
    block_masks,
    character_table,
    check_mixed_orthogonality,
    check_uep,
    coefficient_rows,
    coset_values,
    covering_depth,
    gram_deviation,
    require_tight,
    row_json,
    sweep_report,
    _grid_transform,
    _trimmed_columns,
    DEFAULT_MATRIX_TOL,
    GRAM_BLOCK,
)

GRAM_SCHMIDT_RETRIES = 8


def haar_bank(params: FieldParams) -> FilterBank:
    """The local-field Haar bank: rows of the unitary character table.

    The refinement mask is the flat row (all coefficients q**-0.5); wavelet
    j takes the j-th character-table row, so the modulation matrix is
    unitary at every point and every check below passes exactly.
    """
    return FilterBank._of_block(params, character_table(params))


class Paraunitary(CoefficientBlock):
    """Square matrix of stride-q symbols, unitary at every grid point: a
    block on the stride-q lattice, row i*size + j holding entry (i, j),
    certified when it is made, from masks or from a block."""

    lattice_power = 1

    def __init__(self, params: FieldParams, size: int, entries):
        entries = tuple(tuple(row) for row in entries)
        _check_grid(entries, size)
        super().__init__(params, [m for row in entries for m in row])
        self._certified()

    @classmethod
    def _of_block(cls, params: FieldParams, coeffs: np.ndarray, strides=None) -> "Paraunitary":
        """The block of :meth:`CoefficientBlock._of_block`, certified; every
        other constructor and the file reader make their matrix here."""
        return super()._of_block(params, coeffs, strides)._certified()

    def _certified(self) -> "Paraunitary":
        report = self.unitarity_report()
        if not report.passed:
            message = f"matrix is not paraunitary (deviation {report.max_deviation:.3e})"
            raise ConstructionError(message, report)
        return self

    @property
    def size(self) -> int:
        return math.isqrt(len(self.coeffs))

    @functools.cached_property
    def entries(self) -> tuple:
        """The entries as masks, row by row."""
        flat, size = self._masks(), self.size
        return tuple(flat[i * size : (i + 1) * size] for i in range(size))

    def unitarity_report(self, tol: float = DEFAULT_MATRIX_TOL) -> CheckReport:
        """Column orthonormality at every covering-depth grid point.  The
        stride-q entries ignore the digit at power 0, so each coset
        representative decides its q points."""
        depth = self.depth()
        dev = gram_deviation(self.symbols(depth).transpose(1, 0, 2))
        return sweep_report("paraunitary", depth, depth, dev, tol, self.params)

    def symbols(self, depth: int, columns: slice = slice(None)) -> np.ndarray:
        """Symbols of the entries in ``columns`` at the depth-s coset
        representatives, (R, size, columns): the block's values at t*x for x
        on the depth-(s-1) grid, from one transform of those entries' rows."""
        rows = self.coeffs.reshape(self.size, self.size, -1)[:, columns]
        table = _grid_transform(self.params, rows.reshape(-1, rows.shape[2]), depth - 1)
        table *= math.sqrt(self.params.q)
        return table.reshape(rows.shape[0], rows.shape[1], -1).transpose(2, 0, 1)

    @classmethod
    def from_symbols(cls, params: FieldParams, symbols: np.ndarray) -> "Paraunitary":
        """The matrix whose entry symbols at the coset representatives of
        some depth are the (R, size, size) stack ``symbols``.  The stack is
        copied into entry rows once and not used again, so a stack that no
        caller holds is freed before the inverse transform runs."""
        size = symbols.shape[1]
        rows = np.array(symbols.transpose(1, 2, 0), dtype=np.complex128, order="C")
        del symbols
        block = _trimmed_columns(coefficient_rows(params, rows.reshape(size * size, -1)))
        del rows  # only the trimmed block is kept while it is certified
        return cls._of_block(params, block)

    def to_json(self) -> dict:
        flat, size = self._rows_json(row_json, [None] * len(self.coeffs)), self.size
        entries = [flat[i * size : (i + 1) * size] for i in range(size)]
        return {"field": self.params.to_json(), "size": size, "entries": entries}

    @classmethod
    def from_json(cls, obj: dict) -> "Paraunitary":
        params, _ = matrix_header(obj)
        return cls._of_entries(params, itertools.chain.from_iterable(obj["entries"]))


def _check_grid(entries, size: int) -> None:
    if size < 1:
        raise ParameterError(f"matrix size must be at least 1, got {size}")
    if len(entries) != size or any(len(row) != size for row in entries):
        raise ParameterError(f"entries must form a {size}x{size} matrix")


def matrix_header(obj: dict) -> tuple:
    """The field and size of a ``Paraunitary.to_json`` object, read before its entries."""
    try:
        params, size = FieldParams.from_json(obj["field"]), json_int(obj["size"], "size")
        _check_grid(obj["entries"], size)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad paraunitary object: {exc}") from exc
    return params, size


def _seeded_unitary(size: int, *key: int) -> np.ndarray:
    """Gram-Schmidt of a random complex matrix drawn from the seed ``key``,
    redrawn while a pivot is near zero."""
    if size < 1:
        raise ParameterError("size must be at least 1")
    if not addressable(size, 2, 16):
        raise SizeError(f"a {size}x{size} unitary exceeds the address space")
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
    return Paraunitary._of_block(params, unitary.reshape(size * size, 1))


def delay_block(params: FieldParams, size: int, position: int, delay: int) -> Paraunitary:
    """Identity matrix with one diagonal entry replaced by a pure delay symbol."""
    if not (0 <= position < size):
        raise ParameterError("delay position out of range")
    if delay < 0:
        raise ParameterError("delay must be non-negative")
    block = np.zeros((size * size, delay + 1), dtype=np.complex128)
    slots = np.where(np.arange(size) == position, delay, 0)
    block[np.arange(size) * (size + 1), slots] = 1.0
    return Paraunitary._of_block(params, block)


def paraunitary_adjoint(a: Paraunitary) -> Paraunitary:
    """Entry-wise adjoint transpose; compose(a, paraunitary_adjoint(a)) = I.

    Entry (i, j) is the mask of the conjugated symbol of entry (j, i):
    conjugate coefficients, moved from index q*k to the negated index,
    which is a multiple of q again (negation is digit-wise).  Zero
    coefficients stay 0.0.
    """
    size, q = a.size, a.params.q
    moved = [index_sub(a.params, 0, k * q) // q for k in range(a.coeffs.shape[1])]
    source = a.coeffs.reshape(size, size, -1).transpose(1, 0, 2).reshape(size * size, -1)
    adjoint = np.conj(source)
    adjoint[source == 0] = 0
    block = np.zeros((size * size, max(moved, default=-1) + 1), dtype=np.complex128)
    block[:, moved] = adjoint
    strides = tuple(a.strides[j * size + i] for i in range(size) for j in range(size))
    return Paraunitary._of_block(a.params, block, strides)


def compose(a: Paraunitary, b: Paraunitary) -> Paraunitary:
    """Entry-wise mask product of two paraunitary matrices (a then b: A*B),
    as one matrix product per coset representative of the covering depth."""
    if a.params != b.params or a.size != b.size:
        raise ParameterError("composed matrices must share field and size")
    depth = max(a.depth(), b.depth())
    return Paraunitary.from_symbols(a.params, a.symbols(depth) @ b.symbols(depth))


def seeded_paraunitary(params: FieldParams, size: int, seed: int) -> Paraunitary:
    """Deterministic mix of constant unitaries and unit delay blocks.

    At most two delay factors, so symbol supports stay small enough for the
    default experiment signal sizes.  The factors are multiplied as symbol
    samples at the coset representatives, and the product is transformed
    back in place and certified once.
    """
    block = _trimmed_columns(coefficient_rows(params, _seeded_rows(params, size, seed)))
    return Paraunitary._of_block(params, block)  # certified once the untrimmed rows are freed


def _seeded_rows(params: FieldParams, size: int, seed: int) -> np.ndarray:
    """The factor product of :func:`seeded_paraunitary` at the q depth-2
    coset representatives as entry rows, (size * size, q), row i*size + j
    entry (i, j).  It is formed for one block of representatives at a time
    (a batched product is one GEMM per representative) straight into the rows."""
    first = _seeded_unitary(size, 0xC0, seed)  # which checks the size first
    rng = np.random.default_rng([0x9A, seed])
    positions = [int(rng.integers(size)) for _ in range(int(rng.integers(1, 3)))]
    unitaries = [_seeded_unitary(size, 0xC0, seed + step + 1) for step in range(len(positions))]
    # the unit delay reaches index q, and carry-free products stay on the
    # grid that covers their factors: every factor is sampled at depth 2,
    # whose coset representatives t*x read the delay's raw coefficients at x
    delay = _grid_transform(params, np.array([[0, 1]], dtype=np.complex128), 1)[0]
    delay *= math.sqrt(params.q)
    rows = np.empty((size * size, len(delay)), dtype=np.complex128)
    step = max(1, GRAM_BLOCK // (size * size))  # representatives per block
    for start in range(0, len(delay), step):
        shifts = delay[start : start + step, None]
        prod = np.repeat(first[None], len(shifts), axis=0)
        for position, unitary in zip(positions, unitaries):
            prod[:, :, position] *= shifts  # times delay_block(params, size, position, 1)
            prod = prod @ unitary
        rows[:, start : start + len(shifts)] = prod.reshape(len(shifts), -1).T
    return rows


def _product_symbols(matrix: Paraunitary, bank: FilterBank, columns: slice = slice(None)):
    """Samples for products of matrix entries with the wavelets of ``bank``
    on the grid that covers both: symbols of the entries in ``columns`` at
    the coset representatives, (R, size, columns), and wavelet symbols,
    (L, R, q).  The wavelet rows keep their own width, so a wider m0 cannot
    deepen the grid."""
    params, wavelets = matrix.params, _trimmed_columns(bank.coeffs[1:])
    depth = covering_depth(max(matrix.max_index, wavelets.shape[1] - 1), params.q)
    return matrix.symbols(depth, columns), coset_values(params, wavelets, depth) * math.sqrt(params.q)


def _mix_wavelets(matrix: Paraunitary, column_offset: int, bank: FilterBank) -> FilterBank:
    """The bank whose wavelet k is sum_l entries[k][column_offset+l] * wavelet
    l of ``bank``, scaling mask unchanged; only those L columns are transformed."""
    columns = slice(column_offset, column_offset + bank.n_wavelets)
    entries, values = _product_symbols(matrix, bank, columns)
    out = np.einsum("Rkl,lRa->kRa", entries, values).reshape(matrix.size, -1)
    wavelets = block_masks(bank.params, coefficient_rows(bank.params, out), [1] * matrix.size)
    return FilterBank(bank.params, bank.m0, wavelets)


def derive_pair(primal: FilterBank, dual: FilterBank, matrix: Paraunitary) -> FramePair:
    """Mix two certified banks through the split columns of a paraunitary
    matrix of size 2L: the first L columns act on the primal wavelets, the
    last L on the dual wavelets.  Scaling masks pass through unchanged.
    """
    FramePair(primal, dual)  # one field, equal wavelet counts
    length = primal.n_wavelets
    if matrix.params != primal.params:
        raise ParameterError("primal bank, dual bank and matrix must share field parameters")
    if matrix.size != 2 * length:
        raise ParameterError(f"matrix size {matrix.size} != 2L = {2 * length}")
    require_tight(primal, "primal input")
    require_tight(dual, "dual input")
    return FramePair(_mix_wavelets(matrix, 0, primal), _mix_wavelets(matrix, length, dual))


def orthogonal_family(bank: FilterBank, matrix: Paraunitary) -> list:
    """One output bank per matrix column r: wavelets a[l][r] * m_n over all
    input wavelets n and rows l, scaling mask unchanged.  The outputs are
    tight and pairwise orthogonal.
    """
    if bank.params != matrix.params:
        raise ParameterError("bank and matrix must share field parameters")
    require_tight(bank, "input")
    entries, values = _product_symbols(matrix, bank)
    families = []
    for c in range(matrix.size):
        # products [n, l] = entries[l][c] * wavelet n, on the two strides' common lattice
        out = np.einsum("Rl,nRa->nlRa", entries[:, :, c], values)
        strides = [math.gcd(matrix.strides[l * matrix.size + c], stride)
                   for stride in bank.strides[1:] for l in range(matrix.size)]
        # a stride-s wavelet reads every s-th column (the others hold only rounding)
        out = coefficient_rows(bank.params, out.reshape(len(strides), -1))
        families.append(FilterBank(bank.params, bank.m0, block_masks(bank.params, out, strides)))
    return families


def certify_family(families, depth: int | None = None, tol: float = DEFAULT_MATRIX_TOL):
    """UEP report per family plus one mixed report per unordered pair; a
    frame pair is the family [primal, dual]."""
    depth = depth or max(bank.depth() for bank in families)
    reports = [check_uep(bank, depth, tol) for bank in families]
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            reports.append(check_mixed_orthogonality(families[i], families[j], depth, tol))
    return reports
