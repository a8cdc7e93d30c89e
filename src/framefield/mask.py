"""Framelet symbols (masks), their values on whole grids, and the
grid-sweep checkers that certify tight-frame and orthogonality conditions.

A mask with coefficients h_k and stride t evaluates as

    m(xi) = q**-0.5 * sum_k h_k * conj(chi_{k*t}(xi)),

finitely supported, hence constant on cosets of B^s once its support fits
below q^s.  Sweeping the depth-s grid therefore checks the defining matrix
identities exactly on all of the ring of integers, not just on samples.

Stride-q masks serve as "integral periodic" symbols (polyphase components,
paraunitary entries).  Their symbol value carries no q**-0.5 factor.  The
per-point values and matrices of the same definitions are in
:mod:`framefield.reference`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConstructionError, DepthError, ParameterError, SizeError
from .galois import FieldParams, digit_count, field_tables, json_int
from .localfield import MAX_GRID_POINTS, FieldElement, check_grid_points, grid_point

DEFAULT_MATRIX_TOL = 1e-10
DEFAULT_CASCADE_TOL = 1e-8
# coefficients the symbol-domain algebra leaves below this are rounding
TRIM_CUTOFF = 1e-14
# complex values per block of a Gram sweep's temporaries (the conjugated
# columns and the Grams), of the character transform's scratch and of the
# trim's magnitudes, and entries per block of the character factor's
# exponents: a few hundred kB whatever the grid
GRAM_BLOCK = 2 ** 14
# character factors kept at once: a command uses one field, and a caller
# that sweeps fields holds at most this many q-by-q tables (16 MB at GF(1024))
FACTOR_CACHE = 4


def _check_stride(stride: int, q: int) -> None:
    # a whole n >= 1 is a power of q exactly when n - 1 has one base-q digit fewer
    if stride % 1 or digit_count(stride - 1, q) == digit_count(stride, q):
        raise ParameterError(f"stride must be a power of q, got {stride}")


def _trimmed(coeffs: np.ndarray) -> np.ndarray:
    """``coeffs`` without its trailing zeros, as a view."""
    nonzero = np.flatnonzero(coeffs)
    return coeffs[: nonzero[-1] + 1] if nonzero.size else coeffs[:0]


def _trimmed_columns(block: np.ndarray) -> np.ndarray:
    """``block`` without its trailing all-zero columns, as a new array when
    there are any, so that the wider buffer can go."""
    nonzero = np.flatnonzero(block.any(axis=0))
    width = int(nonzero[-1]) + 1 if nonzero.size else 0
    return block if width == block.shape[1] else block[:, :width].copy()


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` if nothing can write to it: read-only and C-contiguous, its
    memory owned by itself or by a read-only array; else a read-only copy."""
    owner = array if array.base is None else array.base
    if array.flags.writeable or not (array.flags.c_contiguous and isinstance(owner, np.ndarray)
                                     and owner.flags.owndata and not owner.flags.writeable):
        array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Mask:
    """Finite complex coefficient sequence on the index lattice stride*N0."""

    params: FieldParams
    coeffs: np.ndarray
    stride: int = 1

    def __post_init__(self):
        _check_stride(self.stride, self.params.q)
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.ndim != 1:
            raise ParameterError("coefficients must be one-dimensional")
        object.__setattr__(self, "coeffs", frozen(_trimmed(coeffs)))

    def __len__(self):
        return len(self.coeffs)

    @property
    def max_index(self) -> int:
        """Largest occupied index on the integer lattice (-1 for the zero mask)."""
        return (len(self.coeffs) - 1) * self.stride if len(self.coeffs) else -1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def to_json(self, role: str | None = None) -> dict:
        return row_json(self.coeffs, self.stride, role)


def row_json(coeffs: np.ndarray, stride: int, role: str | None = None) -> dict:
    """The JSON object of the mask with trimmed coefficients ``coeffs`` and
    ``stride``: [re, im] pairs, and the role first when there is one."""
    obj = {"stride": stride, "coeffs": np.column_stack((coeffs.real, coeffs.imag)).tolist()}
    return obj if role is None else {"role": role, **obj}


def coeff_pairs(coeffs) -> np.ndarray:
    """A JSON list of [re, im] number pairs as a C-contiguous (n, 2)
    float64 array.  ValueError or OverflowError for anything else: strings,
    null, nested lists, rows of another length, integers beyond the float
    range."""
    try:
        pairs = np.asarray(coeffs)
    except ValueError as exc:  # ragged nesting
        raise ValueError("coefficients must be [re, im] pairs") from exc
    if pairs.dtype == object:
        # integers beyond int64 (or mixed with null, strings, objects)
        if not all(isinstance(x, (int, float)) for x in pairs.flat):
            raise ValueError("coefficients must be numbers")
        pairs = pairs.astype(np.float64)
    elif pairs.dtype.kind not in "biuf":
        raise ValueError("coefficients must be numbers")
    if pairs.shape == (0,):
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("coefficients must be [re, im] pairs")
    return np.ascontiguousarray(pairs, dtype=np.float64)


def zero_mask(params: FieldParams, stride: int = 1) -> Mask:
    return Mask(params, np.zeros(0), stride)


def _require_normalized(m0_at_zero: complex) -> None:
    # written so that a NaN value fails too
    if not abs(m0_at_zero - 1.0) <= 1e-12:
        raise ParameterError(f"refinement mask is not normalized: m0(0) = {m0_at_zero}")


def _placed(params: FieldParams, values: np.ndarray, lengths: np.ndarray, strides, base: int):
    """The read-only block whose row i holds the next ``lengths[i]`` of
    ``values``, up to the last nonzero one, at stride ``strides[i]``.  Column
    k holds the coefficient of index base*k, so a stride-s row fills every
    (s/base)-th column (a zero row may have any stride).  The block has the
    fewest columns that hold every nonzero value; past q * MAX_GRID_POINTS,
    where every grid that covers them is past the cap, SizeError is raised
    before it is allocated.  Each rule runs once per distinct stride, and
    the values are placed at once; when they fill the block row by row, it
    is a view of them and their array, which no caller writes, is frozen."""
    starts = np.cumsum(lengths) - lengths
    nonzero = np.flatnonzero(values)  # as in _trimmed, -0.0 counts as zero
    ends = np.searchsorted(nonzero, starts + lengths)  # nonzero values before each row's end
    ends[ends > 0] = nonzero[ends[ends > 0] - 1] + 1  # one past the last of them
    del nonzero  # before the block is allocated
    kept = np.maximum(ends - starts, 0)
    codes = {stride: i for i, stride in enumerate(dict.fromkeys(strides))}
    kinds = np.fromiter(map(codes.__getitem__, strides), np.intp, len(strides))
    extents = [(stride, int(kept[kinds == i].max())) for stride, i in codes.items()]
    if any(n and stride % base for stride, n in extents):
        raise ParameterError(f"masks of a stride below {base} do not lie on the lattice {base}*N0")
    width = max(((n - 1) * stride // base + 1 for stride, n in extents if n), default=0)
    if width > params.q * MAX_GRID_POINTS:
        raise SizeError(f"a block of {width} columns exceeds the {params.q * MAX_GRID_POINTS} cap")
    # where the values go, row-major as they come: a row's first kept
    # columns at its step (a stride past the width steps over one value)
    target = np.zeros((len(lengths), width), dtype=bool)
    for i, (stride, _) in enumerate(extents):
        rows, step = kinds == i, max(min(stride // base, width), 1)
        target[rows, ::step] = np.arange(0, width, step) < step * kept[rows, None]
    if (kept < lengths).any():  # a row's trailing zeros, -0.0 among them, go
        values = values[np.arange(len(values)) < np.repeat(starts + kept, lengths)]
    if target.all():  # the values already lie as the block holds them: keep their memory
        block = values.reshape(target.shape)
        (values if values.base is None else values.base).flags.writeable = False
    else:
        block = np.zeros(target.shape, dtype=np.complex128)
        block[target] = values
    block.flags.writeable = False
    return block


def coefficient_block(params: FieldParams, masks, base: int = 1) -> tuple:
    """The read-only (M, n) block of ``masks`` on the lattice base*N0
    (:func:`_placed`), and their strides."""
    coeffs, strides = zip(*((m.coeffs, m.stride) for m in masks))
    lengths = np.fromiter(map(len, coeffs), np.intp, len(coeffs))
    return _placed(params, np.concatenate(coeffs), lengths, strides, base), strides


def block_masks(params: FieldParams, coeffs: np.ndarray, strides, base: int = 1) -> list:
    """Inverse of :func:`coefficient_block`: a stride-s row's mask reads
    every (s/base)-th column (the others hold zeros or rounding)."""
    return [Mask(params, row[:: max(s // base, 1)], s) for row, s in zip(coeffs, strides)]


@dataclass(frozen=True, init=False, eq=False)
class CoefficientBlock:
    """Masks as one read-only :func:`coefficient_block`, last column nonzero, on
    the lattice base*N0, base = q**lattice_power (1 for a bank, q for a matrix),
    and its rows' strides.  Files are read by :meth:`_of_entries` and written row by row."""

    params: FieldParams
    coeffs: np.ndarray
    strides: tuple

    lattice_power = 0

    def __init__(self, params: FieldParams, masks):
        if any(m.params != params for m in masks):
            raise ParameterError("all masks of a block must share field parameters")
        block, strides = coefficient_block(params, masks, self._base(params))
        self.__dict__.update(params=params, coeffs=block, strides=strides)

    @classmethod
    def _base(cls, params: FieldParams) -> int:
        return params.q ** cls.lattice_power

    @classmethod
    def _of_block(cls, params: FieldParams, coeffs: np.ndarray, strides=None):
        """The block ``coeffs``, kept read-only, its rows of stride base unless
        ``strides`` says; its trailing zero columns are dropped, by a copy."""
        coeffs = _trimmed_columns(coeffs)
        coeffs.flags.writeable = False
        block = cls.__new__(cls)
        strides = (cls._base(params),) * len(coeffs) if strides is None else tuple(strides)
        block.__dict__.update(params=params, coeffs=coeffs, strides=strides)
        return block

    @classmethod
    def _of_entries(cls, params: FieldParams, entries):
        """The block of the ``Mask.to_json`` objects ``entries``, a row each,
        whose ``coeffs`` may also be the arrays :func:`coeff_pairs` makes.  Each
        entry is parsed once; the checks and the trim then run on whole arrays."""
        arrays, strides = [], []
        for obj in entries:
            try:
                coeffs = obj["coeffs"]
                arrays.append(coeffs if isinstance(coeffs, np.ndarray) else coeff_pairs(coeffs))
                strides.append(json_int(obj.get("stride", 1), "stride"))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"bad mask object: {exc}") from exc
        pairs = np.concatenate(arrays or [np.empty((0, 2))], dtype=np.float64)
        # checked here, where input enters, rather than on every Mask the
        # algebra builds from finite values
        if not np.isfinite(pairs).all():
            raise ParameterError("mask coefficients must be finite")
        for stride in dict.fromkeys(strides):
            _check_stride(stride, params.q)
        lengths = np.fromiter(map(len, arrays), np.intp, len(arrays))
        # each [re, im] row read as one complex value, signed zeros kept
        block = _placed(params, pairs.view(np.complex128)[:, 0], lengths, strides, cls._base(params))
        return cls._of_block(params, block, strides)

    @property
    def max_index(self) -> int:
        width = self.coeffs.shape[1]
        return (width - 1) * self._base(self.params) if width else -1

    def depth(self) -> int:
        return covering_depth(self.max_index, self.params.q)

    def _masks(self, rows=slice(None)) -> tuple:
        """The masks of ``rows``, each reading its row at its stride."""
        base = self._base(self.params)
        return tuple(block_masks(self.params, self.coeffs[rows], self.strides[rows], base))

    def _rows_json(self, row_json, roles) -> list:
        """``row_json`` of each row read at its stride, as ``Mask.to_json`` writes its mask."""
        base = self._base(self.params)
        return [row_json(_trimmed(row[:: max(stride // base, 1)]), stride, role)
                for row, stride, role in zip(self.coeffs, self.strides, roles)]


class FilterBank(CoefficientBlock):
    """A refinement mask plus wavelet masks: a stride-1 block, row 0 m0.
    ``m0`` is the mask the bank was built from, else made from the block
    when first read, as ``wavelets`` and ``masks`` always are."""

    def __init__(self, params: FieldParams, m0: Mask, wavelets):
        super().__init__(params, (m0, *wavelets))
        self.__dict__.update(m0=m0)

    @functools.cached_property
    def m0(self) -> Mask:
        return self._masks(slice(1))[0]

    @functools.cached_property
    def wavelets(self) -> tuple:
        return self._masks(slice(1, None))

    @functools.cached_property
    def masks(self) -> tuple:
        return (self.m0, *self.wavelets)

    @property
    def n_wavelets(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self, row_json=row_json) -> dict:
        """The bank as a JSON object, with ``row_json(coeffs, stride, role)``
        in place of each mask's object; a streaming writer passes one that
        defers the conversion."""
        roles = ["m0"] + ["wavelet"] * self.n_wavelets
        return {"field": self.params.to_json(), "masks": self._rows_json(row_json, roles)}

    @classmethod
    def from_json(cls, obj: dict, *, require_normalized: bool = True) -> "FilterBank":
        """The bank of a ``to_json`` object, m0's entry first (:meth:`_of_entries`)."""
        try:
            params = FieldParams.from_json(obj["field"])
            masks = obj["masks"]
            m0 = [i for i, mobj in enumerate(masks)
                  if isinstance(mobj, dict) and mobj.get("role") == "m0"]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"bad bank object: {exc}") from exc
        if len(m0) != 1:
            cls._of_entries(params, masks)  # the entries are read first: a bad one is named
            raise ParameterError(f"bank declares {len(m0)} refinement masks, not one")
        bank = cls._of_entries(params, [masks[m0[0]], *masks[: m0[0]], *masks[m0[0] + 1 :]])
        if require_normalized:
            # m0(0), the sum of m0's coefficients over sqrt(q), can overflow
            # to inf or NaN, which the check rejects without a warning first
            with np.errstate(over="ignore", invalid="ignore"):
                _require_normalized(_grid_transform(params, bank.coeffs[:1], 0)[0, 0])
        return bank


@dataclass(frozen=True)
class FramePair:
    """A primal/dual pair of filter banks over one field with equal wavelet counts."""

    primal: FilterBank
    dual: FilterBank

    def __post_init__(self):
        if self.primal.params != self.dual.params:
            raise ParameterError("pair members must share field parameters")
        if self.primal.n_wavelets != self.dual.n_wavelets:
            raise ParameterError("pair members must have equal wavelet counts")

    @property
    def params(self) -> FieldParams:
        return self.primal.params

    def to_json(self, provenance: dict | None = None, row_json=row_json) -> dict:
        obj = {"primal": self.primal.to_json(row_json), "dual": self.dual.to_json(row_json)}
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification sweep."""

    condition: str
    grid_depth: int
    max_deviation: float
    tolerance: float
    worst_point: FieldElement | None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.max_deviation <= self.tolerance)  # a NaN deviation fails

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


def make_report(condition, depth, deviations, tol, params, details=None, spacing=1) -> CheckReport:
    """Fold deviation i of grid point i * spacing into a report (first argmax wins)."""
    worst = int(np.argmax(deviations))
    return CheckReport(
        condition=condition,
        grid_depth=depth,
        max_deviation=float(deviations[worst]),
        tolerance=tol,
        worst_point=grid_point(params, depth, worst * spacing),
        details=details or {},
    )


# ---------------------------------------------------------------------------
# evaluation


@functools.lru_cache(maxsize=FACTOR_CACHE)
def _character_factor(params: FieldParams) -> np.ndarray:
    """F[a, x] = conj chi(t * u(a) * u(x)), the one-digit factor of every
    character value: conj chi_j(xi) = prod_d F[j_d, xi_d] over the base-q
    digits of j and the power-d digits of xi.  chi reads a^T M x mod p
    (``field_tables``), so F is the c-fold Kronecker power of the p-by-p
    table conj omega**(i*j), columns permuted by x -> Mx; it is built
    GRAM_BLOCK exponents at a time."""
    p, q = params.p, params.q
    coords = np.arange(q, dtype=np.int64)[:, None] // p ** np.arange(params.c) % p
    paired = coords @ field_tables(params) % p
    products = np.outer(np.arange(p), np.arange(p)) % p
    out = np.empty((q, q), dtype=np.complex128)
    rows = max(1, GRAM_BLOCK // q)
    for start in range(0, q, rows):
        exps = kernels.exponent_table(coords[start:start + rows], paired, products, p)
        out[start:start + rows] = kernels.conj_char_matrix(exps, p)
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


def spectrum(params: FieldParams, coeffs: np.ndarray) -> np.ndarray:
    """Character transform of (M, q**e) coefficient rows: column x is
    sum_j coeffs[:, j] * conj chi_j(x) over the depth-e grid point x.
    ``coeffs`` must be a C-contiguous complex array; the values overwrite
    it, and it is returned."""
    return kernels.character_transform(coeffs, _character_factor(params), GRAM_BLOCK)


def from_spectrum(params: FieldParams, values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`spectrum`, in place in ``values`` as well."""
    # F is sqrt(q) times a unitary table, so F**-1 = conj(F).T / q
    inverse = np.conj(_character_factor(params)).T / params.q
    return kernels.character_transform(values, inverse, GRAM_BLOCK)


def _grid_transform(params: FieldParams, coeffs: np.ndarray, depth: int) -> np.ndarray:
    """Values of stride-1 coefficient rows on the depth-s grid, (M, q**s).

    Let e = min(s, base-q digits of the last slot).  Point digits at power
    e and above meet only zero index digits (and index digits at power e
    and above only zero point digits), so the rows fold mod q**e into a
    new array, which the character transform then overwrites (``coeffs``
    is only read), and the values repeat over the digits above.
    """
    q = params.q
    check_grid_points(q, depth)
    m, n = coeffs.shape
    last = digit_count(n - 1, q)  # base-q digits of the last slot
    e = min(depth, last)
    if e == last:  # the rows fit the depth-e grid
        folded = np.zeros((m, q ** e), dtype=np.complex128)
        # added to zeros, as the sum over folds adds them: -0.0 becomes 0.0
        folded[:, :n] += coeffs
    else:
        folded = _fold(coeffs, q ** e).sum(axis=1)
    values = spectrum(params, folded)
    values /= math.sqrt(q)
    return values if e == depth else np.tile(values, q ** (depth - e))


def mask_values_at_digits(masks, point_digits: np.ndarray) -> np.ndarray:
    """Values of several masks at points given by their digit rows.

    ``point_digits[g, i]`` is the digit of point g at power i; digits beyond
    the matrix width are zero, and the masks read none at or above their
    covering depth.  Returns an array of shape (len(masks), npts).
    """
    params = masks[0].params
    block, _ = coefficient_block(params, masks)
    depth = min(point_digits.shape[1], covering_depth(block.shape[1] - 1, params.q))
    table = _grid_transform(params, block, depth)
    return table[:, point_digits[:, :depth] @ (params.q ** np.arange(depth, dtype=np.int64))]


def mask_values_on_grid(masks, depth: int) -> np.ndarray:
    """Values of several masks at every point of the depth-s grid, in grid order."""
    params = masks[0].params
    return _grid_transform(params, coefficient_block(params, masks)[0], depth)


def coefficient_rows(params: FieldParams, symbols: np.ndarray) -> np.ndarray:
    """Inverse of sqrt(q) * _grid_transform: coefficient rows from their
    symbols on the depth-e grid, (M, q**e), with those below TRIM_CUTOFF
    zeroed.  The coefficients overwrite ``symbols``, a C-contiguous array
    the caller gives up, and it is returned; the trim takes GRAM_BLOCK of
    them at a time through one array of their magnitudes."""
    coeffs = from_spectrum(params, symbols)
    flat, mags = coeffs.reshape(-1), np.empty(min(coeffs.size, GRAM_BLOCK))
    for start in range(0, flat.size, GRAM_BLOCK):
        part = flat[start : start + GRAM_BLOCK]
        part[np.abs(part, out=mags[: len(part)]) < TRIM_CUTOFF] = 0
    return coeffs


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
    params, stride = a.params, math.gcd(a.stride, b.stride)
    # column k holds index stride*k: dividing indices by a power of q
    # shifts their digits, which carry-free sums commute with
    block, _ = coefficient_block(params, [a, b], stride)
    # carry-free sums add digits position by position, so the product's
    # support fits the grid that covers both factors
    depth = covering_depth(block.shape[1] - 1, params.q)
    sa, sb = _grid_transform(params, block, depth) * math.sqrt(params.q)
    return Mask(params, coefficient_rows(params, (sa * sb)[None])[0], stride)


def mask_add(a: Mask, b: Mask) -> Mask:
    """Coefficient-wise sum on the common index lattice."""
    if a.params != b.params:
        raise ParameterError("masks belong to different fields")
    stride = math.gcd(a.stride, b.stride)
    block, _ = coefficient_block(a.params, [a, b], stride)
    return Mask(a.params, block.sum(axis=0), stride)


def trim_mask(m: Mask, cutoff: float = TRIM_CUTOFF) -> Mask:
    """Zero out coefficients below ``cutoff`` in magnitude."""
    coeffs = np.where(np.abs(m.coeffs) < cutoff, 0.0, m.coeffs)
    return Mask(m.params, coeffs, m.stride)


# ---------------------------------------------------------------------------
# the polyphase table


def polyphase_symbols(bank: FilterBank) -> np.ndarray:
    """Symbols of the polyphase components h_{l,r}[j] = coeffs_l[r + q*j]
    at their covering depth e, as an (L+1, q, q**e) table: column x holds
    the values at the coset representative t*x, and any point x of a
    deeper grid reads column x mod q**e.  e is one less than the bank's
    covering depth."""
    q = bank.params.q
    rows = _fold(bank.coeffs, q).transpose(0, 2, 1).reshape(len(bank.coeffs) * q, -1)
    values = _grid_transform(bank.params, rows, bank.depth() - 1)
    return (values * math.sqrt(q)).reshape(len(bank.coeffs), q, -1)


# ---------------------------------------------------------------------------
# grid-sweep checks


def covering_depth(max_index: int, q: int) -> int:
    """Smallest depth s >= 1 with q**s > max_index."""
    return max(1, digit_count(max_index, q))


def swept_depth(depth: int, max_index: int, q: int) -> int:
    """Depth a sweep runs at: covering depth, which the requested one must reach.

    Masks whose support fits below q^s are constant on cosets of B^s, so a
    deeper grid only repeats the covering-depth values.
    """
    covering = covering_depth(max_index, q)
    if depth < 1:
        raise DepthError(f"grid depth must be at least 1, got {depth}")
    if depth < covering:
        raise DepthError(
            f"grid depth {depth} covers indices below {q ** depth}, "
            f"but the masks reach index {max_index}"
        )
    return covering


def coset_values(params: FieldParams, coeffs: np.ndarray, depth: int) -> np.ndarray:
    """Values of stride-1 block rows on the depth-s grid, (M, q^(s-1), q):
    entry [l, r, a] is row l at coset representative r plus a at power 0,
    so [:, r, :] is the modulation matrix at r up to a column permutation."""
    q = params.q  # explicit sizes, so that a block of no rows reshapes too
    return _grid_transform(params, coeffs, depth).reshape(len(coeffs), q ** (depth - 1), q)


def blocked_gram(a: np.ndarray, b: np.ndarray, reduce) -> np.ndarray:
    """reduce(A_r* B_r) for the matrices A_r = a[:, r, :] and B_r = b[:, r, :]
    of (n, R, k) stacks, so that mask-by-coset arrays need no transpose,
    taken over blocks of representatives whose temporaries stay near
    GRAM_BLOCK complex values (one representative at least)."""
    n, reps, k = a.shape
    step = max(1, GRAM_BLOCK // (k * max(n, k)))
    blocks = (slice(start, start + step) for start in range(0, reps, step))
    grams = (np.einsum("lrk,lrj->rkj", np.conj(a[:, r]), b[:, r]) for r in blocks)
    return np.concatenate([reduce(gram) for gram in grams])


def gram_deviation(cols: np.ndarray) -> np.ndarray:
    """max |A_r* A_r - I| for each matrix A_r = cols[:, r, :] of an (n, R, k) stack."""
    eye = np.eye(cols.shape[2])
    return blocked_gram(cols, cols, lambda gram: np.abs(gram - eye).max(axis=(1, 2)))


def sweep_report(condition, depth, swept, deviations, tol, params) -> CheckReport:
    """Report of a sweep at depth ``swept`` <= ``depth``, from one deviation
    per depth-``swept`` grid point, or one per coset representative for the
    q points of its coset, the representative first.

    The requested grid repeats those values with period q^swept, so its
    first argmax is the first argmax here.
    """
    details = {"swept_depth": swept, "cosets_swept": params.q ** (swept - 1)}
    spacing = params.q ** swept // len(deviations)
    return make_report(condition, depth, deviations, tol, params, details, spacing)


def check_uep(bank: FilterBank, depth: int, tol: float = DEFAULT_MATRIX_TOL) -> CheckReport:
    """Column orthonormality of the modulation matrix at every grid point.

    Across a coset the columns are only permuted, so one Gram per coset
    representative decides all q points.
    """
    params = bank.params
    swept = swept_depth(depth, bank.max_index, params.q)
    dev = gram_deviation(coset_values(params, bank.coeffs, swept))
    return sweep_report("uep", depth, swept, dev, tol, params)


def require_tight(bank: FilterBank, label: str) -> None:
    """Raise ConstructionError, with the report, unless ``bank`` passes the
    tight-frame (UEP) check at its covering depth."""
    report = check_uep(bank, bank.depth())
    if not report.passed:
        raise ConstructionError(f"{label} bank fails the tight-frame check", report)


def check_subqmf(m0: Mask, depth: int, tol: float = DEFAULT_MATRIX_TOL) -> CheckReport:
    """One-sided bound sum_k |m0(xi + t*u(k))|^2 <= 1 over the grid."""
    params = m0.params
    swept = swept_depth(depth, m0.max_index, params.q)
    sums = (np.abs(mask_values_on_grid([m0], swept).reshape(-1, params.q)) ** 2).sum(axis=1)
    dev = np.maximum(0.0, sums - 1.0)
    return sweep_report("subqmf", depth, swept, dev, tol, params)


def check_polyphase_unitary(
    bank: FilterBank, depth: int, tol: float = DEFAULT_MATRIX_TOL
) -> CheckReport:
    """Row orthonormality of the polyphase matrix at every grid point."""
    params = bank.params
    # the components' covering depth is swept - 1: one column per coset
    swept = swept_depth(depth, bank.max_index, params.q)
    gamma = polyphase_symbols(bank)  # (L+1, q, R)
    # rows of Gamma orthonormal <=> columns of Gamma* orthonormal; the Grams
    # of Gamma's transposed rows are their conjugates, which deviate from I
    # by the same magnitudes, so no conjugated copy of Gamma is made
    dev = gram_deviation(gamma.transpose(0, 2, 1))
    return sweep_report("polyphase_unitary", depth, swept, dev, tol, params)


def check_mixed_orthogonality(
    bankA: FilterBank, bankB: FilterBank, depth: int, tol: float = DEFAULT_MATRIX_TOL
) -> CheckReport:
    """Vanishing of the wavelet-only cross Gram between two banks.

    For every grid point and every shift index k (0 included), the two-column
    wavelet matrices at (xi, xi + t*u(k)) must have zero cross product.  At
    the point r + a of a coset these entries are row a, column a and the
    diagonal of the cross Gram C(r) of the representative.
    """
    params = FramePair(bankA, bankB).params
    swept = swept_depth(depth, max(bankA.max_index, bankB.max_index), params.q)
    va, vb = (coset_values(params, bank.coeffs[1:], swept) for bank in (bankA, bankB))
    dev = blocked_gram(va, vb, _cross_deviation)
    return sweep_report("mixed_orthogonality", depth, swept, dev.ravel(), tol, params)


def _cross_deviation(cross: np.ndarray) -> np.ndarray:
    """(R, q) deviations of the points r + a from the cross Grams C(r)."""
    cross = np.abs(cross)
    diag = np.diagonal(cross, axis1=1, axis2=2).max(axis=1)
    return np.maximum(np.maximum(cross.max(axis=2), cross.max(axis=1)), diag[:, None])


def __getattr__(name: str):
    # perfbench/checks.py imports these two reference-route names from here;
    # they resolve from ``reference`` on first access, and no other name does
    if name in ("modulation_matrix", "polyphase_matrix"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
