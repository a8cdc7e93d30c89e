"""Functional verification at desk scale: cascade products for the scaling
symbol, partition-of-unity checks, the discrete perfect-reconstruction
transform under the carry-free index group, and the Parseval / cross-frame /
multiplier experiments.

Discrete signals are complex arrays of length q**M; translations act by the
carry-free group law, so periodization is exact and there is no boundary
handling anywhere.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DepthError, ParameterError, SizeError
from .galois import FieldParams, addressable, digit_count
from .localfield import FieldElement, check_grid_points
from .mask import (
    DEFAULT_CASCADE_TOL,
    DEFAULT_MATRIX_TOL,
    GRAM_BLOCK,
    CheckReport,
    FilterBank,
    FramePair,
    Mask,
    _grid_transform,
    _require_normalized,
    covering_depth,
    from_spectrum,
    frozen,
    make_report,
    mask_values_on_grid,
    polyphase_symbols,
    require_tight,
    spectrum,
)


@dataclass(frozen=True)
class HatGrid:
    """Samples of a hat function on the ball |x| <= q**j_neg at resolution
    q**-j_pos.  Point h has digit (h // q**i) % q at power i - j_neg, so the
    lowest power cycles fastest and index 0 is the origin.

    ``samples`` is the values, or a call giving those of points start..stop-1
    as a new read-only array: a slice then computes its points alone, and
    ``values`` computes them all when first read.
    """

    params: FieldParams
    j_neg: int
    j_pos: int
    samples: np.ndarray | Callable[[int, int], np.ndarray]
    stabilized_at: int | None = None

    def __post_init__(self):
        if not callable(self.samples):
            values = np.asarray(self.samples, dtype=np.complex128)
            if values.shape != (self.params.q ** self.width,):
                raise ParameterError("hat grid values have the wrong length")
            object.__setattr__(self, "samples", frozen(values))

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self.samples(0, len(self)) if callable(self.samples) else self.samples

    def __len__(self) -> int:
        return self.params.q ** self.width

    def __getitem__(self, index: slice) -> np.ndarray:
        if callable(self.samples) and index.step in (None, 1):
            start, stop, _ = index.indices(len(self))
            return self.samples(start, max(start, stop))
        return self.values[index]

    @property
    def width(self) -> int:
        return self.j_neg + self.j_pos

    def point(self, h: int) -> FieldElement:
        q = self.params.q
        digits = tuple((h // q ** i) % q for i in range(self.width))
        return FieldElement(self.params, -self.j_neg, digits)

    def index_of(self, x: FieldElement) -> int:
        """Index of the resolution-coset representative of x.

        Digits at powers >= j_pos are folded away (the grid represents a
        function constant on those cosets); digits below -j_neg are out of
        coverage.
        """
        if x.params != self.params:
            raise ParameterError("point belongs to a different field")
        if not x.is_zero() and x.v < -self.j_neg:
            raise CoverageError(f"|x| = q**{-x.v} exceeds the grid ball q**{self.j_neg}")
        q = self.params.q
        h = 0
        for i in range(self.width):
            h += x.digit_at(i - self.j_neg) * q ** i
        return h

    def __call__(self, x: FieldElement) -> complex:
        return complex(self.values[self.index_of(x)])


def constant_hat(params: FieldParams, j_neg: int, j_pos: int, value: complex = 1.0) -> HatGrid:
    vals = np.full(params.q ** (j_neg + j_pos), value, dtype=np.complex128)
    vals.flags.writeable = False
    return HatGrid(params, j_neg, j_pos, vals)


# hat points per block of the cascade: its index and gather temporaries stay
# at a few hundred kB whatever the window
CASCADE_BLOCK = 2 ** 15


def _dilated_index(h: np.ndarray, k: int, q: int, depth: int) -> np.ndarray:
    """Index in a depth-s table of t**k * x, for the points x whose digits at
    powers 0, 1, ... are the base-q digits of h.  A table over the depth-s
    grid reads only the digits at powers 0..s-1, and t**k moves every digit
    up k powers; no intermediate exceeds q**s."""
    if k >= depth:
        return np.zeros_like(h)
    if k >= 0:
        return (h % q ** (depth - k)) * q ** k
    return (h // q ** -k) % q ** depth


def cascade_phihat(
    m0: Mask,
    iterations: int,
    j_neg: int = 2,
    j_pos: int = 3,
) -> HatGrid:
    """Truncated infinite product phihat_J(x) = prod_{j=1..J} m0(t**j x).

    Factors become identically 1 once t**j x lands deep enough in the ring
    of integers for every grid point; the first such j is recorded as
    ``stabilized_at`` (the product is exact from there on).  The grid keeps
    m0's table: a slice multiplies the factors for one block of
    ``CASCADE_BLOCK`` of its points at a time, so the window is held whole
    only once ``values`` is read.
    """
    if iterations < 1:
        raise ParameterError(f"cascade iterations must be at least 1, got {iterations}")
    if j_neg < 0 or j_pos < 0:
        raise ParameterError(f"hat window bounds must be non-negative, got {j_neg} and {j_pos}")
    params = m0.params
    q = params.q
    support_depth = covering_depth(m0.max_index, q)
    table = mask_values_on_grid([m0], support_depth)[0]
    _require_normalized(table[0])
    width = j_neg + j_pos
    check_grid_points(q, width)
    # hat point h is t**-j_neg times the point with the digits of h, so
    # m0(t**j x) reads the table at shift j - j_neg; once that shift reaches
    # the support depth (at once on an empty window) every factor is m0(0)
    last = support_depth + j_neg - 1 if width else 0

    def samples(start: int, stop: int) -> np.ndarray:
        values = np.ones(stop - start, dtype=np.complex128)
        for at in range(start, stop, CASCADE_BLOCK):
            block = values[at - start:at - start + CASCADE_BLOCK]
            h = np.arange(at, at + len(block), dtype=np.int64)
            for j in range(1, min(iterations, last) + 1):
                block *= table[_dilated_index(h, j - j_neg, q, support_depth)]
        values.flags.writeable = False
        return values

    stabilized_at = last + 1 if last < iterations else None
    return HatGrid(params, j_neg, j_pos, samples, stabilized_at=stabilized_at)


def partition_sums(phihat: HatGrid, translates: int) -> np.ndarray:
    """sum_{k<K} |phihat(xi + u(k))|**2 for every point xi of the base grid
    (the ring-of-integers part of the hat window, at its full resolution).

    The translates are gathered one block of about ``CASCADE_BLOCK`` hat
    points at a time, and each block is added to the running total in
    translate order.
    """
    params = phihat.params
    q = params.q
    if translates < 1:
        raise ParameterError("need at least one translate")
    if translates > q ** phihat.j_neg:
        raise CoverageError(
            f"{translates} translates exceed the coverage ball of q**{phihat.j_neg} points"
        )
    base = np.arange(q ** phihat.j_pos, dtype=np.int64) * q ** phihat.j_neg
    # u(k): base-q digit i of k at power -(i+1), i.e. hat column j_neg-1-i
    k = np.arange(translates, dtype=np.int64)
    offsets = np.zeros(translates, dtype=np.int64)
    for i in range(phihat.j_neg):
        offsets += (k // q ** i % q) * q ** (phihat.j_neg - 1 - i)
    rows = max(1, CASCADE_BLOCK // len(base))
    sums = None
    for start in range(0, translates, rows):
        block = np.abs(phihat.values[offsets[start:start + rows, None] + base]) ** 2
        if sums is not None:
            # the total leads the block, so the sum runs down the rows in order
            block = np.concatenate((sums[None], block))
        sums = block.sum(axis=0)
        del block  # not held while the next block is gathered
    return sums


def partition_of_unity_check(
    phihat: HatGrid, translates: int, tol: float = DEFAULT_CASCADE_TOL
) -> tuple[CheckReport, np.ndarray]:
    """max over the base grid of | sum_{k<K} |phihat(xi + u(k))|**2 - 1 |,
    and the ``partition_sums`` it is taken over."""
    sums = partition_sums(phihat, translates)
    details = {"translates": translates, "coverage_ball": phihat.params.q ** phihat.j_neg}
    report = make_report("partition_of_unity", phihat.j_pos, np.abs(sums - 1.0), tol,
                         phihat.params, details)
    return report, sums


# ---------------------------------------------------------------------------
# discrete transforms under the carry-free group


def _signal_levels(params: FieldParams, n: int) -> int:
    q = params.q
    levels = digit_count(n - 1, q)
    # n is q**levels exactly when n itself has one base-q digit more
    if digit_count(n, q) == levels:
        raise ParameterError(f"signal length {n} is not a power of q = {q}")
    return levels


def _component_symbols(bank: FilterBank, n: int) -> np.ndarray:
    """The polyphase table of ``bank`` for a signal of n samples, as
    (q**e, L+1, q): point x of the index group of n/q points reads row
    x mod q**e."""
    if _signal_levels(bank.params, n) < 1:
        raise DepthError("signal must have at least q samples")
    table = polyphase_symbols(bank)
    if bank.max_index >= n:
        raise DepthError(f"mask support {bank.max_index + 1} exceeds signal length {n}")
    return table.transpose(2, 0, 1)


def _symbol_product(params: FieldParams, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Inverse transform of table[x mod R] @ (transforms of ``rows`` at x)
    for every point x, R = len(table): one matrix product per x mod R.
    ``rows`` is only read.  One buffer holds the transform of ``rows``, then
    the products, written over it for about ``GRAM_BLOCK`` values of
    residues x mod R at a time, then their inverse transform, which is
    returned as a view of the buffer's first rows."""
    (m, n), (r, k) = rows.shape, table.shape[:2]
    buffer = np.empty((max(k, m), n), dtype=np.complex128)
    buffer[:m] = rows
    # column r*i + j of both arrays is column (i, j) of these views
    spectra = spectrum(params, buffer[:m]).reshape(m, -1, r)
    products = buffer[:k].reshape(k, -1, r)
    step = max(1, GRAM_BLOCK * r // (len(buffer) * n))
    for j in range(0, r, step):
        part = table[j:j + step] @ spectra[..., j:j + step].transpose(2, 0, 1)
        products[..., j:j + step] = part.transpose(1, 2, 0)
    del part  # with R = 1 it is as large as the products
    return from_spectrum(params, buffer[:k])


def analysis_step(signal: np.ndarray, bank: FilterBank) -> np.ndarray:
    """One analysis level: branch l, slot k gets
    sum_n conj(coeffs_l[n boxminus q*k]) * signal[n].

    Returns an array of shape (L+1, len(signal)/q); row 0 is the scaling
    branch.  As n = r + q*n' gives n boxminus q*k = r + q*(n' boxminus k),
    branch l sums over r the correlations of h_{l,r} with the component
    s_r[j] = signal[r + q*j]: sum_r conj(H_{l,r}) * S_r in the character
    domain.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    table = _component_symbols(bank, len(signal))
    return _symbol_product(bank.params, np.conj(table), signal.reshape(-1, bank.params.q).T)


def synthesis_step(branches: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Adjoint of :func:`analysis_step`: output component r is the sum over
    l of the convolutions of h_{l,r} with branch l, sum_l H_{l,r} * B_l in
    the character domain."""
    branches = np.asarray(branches, dtype=np.complex128)
    if branches.ndim != 2 or branches.shape[0] != len(bank.coeffs):
        raise ParameterError("branches must be an (L+1, n/q) array matching the bank")
    n_out = branches.shape[1] * bank.params.q
    table = _component_symbols(bank, n_out)
    return _symbol_product(bank.params, table.transpose(0, 2, 1), branches).T.reshape(n_out)


def random_signal(params: FieldParams, size_exponent: int, rng: np.random.Generator) -> np.ndarray:
    if not addressable(params.q, size_exponent, 16):
        raise SizeError(f"a signal of {params.q}^{size_exponent} samples exceeds the address space")
    n = params.q ** size_exponent
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _analysis_cascade(v: np.ndarray, bank: FilterBank, levels: int):
    """The branches of ``levels`` analysis steps, each after the first on
    the scaling branch (row 0) of the one before."""
    for _ in range(levels):
        branches = analysis_step(v, bank)
        yield branches
        v = branches[0]


def _random_signal_trials(condition, stream, banks, measure, size_exponent, levels, trials,
                          tol, seed, enforce_precondition) -> CheckReport:
    """The worst ``measure`` of ``trials`` random signals of q**size_exponent
    samples from the generator seeded ``[stream, seed]``.  Sizes below 1
    check nothing, and the (label, bank) pairs of ``banks`` must be tight
    frames unless the precondition is waived."""
    for name, value in (("signal size", size_exponent), ("levels", levels), ("trials", trials)):
        if value < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")
    if enforce_precondition:
        for label, bank in banks:
            require_tight(bank, label)
    if levels >= size_exponent:
        raise DepthError("levels must stay below the signal size exponent")
    rng = np.random.default_rng([stream, seed])
    params = banks[0][1].params
    per_trial = [measure(random_signal(params, size_exponent, rng)) for _ in range(trials)]
    worst_trial = int(np.argmax(per_trial))
    worst = float(per_trial[worst_trial])
    details = {"levels": levels, "trials": trials, "seed": seed,
               "worst_trial": worst_trial, "per_trial": per_trial}
    return CheckReport(condition, size_exponent, worst, tol, None, details)


def parseval_experiment(
    bank: FilterBank,
    size_exponent: int,
    levels: int,
    trials: int,
    tol: float = DEFAULT_MATRIX_TOL,
    seed: int = 0,
    enforce_precondition: bool = True,
) -> CheckReport:
    """Energy balance of the analysis cascade on random signals:
    ||v||^2 against ||scaling_J||^2 + sum of wavelet branch energies.

    Banks that fail the tight-frame precondition are rejected unless
    ``enforce_precondition`` is disabled to measure their energy drift.
    """
    def drift(v):
        total = float(np.vdot(v, v).real)
        acc = 0.0
        for branches in _analysis_cascade(v, bank, levels):
            acc += float(np.sum(np.abs(branches[1:]) ** 2))
        acc += float(np.vdot(branches[0], branches[0]).real)  # the last scaling branch
        return abs(acc - total) / total

    return _random_signal_trials("parseval", 0x7E, [("input", bank)], drift, size_exponent,
                                 levels, trials, tol, seed, enforce_precondition)


def mixed_frame_experiment(
    pair: FramePair,
    size_exponent: int,
    levels: int,
    trials: int,
    tol: float = DEFAULT_CASCADE_TOL,
    seed: int = 0,
    enforce_precondition: bool = True,
) -> CheckReport:
    """Cross-frame energy transfer: analyze with the primal bank, synthesize
    only the wavelet branches with the dual bank (the final scaling branch is
    dropped), and report max ||output|| / ||input|| over random signals.
    Orthogonal pairs give ratios at numerical zero."""
    def ratio(v):
        stack = list(_analysis_cascade(v, pair.primal, levels))
        r = np.zeros(stack[-1].shape[1], dtype=np.complex128)
        while stack:
            # the synthesis of the level below replaces the scaling branch
            branches = stack.pop()
            branches[0] = r
            r = synthesis_step(branches, pair.dual)
        return float(np.linalg.norm(r) / np.linalg.norm(v))

    banks = [("primal", pair.primal), ("dual", pair.dual)]
    return _random_signal_trials("mixed_frame", 0x3D, banks, ratio, size_exponent,
                                 levels, trials, tol, seed, enforce_precondition)


# ---------------------------------------------------------------------------
# hat-level multiplier check


def multiplier_orthogonality_check(
    pair: FramePair,
    g_hat: HatGrid,
    h_hat: HatGrid,
    tol: float = DEFAULT_CASCADE_TOL,
    dilations: int | None = None,
) -> CheckReport:
    """Vanishing of the truncated cross sums
    sum_l sum_j psi_l^g(t**-j xi) * conj(phi_l^h(t**-j xi)) on the base grid,
    where the hat multipliers g, h modulate the two wavelet families."""
    params = pair.params
    if g_hat.params != params or h_hat.params != params:
        raise ParameterError("multiplier grids belong to a different field")
    if (g_hat.j_neg, g_hat.j_pos) != (h_hat.j_neg, h_hat.j_pos):
        raise ParameterError("multiplier grids must share their window")
    for name, hat in (("g", g_hat), ("h", h_hat)):
        if not np.all(np.isfinite(hat.values)):
            raise ParameterError(f"multiplier {name} has unbounded samples")
    q = params.q
    primal, dual = pair.primal, pair.dual
    support_depth = covering_depth(max(primal.max_index, dual.max_index), q)
    j_hi = g_hat.j_neg
    j_lo = -(support_depth + 1)
    if dilations is not None:
        j_lo = max(j_lo, -dilations)
        j_hi = min(j_hi, dilations)
    base_depth = g_hat.j_pos
    tables = [_grid_transform(params, bank.coeffs, support_depth) for bank in (primal, dual)]
    for table in tables:
        _require_normalized(table[0, 0])
    g = np.arange(q ** base_depth, dtype=np.int64)
    total = np.zeros(len(g), dtype=np.complex128)
    for j in range(j_lo, j_hi + 1):
        # x = t**-j xi; the wavelets and the cascades are read at t*x, the
        # cascades as the factors m0(t**k xi), k = 2-j..s-1, past which
        # every factor is m0(0) = 1
        at = _dilated_index(g, 1 - j, q, support_depth)
        cross = np.sum(tables[0][1:, at] * np.conj(tables[1][1:, at]), axis=0)
        scaling = np.ones((2, len(g)), dtype=np.complex128)
        for k in range(2 - j, support_depth):
            at = _dilated_index(g, k, q, support_depth)
            scaling *= (tables[0][0, at], tables[1][0, at])
        hat = _dilated_index(g, g_hat.j_neg - j, q, g_hat.width)
        total += (cross * scaling[0] * np.conj(scaling[1])
                  * g_hat.values[hat] * np.conj(h_hat.values[hat]))
    details = {"dilation_low": j_lo, "dilation_high": j_hi}
    return make_report("multiplier_orthogonality", base_depth, np.abs(total), tol, params, details)


def __getattr__(name: str):
    # perfbench/checks.py imports ``cascade_value`` from here; it resolves
    # from ``reference`` on first access, and no other name does
    if name == "cascade_value":
        from . import reference

        return reference.cascade_value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
