"""Functional verification at desk scale: cascade products for the scaling
symbol, partition-of-unity checks, the discrete perfect-reconstruction
transform under the carry-free index group, and the Parseval / cross-frame /
multiplier experiments.

Discrete signals are complex arrays of length q**M; translations act by the
carry-free group law, so periodization is exact and there is no boundary
handling anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .construct import FramePair, bank_depth, covering_depth
from .errors import ConstructionError, CoverageError, DepthError, ParameterError
from .galois import FieldParams
from .localfield import FieldElement, fe_zero, grid_digits, grid_point
from .mask import (
    DEFAULT_CASCADE_TOL,
    DEFAULT_MATRIX_TOL,
    CheckReport,
    FilterBank,
    Mask,
    _character_factor,
    _fold,
    _grid_transform,
    check_uep,
    eval_mask,
    mask_values_on_grid,
)


@dataclass(frozen=True)
class HatGrid:
    """Samples of a hat function on the ball |x| <= q**j_neg at resolution
    q**-j_pos.  Point h has digit (h // q**i) % q at power i - j_neg, so the
    lowest power cycles fastest and index 0 is the origin.
    """

    params: FieldParams
    j_neg: int
    j_pos: int
    values: np.ndarray
    stabilized_at: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.params.q ** (self.j_neg + self.j_pos),):
            raise ParameterError("hat grid values have the wrong length")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
    return HatGrid(params, j_neg, j_pos, vals)


def cascade_phihat(
    m0: Mask,
    iterations: int,
    j_neg: int = 2,
    j_pos: int = 3,
) -> HatGrid:
    """Truncated infinite product phihat_J(x) = prod_{j=1..J} m0(t**j x).

    Factors become identically 1 once t**j x lands deep enough in the ring
    of integers for every grid point; the first such j is recorded as
    ``stabilized_at`` (the product is exact from there on).
    """
    if iterations < 1:
        raise ParameterError(f"cascade iterations must be at least 1, got {iterations}")
    if j_neg < 0 or j_pos < 0:
        raise ParameterError(f"hat window bounds must be non-negative, got {j_neg} and {j_pos}")
    params = m0.params
    value0 = eval_mask(m0, fe_zero(params))
    if abs(value0 - 1.0) > 1e-12:
        raise ParameterError(f"refinement mask is not normalized: m0(0) = {value0}")
    q = params.q
    width = j_neg + j_pos
    digits = grid_digits(params, width)
    support_depth = covering_depth(m0.max_index, q)
    # m0 is constant on cosets of B^s: each factor gathers from one table
    table = mask_values_on_grid([m0], support_depth)[0]
    values = np.ones(q ** width, dtype=np.complex128)
    stabilized_at = None
    for j in range(1, iterations + 1):
        # digit of t**j x at power i equals digit of x at power i - j,
        # i.e. column i - j + j_neg of the hat digit matrix
        g = np.zeros(len(values), dtype=np.int64)
        needs_any = False
        for i in range(support_depth):
            src = i - j + j_neg
            if 0 <= src < width:
                g += digits[:, src] * q ** i
                needs_any = True
        if not needs_any:
            stabilized_at = j if stabilized_at is None else stabilized_at
            break
        values *= table[g]
    return HatGrid(params, j_neg, j_pos, values, stabilized_at=stabilized_at)


def partition_sums(phihat: HatGrid, translates: int) -> np.ndarray:
    """sum_{k<K} |phihat(xi + u(k))|**2 for every point xi of the base grid
    (the ring-of-integers part of the hat window, at its full resolution)."""
    params = phihat.params
    q = params.q
    if translates < 1:
        raise ParameterError("need at least one translate")
    if translates > q ** phihat.j_neg:
        raise CoverageError(
            f"{translates} translates exceed the coverage ball of q**{phihat.j_neg} points"
        )
    base = np.arange(q ** phihat.j_pos, dtype=np.int64) * q ** phihat.j_neg
    power = np.abs(phihat.values) ** 2
    sums = np.zeros(len(base))
    for k in range(translates):
        # u(k): base-q digit b_i at power -(i+1), i.e. hat column j_neg-1-i
        offset = 0
        kk, i = k, 0
        while kk:
            kk, b = divmod(kk, q)
            offset += b * q ** (phihat.j_neg - 1 - i)
            i += 1
        sums += power[base + offset]
    return sums


def partition_of_unity_check(
    phihat: HatGrid, translates: int, tol: float = DEFAULT_CASCADE_TOL
) -> CheckReport:
    """max over the base grid of | sum_{k<K} |phihat(xi + u(k))|**2 - 1 |."""
    params = phihat.params
    q = params.q
    sums = partition_sums(phihat, translates)
    dev = np.abs(sums - 1.0)
    worst = int(np.argmax(dev))
    return CheckReport(
        condition="partition_of_unity",
        grid_depth=phihat.j_pos,
        max_deviation=float(dev[worst]),
        tolerance=tol,
        passed=bool(dev[worst] <= tol),
        worst_point=grid_point(params, phihat.j_pos, worst),
        details={"translates": translates, "coverage_ball": q ** phihat.j_neg},
    )


# ---------------------------------------------------------------------------
# discrete transforms under the carry-free group


def _signal_levels(params: FieldParams, n: int) -> int:
    q = params.q
    levels = 0
    size = 1
    while size < n:
        size *= q
        levels += 1
    if size != n:
        raise ParameterError(f"signal length {n} is not a power of q = {q}")
    return levels


def _coeff_matrix(bank: FilterBank) -> np.ndarray:
    if any(m.stride != 1 for m in bank.masks):
        raise ParameterError("transforms expect stride-1 masks")
    width = max(len(m.coeffs) for m in bank.masks)
    out = np.zeros((len(bank.masks), max(width, 1)), dtype=np.complex128)
    for l, m in enumerate(bank.masks):
        out[l, : len(m.coeffs)] = m.coeffs
    return out


def _component_symbols(bank: FilterBank, n: int) -> np.ndarray:
    """Symbols of the polyphase components h_{l,r}[j] = coeffs_l[r + q*j]
    on the index group of n/q points, as a table (q**e, L+1, q) over the
    components' covering depth e: point x reads row x mod q**e."""
    params = bank.params
    q = params.q
    levels = _signal_levels(params, n)
    if levels < 1:
        raise DepthError("signal must have at least q samples")
    coeffs = _coeff_matrix(bank)
    if coeffs.shape[1] > n:
        raise DepthError(f"mask support {coeffs.shape[1]} exceeds signal length {n}")
    rows = _fold(coeffs, q).transpose(0, 2, 1).reshape(len(coeffs) * q, -1)
    values, e = _grid_transform(params, rows, levels - 1)
    return (values * math.sqrt(q)).reshape(len(coeffs), q, q ** e).transpose(2, 0, 1)


def _symbol_product(params: FieldParams, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Inverse transform of table[x mod R] @ (transforms of ``rows`` at x)
    for every point x, R = len(table): one matrix product per x mod R."""
    factor = _character_factor(params)
    spectra = kernels.character_transform(rows, factor)
    m, n = spectra.shape
    products = table @ spectra.reshape(m, -1, len(table)).transpose(2, 0, 1)
    inverse = np.conj(factor).T / params.q
    return kernels.character_transform(products.transpose(1, 2, 0).reshape(-1, n), inverse)


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
    if branches.ndim != 2 or branches.shape[0] != len(bank.masks):
        raise ParameterError("branches must be an (L+1, n/q) array matching the bank")
    n_out = branches.shape[1] * bank.params.q
    table = _component_symbols(bank, n_out)
    return _symbol_product(bank.params, table.transpose(0, 2, 1), branches).T.reshape(n_out)


def random_signal(params: FieldParams, size_exponent: int, rng: np.random.Generator) -> np.ndarray:
    n = params.q ** size_exponent
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _trial_report(condition, per_trial, size_exponent, levels, seed, tol) -> CheckReport:
    worst_trial = int(np.argmax(per_trial))
    worst = float(per_trial[worst_trial])
    details = {"levels": levels, "trials": len(per_trial), "seed": seed,
               "worst_trial": worst_trial, "per_trial": per_trial}
    return CheckReport(condition, size_exponent, worst, tol, bool(worst <= tol), None, details)


def _require_sizes(size_exponent: int, levels: int, trials: int) -> None:
    """Signal size, levels and trials must each be at least 1: below that
    an experiment checks nothing."""
    for name, value in (("signal size", size_exponent), ("levels", levels), ("trials", trials)):
        if value < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")


def _require_uep(bank: FilterBank, label: str) -> None:
    report = check_uep(bank, bank_depth(bank))
    if not report.passed:
        raise ConstructionError(f"{label} bank fails the tight-frame precondition", report)


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
    _require_sizes(size_exponent, levels, trials)
    if enforce_precondition:
        _require_uep(bank, "input")
    if levels >= size_exponent:
        raise DepthError("levels must stay below the signal size exponent")
    rng = np.random.default_rng([0x7E, seed])
    per_trial = []
    for _ in range(trials):
        v = random_signal(bank.params, size_exponent, rng)
        total = float(np.vdot(v, v).real)
        acc = 0.0
        s = v
        for _ in range(levels):
            branches = analysis_step(s, bank)
            s = branches[0]
            acc += float(np.sum(np.abs(branches[1:]) ** 2))
        acc += float(np.vdot(s, s).real)
        per_trial.append(abs(acc - total) / total)
    return _trial_report("parseval", per_trial, size_exponent, levels, seed, tol)


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
    _require_sizes(size_exponent, levels, trials)
    if enforce_precondition:
        _require_uep(pair.primal, "primal")
        _require_uep(pair.dual, "dual")
    if levels >= size_exponent:
        raise DepthError("levels must stay below the signal size exponent")
    rng = np.random.default_rng([0x3D, seed])
    per_trial = []
    for _ in range(trials):
        v = random_signal(pair.params, size_exponent, rng)
        stack = []
        s = v
        for _ in range(levels):
            branches = analysis_step(s, pair.primal)
            s = branches[0]
            stack.append(branches[1:])
        r = np.zeros(len(s), dtype=np.complex128)
        for wavelet_branches in reversed(stack):
            merged = np.vstack([r[None, :], wavelet_branches])
            r = synthesis_step(merged, pair.dual)
        per_trial.append(float(np.linalg.norm(r) / np.linalg.norm(v)))
    return _trial_report("mixed_frame", per_trial, size_exponent, levels, seed, tol)


# ---------------------------------------------------------------------------
# hat-level multiplier check


def _dilated_point(x: FieldElement, j: int) -> FieldElement:
    """t**(-j) * x."""
    return FieldElement(x.params, x.v - j, x.digits)


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
    support_depth = covering_depth(max(pair.primal.max_index, pair.dual.max_index), q)
    j_hi = g_hat.j_neg
    j_lo = -(support_depth + 1)
    if dilations is not None:
        j_lo = max(j_lo, -dilations)
        j_hi = min(j_hi, dilations)
    worst = 0.0
    worst_idx = 0
    base_depth = g_hat.j_pos
    for g in range(q ** base_depth):
        xi = grid_point(params, base_depth, g)
        total = 0.0 + 0.0j
        for j in range(j_lo, j_hi + 1):
            x = _dilated_point(xi, j)
            tx = FieldElement(params, x.v + 1, x.digits)
            phi_p = cascade_value(pair.primal.m0, tx)
            phi_d = cascade_value(pair.dual.m0, tx)
            if phi_p == 0 or phi_d == 0:
                continue
            gv = g_hat(x)
            hv = h_hat(x)
            for l in range(pair.primal.n_wavelets):
                psi = eval_mask(pair.primal.wavelets[l], tx) * phi_p * gv
                phi = eval_mask(pair.dual.wavelets[l], tx) * phi_d * hv
                total += psi * np.conj(phi)
        dev = abs(total)
        if dev > worst:
            worst, worst_idx = dev, g
    return CheckReport(
        condition="multiplier_orthogonality",
        grid_depth=base_depth,
        max_deviation=float(worst),
        tolerance=tol,
        passed=bool(worst <= tol),
        worst_point=grid_point(params, base_depth, worst_idx),
        details={"dilation_low": j_lo, "dilation_high": j_hi},
    )
