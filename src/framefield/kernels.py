"""Hot numeric kernels with two interchangeable backends.

The inner loops that dominate grid sweeps and filter-bank transforms live
here in two versions: plain numpy array code, and numba @njit loops.  The
active backend is chosen at import time from the environment:

    FRAMEFIELD_BACKEND=numba   force numba (ImportError if unavailable)
    FRAMEFIELD_BACKEND=numpy   force the pure-numpy fallback
    unset / auto               numba when importable, else numpy

Both implementations are exact integer/complex arithmetic and return
identical arrays; the test suite asserts bit-for-bit agreement and
``benchmarks/bench_kernels.py`` compares their speed.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKEND",
    "exponent_table",
    "analysis_apply",
    "synthesis_apply",
    "conj_char_matrix",
    "root_table",
]


def _requested_backend() -> str:
    value = os.environ.get("FRAMEFIELD_BACKEND", "auto").strip().lower()
    if value in ("", "auto"):
        return "auto"
    if value in ("numba", "numpy"):
        return value
    raise ValueError(f"FRAMEFIELD_BACKEND must be 'numba', 'numpy' or 'auto', got {value!r}")


# ---------------------------------------------------------------------------
# numpy implementations


def exponent_table_numpy(a_digits: np.ndarray, b_digits: np.ndarray, tmod: np.ndarray, p: int) -> np.ndarray:
    """E[i, j] = sum_d tmod[a_digits[i, d], b_digits[j, d]]  (mod p).

    ``tmod[a, b]`` is the character exponent of the GF(q) product of digit
    codes a and b; summing it over matching digit positions gives the
    exponent of the Walsh character pairing the two digit strings.
    """
    na, s = a_digits.shape
    nb = b_digits.shape[0]
    out = np.zeros((na, nb), dtype=np.int64)
    for d in range(s):
        out += tmod[a_digits[:, d][:, None], b_digits[None, :, d]]
    return out % p


def analysis_apply_numpy(coeffs: np.ndarray, signal: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """W[l, k] = sum_m conj(coeffs[l, m]) * signal[idx[m, k]]."""
    return np.conj(coeffs) @ signal[idx]


def synthesis_apply_numpy(coeffs: np.ndarray, branches: np.ndarray, idx: np.ndarray, n_out: int) -> np.ndarray:
    """out[idx[m, k]] += sum_l coeffs[l, m] * branches[l, k]  (adjoint of analysis)."""
    out = np.zeros(n_out, dtype=np.complex128)
    contrib = coeffs.T @ branches
    np.add.at(out, idx.ravel(), contrib.ravel())
    return out


# ---------------------------------------------------------------------------
# numba implementations

_REQUESTED = _requested_backend()
_NUMBA_OK = False
if _REQUESTED in ("auto", "numba"):
    try:
        from numba import njit

        _NUMBA_OK = True
    except ImportError:
        if _REQUESTED == "numba":
            raise

if _NUMBA_OK:

    @njit(cache=True, nogil=True)
    def _exponent_table_numba(a_digits, b_digits, tmod, p):
        na, s = a_digits.shape
        nb = b_digits.shape[0]
        out = np.zeros((na, nb), dtype=np.int64)
        for i in range(na):
            for j in range(nb):
                acc = 0
                for d in range(s):
                    acc += tmod[a_digits[i, d], b_digits[j, d]]
                out[i, j] = acc % p
        return out

    @njit(cache=True, nogil=True)
    def _analysis_apply_numba(coeffs, signal, idx):
        nl, nm = coeffs.shape
        nk = idx.shape[1]
        out = np.zeros((nl, nk), dtype=np.complex128)
        for l in range(nl):
            for k in range(nk):
                acc = 0.0 + 0.0j
                for m in range(nm):
                    acc += np.conj(coeffs[l, m]) * signal[idx[m, k]]
                out[l, k] = acc
        return out

    @njit(cache=True, nogil=True)
    def _synthesis_apply_numba(coeffs, branches, idx, n_out):
        nl, nm = coeffs.shape
        nk = idx.shape[1]
        out = np.zeros(n_out, dtype=np.complex128)
        for m in range(nm):
            for k in range(nk):
                acc = 0.0 + 0.0j
                for l in range(nl):
                    acc += coeffs[l, m] * branches[l, k]
                out[idx[m, k]] += acc
        return out

    def exponent_table_numba(a_digits, b_digits, tmod, p):
        return _exponent_table_numba(
            np.ascontiguousarray(a_digits), np.ascontiguousarray(b_digits), tmod, p
        )

    def analysis_apply_numba(coeffs, signal, idx):
        return _analysis_apply_numba(
            np.ascontiguousarray(coeffs), np.ascontiguousarray(signal), np.ascontiguousarray(idx)
        )

    def synthesis_apply_numba(coeffs, branches, idx, n_out):
        return _synthesis_apply_numba(
            np.ascontiguousarray(coeffs), np.ascontiguousarray(branches),
            np.ascontiguousarray(idx), n_out,
        )

else:
    exponent_table_numba = None
    analysis_apply_numba = None
    synthesis_apply_numba = None


if _NUMBA_OK and _REQUESTED in ("auto", "numba"):
    BACKEND = "numba"
    exponent_table = exponent_table_numba
    analysis_apply = analysis_apply_numba
    synthesis_apply = synthesis_apply_numba
else:
    BACKEND = "numpy"
    exponent_table = exponent_table_numpy
    analysis_apply = analysis_apply_numpy
    synthesis_apply = synthesis_apply_numpy


# ---------------------------------------------------------------------------
# shared helpers (backend-independent)


def root_table(p: int) -> np.ndarray:
    """The p-th roots of unity exp(2*pi*i*k/p), k = 0..p-1.

    For p = 2 the values are the exact reals +1, -1; odd p gets the closest
    double-precision complex values.
    """
    if p == 2:
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    return np.exp(2j * np.pi * np.arange(p) / p)


def conj_char_matrix(exponents: np.ndarray, p: int) -> np.ndarray:
    """conj of omega**E looked up in the exact root table."""
    roots = root_table(p)
    return roots[(p - exponents) % p]
