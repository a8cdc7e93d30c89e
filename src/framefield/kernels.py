"""Numeric kernels: the character transform and the dense filter-bank reference.

Characters factor digit by digit: for indices and points below q^e,
chi_j(x) is a product over the e digit positions of one q-by-q table.  The
matrix of character values on the depth-e grid is therefore the e-th
Kronecker power of that table, and ``character_transform`` evaluates a
batch of coefficient rows on the whole grid with e small matrix products
(the Chrestenson / Vilenkin fast generalized-Walsh transform, after
I. J. Good's Kronecker factorization): O(M e q^(e+1)) time for M rows.  It
overwrites the rows it is given, one block of rows at a time, and needs
one scratch array of a block's size.

``exponent_table`` and ``conj_char_matrix`` build that q-by-q table from
the field's c-by-c Hankel form M, as the c-fold Kronecker power of the
p-by-p table conj omega**(i*j) with columns permuted by x -> Mx.
``analysis_apply`` and ``synthesis_apply`` are the dense gather/scatter
reference for one filter-bank level (the package runs it as polyphase
products in ``verify``); tests compare against them, and
``perfbench/tracer.py`` hooks them by name.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "exponent_table",
    "analysis_apply",
    "synthesis_apply",
    "character_transform",
    "conj_char_matrix",
    "root_table",
]


def exponent_table(a_digits: np.ndarray, b_digits: np.ndarray, tmod: np.ndarray, p: int) -> np.ndarray:
    """E[i, j] = sum_d tmod[a_digits[i, d], b_digits[j, d]]  (mod p),
    reduced in place.  With the coordinates of digit codes a and M x and
    the p-by-p product table, E is the character exponent a^T M x."""
    na, s = a_digits.shape
    nb = b_digits.shape[0]
    out = np.zeros((na, nb), dtype=np.int64)
    for d in range(s):
        out += tmod[a_digits[:, d][:, None], b_digits[None, :, d]]
    return np.remainder(out, p, out=out)


def analysis_apply(coeffs: np.ndarray, signal: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """W[l, k] = sum_m conj(coeffs[l, m]) * signal[idx[m, k]]."""
    return np.conj(coeffs) @ signal[idx]


def synthesis_apply(coeffs: np.ndarray, branches: np.ndarray, idx: np.ndarray, n_out: int) -> np.ndarray:
    """out[idx[m, k]] += sum_l coeffs[l, m] * branches[l, k]  (adjoint of analysis)."""
    out = np.zeros(n_out, dtype=np.complex128)
    contrib = coeffs.T @ branches
    np.add.at(out, idx.ravel(), contrib.ravel())
    return out


def character_transform(x: np.ndarray, factor: np.ndarray, block: int) -> np.ndarray:
    """Overwrite x with out[:, j'] = sum_j x[:, j] * prod_d factor[j_d, j'_d]
    and return it.

    ``x`` is a C-contiguous (M, q^e) complex array and ``factor`` is
    q-by-q; j_d and j'_d are the base-q digits of the column indices, the
    power-0 digit cycling fastest.  Rows are independent, so they go in
    blocks of near max(``block``, q^2) values (a product packs the q^2
    factor on every call) through one scratch array of a block's size.
    Each step contracts the lowest remaining index digit (the last axis)
    with one matrix product into the scratch, then copies the result back
    with the point digit it yields rotated to the front, so after e steps x
    is in grid order.  A block holds all M rows or max(block, q^2) // n at
    least, so its products have q rows or as many as unblocked ones: BLAS
    takes its one-row (matrix-vector) route only where M = 1 does too.
    """
    if not x.flags.c_contiguous:
        raise ValueError("the character transform works in place on a C-contiguous array")
    m, n = x.shape
    q = factor.shape[0]
    count = max(m // max(max(block, q * q) // n, 1), 1)
    bounds = [m * i // count for i in range(count + 1)]
    scratch = np.empty(-(-m // count) * n, dtype=x.dtype)
    for start, stop in zip(bounds, bounds[1:]):
        rows, part, out = stop - start, x[start:stop], scratch[: (stop - start) * n]
        size = 1
        while size < n:  # explicit sizes, so that a block of no rows reshapes too
            np.matmul(part.reshape(rows * n // q, q), factor, out=out.reshape(rows * n // q, q))
            part.reshape(rows, q, n // q)[...] = out.reshape(rows, n // q, q).transpose(0, 2, 1)
            size *= q
    return x


def root_table(p: int) -> np.ndarray:
    """The p-th roots of unity exp(2*pi*i*k/p), k = 0..p-1.

    For p = 2 the values are the exact reals +1, -1; odd p gets the closest
    double-precision complex values.
    """
    if p == 2:
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    return np.exp(2j * np.pi * np.arange(p) / p)


def conj_char_matrix(exponents: np.ndarray, p: int) -> np.ndarray:
    """conj of omega**E looked up in the exact root table: one gather from
    the table reindexed by k -> -k mod p."""
    return root_table(p)[-np.arange(p) % p][exponents]
