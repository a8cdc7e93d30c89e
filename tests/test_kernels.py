"""Backend selection and numba/numpy kernel agreement."""

import os
import subprocess
import sys

import numpy as np
import pytest

from framefield import kernels
from framefield.galois import FieldParams, field_tables
from framefield.mask import _tmod


def _random_problem(rng, q=3, s=4, na=9, nb=27):
    a = rng.integers(0, q, size=(na, s)).astype(np.int64)
    b = rng.integers(0, q, size=(nb, s)).astype(np.int64)
    return a, b


@pytest.mark.skipif(kernels.exponent_table_numba is None, reason="numba unavailable")
def test_exponent_table_backends_agree(rng):
    params = FieldParams(3, 2)
    tmod = _tmod(params)
    a, b = _random_problem(rng, q=params.q)
    ref = kernels.exponent_table_numpy(a, b, tmod, params.p)
    jit = kernels.exponent_table_numba(a, b, tmod, params.p)
    assert np.array_equal(ref, jit)


@pytest.mark.skipif(kernels.analysis_apply_numba is None, reason="numba unavailable")
def test_transform_backends_agree(rng):
    coeffs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    signal = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    idx = rng.integers(0, 16, size=(5, 8)).astype(np.int64)
    branches = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    a_np = kernels.analysis_apply_numpy(coeffs, signal, idx)
    a_nb = kernels.analysis_apply_numba(coeffs, signal, idx)
    assert np.allclose(a_np, a_nb, atol=1e-14, rtol=0)
    s_np = kernels.synthesis_apply_numpy(coeffs, branches, idx, 16)
    s_nb = kernels.synthesis_apply_numba(coeffs, branches, idx, 16)
    assert np.allclose(s_np, s_nb, atol=1e-14, rtol=0)


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_env_flag_selects_backend(backend):
    env = dict(os.environ, FRAMEFIELD_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, "-c", "import framefield.kernels as k; print(k.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == backend


def test_bad_env_flag_rejected():
    env = dict(os.environ, FRAMEFIELD_BACKEND="cuda")
    out = subprocess.run(
        [sys.executable, "-c", "import framefield.kernels"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode != 0


def test_root_table_exactness():
    r2 = kernels.root_table(2)
    assert r2[0] == 1.0 and r2[1] == -1.0
    r5 = kernels.root_table(5)
    assert np.allclose(np.abs(r5), 1.0, atol=1e-15)

