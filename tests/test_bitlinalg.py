"""Popcount and hermitian-matrix helpers against direct oracles, and the
partial-trace oracle the states tests rely on."""

import numpy as np
import pytest
from oracles import partial_trace

from kvbell.bitlinalg import (
    assert_hermitian,
    hermiticity_defect,
    min_eigenvalue,
    popcount,
)
from kvbell.errors import ValidationError


def test_popcount_matches_python_bin(rng):
    values = rng.integers(0, 1 << 16, size=500)
    expected = np.array([bin(int(v)).count("1") for v in values])
    assert np.array_equal(popcount(values), expected)


def test_popcount_scalar_and_bounds():
    assert popcount(0) == 0
    assert popcount((1 << 16) - 1) == 16
    with pytest.raises(ValidationError):
        popcount(1 << 16)
    with pytest.raises(ValidationError):
        popcount(np.array([-1]))


def test_hermiticity_checks():
    h = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert hermiticity_defect(h) == 0.0
    assert_hermitian(h)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert hermiticity_defect(bad) > 0.4
    with pytest.raises(ValidationError):
        assert_hermitian(bad)


def test_min_eigenvalue(rng):
    m = rng.normal(size=(5, 5))
    m = m + m.T
    assert abs(min_eigenvalue(m) - np.linalg.eigvalsh(m)[0]) < 1e-12


def test_partial_trace_product_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, [2, 3], [0]), a)
    assert np.allclose(partial_trace(rho, [2, 3], [1]), b)
    assert np.allclose(partial_trace(rho, [2, 3], [0, 1]), rho)


def test_partial_trace_three_factors_einsum_oracle(rng):
    dims = [2, 3, 2]
    rho = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho).real
    t = rho.reshape(2, 3, 2, 2, 3, 2)
    keep_middle = np.einsum("ijkilk->jl", t)
    assert np.allclose(partial_trace(rho, dims, [1]), keep_middle)
    keep_outer = np.einsum("ijkljm->iklm", t).reshape(4, 4)
    assert np.allclose(partial_trace(rho, dims, [0, 2]), keep_outer)
    # trace is preserved no matter what is kept
    assert abs(np.trace(partial_trace(rho, dims, [2])) - 1.0) < 1e-12
