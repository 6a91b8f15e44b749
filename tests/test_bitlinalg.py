"""Bit counting and the density-matrix checks against direct oracles, and
the partial-trace oracle the states tests rely on."""

import numpy as np
import pytest
from oracles import partial_trace

from kvbell.errors import ValidationError
from kvbell.kvgame import popcount
from kvbell.states import PSD_CHECK_MAX_DIM, DensityMatrix


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
    h = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    assert DensityMatrix(h).dim == 2
    assert DensityMatrix(h + np.array([[0.0, 1e-13], [0.0, 0.0]])).dim == 2
    for bad in (np.array([[0.5, 1.0], [0.0, 0.5]]), h + np.array([[0.0, 1e-11], [0.0, 0.0]])):
        with pytest.raises(ValidationError, match="not hermitian"):
            DensityMatrix(bad)


def test_min_eigenvalue(rng):
    # unit-trace hermitian matrices whose smallest eigenvalue is set exactly
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    for low, accepted in ((-1e-11, True), (-1e-9, False)):
        eigs = np.array([low, 0.1, 0.2, 0.3, 0.4 - low])
        m = (q * eigs) @ q.T
        if accepted:
            assert DensityMatrix(m).dim == 5
        else:
            with pytest.raises(ValidationError, match="eigenvalue"):
                DensityMatrix(m)
    # above PSD_CHECK_MAX_DIM the eigenvalue check is skipped
    dim = PSD_CHECK_MAX_DIM + 1
    big = np.diag(np.concatenate([[-0.5], np.full(dim - 1, 1.5 / (dim - 1))]))
    assert DensityMatrix(big).dim == dim


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
