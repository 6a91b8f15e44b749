"""States layer: entangled and isotropic density matrices and their
hermiticity and eigenvalue checks, the locality threshold, the tensor-power
expansion identity, and the partial-trace oracle these tests rely on."""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import make_isotropic, partial_trace, tensor_power_blocked

from kvbell.errors import GuardError, ValidationError
from kvbell.states import (
    ENTANGLED,
    MIXED,
    PSD_CHECK_MAX_DIM,
    THRESHOLD_DIM_GUARD,
    DensityMatrix,
    StateExpansion,
    expand_tensor_power,
    interleave_to_blocked,
    locality_threshold,
    make_mes,
    mes_vector,
    realize_term,
)


def test_density_matrix_validation(rng):
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.0, 1.0], [0.0, 1.0]]))  # not hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


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


def test_mes_vector_and_state():
    v = mes_vector(3)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    want = np.zeros(9)
    want[[0, 4, 8]] = 1 / math.sqrt(3)
    assert np.allclose(v, want)
    rho = make_mes(3)
    assert abs(np.trace(rho.matrix @ rho.matrix) - 1.0) < 1e-12  # pure
    # both marginals are maximally mixed
    for side in ([0], [1]):
        red = partial_trace(rho.matrix, [3, 3], side)
        assert np.allclose(red, np.eye(3) / 3, atol=1e-14)


def test_isotropic_eigenvalues_d2_p_half():
    rho = make_isotropic(2, 0.5)
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    assert np.allclose(eigs, [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_isotropic_endpoints_and_marginals():
    d = 3
    assert np.allclose(make_isotropic(d, 1.0).matrix, make_mes(d).matrix)
    assert np.allclose(make_isotropic(d, 0.0).matrix, np.eye(d * d) / d**2)
    for p in [0.0, 0.2, 0.5, 0.8, 1.0]:
        rho = make_isotropic(d, p)
        red = partial_trace(rho.matrix, [d, d], [0])
        assert np.allclose(red, np.eye(d) / d, atol=1e-13)
    with pytest.raises(ValidationError):
        make_isotropic(d, 1.2)


def test_locality_threshold_formula():
    for d in [*range(2, 11), 1000]:
        want = Fraction(3 * d - 1) * Fraction(d - 1) ** (d - 1)
        want /= Fraction(d + 1) * Fraction(d) ** d
        assert locality_threshold(d) == float(want)
    assert locality_threshold(2) == float(Fraction(5, 12))


def test_threshold_dimension_guard():
    assert locality_threshold(THRESHOLD_DIM_GUARD) > 0.0
    with pytest.raises(GuardError):
        locality_threshold(THRESHOLD_DIM_GUARD + 1)


def test_threshold_copy_gain_crossing():
    # the per-copy gain alpha = d * p at the threshold weight, as the
    # superactivation command forms it; the single-copy-local,
    # many-copy-nonlocal window opens at d = 8
    gain = {d: d * locality_threshold(d) for d in (7, 8, 20)}
    assert gain[7] < 1.0 < gain[8]
    assert abs(gain[7] - 0.99142) < 5e-6
    assert abs(gain[8] - 1.00356) < 5e-6
    # gain grows toward its limit 3/e
    assert gain[8] < gain[20] < 3 / math.e


def test_expansion_term_structure():
    exp_ = expand_tensor_power(2, 0.3, 3)
    assert len(exp_.terms) == 8
    assert exp_.terms[0][1] == (ENTANGLED,) * 3
    assert exp_.terms[-1][1] == (MIXED,) * 3
    assert abs(math.fsum(w for w, _ in exp_.terms) - 1.0) < 1e-14
    for w, pat in exp_.terms:
        s = pat.count(ENTANGLED)
        assert abs(w - 0.3**s * 0.7 ** (3 - s)) < 1e-15
    # patterns enumerate codes in descending order, entangled bit first
    codes = [
        sum((1 << (3 - 1 - i)) for i, lab in enumerate(pat) if lab == ENTANGLED)
        for _, pat in exp_.terms
    ]
    assert codes == sorted(codes, reverse=True)


def test_expansion_endpoints():
    all_mix = expand_tensor_power(2, 0.0, 2)
    weights = {pat: w for w, pat in all_mix.terms}
    assert weights[(MIXED, MIXED)] == 1.0
    all_mes = expand_tensor_power(2, 1.0, 2)
    weights = {pat: w for w, pat in all_mes.terms}
    assert weights[(ENTANGLED, ENTANGLED)] == 1.0


def test_expansion_validation():
    with pytest.raises(GuardError):
        expand_tensor_power(2, 0.5, 21)
    with pytest.raises(ValidationError):
        expand_tensor_power(2, -0.1, 2)
    with pytest.raises(ValidationError):
        StateExpansion(d=2, k=1, p=0.5, terms=((1.0, (ENTANGLED,)),))
    with pytest.raises(ValidationError):
        StateExpansion(
            d=2, k=1, p=0.5, terms=((0.6, (ENTANGLED,)), (0.6, (MIXED,)))
        )


def test_realize_all_entangled_is_global_mes():
    for d, k in [(2, 1), (2, 2), (3, 2), (2, 3), (4, 2)]:
        got = realize_term((ENTANGLED,) * k, d, k)
        assert np.max(np.abs(got.matrix - make_mes(d**k).matrix)) < 1e-15


def test_realize_all_mixed_is_white_noise():
    got = realize_term((MIXED, MIXED), 2, 2)
    assert np.allclose(got.matrix, np.eye(16) / 16, atol=1e-15)


def test_realize_guard_and_validation():
    with pytest.raises(GuardError):
        realize_term((ENTANGLED,) * 4, 3, 4)  # 81 > 64
    with pytest.raises(ValidationError):
        realize_term((ENTANGLED,), 2, 2)
    with pytest.raises(ValidationError):
        realize_term(("bogus",), 2, 1)


def test_interleave_permutation_on_products(rng):
    # interleaved kron (a1 b1 a2 b2) must map to blocked kron (a1 a2 b1 b2)
    d = 2
    a1, b1, a2, b2 = (rng.normal(size=(d, d)) for _ in range(4))
    interleaved = np.kron(np.kron(np.kron(a1, b1), a2), b2)
    blocked = np.kron(np.kron(np.kron(a1, a2), b1), b2)
    assert np.allclose(interleave_to_blocked(interleaved, d, 2), blocked, atol=1e-13)
    with pytest.raises(ValidationError):
        interleave_to_blocked(np.eye(8), 2, 2)


def test_mes_tensor_power_collapses():
    for d, k in [(2, 2), (3, 2), (2, 3)]:
        got = tensor_power_blocked(make_mes(d), d, k)
        assert np.max(np.abs(got.matrix - make_mes(d**k).matrix)) < 1e-15


def test_expansion_reconstructs_isotropic_power(rng):
    """Weighted sum of realized terms == blocked power of the mixed state."""
    for d, k in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]:
        for p in np.linspace(0.0, 1.0, 11):
            exp_ = expand_tensor_power(d, float(p), k)
            total = np.zeros((d ** (2 * k), d ** (2 * k)))
            for w, pat in exp_.terms:
                total += w * realize_term(pat, d, k).matrix
            want = tensor_power_blocked(make_isotropic(d, float(p)), d, k).matrix
            assert np.max(np.abs(total - want)) < 1e-12


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
