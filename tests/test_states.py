"""States layer: entangled and isotropic density matrices, the locality
threshold, and the tensor-power expansion identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import partial_trace, tensor_power_blocked

from kvbell.errors import GuardError, ValidationError
from kvbell.states import (
    ENTANGLED,
    MIXED,
    DensityMatrix,
    StateExpansion,
    expand_tensor_power,
    interleave_to_blocked,
    locality_threshold,
    make_isotropic,
    make_mes,
    mes_vector,
    realize_term,
    threshold_copy_gain,
)


def test_density_matrix_validation(rng):
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.0, 1.0], [0.0, 1.0]]))  # not hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    m = np.diag([1.5, -0.5])
    dm = DensityMatrix(m, check_psd=False)
    assert dm.dim == 2


def test_mes_vector_and_state():
    v = mes_vector(3)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    want = np.zeros(9)
    want[[0, 4, 8]] = 1 / math.sqrt(3)
    assert np.allclose(v, want)
    rho = make_mes(3)
    assert abs(rho.purity() - 1.0) < 1e-12
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
    for d in range(2, 11):
        want = Fraction(3 * d - 1) * Fraction(d - 1) ** (d - 1)
        want /= Fraction(d + 1) * Fraction(d) ** d
        assert locality_threshold(d) == float(want)
    assert locality_threshold(2) == float(Fraction(5, 12))


def test_threshold_copy_gain_crossing():
    # the single-copy-local, many-copy-nonlocal window opens at d = 8
    assert threshold_copy_gain(7) < 1.0 < threshold_copy_gain(8)
    assert abs(threshold_copy_gain(7) - 0.99142) < 5e-6
    assert abs(threshold_copy_gain(8) - 1.00356) < 5e-6
    # gain grows toward its limit 3/e
    assert threshold_copy_gain(8) < threshold_copy_gain(20) < 3 / math.e


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
