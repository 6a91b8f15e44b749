"""Game construction layer: subgroup structure, coefficient table, question
marginal, measurements, bounds, referee sampling.

The load-bearing oracle here is test_dense_table_matches_protocol_sum: the
closed-form table entry must equal the explicit sum over noise strings that
defines the referee's behaviour.
"""

import math

import numpy as np
import pytest
from oracles import direct_coefficient_table_numpy

from kvbell.bitlinalg import popcount
from kvbell.errors import GuardError, ValidationError
from kvbell.kvgame import (
    BOUND_CONSTANTS,
    asymptotic_eta,
    build_hadamard_subgroup,
    classical_upper_bound_asymptotic,
    entangled_lower_bound_asymptotic,
    kv_classical_upper_bound,
    kv_functional,
    kv_game_to_json,
    kv_measurements,
    kv_question_marginal,
    noise_string_probs,
    noise_weights,
    referee_sample,
)


def test_subgroup_small_examples():
    assert build_hadamard_subgroup(1).subgroup.tolist() == [0, 1]
    assert build_hadamard_subgroup(2).subgroup.tolist() == [0, 5, 3, 6]


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_subgroup_is_a_group(l):
    sub = set(build_hadamard_subgroup(l).subgroup.tolist())
    assert 0 in sub
    assert len(sub) == 1 << l
    for a in sub:
        for b in sub:
            assert (a ^ b) in sub


@pytest.mark.parametrize("l", [1, 2, 3])
def test_subgroup_sign_vectors_orthogonal(l):
    table = build_hadamard_subgroup(l)
    n = table.n
    shifts = n - 1 - np.arange(n)
    bits = (table.subgroup[:, None] >> shifts[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    gram = signs @ signs.T
    assert np.array_equal(gram, n * np.eye(n))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_cosets_partition_the_group(l):
    table = build_hadamard_subgroup(l)
    n = table.n
    flat = table.elems.reshape(-1)
    assert sorted(flat.tolist()) == list(range(1 << n))
    # lookup arrays invert the layout
    for x in range(table.num_cosets):
        for i in range(n):
            v = int(table.elems[x, i])
            assert table.coset_of[v] == x
            assert table.pos_of[v] == i
            assert table.locate(v) == (x, i)
            assert table.element(x, i) == v


@pytest.mark.parametrize("l", [1, 2, 3])
def test_coset_rows_differ_by_subgroup_elements(l):
    table = build_hadamard_subgroup(l)
    sub = set(table.subgroup.tolist())
    for x in range(table.num_cosets):
        row = table.elems[x]
        diffs = row[:, None] ^ row[None, :]
        assert set(diffs.reshape(-1).tolist()) == sub


@pytest.mark.parametrize("l,eta", [(1, 0.5), (2, 0.25), (2, 0.5), (3, 0.1)])
def test_dense_table_matches_protocol_sum(l, eta):
    table = build_hadamard_subgroup(l)
    game = kv_functional(table, eta)
    probs = noise_string_probs(table.n, eta)
    oracle = direct_coefficient_table_numpy(table.elems, table.coset_of, probs)
    assert np.array_equal(game.dense(), oracle)


def test_dense_table_matches_pair_formula():
    table = build_hadamard_subgroup(2)
    eta = 0.3
    game = kv_functional(table, eta)
    dense = game.dense()
    for x in range(4):
        for y in range(4):
            for a in range(4):
                for b in range(4):
                    w = bin(int(table.elems[x, a]) ^ int(table.elems[y, b])).count("1")
                    want = eta**w * (1 - eta) ** (4 - w) / 4
                    assert abs(dense[x, y, a, b] - want) < 1e-16


@pytest.mark.parametrize("l,eta", [(1, 0.25), (2, 0.25), (3, 0.019)])
def test_total_mass_is_n(l, eta):
    game = kv_functional(build_hadamard_subgroup(l), eta)
    assert abs(game.total() - game.num_outputs) < 1e-12


def test_kv_functional_refuses_n16():
    # (4096 * 16)**2 coefficients: n = 16 is served by the closed forms only
    with pytest.raises(GuardError):
        kv_functional(build_hadamard_subgroup(4), 0.2)


def _marginal_bruteforce(table, eta):
    n = table.n
    probs = noise_string_probs(n, eta)
    N = table.num_cosets
    out = np.zeros((N, N))
    for x in range(N):
        for z in range(1 << n):
            y = table.coset_of[table.elems[x, 0] ^ z]
            out[x, y] += probs[z] / N
    return out


@pytest.mark.parametrize("l,eta", [(1, 0.4), (2, 0.25), (3, 0.05)])
def test_question_marginal_against_bruteforce(l, eta):
    table = build_hadamard_subgroup(l)
    game = kv_functional(table, eta)
    marg = kv_question_marginal(game)
    want = _marginal_bruteforce(table, eta)
    assert np.max(np.abs(marg - want)) < 1e-14
    assert abs(marg.sum() - 1.0) < 1e-12
    assert np.allclose(marg, marg.T)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_measurements_validate_and_overlap_formula(l):
    table = build_hadamard_subgroup(l)
    n = table.n
    meas = kv_measurements(table)
    assert len(meas) == table.num_cosets
    for m in meas:
        m.validate()
    # cross-coset overlap only depends on the xor weight
    for x in (0, table.num_cosets - 1):
        for y in range(table.num_cosets):
            dots = meas[x].vectors @ meas[y].vectors.T
            w = popcount(table.elems[x][:, None] ^ table.elems[y][None, :])
            assert np.max(np.abs(dots - (n - 2.0 * w) / n)) < 1e-12


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_within_coset_distance_is_half_n(l):
    table = build_hadamard_subgroup(l)
    n = table.n
    for x in range(min(table.num_cosets, 8)):
        row = table.elems[x]
        w = popcount(row[:, None] ^ row[None, :])
        off = w[~np.eye(n, dtype=bool)]
        assert np.all(off == n // 2)


def test_noise_weights_and_string_probs():
    w = noise_weights(4, 0.25)
    assert abs(w[0] - 0.75**4) < 1e-16
    assert abs(w[4] - 0.25**4) < 1e-16
    probs = noise_string_probs(4, 0.25)
    assert probs.shape == (16,)
    # full distribution over strings
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs[0b0101] == w[2]


def test_eta_validation():
    table = build_hadamard_subgroup(1)
    for bad in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(ValidationError):
            kv_functional(table, bad)
    with pytest.raises(ValidationError):
        build_hadamard_subgroup(0)
    with pytest.raises(GuardError):
        build_hadamard_subgroup(5)


def test_asymptotic_quantities():
    assert abs(asymptotic_eta(8) - (0.5 - 1.0 / math.log(8))) < 1e-16
    with pytest.raises(ValidationError):
        asymptotic_eta(4)
    assert BOUND_CONSTANTS.classical == math.exp(4.0)
    assert BOUND_CONSTANTS.entangled == 4.0
    assert abs(classical_upper_bound_asymptotic(8) - math.exp(4.0) / 8) < 1e-15
    assert abs(entangled_lower_bound_asymptotic(8) - 4.0 / math.log(8) ** 2) < 1e-15


def test_classical_upper_bound_identities():
    # at eta = 1/2 the exponent is -1
    assert abs(kv_classical_upper_bound(4, 0.5) - 0.25) < 1e-15
    assert abs(kv_classical_upper_bound(8, 0.5) - 0.125) < 1e-15
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    vals = [kv_classical_upper_bound(16, e) for e in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_referee_sample_determinism_and_consistency():
    table = build_hadamard_subgroup(2)
    s1 = referee_sample(table, 0.25, seed=42, count=1000)
    s2 = referee_sample(table, 0.25, seed=42, count=1000)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.z, s2.z)
    s3 = referee_sample(table, 0.25, seed=43, count=1000)
    assert not np.array_equal(s1.z, s3.z)
    # y is determined by x and z
    assert np.array_equal(table.coset_of[table.elems[s1.x, 0] ^ s1.z], s1.y)
    assert len(s1) == 1000


def test_referee_sample_statistics():
    table = build_hadamard_subgroup(2)
    eta = 0.25
    count = 100000
    s = referee_sample(table, eta, seed=7, count=count)
    # mean xor weight concentrates at n * eta
    mean_w = popcount(s.z).mean()
    sigma = math.sqrt(4 * eta * (1 - eta) / count)
    assert abs(mean_w - 4 * eta) < 5 * sigma
    # questions are uniform over cosets
    freq = np.bincount(s.x, minlength=4) / count
    assert np.max(np.abs(freq - 0.25)) < 0.01


def test_game_json_roundtrip():
    table = build_hadamard_subgroup(2)
    game = kv_functional(table, 0.25)
    doc = kv_game_to_json(game)
    assert doc["n"] == 4 and doc["N"] == 4 and doc["K"] == 4
    keys = [(e["x"], e["y"], e["a"], e["b"]) for e in doc["entries"]]
    assert keys == sorted(keys)
    dense = np.zeros((4, 4, 4, 4))
    for e in doc["entries"]:
        dense[e["x"], e["y"], e["a"], e["b"]] = e["c"]
    assert np.array_equal(dense, game.dense())
