"""Game construction layer: subgroup structure, coefficient table, question
marginal, measurements, bounds, referee sampling.

The load-bearing oracle here is test_dense_table_matches_protocol_sum: the
closed-form table entry must equal the explicit sum over noise strings that
defines the referee's behaviour.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assert_projective_measurement,
    coset_table_by_loop,
    deterministic_value_by_fractions,
    direct_coefficient_table_numpy,
    dist_from_assignments,
    join_blocks,
    kv_game_to_json_per_entry,
    noise_string_probs,
    referee_sample_whole_x,
)

from kvbell.errors import GuardError, ValidationError
from kvbell.kvgame import (
    BOUND_CONSTANTS,
    MAX_LOG,
    NOISE_ROW_BLOCK,
    BellFunctional,
    asymptotic_eta,
    build_hadamard_subgroup,
    deterministic_value,
    entangled_lower_bound_asymptotic,
    kv_classical_upper_bound,
    kv_functional,
    kv_game_to_json,
    kv_measurements,
    kv_question_marginal,
    noise_weights,
    referee_sample,
)
from kvbell.values import pair


def test_subgroup_small_examples():
    assert build_hadamard_subgroup(1).subgroup.tolist() == [0, 1]
    assert build_hadamard_subgroup(2).subgroup.tolist() == [0, 5, 3, 6]


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_coset_table_matches_loop(l):
    table = build_hadamard_subgroup(l)
    got = (table.subgroup, table.elems, table.coset_of)
    for g, w in zip(got, coset_table_by_loop(l)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


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
    # (4096 * 16)**2 coefficients: n = 16 is served by the closed forms only,
    # and the refusal comes before the eta check and names that route
    for eta in (0.2, 0.9):
        with pytest.raises(GuardError, match="quantum_value_kv_closed_form"):
            kv_functional(build_hadamard_subgroup(4), eta)


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_deterministic_value_is_the_exact_sum(l, seed):
    # the pair counts by distance, summed in integers and rounded once, give
    # the exact sum over question pairs; the dense pairing, which rounds
    # every entry and sums in floats, agrees within 8 ulp
    table = build_hadamard_subgroup(l)
    N, n = table.num_cosets, table.n
    rng = np.random.default_rng(seed)
    alice, bob = rng.integers(0, n, size=(2, N))
    eta = 0.5 - float(rng.uniform(0.0, 0.5))  # in (0, 1/2]
    xs = np.arange(N)
    value = deterministic_value(table, eta, table.elems[xs, alice], table.elems[xs, bob])
    assert value == float(deterministic_value_by_fractions(table, eta, alice, bob))
    dense = pair(kv_functional(table, eta), dist_from_assignments(alice, bob, N, n))
    assert abs(value - dense) <= 8 * math.ulp(value)


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


@pytest.mark.parametrize("reader", [kv_question_marginal, kv_game_to_json])
def test_coset_game_readers_need_the_coset_table(reader):
    # the same entries without the coset table in meta are refused
    game = kv_functional(build_hadamard_subgroup(1), 0.25)
    bare = BellFunctional(game.num_inputs, game.num_outputs, game.dense(), {"eta": 0.25})
    with pytest.raises(ValidationError, match="built by kv_functional"):
        reader(bare)


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
        assert_projective_measurement(m)
    # cross-coset overlap only depends on the xor weight
    for x in (0, table.num_cosets - 1):
        for y in range(table.num_cosets):
            dots = meas[x].vectors @ meas[y].vectors.T
            w = np.bitwise_count(table.elems[x][:, None] ^ table.elems[y][None, :])
            assert np.max(np.abs(dots - (n - 2.0 * w) / n)) < 1e-12


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_within_coset_distance_is_half_n(l):
    table = build_hadamard_subgroup(l)
    n = table.n
    for x in range(min(table.num_cosets, 8)):
        row = table.elems[x]
        w = np.bitwise_count(row[:, None] ^ row[None, :])
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
    s1 = join_blocks(referee_sample(table, 0.25, seed=42, count=1000))
    s2 = join_blocks(referee_sample(table, 0.25, seed=42, count=1000))
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.z, s2.z)
    s3 = join_blocks(referee_sample(table, 0.25, seed=43, count=1000))
    assert not np.array_equal(s1.z, s3.z)
    # y is determined by x and z
    assert np.array_equal(table.coset_of[table.elems[s1.x, 0] ^ s1.z], s1.y)
    assert len(s1) == 1000
    # 4 cosets and 4-bit strings: every per-round array fits in 8 bits
    assert s1.x.dtype == s1.y.dtype == s1.z.dtype == np.uint8


@pytest.mark.parametrize("l", range(1, MAX_LOG + 1))
def test_num_cosets_is_a_power_of_two(l):
    # referee_sample starts the noise (count + 1) // 2 outputs into the
    # stream: with a power-of-two range numpy draws each x from one 32-bit
    # half and never rejects one
    table = build_hadamard_subgroup(l)
    assert table.num_cosets == 1 << ((1 << l) - l)


def _assert_matches_whole_draw(table, seed, count):
    blocks = list(referee_sample(table, 0.3, seed=seed, count=count))
    assert [len(b) for b in blocks[:-1]] == [NOISE_ROW_BLOCK] * (len(blocks) - 1)
    assert 0 < len(blocks[-1]) <= NOISE_ROW_BLOCK
    got = join_blocks(blocks)
    want = referee_sample_whole_x(table, 0.3, seed=seed, count=count)
    for key in "xyz":
        g, w = getattr(got, key), getattr(want, key)
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "count",
    [
        1,
        2,
        3,
        NOISE_ROW_BLOCK // 8 + 1,
        NOISE_ROW_BLOCK - 1,
        NOISE_ROW_BLOCK,
        NOISE_ROW_BLOCK + 1,
        NOISE_ROW_BLOCK + 3,
        2 * NOISE_ROW_BLOCK - 1,
        2 * NOISE_ROW_BLOCK,
        2 * NOISE_ROW_BLOCK + 1,
        3 * NOISE_ROW_BLOCK + 7,
        6 * NOISE_ROW_BLOCK + 7,
    ],
)
def test_blocked_referee_sample_matches_whole_length_draw(l, count):
    # x carries its spare 32-bit half between blocks, and the noise, read
    # NOISE_ROW_BLOCK // n rows at a time from a second stream advanced past
    # the x draws, is the noise that follows every x in one stream; counts
    # of both parities sit on either side of the first two block edges
    _assert_matches_whole_draw(build_hadamard_subgroup(l), 11, count)


@settings(max_examples=40, deadline=None)
@given(
    l=st.integers(1, MAX_LOG),
    count=st.integers(1, 3 * NOISE_ROW_BLOCK),
    seed=st.integers(0, 2**64 - 1),
)
def test_blocked_referee_sample_matches_whole_length_draw_on_random_runs(l, count, seed):
    _assert_matches_whole_draw(build_hadamard_subgroup(l), seed, count)


def test_referee_sample_checks_its_arguments_before_any_block():
    table = build_hadamard_subgroup(3)
    with pytest.raises(GuardError, match="referee guard"):
        referee_sample(table, 0.3, seed=0, count=10**7 + 1)
    with pytest.raises(ValidationError, match="count must be positive"):
        referee_sample(table, 0.3, seed=0, count=0)
    with pytest.raises(ValidationError, match="noise rate"):
        referee_sample(table, 0.6, seed=0, count=5)


def test_referee_sample_statistics():
    table = build_hadamard_subgroup(2)
    eta = 0.25
    count = 100000
    s = join_blocks(referee_sample(table, eta, seed=7, count=count))
    # mean xor weight concentrates at n * eta
    mean_w = np.bitwise_count(s.z).mean()
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


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("eta", [0.05, 0.25, 0.45, 0.5])
def test_game_json_matches_per_entry_oracle(l, eta):
    game = kv_functional(build_hadamard_subgroup(l), eta)
    doc = kv_game_to_json(game)
    assert doc == kv_game_to_json_per_entry(game)
    # Python scalars, not numpy ones, so json and the game-file writer take them
    for entry in doc["entries"]:
        assert [type(entry[key]) for key in "xyabc"] == [int, int, int, int, float]
