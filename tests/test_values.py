"""Value layer: exhaustive vs streamed classical search, quantum strategy
values against the closed form, expansion values, bound chains, seesaw.

Ordering matters in the classical tests: classical_value_bruteforce (in
tests/oracles.py) is the independent oracle (a full two-sided enumeration
with its own accumulation), and classical_value_exact must reproduce it to
the last bit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    assert_projective_measurement,
    chsh_functional,
    classical_value_bruteforce,
    dist_from_assignments,
    isotropic_power_value_by_binomial_sum,
    isotropic_power_value_by_patterns,
    kv_mes_value_direct,
    make_isotropic,
    seesaw_per_restart,
    tensor_power_blocked,
    uniform_dist,
)

from kvbell.errors import GuardError, ValidationError
from kvbell.kvgame import (
    BellFunctional,
    Measurement,
    asymptotic_eta,
    build_hadamard_subgroup,
    kv_classical_upper_bound,
    kv_functional,
    kv_measurements,
)
from kvbell.states import (
    DensityMatrix,
    expand_tensor_power,
    locality_threshold,
    make_mes,
)
from kvbell import values
from kvbell.values import (
    RESTARTS_GUARD,
    ProbDist,
    almost_activation_exponent,
    almost_activation_lower_factor,
    almost_activation_mix_weight,
    almost_activation_upper_formula,
    assignment_table,
    classical_value_exact,
    classical_value_heuristic,
    isotropic_power_value,
    kv_value_for_expansion,
    mes_pairing,
    pair,
    pr_box_dist,
    quantum_prob,
    quantum_value_kv_closed_form,
    rep_value,
    seesaw_lower_bound,
    superactivation_crossing,
    superactivation_log_ratio_bound,
    superactivation_monotone_from,
    superactivation_ratio_bound,
    tsirelson_box_dist,
)

ETA_GRID = [0.1, 0.25, 0.4, 0.5]


# ---------------------------------------------------------------------------
# distributions


def test_probdist_validation():
    with pytest.raises(ValidationError):
        ProbDist(np.full((1, 1, 2, 2), 0.3))  # sums to 1.2
    with pytest.raises(ValidationError):
        t = np.full((1, 1, 2, 2), 0.25)
        t[0, 0, 0, 0] = -1e-6
        t[0, 0, 1, 1] = 0.25 + 1e-6
        ProbDist(t)
    # clamp of a tiny negative is silent
    t = np.full((1, 1, 2, 2), 0.25)
    t[0, 0, 0, 0] -= 5e-15
    t[0, 0, 1, 1] += 5e-15
    d = ProbDist(t)
    assert d.table[0, 0, 0, 0] >= 0.0


def test_probdist_clamps_its_own_copy():
    # entries in [-neg_tol, 0) are clamped to 0 in ProbDist's table, never in the caller's
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 1, 0, 0], t[0, 1, 0, 1] = -5e-15, 0.5 + 5e-15
    given = t.copy()
    d = ProbDist(t, neg_tol=1e-14)
    assert d.table[0, 1, 0, 0] == 0.0 and d.table.min() == 0.0
    assert not np.shares_memory(d.table, t)
    assert np.array_equal(t, given)


@pytest.mark.parametrize("fill", ["all", "one"])
def test_probdist_rejects_nan(fill):
    # NaN fails every comparison, so the range and normalization checks alone pass it
    t = np.full((1, 1, 2, 2), np.nan if fill == "all" else 0.25)
    t[0, 0, 1, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        ProbDist(t)


def test_probdist_constructors_and_mix():
    u3 = uniform_dist(2, 3)
    assert u3.table.shape == (2, 2, 3, 3)
    assert np.all(u3.table == 1 / 9)
    d = dist_from_assignments([0, 1], [1, 0], 2, 2)
    assert d.table[0, 1, 0, 0] == 1.0
    assert d.table[1, 0, 1, 1] == 1.0
    # a convex mixture of two tables is again a distribution
    u = uniform_dist(2, 2)
    m = ProbDist(0.25 * u.table + 0.75 * d.table)
    assert m.table[0, 1, 0, 0] == 0.25 / 4 + 0.75


def test_pair_is_bilinear(rng):
    tab = rng.normal(size=(2, 2, 2, 2))
    f = BellFunctional(2, 2, table=tab)
    p = uniform_dist(2, 2)
    q = dist_from_assignments([0, 1], [0, 1], 2, 2)
    for lam in [0.0, 0.3, 1.0]:
        want = lam * pair(f, p) + (1 - lam) * pair(f, q)
        assert abs(pair(f, ProbDist(lam * p.table + (1 - lam) * q.table)) - want) < 1e-14


def test_assignment_table_counter_order():
    table = assignment_table(2, 3)
    want = np.array(list(itertools.product(range(3), repeat=2)))
    assert np.array_equal(table, want)


# ---------------------------------------------------------------------------
# classical values


@pytest.mark.parametrize("eta", ETA_GRID)
def test_exact_equals_bruteforce_on_coset_games(eta):
    game = kv_functional(build_hadamard_subgroup(2), eta)
    assert classical_value_exact(game) == classical_value_bruteforce(game)


def test_exact_equals_bruteforce_on_random_tables(rng):
    for _ in range(15):
        tab = rng.normal(size=(3, 3, 2, 2))
        f = BellFunctional(3, 2, table=tab)
        assert classical_value_exact(f) == classical_value_bruteforce(f)
    # nonnegative game-like tables too
    for _ in range(5):
        tab = rng.random(size=(2, 2, 3, 3))
        tab /= tab.sum()
        f = BellFunctional(2, 3, table=tab)
        assert classical_value_exact(f) == classical_value_bruteforce(f)


@pytest.mark.parametrize("eta", ETA_GRID)
def test_classical_value_respects_upper_bound(eta):
    game = kv_functional(build_hadamard_subgroup(2), eta)
    value = classical_value_exact(game)
    assert value <= kv_classical_upper_bound(4, eta) + 1e-12


@pytest.mark.parametrize("l,counts", [(1, [1, 1]), (2, [1, 2, 1]), (3, [1, 8, 14, 8, 1])])
def test_coset_leader_weights_are_binomial_only_below_n8(l, counts):
    # how many cosets have each minimum weight: C(l, w) is what makes the
    # leaders' bound in rep_value's proof equal (1 - eta)**l
    table = build_hadamard_subgroup(l)
    leaders = np.bincount(np.bitwise_count(table.elems).min(axis=1)).tolist()
    assert leaders == counts
    assert (leaders == [math.comb(l, w) for w in range(l + 1)]) == (l <= 2)


@pytest.mark.parametrize("l", [1, 2])
def test_leader_bound_is_rep_value_at_n_2l(l):
    n = 2 * l  # = 2**l at l = 1 and 2
    for eta in (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(5, 1024), Fraction(0.3)):
        bound = sum(math.comb(l, w) * eta**w * (1 - eta) ** (n - w) for w in range(l + 1))
        assert bound == (1 - eta) ** l
        assert rep_value(n, float(eta)) == float(bound)


@pytest.mark.parametrize("l", [1, 2])
def test_enumeration_is_rep_value(l, rng):
    table = build_hadamard_subgroup(l)
    for eta in [*rng.uniform(0.0, 0.5, size=60).tolist(), 0.5, 1e-200]:
        want = rep_value(table.n, eta)
        got = classical_value_exact(kv_functional(table, eta))
        assert abs(got - want) <= 4 * math.ulp(want), eta


def test_rep_value_refuses_bad_input():
    for n in (0, 1, 6, 12):
        with pytest.raises(ValidationError, match="block length"):
            rep_value(n, 0.25)
    with pytest.raises(ValidationError, match="noise rate"):
        rep_value(8, 0.6)


def test_chsh_classical_value():
    assert classical_value_exact(chsh_functional()) == 0.75


def test_heuristic_matches_exact():
    for eta in ETA_GRID:
        game = kv_functional(build_hadamard_subgroup(2), eta)
        exact = classical_value_exact(game)
        heur = classical_value_heuristic(game, restarts=50, seed=0)
        assert abs(heur - exact) < 1e-12
    assert abs(classical_value_heuristic(chsh_functional(), restarts=20, seed=0) - 0.75) < 1e-12


def test_heuristic_matches_exact_on_random_tables(rng):
    for trial in range(10):
        tab = rng.normal(size=(3, 3, 2, 2))
        f = BellFunctional(3, 2, table=tab)
        exact = classical_value_exact(f)
        heur = classical_value_heuristic(f, restarts=30, seed=trial)
        assert heur <= exact + 1e-12
        assert abs(heur - exact) < 1e-12


def test_one_signed_tables_match_bruteforce(rng):
    # a table without a negative entry skips its negation; one without a positive
    # entry must not, since there the negation is the side that wins
    for _ in range(5):
        tab = rng.random(size=(3, 3, 2, 2))
        for signed in (tab, -tab):
            f = BellFunctional(3, 2, table=signed)
            want = classical_value_bruteforce(f)
            assert classical_value_exact(f) == want
            assert abs(classical_value_heuristic(f, restarts=30, seed=1) - want) < 1e-12


N8_ETA_GRID = [0.0191, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]


@pytest.mark.parametrize("eta", N8_ETA_GRID)
def test_heuristic_reaches_the_explicit_strategy_at_n8(eta):
    # restart 0 starts from the all-zero answer: position 0 in every coset, which wins (1 - eta)^3
    game = kv_functional(build_hadamard_subgroup(3), eta)
    N, K = game.num_inputs, game.num_outputs
    zeros = [0] * N
    explicit = pair(game, dist_from_assignments(zeros, zeros, N, K))
    assert abs(explicit - (1 - eta) ** 3) < 1e-15
    for seed in range(5):
        assert abs(classical_value_heuristic(game, restarts=1, seed=seed) - explicit) < 1e-15
        for restarts in (1, 2, 50):
            value = classical_value_heuristic(game, restarts=restarts, seed=seed)
            assert value >= (1 - eta) ** 3 - 1e-15


@pytest.mark.parametrize("seed", [-1, True, 1.0, "0", np.int64(3)])
def test_heuristic_refuses_a_seed_that_is_not_a_nonnegative_int(seed):
    with pytest.raises(ValidationError, match="seed"):
        classical_value_heuristic(chsh_functional(), restarts=2, seed=seed)


def test_enumeration_guard():
    # 7 inputs, 8 outputs: 8^7 assignments per side exceed ENUMERATION_GUARD = 10^6
    f = BellFunctional(7, 8, table=np.zeros((7, 7, 8, 8)))
    with pytest.raises(GuardError):
        classical_value_exact(f)
    # 10 inputs, 4 outputs: 4^10 = 1048576 is just above it
    with pytest.raises(GuardError):
        classical_value_exact(BellFunctional(10, 4, table=np.zeros((10, 10, 4, 4))))


# ---------------------------------------------------------------------------
# quantum values


def test_quantum_prob_same_basis_perfect_correlation():
    table = build_hadamard_subgroup(2)
    meas = kv_measurements(table)
    dist = quantum_prob(make_mes(4), meas, meas)
    for x in range(4):
        blk = dist.table[x, x]
        assert np.allclose(blk, np.eye(4) / 4, atol=1e-14)


def test_quantum_prob_matches_overlap_formula():
    table = build_hadamard_subgroup(2)
    meas = kv_measurements(table)
    dist = quantum_prob(make_mes(4), meas, meas)
    for x in range(4):
        for y in range(4):
            overlap = meas[x].vectors @ meas[y].vectors.T
            assert np.allclose(dist.table[x, y], overlap**2 / 4, atol=1e-14)


def test_quantum_prob_routes_agree():
    table = build_hadamard_subgroup(2)
    meas = kv_measurements(table)
    ops = [Measurement(4, operators=m.operators) for m in meas]
    rho = make_mes(4)
    a = quantum_prob(rho, meas, meas)
    b = quantum_prob(rho, ops, ops)
    assert np.max(np.abs(a.table - b.table)) < 1e-14


def test_quantum_prob_factorizes_on_product_states():
    from kvbell.states import DensityMatrix

    sa = np.diag([0.7, 0.3])
    sb = np.diag([0.4, 0.6])
    rho = np.kron(sa, sb)
    basis = Measurement(2, vectors=np.eye(2))
    dist = quantum_prob(DensityMatrix(rho), [basis], [basis])
    want = np.einsum("a,b->ab", np.diag(sa), np.diag(sb))
    assert np.allclose(dist.table[0, 0], want, atol=1e-14)


def _einsum_quantum_table(rho, alice, bob):
    """Independent oracle: contract each question pair on its own, through
    the measurement vectors when all of them carry vectors."""
    dim_a, dim_b = alice[0].dim, bob[0].dim
    n_in, n_out = len(alice), alice[0].num_outcomes
    rho4 = rho.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    table = np.empty((n_in, n_in, n_out, n_out))
    vector_route = all(m.vectors is not None for m in alice + bob)
    for x in range(n_in):
        for y in range(n_in):
            if vector_route:
                va, vb = alice[x].vectors, bob[y].vectors
                part = np.einsum("ai,bj,ijkl->abkl", va.conj(), vb.conj(), rho4, optimize=True)
                table[x, y] = np.einsum("abkl,ak,bl->ab", part, va, vb, optimize=True).real
            else:
                table[x, y] = np.einsum(
                    "aij,bkl,jlik->ab", alice[x].operators, bob[y].operators, rho4, optimize=True
                ).real
    return table


def _random_measurement(rng, dim, n_out, vectors):
    """Rank-1 POVM from the rows of a random (n_out, dim) isometry, or a
    projective measurement sharing random basis vectors among the outcomes."""
    size = n_out if vectors else dim
    q, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    if vectors:
        return Measurement(dim, vectors=q[:, :dim])
    ops = np.zeros((n_out, dim, dim), dtype=complex)
    for col in range(dim):
        ops[col % n_out] += np.outer(q[:, col], q[:, col].conj())
    return Measurement(dim, operators=ops)


@settings(max_examples=80, deadline=None)
@given(
    dim_a=st.sampled_from([2, 3, 4]),
    dim_b=st.sampled_from([2, 3, 4]),
    n_in=st.integers(1, 4),
    n_out=st.sampled_from([2, 3]),
    backing=st.sampled_from(["vectors", "operators", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantum_prob_matches_per_pair_einsum(dim_a, dim_b, n_in, n_out, backing, seed):
    # a complete rank-1 POVM needs at least as many outcomes as dimensions
    assume(backing != "vectors" or n_out >= max(dim_a, dim_b))
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = dim_a * dim_b
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = gauss @ gauss.conj().T
    rho = DensityMatrix((rho + rho.conj().T) / (2.0 * np.trace(rho).real))

    def side(d):
        can_use_vectors = n_out >= d and backing != "operators"
        return [
            _random_measurement(
                rng, d, n_out, can_use_vectors and (backing == "vectors" or rng.random() < 0.5)
            )
            for _ in range(n_in)
        ]

    alice, bob = side(dim_a), side(dim_b)
    got = quantum_prob(rho, alice, bob).table
    want = _einsum_quantum_table(rho, alice, bob)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_closed_form_values():
    # (1 - 2*eta)^2 + 4*eta*(1 - eta)/n at n = 4, eta = 1/4
    assert quantum_value_kv_closed_form(4, 0.25) == 0.4375
    for n in (2, 4, 8, 16, 64):
        assert abs(quantum_value_kv_closed_form(n, 0.5) - 1.0 / n) < 1e-15


@pytest.mark.parametrize("l", [1, 2, 3])
def test_closed_form_matches_direct_sum(l):
    table = build_hadamard_subgroup(l)
    for eta in [0.05, 0.1, 0.25, 0.4, 0.5]:
        direct = kv_mes_value_direct(table, eta)
        closed = quantum_value_kv_closed_form(table.n, eta)
        assert abs(direct - closed) < 1e-10


@pytest.mark.parametrize("l,eta", [(1, 0.25), (2, 0.25), (2, 0.4), (3, 0.1)])
def test_closed_form_matches_full_strategy_evaluation(l, eta):
    table = build_hadamard_subgroup(l)
    game = kv_functional(table, eta)
    meas = kv_measurements(table)
    value = pair(game, quantum_prob(make_mes(table.n), meas, meas))
    assert abs(value - quantum_value_kv_closed_form(table.n, eta)) < 1e-12


@pytest.mark.parametrize("l", [1, 2, 3])
def test_mes_round_is_won_by_its_noise_weight(l):
    # every question x and noise z: the pairs (a, a xor z), a in [x], take
    # (1 - 2|z|/n)**2 of the MES outcome table, whatever x is
    table = build_hadamard_subgroup(l)
    n, N = table.n, table.num_cosets
    meas = kv_measurements(table)
    probs = quantum_prob(make_mes(n), meas, meas).table
    place = np.empty(table.size, dtype=np.int64)  # a string's position in its coset
    place[table.elems] = np.arange(n)
    x = np.arange(N)[:, None, None]
    z = np.arange(table.size)[None, :, None]
    a = table.elems[x, np.arange(n)]
    y = table.coset_of[table.elems[x, 0] ^ z]
    won = probs[x, y, place[a], place[a ^ z]].sum(axis=2)
    law = (1.0 - 2.0 * np.bitwise_count(np.arange(table.size)) / n) ** 2
    assert np.max(np.abs(won - law)) <= 1e-15


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_closed_form_is_the_mean_of_the_win_law(n):
    # E[(1 - 2W/n)**2], W ~ Bin(n, eta), in Fractions: the closed form, rounded once
    asymptotic = Fraction(0.5 - 1.0 / math.log(max(n, 8)))
    for eta in (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(5, 1024), asymptotic):
        mean = sum(
            math.comb(n, w) * eta**w * (1 - eta) ** (n - w) * (1 - Fraction(2 * w, n)) ** 2
            for w in range(n + 1)
        )
        assert mean == (1 - 2 * eta) ** 2 + 4 * eta * (1 - eta) / n
        assert quantum_value_kv_closed_form(n, float(eta)) == float(mean)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_mes_pairing_equals_the_dense_route(l, rng):
    # the win law against the MES Born-rule table, on coset games and on
    # random tables with negative and zero coefficients
    table = build_hadamard_subgroup(l)
    n, N = table.n, table.num_cosets
    meas = kv_measurements(table)
    probs = quantum_prob(make_mes(n), meas, meas)
    games = [kv_functional(table, eta) for eta in ETA_GRID]
    for _ in range(5):
        coef = rng.uniform(-1.0, 2.0, size=(N, N, n, n))
        coef[rng.random(coef.shape) < 0.3] = 0.0
        games.append(BellFunctional(N, n, coef))
    for game in games:
        want = pair(game, probs)
        assert abs(mes_pairing(game, table) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_mes_pairing_of_the_coset_game_is_the_closed_form(l):
    # within 8 ulp of (1 - 2 eta)^2 + 4 eta (1 - eta)/n taken exactly
    table = build_hadamard_subgroup(l)
    n = table.n
    etas = [0.05, 0.25, 0.3, 0.5, 1e-200] + ([asymptotic_eta(n)] if n >= 8 else [])
    for eta in etas:
        exact = (1 - 2 * Fraction(eta)) ** 2 + 4 * Fraction(eta) * (1 - Fraction(eta)) / n
        got = mes_pairing(kv_functional(table, eta), table)
        assert abs(Fraction(got) - exact) <= 8 * math.ulp(float(exact)), eta


def test_mes_pairing_refuses_another_shape():
    game = kv_functional(build_hadamard_subgroup(2), 0.25)
    with pytest.raises(ValidationError, match="shape mismatch"):
        mes_pairing(game, build_hadamard_subgroup(3))


def test_uniform_answers_value():
    game = kv_functional(build_hadamard_subgroup(2), 0.25)
    assert abs(pair(game, uniform_dist(4, 4)) - 0.25) < 1e-14


# ---------------------------------------------------------------------------
# expansion values


def test_expansion_value_exact_path():
    eta = 0.25
    table = build_hadamard_subgroup(2)
    game = kv_functional(table, eta)
    meas = kv_measurements(table)
    for p in [0.0, 0.3, 0.7, 1.0]:
        exp_ = expand_tensor_power(2, p, 2)
        got = kv_value_for_expansion(exp_, eta)
        # independent route: evaluate the game on the unexpanded power
        rho = tensor_power_blocked(make_isotropic(2, p), 2, 2)
        direct = pair(game, quantum_prob(rho, meas, meas))
        assert abs(got.total - direct) < 1e-12
        assert abs(got.mes_term - p**2 * 0.4375) < 1e-12
        assert got.total >= got.mes_term - 1e-12


def test_expansion_value_endpoints():
    got = kv_value_for_expansion(expand_tensor_power(2, 1.0, 2), 0.25)
    assert abs(got.total - 0.4375) < 1e-12
    got0 = kv_value_for_expansion(expand_tensor_power(2, 0.0, 2), 0.25)
    assert abs(got0.total - 0.25) < 1e-12  # white noise gives 1/n


def test_expansion_value_refuses_inexact_sizes():
    # d^k = 16 and 9 have no dense game; the CLI leaves those columns empty
    for d, k in ((4, 2), (3, 2)):
        with pytest.raises(GuardError):
            kv_value_for_expansion(expand_tensor_power(d, 0.5, k), 0.25)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 2), (2, 3), (4, 1), (8, 1)]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5, exclude_min=True),
)
@example((2, 3), 1.0, 0.5)
@example((8, 1), 0.0, 5e-324)
@example((2, 2), locality_threshold(2), 0.25)
def test_isotropic_power_value_matches_the_dense_expansion(dk, p, eta):
    # d^k in {2, 4, 8}: the dense route realizes every term and pairs it
    d, k = dk
    total, mes_term = isotropic_power_value(d, k, p, eta)
    dense = kv_value_for_expansion(expand_tensor_power(d, p, k), eta)
    assert abs(total - dense.total) <= 2e-15
    assert abs(mes_term - dense.mes_term) <= 2e-15
    # both sums are rounded once from the same rational
    exact_total, exact_mes = isotropic_power_value_by_patterns(d, k, p, eta)
    assert (total, mes_term) == (float(exact_total), float(exact_mes))


def test_isotropic_power_value_at_the_endpoints():
    # p = 1 is the MES on n = d^k, p = 0 white noise, valued 1/n
    for d, k in ((2, 3), (3, 2), (10, 4)):
        total, mes_term = isotropic_power_value(d, k, 1.0, 0.3)
        assert total == mes_term
        assert abs(total - quantum_value_kv_closed_form(d**k, 0.3)) < 1e-15
        assert isotropic_power_value(d, k, 0.0, 0.3) == (1 / d**k, 0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(1, 24),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5, exclude_min=True),
)
@example(2, 1, 0.0, 0.5)
@example(10**6, 3, 1.0, 5e-324)
@example(3, 24, locality_threshold(3), 0.25)
def test_isotropic_power_value_three_powers_equal_the_binomial_sum(d, k, p, eta):
    # the closed form is the binomial sum regrouped, so the two agree as Fractions
    got = values._isotropic_power_fractions(d, k, Fraction(p), Fraction(eta))
    assert got == isotropic_power_value_by_binomial_sum(d, k, p, eta)


@pytest.mark.parametrize(
    "d,k,p,eta",
    [
        (1, 2, 0.5, 0.25),
        (2, 0, 0.5, 0.25),
        (2, 1, 1.5, 0.25),
        (2, 1, float("nan"), 0.25),
        (2, 1, 0.5, 0.0),
        (2, 1, 0.5, 0.6),
    ],
)
def test_isotropic_power_value_refuses_bad_inputs(d, k, p, eta):
    with pytest.raises(ValidationError):
        isotropic_power_value(d, k, p, eta)


# ---------------------------------------------------------------------------
# copy-activation bounds


def test_ratio_bound_matches_direct_formula():
    c = math.exp(4.0)
    cp = 4.0
    for d in (2, 8):
        for k in range(1, 30):
            alpha = 1.1
            want = (cp / c) * alpha**k / (k * math.log(d)) ** 2
            got = superactivation_ratio_bound(d, k, alpha)
            assert abs(got - want) <= 1e-12 * want


def test_ratio_bound_survives_huge_k():
    # log-space evaluation: huge but representable stays finite
    v = superactivation_ratio_bound(8, 150000, 1.003556198543972)
    assert math.isfinite(v) and v > 1e100
    # beyond float range the bound saturates instead of raising
    w = superactivation_ratio_bound(8, 10**6, 1.003556198543972)
    assert w == math.inf


def test_crossing_structure():
    alpha = 8 * locality_threshold(8)
    k_star = superactivation_crossing(8, alpha)
    assert k_star is not None
    assert superactivation_ratio_bound(8, k_star, alpha) > 1.0
    assert superactivation_ratio_bound(8, k_star - 1, alpha) <= 1.0
    m = superactivation_monotone_from(alpha)
    vals = [superactivation_ratio_bound(8, k, alpha) for k in range(m, m + 100)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert superactivation_crossing(8, 0.99) is None
    with pytest.raises(GuardError):
        superactivation_crossing(8, 1.0000000001, k_limit=100)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10**6), alpha=st.floats(1.001, 64.0))
@example(d=2, alpha=7.0)  # k = 1 crosses although monotone_from is 2
def test_crossing_is_the_first_k_with_a_positive_log_bound(d, alpha):
    # every k up to the crossing, so the skip past the convex minimum is checked too
    k_star = superactivation_crossing(d, alpha)
    logs = [superactivation_log_ratio_bound(d, k, alpha) for k in range(1, k_star + 1)]
    assert logs[-1] > 0.0
    assert all(v <= 0.0 for v in logs[:-1])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10**6), alpha=st.floats(1.001, 64.0), offset=st.integers(0, 1000))
def test_log_bound_grows_from_monotone_from(d, alpha, offset):
    # superactivation_crossing skips to monotone_from because the bound grows from there on
    k = superactivation_monotone_from(alpha) + offset
    assert superactivation_log_ratio_bound(d, k + 1, alpha) > superactivation_log_ratio_bound(
        d, k, alpha
    )


def test_crossing_value_for_threshold_weight():
    alpha = 8 * locality_threshold(8)
    k_star = superactivation_crossing(8, alpha)
    # the window is wide: thousands of copies, not millions
    assert 1000 < k_star < 100000


# ---------------------------------------------------------------------------
# almost-activation chain


def test_exponent_is_exact_fraction():
    assert almost_activation_exponent(Fraction(1, 11)) == Fraction(1, 22)
    assert almost_activation_exponent("1/11") == Fraction(1, 22)
    assert almost_activation_exponent(Fraction(1, 12)) == Fraction(1, 12)
    with pytest.raises(ValidationError):
        almost_activation_exponent(Fraction(1, 2))
    with pytest.raises(ValidationError):
        almost_activation_exponent(Fraction(0, 1))


def test_mix_weight_identity():
    alpha = Fraction(1, 11)
    for d in (8, 64, 1024):
        p = almost_activation_mix_weight(d, alpha)
        want = math.log(d) ** (0.5 - 1 / 11) / d
        assert abs(p - want) < 1e-15
        assert 0 < p < 1


def test_lower_factor_formula_and_monotonicity():
    alpha = Fraction(1, 11)
    c2 = (4.0 / math.exp(4.0)) / 25.0
    grid = [4, 8, 16, 64, 256, 1024, 4096, 16384, 10**5, 10**6]
    vals = [almost_activation_lower_factor(d, alpha) for d in grid]
    for d, v in zip(grid, vals):
        want = c2 * math.log(d) ** float(Fraction(1, 22))
        assert abs(v - want) <= 1e-14
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_upper_formula_is_symbolic():
    # the constant D stays a letter; only the exponent is a number
    assert almost_activation_upper_formula(Fraction(1, 11)) == "D*(ln d)^(-1/11) + 1"


# ---------------------------------------------------------------------------
# seesaw


def test_seesaw_reaches_tsirelson_on_chsh():
    res = seesaw_lower_bound(chsh_functional(), dim=2, seed=0, iters=30, restarts=10)
    tsirelson = (2 + math.sqrt(2)) / 4
    assert res.value <= tsirelson + 1e-9
    assert res.value >= tsirelson - 1e-6
    for m in res.alice + res.bob:
        assert_projective_measurement(m)
    # reported value is the exact value of the returned strategy
    redo = pair(chsh_functional(), quantum_prob(make_mes(2), res.alice, res.bob))
    assert abs(res.value - redo) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_seesaw_reaches_the_tsirelson_box(seed):
    # CHSH's optimum fixes the whole table, so the search lands on the formula
    res = seesaw_lower_bound(chsh_functional(), dim=2, seed=seed, iters=30, restarts=20)
    table = quantum_prob(make_mes(2), res.alice, res.bob).table
    assert np.max(np.abs(table - tsirelson_box_dist().table)) <= 1e-12


def test_seesaw_on_coset_game_beats_mes_strategy():
    game = kv_functional(build_hadamard_subgroup(2), 0.25)
    res = seesaw_lower_bound(game, dim=4, seed=0, iters=40, restarts=10)
    # at n = 4 the best known point is the classical optimum 0.5625
    assert res.value >= 0.5625 - 1e-9
    redo = pair(game, quantum_prob(make_mes(4), res.alice, res.bob))
    assert abs(res.value - redo) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    shape=st.sampled_from([(n, k) for n in range(1, 7) for k in range(2, 7) if n * k <= 12]),
    iters=st.integers(1, 5),
    restarts=st.integers(1, 7),
    block=st.integers(1, 4),
)
def test_seesaw_matches_per_restart_loop(seed, dim, shape, iters, restarts, block):
    # blocks of 1-4 restarts, so most draws cross a block boundary
    n_in, n_out = shape
    rng = np.random.Generator(np.random.PCG64(seed))
    game = BellFunctional(n_in, n_out, table=rng.normal(size=(n_in, n_in, n_out, n_out)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(values, "SEESAW_BLOCK_BYTES", block * 32 * n_in * n_out * dim * dim)
        got = seesaw_lower_bound(game, dim, seed=seed, iters=iters, restarts=restarts)
    want = seesaw_per_restart(game, dim, seed=seed, iters=iters, restarts=restarts)
    assert np.array_equal(got.value, want.value)
    assert len(got.alice) == len(got.bob) == n_in
    for m, w in zip(got.alice + got.bob, want.alice + want.bob):
        assert np.array_equal(m.operators, w.operators)


def test_seesaw_guards():
    game = kv_functional(build_hadamard_subgroup(3), 0.1)
    with pytest.raises(GuardError):
        seesaw_lower_bound(game, dim=32, seed=0)


def test_restarts_guard():
    with pytest.raises(GuardError):
        classical_value_heuristic(chsh_functional(), restarts=RESTARTS_GUARD + 1)
    with pytest.raises(GuardError):
        seesaw_lower_bound(chsh_functional(), dim=2, restarts=RESTARTS_GUARD + 1)


# ---------------------------------------------------------------------------
# reference boxes


def test_tsirelson_box_wins_chsh_at_cos2_pi_over_8():
    box = tsirelson_box_dist()
    assert abs(pair(chsh_functional(), box) - math.cos(math.pi / 8) ** 2) <= 1e-15
    # each block: the winning pairs at (1 + 1/sqrt 2)/4, the losing ones at (1 - 1/sqrt 2)/4
    for x, y, a, b in itertools.product(range(2), repeat=4):
        sign = 1.0 if a ^ b == x & y else -1.0
        assert abs(box.table[x, y, a, b] - (1.0 + sign / math.sqrt(2.0)) / 4.0) <= 1e-16


def test_pr_box_wins_chsh_outright():
    assert pair(chsh_functional(), pr_box_dist()) == 1.0
    assert abs(pair(chsh_functional(), uniform_dist(2, 2)) - 0.5) < 1e-15
