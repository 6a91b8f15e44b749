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
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import classical_value_bruteforce, kv_mes_value_direct, tensor_power_blocked

from kvbell.errors import GuardError, ValidationError
from kvbell.kvgame import (
    BellFunctional,
    Measurement,
    build_hadamard_subgroup,
    kv_classical_upper_bound,
    kv_functional,
    kv_measurements,
)
from kvbell.states import (
    DensityMatrix,
    expand_tensor_power,
    locality_threshold,
    make_isotropic,
    make_mes,
)
from kvbell.values import (
    ProbDist,
    ViolationReport,
    almost_activation_exponent,
    almost_activation_lower_factor,
    almost_activation_mix_weight,
    almost_activation_upper_formula,
    assignment_table,
    chsh_functional,
    classical_value_exact,
    classical_value_heuristic,
    kv_value_for_expansion,
    pair,
    pr_box_dist,
    quantum_prob,
    quantum_value_kv_closed_form,
    seesaw_lower_bound,
    superactivation_crossing,
    superactivation_monotone_from,
    superactivation_ratio_bound,
    uniform_dist,
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


def test_probdist_constructors_and_mix():
    u3 = ProbDist.uniform(2, 3)
    assert u3.table.shape == (2, 2, 3, 3)
    assert np.all(u3.table == 1 / 9)
    d = ProbDist.from_assignments([0, 1], [1, 0], 2, 2)
    assert d.table[0, 1, 0, 0] == 1.0
    assert d.table[1, 0, 1, 1] == 1.0
    u = ProbDist.uniform(2, 2)
    m = u.mix(d, 0.25)
    assert np.allclose(m.table, 0.25 * u.table + 0.75 * d.table)
    with pytest.raises(ValidationError):
        u3.mix(d, 0.5)


def test_pair_is_bilinear(rng):
    tab = rng.normal(size=(2, 2, 2, 2))
    f = BellFunctional(2, 2, table=tab)
    p = ProbDist.uniform(2, 2)
    q = ProbDist.from_assignments([0, 1], [0, 1], 2, 2)
    for lam in [0.0, 0.3, 1.0]:
        want = lam * pair(f, p) + (1 - lam) * pair(f, q)
        assert abs(pair(f, p.mix(q, lam)) - want) < 1e-14


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


def test_enumeration_guard():
    # 4 inputs, 8 outputs: 8^4 = 4096 assignments per side exceeds a guard of 1000
    f = BellFunctional(4, 8, table=np.zeros((4, 4, 8, 8)))
    with pytest.raises(GuardError):
        classical_value_exact(f, guard=1000)


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
        assert got.method == "exact"
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


def test_expansion_value_formula_path():
    exp_ = expand_tensor_power(4, 0.5, 2)  # dimension 16 has no dense game here
    got = kv_value_for_expansion(exp_, 0.25)
    assert got.method == "formula-lb"
    assert got.total is None
    assert abs(got.mes_term - 0.25 * quantum_value_kv_closed_form(16, 0.25)) < 1e-14
    with pytest.raises(GuardError):
        kv_value_for_expansion(exp_, 0.25, exact=True)


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
    m = superactivation_monotone_from(8, alpha)
    vals = [superactivation_ratio_bound(8, k, alpha) for k in range(m, m + 100)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert superactivation_crossing(8, 0.99) is None
    with pytest.raises(GuardError):
        superactivation_crossing(8, 1.0000000001, k_limit=100)


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
    s = almost_activation_upper_formula(Fraction(1, 11))
    assert "1/11" in s and s.startswith("D*")
    assert not any(ch.isdigit() and False for ch in s)  # placeholder D stays symbolic
    assert "D" in s


# ---------------------------------------------------------------------------
# seesaw


def test_seesaw_reaches_tsirelson_on_chsh():
    res = seesaw_lower_bound(chsh_functional(), dim=2, seed=0, iters=30, restarts=10)
    tsirelson = (2 + math.sqrt(2)) / 4
    assert res.value <= tsirelson + 1e-9
    assert res.value >= tsirelson - 1e-6
    for m in res.alice + res.bob:
        m.validate()
    # reported value is the exact value of the returned strategy
    redo = pair(chsh_functional(), quantum_prob(make_mes(2), res.alice, res.bob))
    assert abs(res.value - redo) < 1e-12


def test_seesaw_on_coset_game_beats_mes_strategy():
    game = kv_functional(build_hadamard_subgroup(2), 0.25)
    res = seesaw_lower_bound(game, dim=4, seed=0, iters=40, restarts=10)
    # at n = 4 the best known point is the classical optimum 0.5625
    assert res.value >= 0.5625 - 1e-9
    redo = pair(game, quantum_prob(make_mes(4), res.alice, res.bob))
    assert abs(res.value - redo) < 1e-12


def test_seesaw_guards():
    game = kv_functional(build_hadamard_subgroup(3), 0.1)
    with pytest.raises(GuardError):
        seesaw_lower_bound(game, dim=32, seed=0)


# ---------------------------------------------------------------------------
# reports and reference boxes


def test_violation_report_checks_ratio():
    with pytest.raises(ValidationError):
        ViolationReport(
            label="x",
            classical_value=0.5,
            classical_method="exact",
            quantum_value=1.0,
            quantum_method="exact",
            ratio=3.0,
        )
    rep = ViolationReport(
        label="x",
        classical_value=0.5,
        classical_method="exact",
        quantum_value=1.0,
        quantum_method="exact",
        ratio=2.0,
        classical_upper_bound=0.6,
        quantum_lower_bound=0.9,
    )
    doc = rep.to_json_dict()
    assert doc["classical"]["method"] == "exact"
    assert doc["bounds"]["classical_upper_bound"]["method"] == "formula-ub"
    assert doc["bounds"]["quantum_lower_bound"]["method"] == "formula-lb"


def test_pr_box_wins_chsh_outright():
    assert pair(chsh_functional(), pr_box_dist()) == 1.0
    assert abs(pair(chsh_functional(), uniform_dist(2, 2)) - 0.5) < 1e-15
