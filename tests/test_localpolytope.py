"""LP solver against a vertex-enumeration oracle, then the local-polytope
layer built on it.

The oracle enumerates basic solutions of the inequality system directly
with numpy.linalg.solve, so it shares no code with the simplex path.
"""

import itertools
import math
import time

import numpy as np
import pytest
from gen import random_mes_table
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import chsh_functional, dist_from_assignments, uniform_dist

from kvbell import build_hadamard_subgroup, kv_measurements, localpolytope
from kvbell.errors import NumericalError, ValidationError
from kvbell.localpolytope import (
    LinearProgram,
    local_content,
    lv_from_pi,
    solve_lp,
    vertex_matrix,
)
from kvbell.values import (
    ProbDist,
    assignment_table,
    pair,
    pr_box_dist,
    quantum_prob,
    tsirelson_box_dist,
)
from kvbell.states import make_mes


def oracle_max(c, A, b):
    """Best objective over vertices of {A x <= b, x >= 0}; None if infeasible."""
    m, n = A.shape
    Afull = np.vstack([A, -np.eye(n)])
    bfull = np.concatenate([b, np.zeros(n)])
    best = None
    for idx in itertools.combinations(range(m + n), n):
        sub = Afull[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, bfull[list(idx)])
        if np.all(Afull @ x <= bfull + 1e-9):
            v = float(c @ x)
            if best is None or v > best:
                best = v
    return best


def random_bounded_lp(rng, n_vars=5, n_rand_rows=7):
    A = rng.normal(size=(n_rand_rows, n_vars))
    b = rng.uniform(0.5, 2.0, size=n_rand_rows)
    cap = rng.uniform(1.0, 3.0)
    rows = np.vstack([A, np.ones((1, n_vars))])
    rhs = np.concatenate([b, [cap]])
    c = rng.normal(size=n_vars)
    return c, rows, rhs


# ---------------------------------------------------------------------------
# solver basics


def test_textbook_lp():
    lp = LinearProgram(
        objective=np.array([3.0, 5.0]),
        rows=np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
        rhs=np.array([4.0, 12.0, 18.0]),
        equality=False,
    )
    res = solve_lp(lp)
    assert abs(res.value - 36.0) < 1e-9
    assert np.allclose(res.x, [2.0, 6.0], atol=1e-9)


def test_equality_and_geq_rows():
    # x1 + x2 = 2 and x1 <= 0.5, the latter as an = row with its own slack x3
    lp = LinearProgram(
        objective=np.array([-1.0, -1.0, 0.0]),
        rows=np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
        rhs=np.array([2.0, 0.5]),
        equality=True,
    )
    res = solve_lp(lp)
    assert abs(res.value - (-2.0)) < 1e-9
    assert abs(res.x[:2].sum() - 2.0) < 1e-9 and res.x[0] <= 0.5 + 1e-9
    lp2 = LinearProgram(
        objective=np.array([1.0, 0.0]),
        rows=np.array([[1.0, 1.0]]),
        rhs=np.array([1.0]),
        equality=True,
    )
    res2 = solve_lp(lp2)
    assert abs(res2.value - 1.0) < 1e-9
    # the sense is one flag per LP: a per-row sense such as >= is refused
    for sense in (">=", ("<=",), 1):
        with pytest.raises(ValidationError, match="equality"):
            LinearProgram(
                objective=np.array([-1.0, -1.0]),
                rows=np.array([[1.0, 1.0]]),
                rhs=np.array([2.0]),
                equality=sense,
            )


def test_unbounded_and_infeasible():
    # the local-content LPs are feasible and bounded, so neither outcome has a
    # result of its own: both are numerical failures
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        rows=np.array([[0.0, 1.0]]),
        rhs=np.array([1.0]),
        equality=False,
    )
    with pytest.raises(NumericalError, match="no row blocks"):
        solve_lp(lp)
    # x + s = 1 (x <= 1 with its slack s) against x = 2, and x + y = 1 against x + y = 3
    for rows, rhs in (
        ([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [1.0, 2.0]),
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 3.0]),
    ):
        lp2 = LinearProgram(
            objective=np.array([1.0, 0.0, 0.0]),
            rows=np.array(rows),
            rhs=np.array(rhs),
            equality=True,
        )
        with pytest.raises(NumericalError, match="phase 1"):
            solve_lp(lp2)


def test_redundant_equality_rows_are_handled():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        rows=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
        rhs=np.array([1.0, 1.0, 2.0]),
        equality=True,
    )
    res = solve_lp(lp)
    assert abs(res.value - 1.0) < 1e-9
    assert res.dual.shape == (3,)


def test_beale_style_degeneracy_terminates():
    # degenerate problem that cycles without an anti-cycling rule
    lp = LinearProgram(
        objective=np.array([0.75, -150.0, 0.02, -6.0]),
        rows=np.array(
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        ),
        rhs=np.array([0.0, 0.0, 1.0]),
        equality=False,
    )
    res = solve_lp(lp)
    assert abs(res.value - 0.05) < 1e-9


def test_iteration_limit_raises():
    lp = LinearProgram(
        objective=np.array([3.0, 5.0]),
        rows=np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
        rhs=np.array([4.0, 12.0, 18.0]),
        equality=False,
    )
    with pytest.raises(NumericalError):
        solve_lp(lp, max_iters=1)


def test_lp_validation():
    with pytest.raises(ValidationError):
        LinearProgram(
            objective=np.array([1.0]),
            rows=np.array([[1.0, 2.0]]),
            rhs=np.array([1.0]),
            equality=False,
        )
    with pytest.raises(ValidationError):
        LinearProgram(
            objective=np.array([1.0]),
            rows=np.array([[1.0]]),
            rhs=np.array([1.0, 1.0]),
            equality=False,
        )
    with pytest.raises(ValidationError):
        LinearProgram(
            objective=np.array([np.nan]),
            rows=np.array([[1.0]]),
            rhs=np.array([1.0]),
            equality=False,
        )
    for equality in (False, True):
        with pytest.raises(ValidationError, match="nonnegative"):
            LinearProgram(
                objective=np.array([1.0]),
                rows=np.array([[1.0]]),
                rhs=np.array([-1.0]),
                equality=equality,
            )
    lp = LinearProgram(
        objective=np.array([1.0, 2.0]),
        rows=np.array([[1.0, 1.0]]),
        rhs=np.array([3.0]),
        equality=False,
    )
    res = solve_lp(lp)
    assert abs(res.value - 6.0) < 1e-9


def test_random_lps_match_vertex_oracle(rng):
    for _ in range(30):
        c, rows, rhs = random_bounded_lp(rng)
        lp = LinearProgram(objective=c, rows=rows, rhs=rhs, equality=False)
        res = solve_lp(lp)
        want = oracle_max(c, rows, rhs)
        assert abs(res.value - want) < 1e-8
        # strong duality against the reported row multipliers
        y = res.dual
        assert np.all(y >= -1e-9)
        assert np.all(y @ rows >= c - 1e-7)
        assert abs(float(y @ rhs) - res.value) < 1e-7


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    equality=st.booleans(),
    base=st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=4, max_size=4),
            st.sampled_from((0.0, 1.0, 2.0, 3.0)),
        ),
        min_size=1,
        max_size=3,
    ),
    copies=st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1.0, 2.0, 0.5))), max_size=2),
    objective=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    cap=st.sampled_from((1.0, 2.5)),
)
def test_degenerate_and_redundant_lps_match_vertex_oracle(
    n, equality, base, copies, objective, cap
):
    # = rows, zero right-hand sides and duplicated or scaled rows: the cases
    # where artificials stay basic at level zero or leave at ratio zero
    rows = [(np.array(coeffs[:n], dtype=float), rhs) for coeffs, rhs in base]
    for i, scale in copies:
        coeffs, rhs = rows[i % len(base)]
        rows.append((scale * coeffs, scale * rhs))
    rows.append((np.ones(n), cap))  # sum x <= cap, or = cap: keeps the problem bounded
    A = np.array([coeffs for coeffs, _ in rows])
    b = np.array([rhs for _, rhs in rows])
    c = np.array(objective[:n], dtype=float)
    lp = LinearProgram(objective=c, rows=A, rhs=b, equality=equality)
    if equality:
        want = oracle_max(c, np.vstack([A, -A]), np.concatenate([b, -b]))
    else:
        want = oracle_max(c, A, b)
    if want is None:
        with pytest.raises(NumericalError, match="phase 1"):
            solve_lp(lp)
    else:
        assert abs(solve_lp(lp).value - want) < 1e-8


def _mes_42(seed, draw):
    """Random-measurement MES(2) distribution at (N, K) = (4, 2), drawn as
    perfbench/lp_defects.py draws it and loaded with the CLI's tolerances."""
    table = random_mes_table(np.random.default_rng([seed, draw]), 4, 2)
    return ProbDist(table, neg_tol=1e-9, norm_tol=1e-8)


def _local_variant_lp(seed, draw, monkeypatch):
    """The local-variant LP local_content builds for the draw, and its result."""
    seen = []

    def record(lp):
        seen.append((lp, solve_lp(lp)))
        return seen[-1][1]

    monkeypatch.setattr(localpolytope, "solve_lp", record)
    local_content(_mes_42(seed, draw), "local")
    return seen[0]


def test_random_mes_draws_certify():
    for seed in range(10):
        for draw in range(6):
            out = local_content(_mes_42(seed, draw), "local")
            assert 0.0 < out.lam <= 1.0 + 1e-12, (seed, draw)
            assert out.reconstruction_error <= 1e-9, (seed, draw)


@pytest.mark.parametrize("seed,draw", [(5, 4), (3, 0), (7, 1)])
def test_singular_final_basis_is_a_numerical_error(seed, draw, monkeypatch):
    # these draws once ended on a singular basis; a basis that is singular,
    # here one holding the opposite columns +D_0 and -D_0 of [D | -D], still raises
    lp, _ = _local_variant_lp(seed, draw, monkeypatch)
    m, n = lp.rows.shape
    matrix = np.hstack([lp.rows, np.eye(m)])
    basis = n + np.arange(m)  # the identity columns, then two of them swapped out
    basis[:2] = [0, n // 2]
    with pytest.raises(NumericalError, match="singular"):
        localpolytope._factorize(matrix, lp.rhs, basis)


@pytest.mark.parametrize("draw", [1, 2, 5])
def test_primal_certification_refuses_bad_decompositions(draw, monkeypatch):
    # the dense tableau once answered these draws with decompositions that
    # missed their = rows by 5.6e-4 to 8.9e-2; shifting the weight q'_0 of the
    # first pair by that much off the certified answer must be refused, and so
    # must a negative weight
    lp, result = _local_variant_lp(5, draw, monkeypatch)
    localpolytope._certify_primal(lp, result.x)
    off_rows = result.x.copy()
    off_rows[0] += 5.6e-4
    negative = result.x.copy()
    negative[np.argmin(negative)] = -1e-6
    for bad in (off_rows, negative):
        with pytest.raises(NumericalError, match="primal certification"):
            localpolytope._certify_primal(lp, bad)


@pytest.mark.parametrize("draw", [0, 3])
def test_certified_draws_reconstruct(draw):
    out = local_content(_mes_42(5, draw), "local")
    assert 0.0 < out.lam < 1.0
    assert out.reconstruction_error <= 1e-9


# ---------------------------------------------------------------------------
# vertex matrix and membership


def test_vertex_matrix_columns_are_deterministic_boxes():
    for N, K in [(2, 2), (2, 3), (3, 2)]:
        D = vertex_matrix(N, K)
        table = assignment_table(N, K)
        F = table.shape[0]
        assert D.shape == (N * N * K * K, F * F)
        for fi in range(F):
            for gi in range(F):
                col = D[:, fi * F + gi]
                want = dist_from_assignments(table[fi], table[gi], N, K)
                assert np.array_equal(col, want.table.reshape(-1))


def _rebuild(weights, N, K):
    out = np.zeros((N, N, K, K))
    for f, g, weight in weights:
        out += weight * dist_from_assignments(f, g, N, K).table
    return out


# ---------------------------------------------------------------------------
# local content


def test_local_content_endpoints():
    assert local_content(pr_box_dist(), "free").lam <= 1e-9
    det = dist_from_assignments([0, 1], [0, 0], 2, 2)
    assert abs(local_content(det, "free").lam - 1.0) <= 1e-9
    assert abs(local_content(uniform_dist(2, 2), "free").lam - 1.0) <= 1e-9


def test_local_content_free_decomposition_identity():
    target = tsirelson_box_dist()
    out = local_content(target, "free")
    assert 0.0 < out.lam < 1.0
    local_part = _rebuild(out.weights, 2, 2)
    for _, _, weight in out.weights:
        assert weight >= -1e-12
    assert abs(local_part.sum() / 4.0 - out.lam) <= 1e-9
    rebuilt = local_part + (1.0 - out.lam) * out.residual_distribution.table
    assert np.max(np.abs(rebuilt - target.table)) <= 1e-8


def test_local_content_of_tsirelson_point_matches_chsh_bound():
    target = tsirelson_box_dist()
    q = pair(chsh_functional(), target)
    out = local_content(target, "free")
    # any local part of mass lam forces q <= lam*(3/4) + (1 - lam)*1
    ub = 4.0 * (1.0 - q)
    assert out.lam <= ub + 1e-8
    assert out.lam >= ub - 1e-6  # the LP achieves the CHSH-derived cap here


def test_local_content_of_the_tsirelson_box():
    # free: 4 (1 - cos^2(pi/8)) = 2 - sqrt 2; local: LV = 2/lambda - 1 = sqrt 2
    box = tsirelson_box_dist()
    assert abs(local_content(box, "free").lam - (2.0 - math.sqrt(2.0))) <= 1e-12
    lam = local_content(box, "local").lam
    assert abs(lam - 2.0 * (math.sqrt(2.0) - 1.0)) <= 1e-12
    assert abs(lv_from_pi(lam) - math.sqrt(2.0)) <= 1e-12


def test_local_content_decreases_toward_pr_box():
    u = uniform_dist(2, 2)
    pr = pr_box_dist()
    lams = []
    for mu in [0.5, 0.7, 0.9, 1.0]:
        mixed = ProbDist(mu * pr.table + (1.0 - mu) * u.table)  # mu on the PR side
        lams.append(local_content(mixed, "free").lam)
    assert all(a > b - 1e-12 for a, b in zip(lams, lams[1:]))
    assert lams[-1] <= 1e-9
    below = local_content(ProbDist(0.4 * pr.table + 0.6 * u.table), "free")
    assert abs(below.lam - 1.0) <= 1e-9


def test_local_content_remainder_local_variant():
    det = dist_from_assignments([0, 1], [0, 0], 2, 2)
    assert abs(local_content(det, "local").lam - 1.0) <= 1e-9
    out = local_content(pr_box_dist(), "local")
    # mixing weight against the worst local box: known 2/3 for this box
    assert abs(out.lam - 2.0 / 3.0) <= 1e-8
    # identity lam * P = D q - D r with q a full local distribution
    q_part = _rebuild(out.weights, 2, 2)
    q_mass = sum(weight for _, _, weight in out.weights)
    r_part = _rebuild(out.residual_weights, 2, 2)
    r_mass = sum(weight for _, _, weight in out.residual_weights)
    assert abs(q_mass - 1.0) <= 1e-8
    assert abs(out.lam + r_mass - 1.0) <= 1e-8
    lhs = out.lam * pr_box_dist().table
    assert np.max(np.abs(lhs - (q_part - r_part))) <= 1e-8


def _pr_type_box(N, K, shift):
    """b - a = shift[x][y] mod K, with a uniform: K nonzero entries per (x, y)."""
    table = np.zeros((N, N, K, K))
    a = np.arange(K)
    for x in range(N):
        for y in range(N):
            table[x, y, a, (a + shift[x][y]) % K] = 1.0 / K
    return table


@st.composite
def _sparse_mixtures(draw):
    N, K = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    answers = st.lists(st.integers(0, K - 1), min_size=N, max_size=N)
    pairs = draw(st.lists(st.tuples(answers, answers), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    pr_weight = draw(st.sampled_from([0, 1, 3]))
    shift = draw(st.lists(answers, min_size=N, max_size=N))
    table = pr_weight * _pr_type_box(N, K, shift)
    for (f, g), w in zip(pairs, weights):
        table = table + w * dist_from_assignments(f, g, N, K).table
    return ProbDist(table / (pr_weight + sum(weights)))


@settings(max_examples=80, deadline=None)
@given(dist=_sparse_mixtures())
def test_free_lp_over_the_support_matches_the_full_vertex_lp(dist):
    N, K = dist.N, dist.K
    D = vertex_matrix(N, K)
    p_flat = dist.table.reshape(-1)
    full = solve_lp(LinearProgram(np.ones(D.shape[1]), D, p_flat, equality=False))
    out = local_content(dist, "free")
    assert abs(out.lam - full.value) <= 1e-12
    assert out.reconstruction_error <= 1e-9
    xs = np.arange(N)
    for f, g, _ in out.weights:
        assert np.all(dist.table[xs[:, None], xs[None, :], np.array(f)[:, None], g] > 0.0)


def test_free_lp_of_kv_n4_on_all_four_cosets(monkeypatch):
    # (N, K) = (4, 4): 65,536 deterministic pairs, 16 of them inside the support
    table = build_hadamard_subgroup(2)
    meas = kv_measurements(table)
    dist = quantum_prob(make_mes(table.n), meas, meas)
    shapes = []

    def record(lp):
        shapes.append(lp.rows.shape)
        return solve_lp(lp)

    monkeypatch.setattr(localpolytope, "solve_lp", record)
    start = time.perf_counter()
    out = local_content(dist, "free")
    assert time.perf_counter() - start < 2.0
    assert shapes == [(256, 16)]
    assert abs(out.lam - 1.0) <= 1e-9
    assert out.reconstruction_error <= 1e-9


def test_lambda_read_past_one_is_clipped():
    # the LP rows bound lambda by 1; a solve can still read it 1 + rounding:
    # the local variant's [lambda | q | r] form read 1 + 5e-10 here (true
    # value 1 - 5e-10), the free one 1 + 2e-16 on the random MES(3) draw of
    # gen.py seed 1, pass 2
    det = dist_from_assignments([0, 0], [0, 0], 2, 2).table
    near_det = ProbDist((1.0 - 1e-9) * det + 1e-9 * pr_box_dist().table)
    draw = ProbDist(
        random_mes_table(np.random.default_rng([1, 2]), 3, 3), neg_tol=1e-9, norm_tol=1e-8
    )
    for dist, variant in ((near_det, "local"), (draw, "free")):
        out = local_content(dist, variant)
        assert 1.0 - 1e-9 <= out.lam <= 1.0
        assert out.reconstruction_error <= 1e-9


@st.composite
def _deterministic_mixtures(draw):
    N, K = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    answers = st.lists(st.integers(0, K - 1), min_size=N, max_size=N)
    pairs = draw(st.lists(st.tuples(answers, answers), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    table = sum(w * dist_from_assignments(f, g, N, K).table for (f, g), w in zip(pairs, weights))
    return ProbDist(table / sum(weights))


@settings(max_examples=40, deadline=None)
@given(dist=_deterministic_mixtures(), variant=st.sampled_from(["free", "local"]))
def test_local_content_solves_every_local_mixture(dist, variant):
    # both LPs are feasible and bounded (free: q = 0; local: the input's own
    # weights as q' with r' = 0, since a local input is no-signalling), so a
    # local input must never raise
    out = local_content(dist, variant)
    assert abs(out.lam - 1.0) <= 1e-9
    assert out.reconstruction_error <= 1e-9


@settings(max_examples=40, deadline=None)
@given(weight=st.sampled_from([2e-9, 1e-8]) | st.floats(1e-9, 1.0))
def test_local_variant_near_a_deterministic_pair(weight):
    # a deterministic pair mixed with a PR box of weight w: CHSH reads 2 + 2w,
    # so LV = 1 + w and lambda = 2 / (2 + w).  With P as an LP column next to
    # the nearly equal vertex columns, w = 2e-9 and 1e-8 ended phase 1 on a
    # singular basis.
    det = dist_from_assignments([0, 0], [0, 0], 2, 2).table
    dist = ProbDist((1.0 - weight) * det + weight * pr_box_dist().table)
    assert local_content(dist, "free").lam >= 1.0 - weight - 1e-12
    out = local_content(dist, "local")
    assert abs(out.lam - 1.0 / (1.0 + weight / 2.0)) <= 1e-12
    assert out.reconstruction_error <= 1e-9


def _chsh_boxes():
    """The 8 PR boxes a + b = xy + alpha x + beta y + gamma (mod 2) and the 16
    deterministic boxes of the (2, 2) scenario: the no-signalling polytope's
    vertices."""
    boxes = []
    xy = np.arange(2)
    for alpha, beta, gamma in itertools.product(range(2), repeat=3):
        box = np.zeros((2, 2, 2, 2))
        for x, y, a in itertools.product(range(2), repeat=3):
            box[x, y, a, (a + x * y + alpha * x + beta * y + gamma) % 2] = 0.5
        boxes.append(box)
    functions = [xy * 0, xy * 0 + 1, xy, 1 - xy]
    for f, g in itertools.product(functions, repeat=2):
        boxes.append(dist_from_assignments(f, g, 2, 2).table)
    return np.array(boxes)


def _chsh_max(table):
    """Largest of the 8 CHSH expressions sum_xy (-1)^(xy + alpha x + beta y + gamma) E_xy,
    local bound 2."""
    signs = np.array([1.0, -1.0, -1.0, 1.0])  # (-1)^(a + b) over (a, b)
    corr = table.reshape(2, 2, 4) @ signs
    xy = list(itertools.product(range(2), repeat=2))
    return max(
        sum((-1) ** (x * y + alpha * x + beta * y + gamma) * corr[x, y] for x, y in xy)
        for alpha, beta, gamma in itertools.product(range(2), repeat=3)
    )


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.integers(0, 6), min_size=24, max_size=24).filter(any))
def test_local_variant_reads_lv_from_chsh_on_no_signalling_boxes(weights):
    # an NS box of the (2, 2) scenario violates at most one CHSH inequality,
    # by S - 2; its LV = 2/lambda - 1 is max(1, S/2)
    w = np.array(weights, dtype=float)
    dist = ProbDist(np.tensordot(w / w.sum(), _chsh_boxes(), axes=1))
    out = local_content(dist, "local")
    assert out.reconstruction_error <= 1e-9
    assert abs(2.0 / out.lam - 1.0 - max(1.0, _chsh_max(dist.table) / 2.0)) <= 1e-12


# lambda of the local variant on gen.py's random MES(3) draws at (3, 3), seed 1,
# passes 0-5, from an independent LP solver (HiGHS on the [lambda | q | r]
# form, feasibility tolerances 1e-10)
_MES33_SEED1_LAMBDA = [
    0.9439252596172283,
    0.9570063939529848,
    1.0,
    0.9990449178112639,
    0.9616096795008162,
    0.9645000741005222,
]


@pytest.mark.parametrize("draw", range(6))
def test_local_variant_certifies_random_mes3_draws(draw):
    # with P as an LP column, draws 2 and 3 ended on a singular basis
    table = random_mes_table(np.random.default_rng([1, draw]), 3, 3)
    out = local_content(ProbDist(table, neg_tol=1e-9, norm_tol=1e-8), "local")
    assert abs(out.lam - _MES33_SEED1_LAMBDA[draw]) <= 1e-12
    assert out.reconstruction_error <= 1e-9


def test_local_content_variant_names():
    for spelling in ("bogus", "remainder-free", "remainder-local"):
        with pytest.raises(ValidationError):
            local_content(uniform_dist(2, 2), spelling)
    assert local_content(uniform_dist(2, 2), "free").variant == "remainder-free"
    assert local_content(uniform_dist(2, 2), "local").variant == "remainder-local"


def test_lv_from_pi():
    assert lv_from_pi(1.0) == 1.0
    assert lv_from_pi(0.5) == 3.0
    with pytest.raises(ValidationError):
        lv_from_pi(0.0)
    with pytest.raises(ValidationError):
        lv_from_pi(1.5)
