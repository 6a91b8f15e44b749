"""Acceptance gate: one test per shipped claim, each at its stated tolerance
and runtime budget.

`pytest tests/test_acceptance.py -v` gives one PASSED/FAILED line per
criterion; add -s to also see the PASS/FAIL summary prints with timings.
The independent oracles come from tests/oracles.py.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
from oracles import (
    classical_value_bruteforce,
    direct_coefficient_table_numpy,
    kv_mes_value_direct,
    tensor_power_blocked,
)

from kvbell.cli import main as cli_main
from kvbell.kvgame import (
    asymptotic_eta,
    build_hadamard_subgroup,
    entangled_lower_bound_asymptotic,
    kv_classical_upper_bound,
    kv_functional,
    kv_measurements,
    noise_string_probs,
)
from kvbell.localpolytope import LinearProgram, local_content, solve_lp, vertex_matrix
from kvbell.states import (
    DensityMatrix,
    expand_tensor_power,
    locality_threshold,
    make_isotropic,
    threshold_copy_gain,
)
from kvbell.values import (
    ProbDist,
    almost_activation_exponent,
    almost_activation_lower_factor,
    classical_value_exact,
    kv_value_for_expansion,
    pair,
    pr_box_dist,
    quantum_prob,
    quantum_value_kv_closed_form,
    superactivation_crossing,
    superactivation_monotone_from,
    superactivation_ratio_bound,
)


class criterion:
    """Times a criterion block and prints one PASS/FAIL line for it."""

    def __init__(self, num, desc, budget_s, capsys=None):
        self.num = num
        self.desc = desc
        self.budget = budget_s
        self.capsys = capsys

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def _say(self, line):
        if self.capsys is not None:
            with self.capsys.disabled():
                print(line)
        else:
            print(line)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        word = "PASS" if ok else "FAIL"
        self._say(
            f"{word} criterion {self.num}: {self.desc} "
            f"[{elapsed:.2f}s / {self.budget:.0f}s budget]"
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.num} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_coefficient_collapse():
    with criterion(1, "closed-form game table equals the direct definition", 10.0):
        for l, etas in ((2, (0.25, 0.5)), (3, (asymptotic_eta(8), 0.5))):
            table = build_hadamard_subgroup(l)
            for eta in etas:
                game = kv_functional(table, eta)
                probs = noise_string_probs(table.n, eta)
                oracle = direct_coefficient_table_numpy(
                    table.elems, table.coset_of, probs
                )
                diff = float(np.max(np.abs(game.dense() - oracle)))
                assert diff <= 1e-14, (l, eta, diff)


def test_criterion_02_classical_exact_vs_oracle():
    with criterion(2, "classical value matches pair enumeration and noise bound", 5.0):
        table = build_hadamard_subgroup(2)
        for eta in (0.1, 0.25, 0.4, 0.5):
            game = kv_functional(table, eta)
            v_exact = classical_value_exact(game)
            v_brute = classical_value_bruteforce(game)
            assert v_exact == v_brute, (eta, v_exact, v_brute)
            assert v_exact <= kv_classical_upper_bound(4, eta) + 1e-12, (eta, v_exact)


def test_criterion_03_quantum_closed_form():
    with criterion(3, "entangled-state value matches its closed form", 10.0):
        v4 = kv_mes_value_direct(build_hadamard_subgroup(2), 0.25)
        assert abs(v4 - 0.4375) <= 1e-10, v4
        eta8 = asymptotic_eta(8)
        v8 = kv_mes_value_direct(build_hadamard_subgroup(3), eta8)
        closed = quantum_value_kv_closed_form(8, eta8)
        assert abs(v8 - closed) <= 1e-10, (v8, closed)
        floor = entangled_lower_bound_asymptotic(8)
        assert floor == 4.0 / math.log(8) ** 2
        assert v8 >= floor, (v8, floor)


def test_criterion_04_threshold_crossing():
    with criterion(4, "per-copy gain crosses 1 between d=7 and d=8", 1.0):
        a7 = threshold_copy_gain(7)
        a8 = threshold_copy_gain(8)
        assert a7 == 7 * locality_threshold(7)
        assert a8 == 8 * locality_threshold(8)
        assert a7 < 1.0 < a8, (a7, a8)


def test_criterion_05_expansion_exactness():
    with criterion(5, "two-copy expansion equals the dense evaluation", 30.0):
        table = build_hadamard_subgroup(2)
        game = kv_functional(table, 0.25)
        meas = kv_measurements(table)
        for p in (0.0, 0.3, 0.7, 1.0):
            ev = kv_value_for_expansion(expand_tensor_power(2, p, 2), 0.25)
            state = tensor_power_blocked(make_isotropic(2, p), 2, 2)
            v_dense = pair(game, quantum_prob(state, meas, meas))
            assert abs(ev.total - v_dense) <= 1e-10, (p, ev.total, v_dense)
            assert ev.total >= p * p * 0.4375 - 1e-12, (p, ev.total)


def test_criterion_06_divergence_scan():
    with criterion(6, "ratio bound crosses 1 at a finite copy count", 5.0):
        alpha = threshold_copy_gain(8)
        k_star = superactivation_crossing(8, alpha)
        assert k_star is not None and k_star > 1
        b_at = superactivation_ratio_bound(8, k_star, alpha)
        b_before = superactivation_ratio_bound(8, k_star - 1, alpha)
        assert b_at > 1.0 >= b_before, (k_star, b_at, b_before)
        start = superactivation_monotone_from(8, alpha)
        vals = [superactivation_ratio_bound(8, k, alpha) for k in range(start, start + 120)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_criterion_07_almost_activation_exponent():
    with criterion(7, "almost-activation exponent is exactly 1/22", 1.0):
        assert almost_activation_exponent(Fraction(1, 11)) == Fraction(1, 22)
        grid = [4, 8, 16, 64, 256, 1024, 4096, 16384, 10**5, 10**6]
        factors = [almost_activation_lower_factor(d, Fraction(1, 11)) for d in grid]
        assert all(a < b for a, b in zip(factors, factors[1:])), factors


def _oracle_max(c, rows, rhs):
    """Best objective over vertices of {rows @ x <= rhs, x >= 0}."""
    m, n = rows.shape
    full = np.vstack([rows, -np.eye(n)])
    full_rhs = np.concatenate([rhs, np.zeros(n)])
    best = None
    for idx in itertools.combinations(range(m + n), n):
        sub = full[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, full_rhs[list(idx)])
        if np.all(full @ x <= full_rhs + 1e-9):
            v = float(c @ x)
            if best is None or v > best:
                best = v
    return best


def _rebuild_local_part(weights, N, K):
    out = np.zeros((N, N, K, K))
    for f, g, weight in weights:
        out += weight * ProbDist.from_assignments(f, g, N, K).table
    return out


def test_criterion_08_lp_layer():
    with criterion(8, "simplex matches vertex oracle; local weights exact", 60.0):
        rng = np.random.Generator(np.random.PCG64(20260819))
        for trial in range(100):
            A = rng.normal(size=(7, 5))
            b = rng.uniform(0.5, 2.0, size=7)
            cap = rng.uniform(1.0, 3.0)
            rows = np.vstack([A, np.ones((1, 5))])  # cap row keeps the LP bounded
            rhs = np.concatenate([b, [cap]])
            c = rng.normal(size=5)
            res = solve_lp(LinearProgram(objective=c, rows=rows, rhs=rhs, equality=False))
            want = _oracle_max(c, rows, rhs)
            assert abs(res.value - want) <= 1e-8, (trial, res.value, want)

        D = vertex_matrix(2, 2)
        for trial in range(50):
            picks = rng.integers(0, D.shape[1], size=3)
            lam_mix = rng.dirichlet(np.ones(3))
            table = (D[:, picks] @ lam_mix).reshape(2, 2, 2, 2)
            out = local_content(ProbDist(table), "free")
            assert abs(out.lam - 1.0) <= 1e-9, (trial, out.lam)
            rebuilt = _rebuild_local_part(out.weights, 2, 2)
            err = float(np.max(np.abs(rebuilt - table)))
            assert err <= 1e-9, (trial, err)

        assert local_content(pr_box_dist(), "free").lam <= 1e-9


def _run_referee(capsys, strategy, seed):
    argv = [
        "referee-sim", "--l", "2", "--eta", "0.25",
        "--strategy", strategy, "--samples", "100000",
        "--seed", str(seed), "--format", "json",
    ]
    code = cli_main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)["result"]


def test_criterion_09_referee_monte_carlo(capsys):
    with criterion(9, "seeded referee runs are 4-sigma consistent and repeatable", 10.0, capsys):
        for strategy, seed in (("mes", 7), ("rep", 11)):
            first = _run_referee(capsys, strategy, seed)
            again = _run_referee(capsys, strategy, seed)
            blob_a = json.dumps(first, sort_keys=True).encode()
            blob_b = json.dumps(again, sort_keys=True).encode()
            assert blob_a == blob_b, strategy
            rate = first["win_rate"]["value"]
            exact = first["exact_value"]["value"]
            se = first["std_error"]["value"]
            assert se > 0.0
            assert abs(rate - exact) <= 4.0 * se, (strategy, rate, exact, se)
            assert first["consistent_4sigma"] is True


def test_criterion_10_dense_isotropic_cross_check():
    with criterion(10, "64-dim noisy-state value splits into its two terms", 120.0):
        table = build_hadamard_subgroup(3)
        eta = asymptotic_eta(8)
        game = kv_functional(table, eta)
        meas = kv_measurements(table)
        p = locality_threshold(8)
        v_iso = pair(game, quantum_prob(make_isotropic(8, p), meas, meas))
        mixed = DensityMatrix(np.eye(64) / 64.0)
        v_mix = pair(game, quantum_prob(mixed, meas, meas))
        assert abs(v_mix - 0.125) <= 1e-9, v_mix
        target = p * quantum_value_kv_closed_form(8, eta) + (1.0 - p) * v_mix
        assert abs(v_iso - target) <= 1e-9, (v_iso, target)
