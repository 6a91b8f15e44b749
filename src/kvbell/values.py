"""Game values: bilinear pairings, classical optima (exact and heuristic),
the coset game's values from exact formulas, quantum distributions from
states and measurements, and the bound chains behind the super-activation
and almost-activation experiments.

Method vocabulary used in results and reports:
  exact             computed by full enumeration, dense algebra, rational
                    arithmetic or a proved closed form
  heuristic-lb      lower bound from a best-response search (no optimality claim)
  formula-ub        upper bound evaluated from a stated formula
  formula-lb        lower bound evaluated from a stated formula
  formula-symbolic  formula kept symbolic (unknown constant)
  empirical         Monte Carlo estimate with sampling error
"""

from __future__ import annotations

import math
import random

from . import kernels
from ._numpy import np
from .errors import GuardError, ValidationError
from .kvgame import (
    BOUND_CONSTANTS,
    EXACT_GAME_SIZES,
    BellFunctional,
    CosetTable,
    Measurement,
    build_hadamard_subgroup,
    kv_functional,
    kv_measurements,
    _check_eta,
)
from .states import (
    ENTANGLED,
    DensityMatrix,
    StateExpansion,
    make_mes,
    realize_term,
)

ENUMERATION_GUARD = 10**6
RESTARTS_GUARD = 1000
JOINT_DIM_GUARD = 4096
TABLE_ENTRIES_GUARD = 1 << 24
SEESAW_BLOCK_BYTES = 1 << 20
# log(C'/C), the constant term of the log super-activation ratio bound
LOG_PREFACTOR = math.log(BOUND_CONSTANTS.entangled) - math.log(BOUND_CONSTANTS.classical)
# C'' = (C'/C)/25, the constant of the almost-activation lower factor
ALMOST_ACTIVATION_CONSTANT = BOUND_CONSTANTS.entangled / BOUND_CONSTANTS.classical / 25.0


class ProbDist:
    """Conditional outcome table P(a, b | x, y), stored as (N, N, K, K).

    The table is kept as its own float64 copy, so the caller's array is
    never changed.  Entries down to -neg_tol are treated as float noise and
    clamped to 0 in that copy; anything lower is rejected.  Rows must be
    normalized per question pair within norm_tol.
    """

    def __init__(self, table, neg_tol: float = 1e-14, norm_tol: float = 1e-10):
        table = np.array(table, dtype=np.float64)
        if table.ndim != 4 or table.shape[0] != table.shape[1] or table.shape[2] != table.shape[3]:
            raise ValidationError(f"expected shape (N, N, K, K), got {table.shape}")
        if not np.isfinite(table).all():
            raise ValidationError("probability table has a non-finite entry")
        low = float(table.min()) if table.size else 0.0
        if low < -neg_tol:
            raise ValidationError(f"entry {low:.3e} below -{neg_tol:.1e}")
        np.clip(table, 0.0, None, out=table)  # table is already a copy
        sums = table.sum(axis=(2, 3))
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > norm_tol:
            raise ValidationError(f"normalization off by {worst:.3e} (> {norm_tol:.1e})")
        self.table = table
        self.N = table.shape[0]
        self.K = table.shape[2]


def pair(functional: BellFunctional, dist: ProbDist) -> float:
    """Bilinear pairing sum over (x, y, a, b) of coefficient times probability."""
    if (functional.num_inputs, functional.num_outputs) != (dist.N, dist.K):
        raise ValidationError(
            f"shape mismatch: functional ({functional.num_inputs}, {functional.num_outputs})"
            f" vs distribution ({dist.N}, {dist.K})"
        )
    return float(np.sum(functional.dense() * dist.table))


def assignment_table(n_in: int, n_out: int) -> np.ndarray:
    """All n_out**n_in assignments as base-K counter rows, input 0 most significant.

    Row index doubles as the canonical strategy id everywhere (enumeration,
    vertex order, weight reporting), so the order must never change.
    """
    total = n_out**n_in
    place = n_out ** (n_in - 1 - np.arange(n_in, dtype=np.int64))
    return (np.arange(total, dtype=np.int64)[:, None] // place[None, :]) % n_out


def classical_value_exact(functional: BellFunctional) -> float:
    """Largest |pairing| over deterministic strategy pairs.

    Enumerates one party's assignments and lets the other respond greedily
    per question, on the functional and its negation.  The local polytope's
    extreme points are exactly the deterministic pairs, so this is exact.
    """
    n_in, n_out = functional.num_inputs, functional.num_outputs
    if n_out**n_in > ENUMERATION_GUARD:
        raise GuardError(
            f"{n_out}^{n_in} assignments exceed the guard ({ENUMERATION_GUARD}); "
            "use classical_value_heuristic"
        )
    best = -math.inf
    for signed in _signed_tables(functional.dense()):
        reward = np.ascontiguousarray(signed.transpose(0, 2, 1, 3))
        best = max(best, float(kernels.enumerate_assignments_max(reward)))
    return best


def _signed_tables(dense: np.ndarray) -> tuple:
    """The table and its negation, or the table alone when no entry is negative.

    Without a negative entry every pairing is >= 0, so the negation never wins.
    """
    return (dense,) if dense.min() >= 0 else (dense, -dense)


def _check_restarts(restarts: int) -> None:
    """Refuse a restart count below 1 (exit 2) or above RESTARTS_GUARD (exit 3)."""
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    if restarts > RESTARTS_GUARD:
        raise GuardError(f"{restarts} restarts exceed the guard ({RESTARTS_GUARD})")


def classical_value_heuristic(
    functional: BellFunctional, restarts: int = 50, seed: int = 0
) -> float:
    """Lower bound by alternating best-response sweeps.

    Restart 0 starts from the all-zero second-party assignment, which on the
    coset game is the explicit strategy (position 0 in every coset).  Each
    later restart draws one answer per question, in question order, with
    random.Random(seed).randrange, then alternates exact best responses until
    a sweep leaves the assignment unchanged (at most 200 sweeps).  Runs on the
    functional, then on its negation when it has a negative entry, from one
    generator; deterministic given seed.
    """
    _check_restarts(restarts)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative int, got {seed!r}")
    n_in, n_out = functional.num_inputs, functional.num_outputs
    rng = random.Random(seed)
    ys = np.arange(n_in)
    best = -math.inf
    for signed in _signed_tables(functional.dense()):
        # by_x[x, a, y, b] and by_y[y, b, x, a] views for the two half-steps
        by_x = signed.transpose(0, 2, 1, 3)
        by_y = signed.transpose(1, 3, 0, 2)
        for restart in range(restarts):
            start = [rng.randrange(n_out) for _ in range(n_in)] if restart else [0] * n_in
            bob = np.array(start)
            value = -math.inf
            for _ in range(200):
                alice_gain = by_x[:, :, ys, bob].sum(axis=2)
                alice = alice_gain.argmax(axis=1)
                bob_gain = by_y[:, :, ys, alice].sum(axis=2)
                new_bob = bob_gain.argmax(axis=1)
                value = float(bob_gain.max(axis=1).sum())
                if np.array_equal(new_bob, bob):
                    break
                bob = new_bob
            best = max(best, value)
    return best


def _measurement_family(measurements, side: str):
    if not measurements:
        raise ValidationError(f"no measurements given for {side}")
    dim = measurements[0].dim
    k = measurements[0].num_outcomes
    for m in measurements:
        if m.dim != dim or m.num_outcomes != k:
            raise ValidationError(f"{side} measurements must share dim and outcome count")
    return dim, k


def quantum_prob(rho: DensityMatrix, alice, bob) -> ProbDist:
    """Outcome table P(a, b | x, y) = tr((E_x^a o F_y^b) rho).

    One contraction serves every question pair: Alice's operators E_x^a
    are the rows (x, a) of E, Bob's transposed operators the rows (y, b)
    of F, rho is permuted into R[(i, j), (l, k)] = rho[(j, l), (i, k)],
    and E R F^T is the whole table.  Rank-1 measurements enter through
    Measurement.operators, the outer products of their vectors.

    No command runs it: values takes the MES strategy's value on the coset
    game from quantum_value_kv_closed_form and on any other game from its
    win law (mes_pairing).  The tests, perfbench/gen.py, the expansion
    stack (kv_value_for_expansion) and the seesaw call it.
    """
    alice = list(alice)
    bob = list(bob)
    dim_a, k_a = _measurement_family(alice, "first party")
    dim_b, k_b = _measurement_family(bob, "second party")
    if len(alice) != len(bob) or k_a != k_b:
        raise ValidationError("both parties need equal input and outcome counts")
    n_in, n_out = len(alice), k_a
    if rho.dim != dim_a * dim_b:
        raise ValidationError(f"state dimension {rho.dim} != {dim_a}*{dim_b}")
    if rho.dim > JOINT_DIM_GUARD:
        raise GuardError(
            f"joint dimension {rho.dim} exceeds {JOINT_DIM_GUARD}; "
            "use quantum_value_kv_closed_form for large coset games"
        )
    if (n_in * n_out) ** 2 > TABLE_ENTRIES_GUARD:
        raise GuardError(
            "output table would exceed the size guard; "
            "use quantum_value_kv_closed_form for large coset games"
        )
    rho4 = rho.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    r = rho4.transpose(2, 0, 1, 3).reshape(dim_a**2, dim_b**2)
    e = np.stack([m.operators for m in alice]).reshape(n_in * n_out, dim_a**2)
    f = np.stack([m.operators for m in bob]).transpose(0, 1, 3, 2)
    f = f.reshape(n_in * n_out, dim_b**2)
    table = ((e @ r) @ f.T).real.reshape(n_in, n_out, n_in, n_out)
    return ProbDist(table.transpose(0, 2, 1, 3))


def quantum_value_kv_closed_form(n: int, eta: float) -> float:
    """Coset-game value of the maximally entangled strategy:
    (1 - 2*eta)**2 + 4*eta*(1 - eta)/n.

    Proof: on the MES, real unit vectors u, v give P = <u, v>**2 / n, and the
    sign vectors of answers a, b have <u_a, u_b> = 1 - 2|a xor b|/n.  A round
    with noise z is won by the n pairs (a, a xor z), a in [x], so with
    probability (1 - 2|z|/n)**2 whatever x is; |z| ~ Bin(n, eta) gives 1 - 2|z|/n
    mean 1 - 2*eta and variance 4*eta*(1 - eta)/n.  Evaluated exactly from
    eta = p/q as ((q - 2p)**2 n + 4p(q - p)) / (q**2 n), rounded once.
    """
    if n < 2:
        raise ValidationError(f"block length must be >= 2, got {n}")
    p, q = _check_eta(eta).as_integer_ratio()
    return ((q - 2 * p) ** 2 * n + 4 * p * (q - p)) / (q * q * n)


def rep_value(n: int, eta: float) -> float:
    """Coset-game value of the rep strategy, both parties answering each
    coset's first member: (1 - eta)**l at n = 2**l, a lower bound on the
    classical value, and that value itself at n = 2 and 4.

    Proof of the equality: a deterministic pair (A, B) wins question x with
    P(z in A[x] xor B), and A[x] xor B holds one string per coset, so no
    pair wins more than the sum over cosets of P(z = the coset's
    minimum-weight string).  At l = 1 and 2 the cosets' minimum weights are
    counted by C(l, w), which makes that sum (1 - eta)**(n - l), and
    n - l = l there.  From n = 8 on they are not ([1, 8, 14, 8, 1] at
    n = 8).  Evaluated exactly from eta = p/q as (q - p)**l / q**l,
    rounded once, as deterministic_value counts it for rep's strings.
    """
    if n < 2 or n & (n - 1):
        raise ValidationError(f"block length must be a power of 2 from 2 on, got {n}")
    p, q = _check_eta(eta).as_integer_ratio()
    l = n.bit_length() - 1
    return (q - p) ** l / q**l


def mes_pairing(functional: BellFunctional, table: CosetTable) -> float:
    """Pairing of functional with the coset game's MES strategy: both
    parties measure MES(n) in the sign basis of their question's coset.

    That strategy answers P(a, b | x, y) = (1/n) (1 - 2|a xor b|/n)**2 with
    a = table.elems[x, i], b = table.elems[y, j] (the proof under
    quantum_value_kv_closed_form), so no state, measurement or outcome
    table is built.  The weights of one question plane x, (N, K, K) of
    them, are paired at a time and the planes summed with math.fsum;
    every per-weight probability (n - 2w)**2 / n**3 is exact in floats.
    values runs it on game files that are not the coset game.
    """
    n, N = table.n, table.num_cosets
    if (functional.num_inputs, functional.num_outputs) != (N, n):
        raise ValidationError(
            f"shape mismatch: functional ({functional.num_inputs}, {functional.num_outputs})"
            f" vs coset table ({N}, {n})"
        )
    per_weight = (n - 2 * np.arange(n + 1)) ** 2 / n**3
    dense, elems = functional.dense(), table.elems
    planes = (
        dense[x] * per_weight[np.bitwise_count(elems[x, None, :, None] ^ elems[:, None, :])]
        for x in range(N)
    )
    return math.fsum(float(np.sum(plane)) for plane in planes)


class ExpansionValue:
    """KV value of an expanded isotropic power, computed exactly.

    total is the weighted sum over all realized terms; mes_term is the
    all-entangled term's contribution, which lower-bounds the total because
    every term's value is >= 0.
    """

    __slots__ = ("total", "mes_term")

    def __init__(self, total: float, mes_term: float):
        self.total = total
        self.mes_term = mes_term


def kv_value_for_expansion(expansion: StateExpansion, eta: float) -> ExpansionValue:
    """Evaluate the coset game on an expanded isotropic tensor power.

    Realizes every term densely, so the effective block length d**k must
    be one of EXACT_GAME_SIZES.
    """
    d, k = expansion.d, expansion.k
    n = d**k
    if n not in EXACT_GAME_SIZES:
        raise GuardError(f"exact evaluation needs d^k in {EXACT_GAME_SIZES}, got {n}")
    table = build_hadamard_subgroup(n.bit_length() - 1)
    game = kv_functional(table, eta)
    measurements = kv_measurements(table)
    total = 0.0
    mes_term = 0.0
    for weight, pattern in expansion.terms:
        state = realize_term(pattern, d, k)
        value = weight * pair(game, quantum_prob(state, measurements, measurements))
        if all(label == ENTANGLED for label in pattern):
            mes_term = value
        total += value
    return ExpansionValue(total=total, mes_term=mes_term)


def _isotropic_power_fractions(d: int, k: int, p: Fraction, eta: Fraction):
    """(total, mes_term) of isotropic_power_value as exact Fractions.

    Summing C(k, s) p^s (1-p)^(k-s) v_s over s by the binomial theorem gives
    total = (1 - 2 eta)^2 (A^k - B^k) + d^-k with A = (1 - p + p d^2)/d^2 and
    B = (1 - p + p d)/d^2; mes_term = p^k ((d^k - 1)(1 - 2 eta)^2 + 1)/d^k.
    """
    gain = (1 - 2 * eta) ** 2
    a = (1 - p + p * d**2) / d**2
    b = (1 - p + p * d) / d**2
    total = gain * (a**k - b**k) + _to_fraction(1) / d**k
    return total, p**k * ((d**k - 1) * gain + 1) / d**k


def isotropic_power_value(d: int, k: int, p: float, eta: float) -> tuple[float, float]:
    """(total, mes_term) of kv_value_for_expansion(expand_tensor_power(d, p, k), eta)
    from its closed form, in rational arithmetic.

    A term with s entangled copies is the MES on dimension d^s times the
    maximally mixed state on d^(k-s), and the coset game on n = d^k values it
    at v_s = ((d^s - 1)(1 - 2 eta)^2 + d^(k-s)) / d^(2k-s); s = k gives the
    MES closed form.  total is sum_s C(k, s) p^s (1-p)^(k-s) v_s and mes_term
    its s = k term, each taken in three powers of Fractions of the float
    inputs (_isotropic_power_fractions) and rounded once.  Checked against
    the dense evaluation at d^k in EXACT_GAME_SIZES.
    """
    d, k = int(d), int(k)
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    if k < 1:
        raise ValidationError(f"copy count must be >= 1, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"mixing weight must be in [0, 1], got {p}")
    from fractions import Fraction  # exact binary values of the floats, unlike _to_fraction

    total, mes_term = _isotropic_power_fractions(d, k, Fraction(p), Fraction(_check_eta(eta)))
    return float(total), float(mes_term)


def _log_ratio_bound(k: int, log_alpha: float, ln_d: float) -> float:
    return LOG_PREFACTOR + k * log_alpha - 2.0 * math.log(k * ln_d)


def superactivation_log_ratio_bound(d: int, k: int, alpha: float) -> float:
    """Natural log of the bound (C'/C) * alpha**k / (k ln d)**2 on the
    violation ratio of the k-fold power; finite at every k."""
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    if k < 1:
        raise ValidationError(f"copy count must be >= 1, got {k}")
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    return _log_ratio_bound(k, math.log(alpha), math.log(d))


def superactivation_ratio_bound(d: int, k: int, alpha: float) -> float:
    """The bound itself, from its log so large k cannot overflow."""
    log_bound = superactivation_log_ratio_bound(d, k, alpha)
    # saturate instead of raising once the (finite) bound leaves float range
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)


def superactivation_monotone_from(alpha: float) -> int:
    """Smallest k0 = ceil(2 / ln alpha) past which the bound strictly grows."""
    if alpha <= 1.0:
        raise ValidationError("the bound only grows for alpha > 1")
    return max(1, math.ceil(2.0 / math.log(alpha)))


def superactivation_crossing(d: int, alpha: float, k_limit: int = 10**7) -> int | None:
    """Minimal k with bound > 1, or None when alpha <= 1 (no crossing)."""
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    alpha = float(alpha)
    if alpha <= 1.0:
        return None
    log_alpha, ln_d = math.log(alpha), math.log(d)
    if _log_ratio_bound(1, log_alpha, ln_d) > 0.0:
        return 1
    # the log bound is convex in k with its minimum at 2 / ln alpha: when k = 1
    # fails, so does every k below monotone_from
    for k in range(superactivation_monotone_from(alpha), k_limit + 1):
        if _log_ratio_bound(k, log_alpha, ln_d) > 0.0:
            return k
    raise GuardError(f"no crossing found up to k = {k_limit}")


def _to_fraction(alpha) -> Fraction:
    # imported here, so that only the commands that do rational arithmetic load it
    from fractions import Fraction

    if isinstance(alpha, (Fraction, int, str)):
        return Fraction(alpha)
    # floats go through repr so 0.1 means the decimal 1/10, not its binary image
    return Fraction(repr(float(alpha)))


def _check_alpha_range(frac: Fraction) -> Fraction:
    if not 0 < frac < _to_fraction("1/2"):
        raise ValidationError(f"exponent parameter must be in (0, 1/2), got {frac}")
    return frac


def almost_activation_mix_weight(d: int, alpha) -> float:
    """Mixing weight (ln d)^(1/2 - alpha) / d used by the almost-activation chain."""
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    frac = _check_alpha_range(_to_fraction(alpha))
    return math.log(d) ** float(_to_fraction("1/2") - frac) / d


def almost_activation_exponent(alpha) -> Fraction:
    """Exact exponent 1/2 - 5*alpha of the lower-bound factor's growth in ln d."""
    frac = _check_alpha_range(_to_fraction(alpha))
    return _to_fraction("1/2") - 5 * frac


def almost_activation_lower_factor(d: int, alpha) -> float:
    """Numeric lower-bound factor C'' * (ln d)^(1/2 - 5*alpha)."""
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    exponent = almost_activation_exponent(alpha)
    return ALMOST_ACTIVATION_CONSTANT * math.log(d) ** float(exponent)


def almost_activation_upper_formula(alpha) -> str:
    """Symbolic upper bound D*(ln d)^(-alpha) + 1; D is never given a number."""
    frac = _check_alpha_range(_to_fraction(alpha))
    return f"D*(ln d)^(-{frac}) + 1"


class SeesawResult:
    """Best strategy found by the alternating heuristic and its exact value."""

    __slots__ = ("value", "alice", "bob")

    def __init__(self, value: float, alice: list, bob: list):
        self.value = value
        self.alice = alice
        self.bob = bob


def _random_projective(rng, dim: int, n_out: int) -> Measurement:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(gauss)
    ops = np.zeros((n_out, dim, dim), dtype=complex)
    for col in range(dim):
        v = q[:, col]
        ops[col % n_out] += np.outer(v, v.conj())
    return Measurement(dim, operators=ops)


def _greedy_responses(rewards: np.ndarray) -> np.ndarray:
    """Projective measurements from reward operators rewards[..., a, :, :].

    Diagonalizes each outcome-weighted combination, then gives each
    eigenvector to the outcome whose reward is largest on it.  Projectors are
    built as np.outer does and added in ascending eigenvector order."""
    n_out, dim = rewards.shape[-3], rewards.shape[-1]
    mixer = np.einsum("a,...aij->...ij", np.arange(1, n_out + 1, dtype=float), rewards)
    mixer = (mixer + mixer.conj().swapaxes(-1, -2)) / 2.0
    _, vecs = np.linalg.eigh(mixer)
    scores = np.einsum("...ic,...aij,...jc->...ca", vecs.conj(), rewards, vecs).real
    choice = scores.argmax(axis=-1)
    lead = tuple(np.indices(choice.shape[:-1]))
    ops = np.zeros(rewards.shape, dtype=complex)
    for col in range(dim):
        v = vecs[..., col]
        ops[(*lead, choice[..., col])] += v[..., :, None] * v.conj()[..., None, :]
    return ops


def seesaw_lower_bound(
    functional: BellFunctional,
    dim: int,
    seed: int = 0,
    iters: int = 50,
    restarts: int = 20,
) -> SeesawResult:
    """Heuristic lower bound on the quantum value over maximally entangled
    strategies, by alternating greedy measurement updates.

    Restarts run in blocks of at most SEESAW_BLOCK_BYTES of operators, and
    each half-step updates a whole block at once.  Starts are drawn restart
    by restart and the first strict best iterate is kept (single updates
    need not improve), so blocking leaves the result unchanged.  The value
    is the pairing of the returned strategy, computed through quantum_prob.
    No command runs it; on CHSH it reaches tsirelson_box_dist().
    """
    if dim > 16:
        raise GuardError(f"joint search dimension {dim} exceeds 16")
    n_in, n_out = functional.num_inputs, functional.num_outputs
    if n_in * n_out > 64:
        raise GuardError(f"scenario size N*K = {n_in * n_out} exceeds 64")
    if iters < 1:
        raise ValidationError(f"iters must be >= 1, got {iters}")
    _check_restarts(restarts)
    dense = functional.dense()
    rng = np.random.Generator(np.random.PCG64(seed))
    block = max(1, SEESAW_BLOCK_BYTES // (32 * n_in * n_out * dim * dim))
    best_value, best_ops = -math.inf, None
    for start in range(0, restarts, block):
        count = min(block, restarts - start)  # ops[r]: Alice's n_in measurements, then Bob's
        draws = [_random_projective(rng, dim, n_out).operators for _ in range(2 * n_in * count)]
        ops = np.array(draws).reshape(count, 2 * n_in, n_out, dim, dim)
        alice, bob = ops[:, :n_in], ops[:, n_in:]
        kept_value, kept_ops = np.full(count, -math.inf), ops.copy()
        for _ in range(iters):
            for mover, spec, other in (
                (alice, "xyab,rybij->rxaji", bob),
                (bob, "xyab,rxaij->rybji", alice),
            ):
                mover[...] = _greedy_responses(np.einsum(spec, dense, other) / dim)
                # tr((E o F) MES) = tr(E F^T)/dim collapses the pairing to 2-index sums
                overlap = np.einsum("rxaij,rybij->rxyab", alice, bob).real / dim
                value = np.array([np.sum(dense * o) for o in overlap])
                better = value > kept_value
                kept_value[better], kept_ops[better] = value[better], ops[better]
        r = int(np.argmax(kept_value))
        if kept_value[r] > best_value:
            best_value, best_ops = kept_value[r], kept_ops[r]
    alice = [Measurement(dim, operators=op) for op in best_ops[:n_in]]
    bob = [Measurement(dim, operators=op) for op in best_ops[n_in:]]
    exact_value = pair(functional, quantum_prob(make_mes(dim), alice, bob))
    return SeesawResult(value=exact_value, alice=alice, bob=bob)


def _xor_win_mask() -> np.ndarray:
    x, y, a, b = np.indices((2, 2, 2, 2))
    return (a ^ b) == (x & y)


def pr_box_dist() -> ProbDist:
    """Nonsignaling box winning the two-input xor game with certainty."""
    return ProbDist(0.5 * _xor_win_mask())


def tsirelson_box_dist() -> ProbDist:
    """Tsirelson's box P(a, b | x, y) = (1 + (-1)^(a xor b xor xy) / sqrt 2) / 4:
    the PR box at visibility 1/sqrt 2 plus the rest of the uniform table, the
    MES(2) correlations that win the two-input xor game with cos^2(pi/8)."""
    sign = 2.0 * _xor_win_mask() - 1.0
    return ProbDist(0.25 * (1.0 + math.sqrt(0.5) * sign))
