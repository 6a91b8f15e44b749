"""Independent reference implementations the tests compare the package to,
and the inputs only tests build.

Each oracle computes a shipped quantity by a different route (the bare
definition, a full two-sided enumeration, an explicit sum over group
elements, a direct tensor power) and nothing in src/kvbell calls it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

import numpy as np

from kvbell.cli import _header, _load_json
from kvbell.errors import GuardError, ValidationError
from kvbell.kvgame import (
    EXACT_GAME_SIZES,
    REFEREE_ROUNDS_GUARD,
    BellFunctional,
    CosetTable,
    Measurement,
    RefereeSamples,
    _check_eta,
    _require_coset_game,
    build_hadamard_subgroup,
    noise_alias_table,
    noise_weights,
    stream_key,
    stream_words,
)
from kvbell.states import (
    ENTANGLED,
    REALIZE_MAX_DIM,
    DensityMatrix,
    expand_tensor_power,
    interleave_to_blocked,
    make_mes,
)
from kvbell.values import (
    ProbDist,
    SeesawResult,
    _random_projective,
    assignment_table,
    pair,
    quantum_prob,
)

ORACLE_GUARD = 4096


def noise_string_probs(n: int, eta: float) -> np.ndarray:
    """Probability of every noise string in {0,1}^n, indexed by encoding:
    the referee's noise distribution spelled out string by string."""
    per_weight = noise_weights(n, eta)
    return per_weight[np.bitwise_count(np.arange(1 << n))]


def make_isotropic(d: int, p: float) -> DensityMatrix:
    """Dense isotropic state p * MES + (1-p) * I/d^2, the reference for the
    expansion of its tensor powers into product terms."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"mixing weight must be in [0, 1], got {p}")
    mes = make_mes(d).matrix
    return DensityMatrix(p * mes + (1.0 - p) * np.eye(d * d) / (d * d))


def dist_from_assignments(alice, bob, N: int, K: int) -> ProbDist:
    """The deterministic box of Alice's and Bob's assignments (one output
    per input), spelled out as the dense (N, N, K, K) table: the dense side
    of deterministic_value's check."""
    alice = np.asarray(alice, dtype=np.int64)
    bob = np.asarray(bob, dtype=np.int64)
    if alice.shape != (N,) or bob.shape != (N,):
        raise ValidationError("assignments must give one output per input")
    if alice.min() < 0 or alice.max() >= K or bob.min() < 0 or bob.max() >= K:
        raise ValidationError(f"assignment outputs must lie in [0, {K})")
    table = np.zeros((N, N, K, K))
    xs = np.arange(N)
    table[xs[:, None], xs[None, :], alice[:, None], bob[None, :]] = 1.0
    return ProbDist(table)


def uniform_dist(N: int, K: int) -> ProbDist:
    """Every answer pair equally likely on every question pair."""
    return ProbDist(np.full((N, N, K, K), 1.0 / (K * K)))


def direct_coefficient_table_numpy(elems, coset_of, noise_probs):
    """Average the win indicator over all noise strings, one string at a time.

    elems is the (N, n) table of coset members sorted ascending, coset_of
    maps each group element to its coset index, and noise_probs[z] is the
    probability of noise string z.  Returns the (N, N, n, n) table whose
    (x, y, pa, pb) entry is the weight the game gives to answers
    elems[x, pa], elems[y, pb] on question pair (x, y), scaled so a
    distribution pairs with it directly.  Quadratic in the group size; it
    validates the closed-form table of kv_functional against the bare
    definition of the referee.
    """
    elems = np.asarray(elems, dtype=np.int64)
    coset_of = np.asarray(coset_of, dtype=np.int64)
    noise_probs = np.asarray(noise_probs, dtype=np.float64)
    num_cosets, n = elems.shape
    size = noise_probs.shape[0]
    scale = 1.0 / num_cosets
    answer_xor = elems[:, None, :, None] ^ elems[None, :, None, :]
    reps = elems[:, 0]
    coset_ids = np.arange(num_cosets)
    out = np.zeros((num_cosets, num_cosets, n, n), dtype=np.float64)
    for z in range(size):
        shifted = coset_of[reps ^ z]
        hits = (answer_xor == z) & (shifted[:, None, None, None] == coset_ids[None, :, None, None])
        out += (scale * noise_probs[z]) * hits
    return out


def classical_value_bruteforce(functional, guard: int = ORACLE_GUARD) -> float:
    """Scan every (assignment, assignment) pair outright.

    Sums run in the same ascending index order as the greedy kernel, so on
    shared inputs the two routes agree exactly, not just within tolerance.
    """
    n_in, n_out = functional.num_inputs, functional.num_outputs
    total = n_out**n_in
    if total > guard:
        raise GuardError(f"{n_out}^{n_in} assignments exceed the oracle guard ({guard})")
    digits = assignment_table(n_in, n_out)
    dense = functional.dense()
    best = -math.inf
    for signed in (dense, -dense):
        reward = signed.transpose(0, 2, 1, 3)
        score = np.zeros((total, n_in, n_out))
        for x in range(n_in):
            score += reward[x, digits[:, x]]
        for lo in range(0, total, 512):
            vals = np.zeros((min(512, total - lo), total))
            for y in range(n_in):
                vals += score[lo : lo + 512, y, :][:, digits[:, y]]
            best = max(best, float(vals.max()))
    return best


def kv_mes_value_direct(table: CosetTable, eta: float) -> float:
    """Value of the maximally entangled strategy, summed outright.

    Sums (1/N) * Pr_eta(a xor b) * <u_a|u_b>^2 / n over every ordered pair
    of group elements, with the sign vectors built explicitly.  Quadratic
    in the group size; independent of the game-table and quantum_prob
    machinery.
    """
    n = table.n
    per_weight = noise_weights(n, eta)
    values = np.arange(table.size, dtype=np.int64)
    shifts = n - 1 - np.arange(n)
    signs = (1.0 - 2.0 * ((values[:, None] >> shifts[None, :]) & 1)) / math.sqrt(n)
    overlaps = signs @ signs.T
    bit_counts = np.array([bin(v).count("1") for v in range(table.size)])
    weights = per_weight[bit_counts[values[:, None] ^ values[None, :]]]
    return float(np.sum(weights * overlaps**2) / (table.num_cosets * n))


def deterministic_value_by_fractions(table: CosetTable, eta: float, alice, bob) -> Fraction:
    """Value of the strategy giving coset x answer positions alice[x] and
    bob[x], as the exact sum over question pairs (x, y) of
    (1/N) eta^w (1 - eta)^(n - w), w the distance of the two answers."""
    n, eta = table.n, Fraction(eta)
    total = Fraction(0)
    for x in range(table.num_cosets):
        a = int(table.elems[x, alice[x]])
        for y in range(table.num_cosets):
            w = bin(a ^ int(table.elems[y, bob[y]])).count("1")
            total += eta**w * (1 - eta) ** (n - w)
    return total / table.num_cosets


def tensor_power_blocked(state: DensityMatrix, d: int, k: int) -> DensityMatrix:
    """k-fold tensor power of a bipartite state on d x d, in blocked order.

    Independent of the expansion machinery; cross-checks weighted term
    sums against the direct power of the mixed state.
    """
    if state.dim != d * d:
        raise ValidationError(f"state dimension {state.dim} != d^2 = {d * d}")
    if d**k > REALIZE_MAX_DIM:
        raise GuardError(
            f"dense tensor power needs dimension d^k <= {REALIZE_MAX_DIM}, got {d**k}"
        )
    joint = np.array([[1.0]])
    for _ in range(k):
        joint = np.kron(joint, state.matrix)
    return DensityMatrix(interleave_to_blocked(joint, d, k))


def isotropic_power_value_by_patterns(d: int, k: int, p: float, eta: float):
    """(total, mes_term) of the coset game on the k-fold isotropic power, as
    Fractions summed term by term over the 2^k patterns of
    expand_tensor_power.  A pattern with MES on dimension m = d^s and noise on
    the rest has value ((m - 1) m (1 - 2 eta)^2 + n) / n^2 at n = d^k."""
    p, eta = Fraction(p), Fraction(eta)
    n = d**k
    total = mes_term = Fraction(0)
    for _, pattern in expand_tensor_power(d, float(p), k).terms:
        s = pattern.count(ENTANGLED)
        m = d**s
        value = p**s * (1 - p) ** (k - s) * ((m - 1) * m * (1 - 2 * eta) ** 2 + n) / n**2
        total += value
        if s == k:
            mes_term = value
    return total, mes_term


def isotropic_power_value_by_binomial_sum(d: int, k: int, p: float, eta: float):
    """(total, mes_term) of isotropic_power_value as Fractions summed over the
    number s of entangled copies: C(k, s) p^s (1-p)^(k-s) v_s with
    v_s = ((d^s - 1)(1 - 2 eta)^2 + d^(k-s)) / d^(2k-s), and the s = k term."""
    p, gain = Fraction(p), (1 - 2 * Fraction(eta)) ** 2
    terms = [
        math.comb(k, s) * p**s * (1 - p) ** (k - s)
        * ((d**s - 1) * gain + d ** (k - s)) / d ** (2 * k - s)
        for s in range(k + 1)
    ]
    return sum(terms), terms[k]


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems except those in keep.

    dims lists the subsystem dimensions of a square matrix acting on their
    tensor product; keep lists the subsystem indices to retain, in order.
    """
    rho = np.asarray(rho)
    dims = tuple(int(d) for d in dims)
    keep = tuple(int(i) for i in keep)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValidationError(f"matrix shape {rho.shape} does not match dims {dims}")
    if any(not 0 <= i < len(dims) for i in keep) or len(set(keep)) != len(keep):
        raise ValidationError("keep must list distinct subsystem indices")
    m = len(dims)
    traced = [i for i in range(m) if i not in keep]
    order = list(keep) + traced
    tensor = rho.reshape(dims + dims)
    tensor = tensor.transpose(order + [m + i for i in order])
    while tensor.ndim > 2 * len(keep):
        half = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=half - 1, axis2=tensor.ndim - 1)
    side = int(np.prod([dims[i] for i in keep]))
    return tensor.reshape(side, side)


def splitmix64_words(state: int, count: int) -> list[int]:
    """The first count outputs of splitmix64 from state, stepped one output
    at a time on Python integers as in the published reference generator."""
    mask = 2**64 - 1
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


def stream_key_by_limbs(seed: int, stream: int) -> int:
    """The key of a seed's stream: the seed's 64-bit limbs, lowest first,
    each xored into the key and stepped once, then stream + 1 steps."""
    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = splitmix64_words(key ^ ((seed >> shift) & (2**64 - 1)), 1)[0]
    return splitmix64_words(key, stream + 1)[-1]


def referee_sample_whole_x(table: CosetTable, eta: float, seed: int, count: int = 1) -> RefereeSamples:
    """Draw question pairs the way the referee does, every round at once.

    Round i reads word i of the seed's streams 0 (x, its top
    log2(num_cosets) bits) and 1 (z, through the noise alias table), drawn
    whole-length, so a fixed (table, eta, seed, count) fixes the samples.
    (referee_sample draws the same words block by block.)
    """
    eta = _check_eta(eta)
    if count < 1:
        raise ValidationError("count must be positive")
    if count > REFEREE_ROUNDS_GUARD:
        raise GuardError(f"{count} rounds exceed the referee guard ({REFEREE_ROUNDS_GUARD})")
    n = table.n
    xs = stream_words(stream_key(seed, 0), 0, count) >> (64 - (n - table.l))
    xs = xs.astype(table.coset_of.dtype)
    threshold, alias = noise_alias_table(n, eta)
    noise = stream_words(stream_key(seed, 1), 0, count)
    entry = (noise >> (64 - n)).astype(np.intp)
    kept = noise % (1 << (64 - n)) < threshold[entry]
    zs = np.where(kept, entry, alias[entry]).astype(table.elems.dtype)
    ys = table.coset_of[table.elems[xs, 0] ^ zs]
    return RefereeSamples(x=xs, y=ys, z=zs)


def join_blocks(blocks) -> RefereeSamples:
    """The rounds of referee_sample's blocks, in order, as one RefereeSamples."""
    blocks = list(blocks)
    return RefereeSamples(*(np.concatenate([getattr(b, key) for b in blocks]) for key in "xyz"))


def kv_game_to_json_per_entry(functional) -> dict:
    """The game-file dict built one nonzero entry at a time, converting each
    numpy scalar on its own; kv_game_to_json builds it from whole columns."""
    table = _require_coset_game(functional)
    dense = functional.dense()
    entries = []
    nz = np.argwhere(dense != 0.0)
    for x, y, a, b in nz:
        entries.append(
            {"x": int(x), "y": int(y), "a": int(a), "b": int(b), "c": float(dense[x, y, a, b])}
        )
    return {
        "n": table.n,
        "eta": functional.meta["eta"],
        "N": functional.num_inputs,
        "K": functional.num_outputs,
        "entries": entries,
    }


def _entry_column_per_entry(entries, key: str, types: set, what: str) -> list:
    values = list(map(itemgetter(key), entries))
    if not set(map(type, values)) <= types:
        bad = next(e for e, v in zip(entries, values) if type(v) not in types)
        raise ValidationError(f"game entry {bad!r} needs {what} under {key!r}")
    return values


def _reject_entries_per_entry(entries, bad: np.ndarray, problem: str) -> None:
    if bad.any():
        raise ValidationError(f"game entry {entries[int(np.argmax(bad))]!r} {problem}")


def load_game_per_entry(path: str) -> tuple[BellFunctional, CosetTable, float]:
    """The game-file reader with the whole text read by json.load, one dict
    per entry and one Python list per column, checked header first and each
    refused entry shown as the file wrote it; cli's _load_game recognises a
    kv-build file by regenerating its text and never parses it, and reads
    any other file with json.load too, in the same order, but with numpy
    columns, and returns the coset game built by kv_functional when the
    table is that game.  (The reader from before entries were decoded to
    tuples, plus the checks that entries is a list and that eta fits a
    float.)"""
    doc = _load_json(path)
    for key in ("n", "eta", "N", "K", "entries"):
        if key not in doc:
            raise ValidationError(f"game file missing key {key!r}")
    n = _header(doc, "n", (int,), "an integer")
    if n not in EXACT_GAME_SIZES:
        raise ValidationError(f"game files support n in {EXACT_GAME_SIZES}, got {n}")
    table = build_hadamard_subgroup(n.bit_length() - 1)
    N, K = (_header(doc, key, (int,), "an integer") for key in "NK")
    if (N, K) != (table.num_cosets, n):
        raise ValidationError(f"game file shape ({N}, {K}) does not match n = {n}")
    entries = _header(doc, "entries", (list,), "a list")
    shape = (N, N, K, K)
    try:
        index = [
            np.fromiter(_entry_column_per_entry(entries, key, {int}, "an integer index"), np.int64)
            for key in "xyab"
        ]
        numbers = {int, float, type(None)}
        coef = np.fromiter(_entry_column_per_entry(entries, "c", numbers, "a number"), np.float64)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"bad game entry: {exc!r}") from None
    outside = np.zeros(len(entries), dtype=bool)
    for col, size in zip(index, shape):
        outside |= (col < 0) | (col >= size)
    _reject_entries_per_entry(entries, outside, f"has an index outside {shape}")
    _reject_entries_per_entry(entries, ~np.isfinite(coef), "has a non-finite coefficient")
    flat = np.ravel_multi_index(index, shape)
    _reject_entries_per_entry(entries, np.bincount(flat)[flat] > 1, "appears more than once")
    dense = np.zeros(shape)
    dense.flat[flat] = coef
    try:
        eta = float(_header(doc, "eta", (int, float), "a number"))
    except OverflowError:
        raise ValidationError("'eta' must be a number within float range") from None
    return BellFunctional(N, K, table=dense), table, eta


def _greedy_response(rewards: np.ndarray) -> Measurement:
    """Projective measurement from per-outcome reward operators.

    Diagonalizes an outcome-weighted combination, then gives each
    eigenvector to the outcome whose reward is largest on it.
    """
    n_out, dim = rewards.shape[0], rewards.shape[1]
    mixer = np.einsum("a,aij->ij", np.arange(1, n_out + 1, dtype=float), rewards)
    mixer = (mixer + mixer.conj().T) / 2.0
    _, vecs = np.linalg.eigh(mixer)
    ops = np.zeros((n_out, dim, dim), dtype=complex)
    for col in range(dim):
        v = vecs[:, col]
        scores = np.einsum("i,aij,j->a", v.conj(), rewards, v).real
        ops[int(scores.argmax())] += np.outer(v, v.conj())
    return Measurement(dim, operators=ops)


def _mes_strategy_value(dense: np.ndarray, alice, bob, dim: int) -> float:
    # tr((E o F) MES) = tr(E F^T)/dim collapses the pairing to 2-index sums
    ea = np.stack([m.operators for m in alice])
    fb = np.stack([m.operators for m in bob])
    overlap = np.einsum("xaij,ybij->xyab", ea, fb).real / dim
    return float(np.sum(dense * overlap))


def chsh_functional() -> BellFunctional:
    """Two-input two-output win functional: weight 1/4 on a xor b = x and y."""
    table = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if a ^ b == x & y:
            table[x, y, a, b] = 0.25
    return BellFunctional(2, 2, table=table)


def seesaw_per_restart(functional, dim: int, seed: int = 0, iters: int = 50, restarts: int = 20):
    """The seesaw one restart, one input and one greedy response at a time;
    seesaw_lower_bound runs the same steps on whole blocks of restarts."""
    dense = functional.dense()
    n_in, n_out = functional.num_inputs, functional.num_outputs
    rng = np.random.Generator(np.random.PCG64(seed))
    best_value = -math.inf
    best_pair = None
    for _ in range(restarts):
        alice = [_random_projective(rng, dim, n_out) for _ in range(n_in)]
        bob = [_random_projective(rng, dim, n_out) for _ in range(n_in)]
        for _ in range(iters):
            fb = np.stack([m.operators for m in bob])
            for x in range(n_in):
                rewards = np.einsum("yab,ybij->aji", dense[x], fb) / dim
                alice[x] = _greedy_response(rewards)
            value = _mes_strategy_value(dense, alice, bob, dim)
            if value > best_value:
                best_value = value
                best_pair = ([m for m in alice], [m for m in bob])
            ea = np.stack([m.operators for m in alice])
            for y in range(n_in):
                rewards = np.einsum("xab,xaij->bji", dense[:, y], ea) / dim
                bob[y] = _greedy_response(rewards)
            value = _mes_strategy_value(dense, alice, bob, dim)
            if value > best_value:
                best_value = value
                best_pair = ([m for m in alice], [m for m in bob])
    alice, bob = best_pair
    exact_value = pair(functional, quantum_prob(make_mes(dim), alice, bob))
    return SeesawResult(value=exact_value, alice=alice, bob=bob)


def coset_table_by_loop(l: int):
    """(subgroup, elems, coset_of) built one subgroup string and one coset at
    a time; CosetTable builds the same arrays by whole-array operations."""
    n = 1 << l
    size = 1 << n
    subgroup = np.zeros(n, dtype=np.int64)
    for s in range(n):
        h = 0
        for i in range(n):
            h = (h << 1) | (bin(s & i).count("1") & 1)
        subgroup[s] = h
    coset_of = np.full(size, -1, dtype=np.int64)
    rows = []
    for v in range(size):
        if coset_of[v] >= 0:
            continue
        members = np.sort(v ^ subgroup)
        coset_of[members] = len(rows)
        rows.append(members)
    num_cosets = size // n
    elems = np.array(rows, dtype=np.min_scalar_type(size - 1))
    return subgroup, elems, coset_of.astype(np.min_scalar_type(num_cosets - 1))


def assert_projective_measurement(m: Measurement, tol: float = 1e-10) -> None:
    """Hermitian, positive semidefinite operators that sum to the identity."""
    ops = m.operators
    herm = float(np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))))
    assert herm <= tol, f"measurement operators not hermitian (defect {herm:.3e})"
    low = min(float(np.linalg.eigvalsh(op)[0]) for op in ops)
    assert low >= -tol, f"measurement operator has eigenvalue {low:.3e} < 0"
    defect = float(np.max(np.abs(ops.sum(axis=0) - np.eye(m.dim))))
    assert defect <= tol, f"measurement does not sum to identity (defect {defect:.3e})"
