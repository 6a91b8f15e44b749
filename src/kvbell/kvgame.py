"""Construction of the coset guessing game and its question/answer geometry.

The group is {0,1}^n under xor with n = 2**l.  The subgroup consists of
the n strings h_s with h_s(i) = <bin(s), bin(i)> mod 2, i.e. the rows of
the n x n binary inner-product pattern.  Questions are cosets of that
subgroup; the referee draws a uniform coset [x] and a noise string z with
independent Bernoulli(eta) bits, asks ([x], [x xor z]), and pays out when
the answers a in [x], b in [x xor z] satisfy a xor b = z.

Answers are addressed by their position in the coset's ascending member
list, so a game table entry is indexed (x, y, pa, pb) with x, y coset
indices and pa, pb in range(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitlinalg import popcount
from .errors import GuardError, ValidationError

MAX_LOG = 4  # coset tables hold all 2**(2**l) strings, so l stays small


@dataclass(frozen=True)
class BoundConstants:
    """Leading constants of the two asymptotic value bounds.

    classical multiplies 1/n in the upper bound on classical strategies,
    entangled multiplies 1/(ln n)^2 in the lower bound reached with the
    maximally entangled state.  Only the bound formulas consume these.
    """

    classical: float
    entangled: float


BOUND_CONSTANTS = BoundConstants(classical=math.exp(4.0), entangled=4.0)


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 < eta <= 0.5:
        raise ValidationError(f"noise rate must satisfy 0 < eta <= 1/2, got {eta}")
    return eta


class CosetTable:
    """Quotient of {0,1}^n by the inner-product subgroup, fully enumerated.

    Cosets are numbered by ascending minimal element and each coset lists
    its members in ascending integer order, so coset 0 is the subgroup
    itself and elems[x, 0] is the canonical representative of coset x.
    """

    def __init__(self, l: int):
        l = int(l)
        if l < 1:
            raise ValidationError(f"need l >= 1, got {l}")
        if l > MAX_LOG:
            raise GuardError(f"coset tables support l <= {MAX_LOG}, got {l}")
        n = 1 << l
        size = 1 << n
        subgroup = np.zeros(n, dtype=np.int64)
        for s in range(n):
            h = 0
            for i in range(n):
                h = (h << 1) | (popcount(s & i) & 1)
            subgroup[s] = h
        coset_of = np.full(size, -1, dtype=np.int64)
        pos_of = np.zeros(size, dtype=np.int64)
        rows = []
        positions = np.arange(n, dtype=np.int64)
        for v in range(size):
            if coset_of[v] >= 0:
                continue
            members = np.sort(v ^ subgroup)
            coset_of[members] = len(rows)
            pos_of[members] = positions
            rows.append(members)
        self.l = l
        self.n = n
        self.size = size
        self.num_cosets = size // n
        self.subgroup = subgroup
        self.elems = np.array(rows, dtype=np.int64)
        self.coset_of = coset_of
        self.pos_of = pos_of

    def element(self, x: int, pos: int) -> int:
        return int(self.elems[x, pos])

    def locate(self, value: int) -> tuple[int, int]:
        """Coset index and in-coset position of a group element."""
        if not 0 <= value < self.size:
            raise ValidationError(f"element {value} not in [0, 2**{self.n})")
        return int(self.coset_of[value]), int(self.pos_of[value])

    def __repr__(self) -> str:
        return f"CosetTable(l={self.l}, n={self.n}, cosets={self.num_cosets})"


def build_hadamard_subgroup(l: int) -> CosetTable:
    """Coset table for block length n = 2**l."""
    return CosetTable(l)


def noise_weights(n: int, eta: float) -> np.ndarray:
    """Probability of one noise string of each Hamming weight 0..n."""
    eta = _check_eta(eta)
    w = np.arange(n + 1, dtype=np.float64)
    return eta**w * (1.0 - eta) ** (n - w)


def noise_string_probs(n: int, eta: float) -> np.ndarray:
    """Probability of every noise string in {0,1}^n, indexed by encoding."""
    per_weight = noise_weights(n, eta)
    return per_weight[popcount(np.arange(1 << n))]


class BellFunctional:
    """Real coefficient table over question pairs and answer pairs, stored
    dense as a (N, N, K, K) array."""

    def __init__(self, num_inputs, num_outputs, table, meta=None):
        self.num_inputs = int(num_inputs)
        self.num_outputs = int(num_outputs)
        table = np.asarray(table, dtype=np.float64)
        expected = (self.num_inputs, self.num_inputs, self.num_outputs, self.num_outputs)
        if table.shape != expected:
            raise ValidationError(f"table shape {table.shape} != {expected}")
        self._table = table
        self.meta = dict(meta or {})

    def dense(self) -> np.ndarray:
        return self._table

    def total(self) -> float:
        """Sum of all coefficients."""
        return float(self._table.sum())


# Dense coset-game tables are kept up to n = 8; n = 16 would need
# (4096 * 16)**2 entries, far past memory, so n = 16 is served by the
# closed forms alone.
DENSE_GAME_MAX_N = 8


def kv_functional(table: CosetTable, eta: float) -> BellFunctional:
    """Game table with entry (1/N) * eta^w (1-eta)^(n-w), w = |a xor b|.

    The closed form merges the referee's two conditions: for answers
    a in [x], b in [y] the only noise string that can match is z = a xor b,
    and its question condition holds automatically.  Validity of the merge
    is checked in tests against the direct average over noise strings
    (tests/oracles.py).  Refused above n = DENSE_GAME_MAX_N.
    """
    eta = _check_eta(eta)
    n = table.n
    if n > DENSE_GAME_MAX_N:
        raise GuardError(f"dense game tables support n <= {DENSE_GAME_MAX_N}, got {n}")
    per_weight = noise_weights(n, eta) / table.num_cosets
    xor_all = table.elems[:, None, :, None] ^ table.elems[None, :, None, :]
    meta = {"kind": "coset-game", "n": n, "eta": eta, "coset_table": table}
    return BellFunctional(table.num_cosets, n, table=per_weight[popcount(xor_all)], meta=meta)


def _require_coset_game(functional: BellFunctional) -> CosetTable:
    table = functional.meta.get("coset_table")
    if functional.meta.get("kind") != "coset-game" or table is None:
        raise ValidationError("expected a functional built by kv_functional")
    return table


def kv_question_marginal(functional: BellFunctional) -> np.ndarray:
    """Referee question-pair distribution as an (N, N) matrix summing to 1."""
    table = _require_coset_game(functional)
    eta = functional.meta["eta"]
    per_weight = noise_weights(table.n, eta)
    coset_mass = per_weight[popcount(table.elems)].sum(axis=1)
    reps = table.elems[:, 0]
    pair_coset = table.coset_of[reps[:, None] ^ reps[None, :]]
    return coset_mass[pair_coset] / table.num_cosets


class Measurement:
    """Projective measurement given by rows of an orthonormal-ish matrix.

    Either vectors (K, dim) for rank-one outcomes or explicit operators
    (K, dim, dim) can back an instance; operators are built lazily from
    vectors when first requested.
    """

    def __init__(self, dim, vectors=None, operators=None):
        self.dim = int(dim)
        if (vectors is None) == (operators is None):
            raise ValidationError("provide exactly one of vectors or operators")
        if vectors is not None:
            vectors = np.asarray(vectors)
            if vectors.ndim != 2 or vectors.shape[1] != self.dim:
                raise ValidationError(f"vectors must be (K, {self.dim})")
        if operators is not None:
            operators = np.asarray(operators)
            if operators.ndim != 3 or operators.shape[1:] != (self.dim, self.dim):
                raise ValidationError(f"operators must be (K, {self.dim}, {self.dim})")
        self.vectors = vectors
        self._operators = operators

    @property
    def num_outcomes(self) -> int:
        if self.vectors is not None:
            return self.vectors.shape[0]
        return self._operators.shape[0]

    @property
    def operators(self) -> np.ndarray:
        if self._operators is None:
            v = self.vectors
            self._operators = np.einsum("ki,kj->kij", v, v.conj())
        return self._operators

    def completeness_defect(self) -> float:
        total = self.operators.sum(axis=0)
        return float(np.max(np.abs(total - np.eye(self.dim))))

    def validate(self, tol: float = 1e-10) -> None:
        ops = self.operators
        herm = float(np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))))
        if herm > tol:
            raise ValidationError(f"measurement operators not hermitian (defect {herm:.3e})")
        for op in ops:
            low = float(np.linalg.eigvalsh(op)[0])
            if low < -tol:
                raise ValidationError(f"measurement operator has eigenvalue {low:.3e} < 0")
        defect = self.completeness_defect()
        if defect > tol:
            raise ValidationError(f"measurement does not sum to identity (defect {defect:.3e})")


def kv_measurements(table: CosetTable) -> list[Measurement]:
    """One orthonormal sign basis per coset.

    The vector for answer a has entries (-1)^(a_i) / sqrt(n); within a
    coset any two answers differ on exactly n/2 positions, so the rows
    are orthonormal and each measurement is a complete projective one.
    """
    n = table.n
    shifts = n - 1 - np.arange(n)
    scale = 1.0 / math.sqrt(n)
    out = []
    for x in range(table.num_cosets):
        bits = (table.elems[x][:, None] >> shifts[None, :]) & 1
        out.append(Measurement(n, vectors=(1.0 - 2.0 * bits) * scale))
    return out


def kv_classical_upper_bound(n: int, eta: float) -> float:
    """Upper bound n ** (-eta / (1 - eta)) on classical win probability."""
    eta = _check_eta(eta)
    if n < 2:
        raise ValidationError("block length must be at least 2")
    return float(n ** (-eta / (1.0 - eta)))


def asymptotic_eta(n: int) -> float:
    """Noise rate 1/2 - 1/ln(n); positive only once ln(n) > 2, i.e. n >= 8."""
    if n < 8:
        raise ValidationError(f"1/2 - 1/ln(n) is nonpositive for n = {n}; need n >= 8")
    return 0.5 - 1.0 / math.log(n)


def classical_upper_bound_asymptotic(n: int) -> float:
    """Classical bound C/n at the asymptotic noise rate; valid for n >= 8 only."""
    if n < 8:
        raise ValidationError(f"the C/n form needs the rate from asymptotic_eta, so n >= 8 (got {n})")
    return BOUND_CONSTANTS.classical / n


def entangled_lower_bound_asymptotic(n: int) -> float:
    """Lower bound C'/(ln n)^2 on the entangled value at the same rate."""
    if n < 8:
        raise ValidationError(f"the C'/(ln n)^2 form needs n >= 8 (got {n})")
    return BOUND_CONSTANTS.entangled / math.log(n) ** 2


@dataclass(frozen=True)
class RefereeSamples:
    """Question pairs with the noise strings that produced them."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


def referee_sample(table: CosetTable, eta: float, seed: int, count: int = 1) -> RefereeSamples:
    """Draw question pairs the way the referee does.

    Randomness comes from numpy's PCG64 stream seeded with seed, so a
    fixed (table, eta, seed, count) always yields the same samples.
    """
    eta = _check_eta(eta)
    if count < 1:
        raise ValidationError("count must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = table.n
    xs = rng.integers(0, table.num_cosets, size=count, dtype=np.int64)
    flips = rng.random((count, n)) < eta
    place = np.int64(1) << (n - 1 - np.arange(n, dtype=np.int64))
    zs = flips @ place
    ys = table.coset_of[table.elems[xs, 0] ^ zs]
    return RefereeSamples(x=xs, y=ys, z=zs)


def kv_game_to_json(functional: BellFunctional) -> dict:
    """Serializable dict with every nonzero entry, sorted by (x, y, a, b)."""
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
