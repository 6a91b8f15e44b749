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
from collections.abc import Iterator

from ._numpy import np
from .errors import GuardError, ValidationError

MAX_LOG = 4  # coset tables hold all 2**(2**l) strings, so l stays small
# dense game tables exist up to n = 8; n = 16 would need (4096 * 16)**2
# entries, far past memory; n = 16 is served by the closed forms and deterministic_value
EXACT_GAME_SIZES = (2, 4, 8)
REFEREE_ROUNDS_GUARD = 10**7  # rounds per run; bounds the time of a run, since no round is kept
NOISE_ROW_BLOCK = 1 << 15  # rounds are drawn and played this many at a time


class BoundConstants:
    """Leading constants of the two asymptotic value bounds.

    classical multiplies 1/n in the upper bound on classical strategies,
    entangled multiplies 1/(ln n)^2 in the lower bound reached with the
    maximally entangled state.  Only the bound formulas consume these.
    """

    __slots__ = ("classical", "entangled")

    def __init__(self, classical: float, entangled: float):
        self.classical = classical
        self.entangled = entangled


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
    elems and coset_of are held in the smallest unsigned types that fit.
    place[i] = 2**(n - 1 - i) is the value of bit i of a string, so bit 0
    is the top bit.
    """

    def __init__(self, l: int):
        l = int(l)
        if l < 1:
            raise ValidationError(f"need l >= 1, got {l}")
        if l > MAX_LOG:
            raise GuardError(f"coset tables support l <= {MAX_LOG}, got {l}")
        n = 1 << l
        size = 1 << n
        # h_s packs the parities <bin(s), bin(i)> with i = 0 as the top bit
        idx = np.arange(n)
        place = np.int64(1) << (n - 1 - idx)
        subgroup = (np.bitwise_count(idx[:, None] & idx[None, :]) & 1) @ place
        # row v lists v's coset in ascending order; a coset's rows all start at its minimum
        members = np.sort(np.arange(size)[:, None] ^ subgroup[None, :], axis=1)
        rows = members[members[:, 0] == np.arange(size)]
        coset_of = np.searchsorted(rows[:, 0], members[:, 0])
        self.l = l
        self.n = n
        self.size = size
        self.num_cosets = size // n
        self.place = place
        self.subgroup = subgroup
        self.elems = rows.astype(np.min_scalar_type(size - 1))
        self.coset_of = coset_of.astype(np.min_scalar_type(self.num_cosets - 1))

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


def kv_functional(table: CosetTable, eta: float) -> BellFunctional:
    """Game table with entry (1/N) * eta^w (1-eta)^(n-w), w = |a xor b|.

    The closed form merges the referee's two conditions: for answers
    a in [x], b in [y] the only noise string that can match is z = a xor b,
    and its question condition holds automatically.  Validity of the merge
    is checked in tests against the direct average over noise strings
    (tests/oracles.py).  Refused for n outside EXACT_GAME_SIZES.
    """
    n = table.n
    if n not in EXACT_GAME_SIZES:
        raise GuardError(
            f"dense game tables support n in {EXACT_GAME_SIZES}, got {n}; "
            "use quantum_value_kv_closed_form for large coset games"
        )
    eta = _check_eta(eta)
    per_weight = noise_weights(n, eta) / table.num_cosets
    xor_all = table.elems[:, None, :, None] ^ table.elems[None, :, None, :]
    meta = {"eta": eta, "coset_table": table}
    return BellFunctional(table.num_cosets, n, per_weight[np.bitwise_count(xor_all)], meta)


def deterministic_value(table: CosetTable, eta: float, string_a, string_b) -> float:
    """Exact value of the strategy answering coset x with string_a[x]
    (Alice) and string_b[x] (Bob), at every n.

    As in kv_functional, question pair (x, y) pays only on the noise string
    string_a[x] xor string_b[y], with probability p^w (q - p)^(n - w) / q^n
    for eta = p/q and w its weight.  The count c_w of question pairs at each
    distance is taken one Alice string at a time, so memory stays O(N), and
    sum_w c_w p^w (q - p)^(n - w) / (q^n N) is rounded once.
    """
    n = table.n
    p, q = _check_eta(eta).as_integer_ratio()
    counts = np.zeros(n + 1, dtype=np.int64)
    for a in string_a:
        counts += np.bincount(np.bitwise_count(a ^ string_b), minlength=n + 1)
    paid = sum(c * p**w * (q - p) ** (n - w) for w, c in enumerate(counts.tolist()))
    return paid / (q**n * table.num_cosets)


def _require_coset_game(functional: BellFunctional) -> CosetTable:
    """The coset table of a functional built by kv_functional, the only
    functionals whose meta holds one."""
    table = functional.meta.get("coset_table")
    if table is None:
        raise ValidationError("expected a functional built by kv_functional")
    return table


def kv_question_marginal(functional: BellFunctional) -> np.ndarray:
    """Referee question-pair distribution as an (N, N) matrix summing to 1."""
    table = _require_coset_game(functional)
    eta = functional.meta["eta"]
    per_weight = noise_weights(table.n, eta)
    coset_mass = per_weight[np.bitwise_count(table.elems)].sum(axis=1)
    reps = table.elems[:, 0]
    pair_coset = table.coset_of[reps[:, None] ^ reps[None, :]]
    return coset_mass[pair_coset] / table.num_cosets


class Measurement:
    """Projective measurement held as operators (K, dim, dim), given directly
    or built at construction as the outer products of the rows of vectors
    (K, dim), one rank-one outcome per row."""

    def __init__(self, dim, vectors=None, operators=None):
        self.dim = int(dim)
        if (vectors is None) == (operators is None):
            raise ValidationError("provide exactly one of vectors or operators")
        if vectors is not None:
            vectors = np.asarray(vectors)
            if vectors.ndim != 2 or vectors.shape[1] != self.dim:
                raise ValidationError(f"vectors must be (K, {self.dim})")
            operators = np.einsum("ki,kj->kij", vectors, vectors.conj())
        operators = np.asarray(operators)
        if operators.ndim != 3 or operators.shape[1:] != (self.dim, self.dim):
            raise ValidationError(f"operators must be (K, {self.dim}, {self.dim})")
        self.vectors = vectors
        self.operators = operators
        self.num_outcomes = operators.shape[0]


def kv_measurements(table: CosetTable) -> list[Measurement]:
    """One orthonormal sign basis per coset.

    The vector for answer a has entries (-1)^(a_i) / sqrt(n); within a
    coset any two answers differ on exactly n/2 positions, so the rows
    are orthonormal and each measurement is a complete projective one.
    """
    scale = 1.0 / math.sqrt(table.n)
    bits = (table.elems[:, :, None] & table.place) != 0
    return [Measurement(table.n, vectors=(1.0 - 2.0 * b) * scale) for b in bits]


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


def entangled_lower_bound_asymptotic(n: int) -> float:
    """Lower bound C'/(ln n)^2 on the entangled value at the same rate."""
    if n < 8:
        raise ValidationError(f"the C'/(ln n)^2 form needs n >= 8 (got {n})")
    return BOUND_CONSTANTS.entangled / math.log(n) ** 2


class RefereeSamples:
    """One block of rounds: question pairs x, y and noise strings z in the
    coset table's narrow dtypes, uint8 at n <= 8 and uint16 at n = 16."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        self.x = x
        self.y = y
        self.z = z

    def __len__(self) -> int:
        return self.x.shape[0]


def referee_sample(table: CosetTable, eta: float, seed: int, count: int = 1) -> Iterator[RefereeSamples]:
    """Draw question pairs the way the referee does, as an iterator of
    blocks of up to NOISE_ROW_BLOCK rounds in round order.

    The rounds are those of one PCG64(seed) stream read whole: every x
    first, then the noise bits, count * n floats in round order.  num_cosets
    is a power of two, so numpy draws each x from one 32-bit half with no
    rejection, and the x draws end after (count + 1) // 2 64-bit outputs.
    So the noise is read from a second PCG64(seed) advanced past them,
    NOISE_ROW_BLOCK // n rounds at a time, while the first stream yields x
    block by block, carrying its spare 32-bit half between blocks.  A fixed
    (table, eta, seed, count) fixes the rounds, whatever the block size.
    eta, count and the guard are checked at the call, before any block.
    """
    eta = _check_eta(eta)
    if count < 1:
        raise ValidationError("count must be positive")
    if count > REFEREE_ROUNDS_GUARD:
        raise GuardError(f"{count} rounds exceed the referee guard ({REFEREE_ROUNDS_GUARD})")
    x_rng = np.random.Generator(np.random.PCG64(seed))
    noise_rng = np.random.Generator(np.random.PCG64(seed).advance((count + 1) // 2))
    rows = NOISE_ROW_BLOCK // table.n  # NOISE_ROW_BLOCK floats (0.25 MiB) per draw at every n

    def blocks():
        for lo in range(0, count, NOISE_ROW_BLOCK):
            size = min(NOISE_ROW_BLOCK, count - lo)
            x = x_rng.integers(0, table.num_cosets, size=size, dtype=np.int64)
            x = x.astype(table.coset_of.dtype)
            z = np.empty(size, dtype=table.elems.dtype)
            for r in range(0, size, rows):
                flips = noise_rng.random((min(rows, size - r), table.n)) < eta
                z[r : r + len(flips)] = flips @ table.place
            yield RefereeSamples(x=x, y=table.coset_of[table.elems[x, 0] ^ z], z=z)

    return blocks()


def kv_game_to_json(functional: BellFunctional) -> dict:
    """Serializable dict with every nonzero entry, sorted by (x, y, a, b)."""
    table = _require_coset_game(functional)
    dense = functional.dense()
    nz = np.nonzero(dense)  # walks the table in C order
    entries = [
        {"x": x, "y": y, "a": a, "b": b, "c": c}
        for x, y, a, b, c in zip(*(col.tolist() for col in (*nz, dense[nz])))
    ]
    header = {"n": table.n, "eta": functional.meta["eta"]}
    return {**header, "N": functional.num_inputs, "K": functional.num_outputs, "entries": entries}
