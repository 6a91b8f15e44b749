"""Independent reference implementations the tests compare the package to.

Each one computes a shipped quantity by a different route (the bare
definition, a full two-sided enumeration, an explicit sum over group
elements, a direct tensor power) and nothing in src/kvbell calls it.
"""

from __future__ import annotations

import math

import numpy as np

from kvbell.bitlinalg import popcount
from kvbell.errors import GuardError, ValidationError
from kvbell.kvgame import CosetTable, noise_weights
from kvbell.states import REALIZE_MAX_DIM, DensityMatrix, interleave_to_blocked
from kvbell.values import assignment_table

ORACLE_GUARD = 4096


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
    weights = per_weight[popcount(values[:, None] ^ values[None, :])]
    return float(np.sum(weights * overlaps**2) / (table.num_cosets * n))


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
