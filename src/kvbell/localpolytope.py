"""Local-polytope computations on a hand-rolled two-phase revised simplex.

The solver maximizes over nonnegative variables subject to rows that are
all <= or all =, with nonnegative right-hand sides: the form of the two
local-content LPs, which are always feasible and bounded.  It keeps the
basis, the basic values and an explicit basis inverse with a rank-1 update
per pivot, and recomputes both from the original columns every
REFACTOR_EVERY pivots, before it declares optimal, and before it uses a
pivot entry below FRESH_PIVOT_MIN.  Bland's rule (lowest eligible column
in, lowest basis variable among minimal ratios out) keeps it from cycling.
Artificials leave first among tied ratios and never return; in phase 2 a
basic artificial blocks at ratio 0 in any row the entering column reaches,
and one that no column reaches marks a redundant = row.  Optima are
certified by reduced costs and primal residuals recomputed from the
original data.  Anything else raises NumericalError: a singular basis, an
entering column that no row blocks, phase 1 ending with artificial mass, a
failed certificate or the iteration limit.

On top of the solver: the two readings of the local-content quantity lambda,
which also decide membership in the local polytope (lambda = 1).  Their
columns are deterministic strategy pairs built by one column builder: all
K^(2N) of them for the local reading (vertex_matrix), only those inside P's
support for the free one.  VERTEX_GUARD bounds the assignments per party,
DENSE_LP_GUARD the entries of the matrix actually built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, NumericalError, ValidationError
from .values import ProbDist, assignment_table

PIVOT_EPS = 1e-9
FRESH_PIVOT_MIN = 1e-6
REFACTOR_EVERY = 64
ENTER_TOL = 1e-9
CERT_TOL = 1e-9
VERTEX_GUARD = 4096
DENSE_LP_GUARD = 1 << 24


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x subject to rows . x <= rhs, or rows . x = rhs when
    equality is set, and x >= 0, with every rhs >= 0."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    equality: bool

    def __post_init__(self):
        objective = np.asarray(self.objective, dtype=np.float64)
        rows = np.asarray(self.rows, dtype=np.float64)
        rhs = np.asarray(self.rhs, dtype=np.float64)
        if rows.ndim != 2:
            raise ValidationError("constraint rows must form a matrix")
        m, n = rows.shape
        if objective.shape != (n,) or rhs.shape != (m,):
            raise ValidationError("objective/rows/rhs dimensions disagree")
        if not isinstance(self.equality, bool):
            raise ValidationError(f"equality must be True or False, got {self.equality!r}")
        for arr in (objective, rows, rhs):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("linear program contains non-finite entries")
        if m and rhs.min() < 0.0:
            raise ValidationError("right-hand sides must be nonnegative")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class LPResult:
    """A certified optimum: its value, the point x and the optimal row
    multipliers (duals)."""

    value: float
    x: np.ndarray
    dual: np.ndarray


class _Standard:
    """Equality form max c.x, A x = b, x >= 0: the original columns, then one
    identity column per row, slacks of a <= LP or artificials of an = LP.
    Those columns form the starting basis."""

    def __init__(self, lp: LinearProgram):
        m, n0 = lp.rows.shape
        self.matrix = np.hstack([lp.rows, np.eye(m)])
        self.costs = np.concatenate([lp.objective, np.zeros(m)])
        self.rhs = lp.rhs
        self.basis0 = n0 + np.arange(m)
        self.n_orig = n0
        self.artificial = np.zeros(n0 + m, dtype=bool)
        self.artificial[n0:] = lp.equality


def _factorize(std: _Standard, basis: np.ndarray):
    """Basis inverse and basic values computed afresh from the original columns."""
    try:
        inverse = np.linalg.inv(std.matrix[:, basis])
    except np.linalg.LinAlgError:
        raise NumericalError("numerical breakdown: the basis is singular") from None
    return inverse, inverse @ std.rhs


def _simplex(std, costs, basis, allowed, max_iters, hold_artificials):
    """Maximize costs . x from basis (updated in place) over the allowed
    columns; an artificial that leaves is struck from allowed.  With
    hold_artificials (phase 2) a basic artificial blocks at ratio 0 in every
    row the entering column reaches.  Returns a fresh factorization of the
    optimal basis."""
    since_fresh = REFACTOR_EVERY  # pivots since the last factorization; this forces one
    for _ in range(max_iters):
        if since_fresh >= REFACTOR_EVERY:
            inverse, x_basic = _factorize(std, basis)
            since_fresh = 0
        y = costs[basis] @ inverse
        eligible = np.flatnonzero(allowed & (costs - y @ std.matrix > ENTER_TOL))
        if eligible.size == 0:
            if since_fresh == 0:
                return inverse, x_basic
            since_fresh = REFACTOR_EVERY
            continue
        enter = int(eligible[0])
        d = inverse @ std.matrix[:, enter]
        positive = d > PIVOT_EPS
        ratios = np.full(d.shape, np.inf)
        ratios[positive] = np.maximum(x_basic[positive], 0.0) / d[positive]
        artificial = std.artificial[basis]
        if hold_artificials:
            ratios[artificial & (np.abs(d) > PIVOT_EPS)] = 0.0
        if not np.isfinite(ratios).any():
            if since_fresh:
                since_fresh = REFACTOR_EVERY
                continue
            raise NumericalError(f"numerical breakdown: no row blocks entering column {enter}")
        ties = np.flatnonzero(ratios == ratios.min())
        if artificial[ties].any():  # it never returns, so this cannot cycle
            ties = ties[artificial[ties]]
            leave = int(ties[np.argmax(np.abs(d[ties]))])
        else:
            leave = int(ties[np.argmin(basis[ties])])
        if abs(d[leave]) < FRESH_PIVOT_MIN and since_fresh:
            since_fresh = REFACTOR_EVERY
            continue
        step = ratios[leave]
        x_basic -= step * d
        x_basic[leave] = step
        row = inverse[leave] / d[leave]
        inverse -= np.outer(d, row)
        inverse[leave] = row
        if artificial[leave]:
            allowed[basis[leave]] = False
        basis[leave] = enter
        since_fresh += 1
    raise NumericalError(f"simplex did not terminate within {max_iters} pivots")


def _certify_primal(lp: LinearProgram, x: np.ndarray) -> None:
    """Raise unless x satisfies every row and x >= 0 within CERT_TOL."""
    excess = lp.rows @ x - lp.rhs
    if lp.equality:
        excess = np.abs(excess)
    worst = max(float(excess.max(initial=0.0)), float(-x.min(initial=0.0)))
    if worst > CERT_TOL:
        raise NumericalError(f"primal certification failed: residual {worst:.3e}")


def solve_lp(lp: LinearProgram, max_iters: int | None = None) -> LPResult:
    """Two-phase revised simplex; see the module docstring for the contract."""
    std = _Standard(lp)
    m, nt = std.matrix.shape
    if max_iters is None:
        max_iters = 2000 + 200 * (m + nt)
    basis = std.basis0.copy()
    if lp.equality:
        phase1_costs = np.where(std.artificial, -1.0, 0.0)
        allowed = np.ones(nt, dtype=bool)
        _, x_basic = _simplex(std, phase1_costs, basis, allowed, max_iters, False)
        mass = -float(phase1_costs[basis] @ x_basic)
        if mass > CERT_TOL:
            raise NumericalError(f"phase 1 ended with artificial mass {mass:.3e}: no feasible point")
    inverse, x_basic = _simplex(std, std.costs, basis, ~std.artificial, max_iters, True)
    y = std.costs[basis] @ inverse
    reduced = std.costs - y @ std.matrix
    worst = float(reduced[~std.artificial].max())
    if worst > CERT_TOL:
        raise NumericalError(f"optimality certification failed: reduced cost {worst:.3e}")
    x_std = np.zeros(nt)
    x_std[basis] = x_basic
    x = x_std[: std.n_orig]
    _certify_primal(lp, x)
    return LPResult(float(lp.objective @ x), x, y)


# ---------------------------------------------------------------------------
# Local polytope proper.


def _assignments(N: int, K: int) -> np.ndarray:
    """assignment_table(N, K), refused past VERTEX_GUARD assignments per party."""
    if K**N > VERTEX_GUARD:
        raise GuardError(f"{K}^{N} assignments per party exceed the guard ({VERTEX_GUARD})")
    return assignment_table(N, K)


def _pair_columns(digits: np.ndarray, K: int, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Columns of the deterministic pairs (digits[alice], digits[bob]), flattened
    over (x,y,a,b); the index arrays broadcast together and the pairs are read
    in C order.  Refused past DENSE_LP_GUARD entries."""
    N = digits.shape[1]
    n_rows, n_cols = N * N * K * K, np.broadcast(alice, bob).size
    if n_rows * n_cols > DENSE_LP_GUARD:
        raise GuardError("dense vertex matrix would exceed the memory guard")
    hits = np.eye(K)[digits]  # (assignment, x, a) one-hot
    columns = np.einsum("...xa,...yb->xyab...", hits[alice], hits[bob], order="C")
    return columns.reshape(n_rows, n_cols)


def vertex_matrix(N: int, K: int) -> np.ndarray:
    """Columns are deterministic strategy pairs, flattened over (x,y,a,b).

    Column order is Alice-major: s = fa * K**N + gb with each assignment
    read as a base-K counter (input 0 most significant).
    """
    digits = _assignments(N, K)
    every = np.arange(len(digits))
    return _pair_columns(digits, K, every[:, None], every[None, :])


def _support_pairs(table: np.ndarray, digits: np.ndarray):
    """Alice's and Bob's assignment indices of the pairs with P > 0 wherever
    they put mass, in vertex_matrix's Alice-major order."""
    N = table.shape[0]
    support = table > 0.0
    # bob_ok[f, y, b]: (f(x), b) lies in the support of (x, y) for every x
    bob_ok = support[np.arange(N), :, digits, :].all(axis=1)
    keep = np.ones((len(digits),) * 2, dtype=bool)
    for y in range(N):
        keep &= bob_ok[:, y, digits[:, y]]
    return np.nonzero(keep)


def _decode_weights(q: np.ndarray, digits: np.ndarray, alice: np.ndarray, bob: np.ndarray):
    return [
        (tuple(digits[alice[s]].tolist()), tuple(digits[bob[s]].tolist()), float(q[s]))
        for s in np.flatnonzero(q > 1e-12)
    ]


@dataclass(frozen=True)
class LocalContentResult:
    lam: float
    variant: str
    weights: list
    residual_weights: list | None
    residual_distribution: ProbDist | None
    reconstruction_error: float


def local_content(dist: ProbDist, variant: str = "free") -> LocalContentResult:
    """Largest local weight lambda of the distribution, in two readings.

    free (reported as remainder-free): max total weight of a subconvex
    combination of deterministic pairs fitting under the distribution
    entrywise.  Only the pairs inside P's support become columns: a pair
    that puts mass on a zero of P has weight 0 in every feasible point.
    local (reported as remainder-local): max lambda such that
    lambda P + (1-lambda) P' is a convex combination of deterministic pairs
    with P' itself one; both multipliers are LP variables, so a single solve
    suffices.  Its columns are all of vertex_matrix.

    Both LPs bound lambda by 1 (sum q <= 1, or lambda + sum r = 1 with
    r >= 0), so lambda is returned clipped to [0, 1]; a float reading past
    either end is rounding.
    """
    if variant not in ("free", "local"):
        raise ValidationError(f"variant must be free or local, got {variant!r}")
    digits = _assignments(dist.N, dist.K)
    p_flat = dist.table.reshape(-1)
    if variant == "free":
        alice, bob = _support_pairs(dist.table, digits)
        D = _pair_columns(digits, dist.K, alice, bob)
        lp = LinearProgram(np.ones(D.shape[1]), D, p_flat, equality=False)
    else:
        D = vertex_matrix(dist.N, dist.K)
        n_entries, n_pairs = D.shape
        alice, bob = np.divmod(np.arange(n_pairs), len(digits))
        rows = np.zeros((n_entries + 2, 1 + 2 * n_pairs))
        rows[:n_entries, 0] = p_flat
        rows[:n_entries, 1 : 1 + n_pairs] = -D
        rows[:n_entries, 1 + n_pairs :] = D
        rows[n_entries, 1 : 1 + n_pairs] = 1.0
        rows[n_entries + 1, 0] = 1.0
        rows[n_entries + 1, 1 + n_pairs :] = 1.0
        rhs = np.concatenate([np.zeros(n_entries), [1.0, 1.0]])
        objective = np.zeros(1 + 2 * n_pairs)
        objective[0] = 1.0
        lp = LinearProgram(objective, rows, rhs, equality=True)
    result = solve_lp(lp)
    if variant == "free":
        lam = float(result.value)
        q, r = np.clip(result.x, 0.0, None), None
        err = max(0.0, float(np.max(D @ result.x - p_flat)))
        leftover = p_flat - D @ q
    else:
        lam = float(result.x[0])
        q = np.clip(result.x[1 : 1 + n_pairs], 0.0, None)
        r = np.clip(result.x[1 + n_pairs :], 0.0, None)
        leftover = D @ r
        err = float(np.max(np.abs(lam * p_flat - D @ q + leftover)))
    lam = min(max(lam, 0.0), 1.0)
    residual = None
    if lam < 1.0 - CERT_TOL:
        residual = ProbDist(
            leftover.reshape(dist.table.shape) / (1.0 - lam), neg_tol=1e-8, norm_tol=1e-7
        )
    return LocalContentResult(
        lam=lam,
        variant=f"remainder-{variant}",
        weights=_decode_weights(q, digits, alice, bob),
        residual_weights=None if r is None else _decode_weights(r, digits, alice, bob),
        residual_distribution=residual,
        reconstruction_error=err,
    )


def lv_from_pi(pi: float) -> float:
    """Violation measure 2/pi - 1 from a local weight pi."""
    pi = float(pi)
    if not 0.0 < pi <= 1.0:
        raise ValidationError(f"local weight must lie in (0, 1], got {pi}")
    return 2.0 / pi - 1.0
