"""Local-polytope computations on a hand-rolled two-phase revised simplex.

The solver maximizes over nonnegative variables subject to rows that are
all <= or all =, with nonnegative right-hand sides: the form of the two
local-content LPs, both bounded and feasible on the inputs local_content
solves.  It keeps the
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
entering column that no row blocks, phase 1 leaving a row more than
CERT_TOL off, a failed certificate or the iteration limit.

On top of the solver: the two readings of the local-content quantity lambda,
which also decide membership in the local polytope (lambda = 1).  Their
columns are deterministic strategy pairs built by one column builder: all
K^(2N) of them for the local reading (vertex_matrix), only those inside P's
support for the free one.  VERTEX_GUARD bounds the assignments per party,
DENSE_LP_GUARD the entries of the LP matrix, checked before it is built.
"""

from __future__ import annotations

from ._numpy import np
from .errors import GuardError, NumericalError, ValidationError
from .values import ProbDist, assignment_table

PIVOT_EPS = 1e-9
FRESH_PIVOT_MIN = 1e-6
REFACTOR_EVERY = 64
ENTER_TOL = 1e-9
CERT_TOL = 1e-9
VERTEX_GUARD = 4096
DENSE_LP_GUARD = 1 << 24
RESIDUAL_NORM_TOL = 1e-7


class LinearProgram:
    """max objective . x subject to rows . x <= rhs, or rows . x = rhs when
    equality is set, and x >= 0, with every rhs >= 0; the arrays are held as
    float64."""

    __slots__ = ("objective", "rows", "rhs", "equality")

    def __init__(self, objective, rows, rhs, equality: bool):
        objective = np.asarray(objective, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if rows.ndim != 2:
            raise ValidationError("constraint rows must form a matrix")
        m, n = rows.shape
        if objective.shape != (n,) or rhs.shape != (m,):
            raise ValidationError("objective/rows/rhs dimensions disagree")
        if not isinstance(equality, bool):
            raise ValidationError(f"equality must be True or False, got {equality!r}")
        for arr in (objective, rows, rhs):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("linear program contains non-finite entries")
        if m and rhs.min() < 0.0:
            raise ValidationError("right-hand sides must be nonnegative")
        self.objective = objective
        self.rows = rows
        self.rhs = rhs
        self.equality = equality


class LPResult:
    """A certified optimum: its value, the point x and the optimal row
    multipliers (duals)."""

    __slots__ = ("value", "x", "dual")

    def __init__(self, value: float, x: np.ndarray, dual: np.ndarray):
        self.value = value
        self.x = x
        self.dual = dual


def _factorize(matrix: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """Basis inverse and basic values computed afresh from the original columns."""
    try:
        inverse = np.linalg.inv(matrix[:, basis])
    except np.linalg.LinAlgError:
        raise NumericalError("numerical breakdown: the basis is singular") from None
    return inverse, inverse @ rhs


def _simplex(matrix, rhs, costs, artificial, basis, max_iters, hold_artificials):
    """Maximize costs . x over matrix x = rhs, x >= 0 from basis (updated in
    place); only columns that are not artificial may enter.  With hold_artificials
    (phase 2) a basic artificial blocks at ratio 0 in every row the entering
    column reaches.  Returns a fresh factorization of the optimal basis."""
    enterable = ~artificial
    since_fresh = REFACTOR_EVERY  # pivots since the last factorization; this forces one
    for _ in range(max_iters):
        if since_fresh >= REFACTOR_EVERY:
            inverse, x_basic = _factorize(matrix, rhs, basis)
            since_fresh = 0
        y = costs[basis] @ inverse
        eligible = np.flatnonzero(enterable & (costs - y @ matrix > ENTER_TOL))
        if eligible.size == 0:
            if since_fresh == 0:
                return inverse, x_basic
            since_fresh = REFACTOR_EVERY
            continue
        enter = int(eligible[0])
        d = inverse @ matrix[:, enter]
        positive = d > PIVOT_EPS
        ratios = np.full(d.shape, np.inf)
        ratios[positive] = np.maximum(x_basic[positive], 0.0) / d[positive]
        held = artificial[basis]
        if hold_artificials:
            ratios[held & (np.abs(d) > PIVOT_EPS)] = 0.0
        if not np.isfinite(ratios).any():
            if since_fresh:
                since_fresh = REFACTOR_EVERY
                continue
            raise NumericalError(f"numerical breakdown: no row blocks entering column {enter}")
        ties = np.flatnonzero(ratios == ratios.min())
        if held[ties].any():  # an artificial never returns, so this cannot cycle
            ties = ties[held[ties]]
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
    m, n = lp.rows.shape
    # [rows | I]: the slacks of a <= LP or the artificials of an = LP start basic
    matrix = np.hstack([lp.rows, np.eye(m)])
    costs = np.concatenate([lp.objective, np.zeros(m)])
    artificial = (np.arange(n + m) >= n) & lp.equality
    basis = n + np.arange(m)
    if max_iters is None:
        max_iters = 2000 + 200 * (2 * m + n)
    if lp.equality:
        phase1_costs = np.where(artificial, -1.0, 0.0)
        _, x_basic = _simplex(matrix, lp.rhs, phase1_costs, artificial, basis, max_iters, False)
        # basic artificials are the rows' misses, judged one by one as _certify_primal does
        worst = float(x_basic[artificial[basis]].max(initial=0.0))
        if worst > CERT_TOL:
            raise NumericalError(f"phase 1 left a row {worst:.3e} off: no feasible point")
    inverse, x_basic = _simplex(matrix, lp.rhs, costs, artificial, basis, max_iters, True)
    y = costs[basis] @ inverse
    worst = float((costs - y @ matrix)[~artificial].max())
    if worst > CERT_TOL:
        raise NumericalError(f"optimality certification failed: reduced cost {worst:.3e}")
    x = np.zeros(n + m)
    x[basis] = x_basic
    x = x[:n]
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


class LocalContentResult:
    """What local_content returns; see its docstring for each field."""

    __slots__ = (
        "lam",
        "variant",
        "weights",
        "residual_weights",
        "residual_distribution",
        "reconstruction_error",
    )

    def __init__(
        self,
        lam: float,
        variant: str,
        weights: list,
        residual_weights: list | None,
        residual_distribution: ProbDist | None,
        reconstruction_error: float,
    ):
        self.lam = lam
        self.variant = variant
        self.weights = weights
        self.residual_weights = residual_weights
        self.residual_distribution = residual_distribution
        self.reconstruction_error = reconstruction_error


def local_content(dist: ProbDist, variant: str = "free") -> LocalContentResult:
    """Largest local weight lambda of the distribution, in two readings.

    free (reported as remainder-free): max total weight of a subconvex
    combination of deterministic pairs fitting under the distribution
    entrywise.  Only the pairs inside P's support become columns: a pair
    that puts mass on a zero of P has weight 0 in every feasible point.
    local (reported as remainder-local): max lambda such that
    lambda P + (1-lambda) P' is a convex combination of deterministic pairs
    with P' itself one, solved as its Charnes-Cooper homogenization: min
    t = sum q' subject to D q' - D r' = P, sum q' - sum r' = 1, with D all of
    vertex_matrix, gives lambda = 1/t, q = q'/t, r = r'/t and P' = D r'/sum r'.
    It is feasible exactly when P is no-signalling.  Past a marginal drift of
    CERT_TOL / 2K P gets lambda 0 without a solve.  Below it P is divided by
    its mean block sum: the row sum q' - sum r' = 1 needs weight 1, which a
    loaded table may miss by its norm_tol.  A no-signalling table of mass
    1 - 2K drift then fits under P, so phase 1 ends within CERT_TOL of every
    row.

    Both LPs bound lambda by 1 (sum q <= 1, or t >= 1), so lambda is
    returned clipped to [0, 1]; a float reading past either end is rounding.
    The leftover over its mass is returned as residual_distribution only when
    that mass is more than rounding and each block of it weighs 1 within
    RESIDUAL_NORM_TOL; otherwise residual_distribution is None.
    """
    if variant not in ("free", "local"):
        raise ValidationError(f"variant must be free or local, got {variant!r}")
    digits = _assignments(dist.N, dist.K)
    p_flat = dist.table.reshape(-1)
    if variant == "free":
        alice, bob = _support_pairs(dist.table, digits)
        D = _pair_columns(digits, dist.K, alice, bob)
        result = solve_lp(LinearProgram(np.ones(D.shape[1]), D, p_flat, equality=False))
        lam = min(max(float(result.value), 0.0), 1.0)
        q, r = np.clip(result.x, 0.0, None), None
        err = max(0.0, float(np.max(D @ result.x - p_flat)))
        leftover, leftover_mass = p_flat - D @ q, 1.0 - lam
    else:
        alice_drift = np.ptp(dist.table.sum(axis=3), axis=1).max()  # Alice's marginal over y
        bob_drift = np.ptp(dist.table.sum(axis=2), axis=0).max()  # Bob's over x
        if 2 * dist.K * max(alice_drift, bob_drift) > CERT_TOL:  # signalling: lambda is 0
            return LocalContentResult(0.0, "remainder-local", [], [], None, 0.0)
        n_pairs = len(digits) ** 2
        if (p_flat.size + 1) * 2 * n_pairs > DENSE_LP_GUARD:
            raise GuardError("dense LP [[D, -D], [1, -1]] would exceed the memory guard")
        D = vertex_matrix(dist.N, dist.K)
        alice, bob = np.divmod(np.arange(n_pairs), len(digits))
        ones = np.ones((1, n_pairs))
        p_flat = p_flat / dist.table.sum(axis=(2, 3)).mean()
        rows, rhs = np.block([[D, -D], [ones, -ones]]), np.append(p_flat, 1.0)
        result = solve_lp(LinearProgram(np.repeat([-1.0, 0.0], n_pairs), rows, rhs, equality=True))
        t = -result.value  # sum q' = 1 / lambda
        lam = min(1.0 / t, 1.0)
        q_hom, r_hom = np.clip(result.x, 0.0, None).reshape(2, n_pairs)
        q, r = q_hom / t, r_hom / t
        err = float(np.max(np.abs(lam * p_flat - D @ q + D @ r)))
        leftover, leftover_mass = D @ r_hom, r_hom.sum()
    residual = None
    # lambda can fall short of 1 by P's own norm_tol, leaving nothing to normalize
    if lam < 1.0 - CERT_TOL and leftover.sum() > CERT_TOL * dist.N**2:
        table = leftover.reshape(dist.table.shape) / leftover_mass
        # a free leftover of a few norm_tol keeps the skew of P's block sums,
        # blown up by 1 / leftover_mass: then it is no distribution either
        if np.abs(table.sum(axis=(2, 3)) - 1.0).max() <= RESIDUAL_NORM_TOL:
            residual = ProbDist(table, neg_tol=1e-8, norm_tol=RESIDUAL_NORM_TOL)
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
