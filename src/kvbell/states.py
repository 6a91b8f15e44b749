"""Bipartite states: maximally entangled, isotropic, and the symbolic
expansion of an isotropic tensor power into product terms.

Joint systems with k copies per party are always laid out blocked, as
(party-1 copy 1 ... party-1 copy k) x (party-2 copy 1 ... party-2 copy k).
Copy-by-copy constructions produce the interleaved layout (A1 B1 A2 B2 ...)
instead, so this module owns the permutation between the two.  Under that
permutation the k-fold product of maximally entangled states on dimension d
is itself the maximally entangled state on dimension d**k, which is what
makes the expansion useful downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitlinalg import assert_hermitian, min_eigenvalue
from .errors import GuardError, ValidationError

ENTANGLED = "MES"
MIXED = "MIX"

# eigvalsh on a 4096-dim joint state takes minutes; beyond this the PSD
# check must be requested explicitly.
PSD_CHECK_MAX_DIM = 1024

REALIZE_MAX_DIM = 64


class DensityMatrix:
    """Validated density operator: hermitian, unit trace, PSD within tolerance."""

    def __init__(self, matrix, check_psd: bool | None = None):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {matrix.shape}")
        assert_hermitian(matrix, 1e-12)
        trace = complex(np.trace(matrix))
        if abs(trace - 1.0) > 1e-12:
            raise ValidationError(f"trace must be 1, got {trace}")
        dim = matrix.shape[0]
        if check_psd is None:
            check_psd = dim <= PSD_CHECK_MAX_DIM
        if check_psd:
            low = min_eigenvalue(matrix)
            if low < -1e-10:
                raise ValidationError(f"matrix has eigenvalue {low:.3e} < 0")
        self.matrix = matrix
        self.dim = dim

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def mes_vector(d: int) -> np.ndarray:
    """Unit vector (1/sqrt(d)) * sum_i |ii> on the d*d joint space."""
    d = int(d)
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return v


def make_mes(d: int) -> DensityMatrix:
    v = mes_vector(d)
    return DensityMatrix(np.outer(v, v))


def make_isotropic(d: int, p: float) -> DensityMatrix:
    """Mixture p * MES + (1-p) * I/d^2."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"mixing weight must be in [0, 1], got {p}")
    d = int(d)
    mes = make_mes(d).matrix
    return DensityMatrix(p * mes + (1.0 - p) * np.eye(d * d) / (d * d))


def _threshold_fraction(d: int) -> Fraction:
    d = int(d)
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    return Fraction((3 * d - 1) * (d - 1) ** (d - 1), (d + 1) * d**d)


def locality_threshold(d: int) -> float:
    """Largest known-local mixing weight (3d-1)(d-1)^(d-1) / ((d+1) d^d).

    Evaluated in exact integer arithmetic first; d^d overflows double
    precision near d = 140 if formed naively.
    """
    return float(_threshold_fraction(d))


def threshold_copy_gain(d: int) -> float:
    """d times the locality threshold: the per-copy growth factor of the
    violation-ratio bound.  Crosses 1 between d = 7 and d = 8."""
    return float(d * _threshold_fraction(d))


@dataclass(frozen=True)
class StateExpansion:
    """Expansion of the k-fold isotropic power into 2^k product terms.

    Each term is (weight, pattern); pattern marks every copy as either the
    entangled part (MES) or the maximally mixed part (MIX).  Terms are
    ordered by reading the pattern as bits with MES = 1 and copy 0 most
    significant, descending, so the all-MES term always comes first.
    """

    d: int
    k: int
    p: float
    terms: tuple[tuple[float, tuple[str, ...]], ...]

    def __post_init__(self):
        total = math.fsum(w for w, _ in self.terms)
        if len(self.terms) != 1 << self.k:
            raise ValidationError(f"expected {1 << self.k} terms, got {len(self.terms)}")
        if abs(total - 1.0) > 1e-14:
            raise ValidationError(f"term weights sum to {total}, not 1")


def expand_tensor_power(d: int, p: float, k: int) -> StateExpansion:
    d = int(d)
    k = int(k)
    p = float(p)
    if d < 2:
        raise ValidationError(f"local dimension must be >= 2, got {d}")
    if k < 1:
        raise ValidationError(f"copy count must be >= 1, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"mixing weight must be in [0, 1], got {p}")
    if k > 20:
        raise GuardError(f"expansion lists 2^k terms; k = {k} exceeds the k <= 20 guard")
    terms = []
    for code in range((1 << k) - 1, -1, -1):
        pattern = tuple(
            ENTANGLED if (code >> (k - 1 - i)) & 1 else MIXED for i in range(k)
        )
        s = pattern.count(ENTANGLED)
        terms.append((p**s * (1.0 - p) ** (k - s), pattern))
    return StateExpansion(d=d, k=k, p=p, terms=tuple(terms))


def interleave_to_blocked(matrix: np.ndarray, d: int, k: int) -> np.ndarray:
    """Permute a (d^2k x d^2k) operator from interleaved copy order
    (A1 B1 ... Ak Bk) to blocked party order (A1 ... Ak B1 ... Bk)."""
    dims = (d,) * (2 * k)
    side = d ** (2 * k)
    matrix = np.asarray(matrix)
    if matrix.shape != (side, side):
        raise ValidationError(f"expected shape {(side, side)}, got {matrix.shape}")
    perm = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    tensor = matrix.reshape(dims + dims)
    tensor = tensor.transpose(perm + [2 * k + i for i in perm])
    return tensor.reshape(side, side)


def realize_term(pattern, d: int, k: int) -> DensityMatrix:
    """Dense joint state for one expansion term, in blocked party order.

    Builds the copy-by-copy product (MES or I/d^2 per copy) and applies
    the layout permutation.  With the all-MES pattern the result equals
    make_mes(d**k) because the permutation aligns the two index schemes.
    """
    pattern = tuple(pattern)
    d = int(d)
    k = int(k)
    if len(pattern) != k:
        raise ValidationError(f"pattern length {len(pattern)} != k = {k}")
    if any(label not in (ENTANGLED, MIXED) for label in pattern):
        raise ValidationError(f"pattern labels must be {ENTANGLED} or {MIXED}")
    if d**k > REALIZE_MAX_DIM:
        raise GuardError(
            f"dense realization needs dimension d^k <= {REALIZE_MAX_DIM}, got {d**k}"
        )
    mes = make_mes(d).matrix
    mix = np.eye(d * d) / (d * d)
    joint = np.array([[1.0]])
    for label in pattern:
        joint = np.kron(joint, mes if label == ENTANGLED else mix)
    return DensityMatrix(interleave_to_blocked(joint, d, k))
