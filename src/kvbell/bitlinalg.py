"""Popcount on bit-string encodings and hermitian-matrix checks.

Bit strings of length n are encoded as integers with bit 0 taken as the
most significant digit, so the tuple (b_0, ..., b_{n-1}) maps to
sum_i b_i * 2**(n-1-i).  Lexicographic order on tuples then agrees with
numeric order on encodings.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# 16-bit lookup covers every string length used in this package.
_POPCOUNT16 = np.array([bin(v).count("1") for v in range(1 << 16)], dtype=np.uint8)
MAX_BITS = 16


def popcount(values):
    """Number of set bits, elementwise, for ints or arrays below 2**16."""
    arr = np.asarray(values)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << MAX_BITS)):
        raise ValidationError("popcount input out of the 16-bit range")
    counts = _POPCOUNT16[arr]
    if np.isscalar(values) or arr.ndim == 0:
        return int(counts)
    return counts.astype(np.int64)


def hermiticity_defect(m) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def assert_hermitian(m, tol: float = 1e-12) -> None:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValidationError(f"matrix is not hermitian (defect {defect:.3e} > {tol:.1e})")


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a hermitian matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m))[0])
