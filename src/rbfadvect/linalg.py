"""Dense solves and SVD condition numbers, over ``numpy.linalg``.

Every linear system in this package is small and dense (a few hundred rows
at most: block Vandermonde systems, correction-function systems), so LAPACK
``gesv`` solves them directly and a full singular value decomposition gives
the condition number.  A system counts as singular when its condition
number is not below 1/eps: then no solve is attempted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularSystemError

_SINGULAR_COND = 1.0 / np.finfo(float).eps


@dataclass
class LinearSystem:
    """A square system ready to solve; ``singular`` forbids every solve."""

    matrix: np.ndarray
    singular: bool


def lu_factor(m, cond: float | None = None) -> LinearSystem:
    """Check a square matrix and flag it singular when ``not cond < 1/eps``.

    ``cond`` is the 2-norm condition number; it is computed here when the
    caller has not already done so.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"a linear solve needs a square matrix, got shape {a.shape}")
    if cond is None:
        cond = condition_number(a)
    return LinearSystem(a, not cond < _SINGULAR_COND)


def solve(f: LinearSystem, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` with LAPACK ``gesv``.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    if f.singular:
        raise SingularSystemError("cannot solve a singular system")
    b = np.asarray(rhs, dtype=float)
    n = f.matrix.shape[0]
    if b.shape[0] != n:
        raise DimensionError(f"right-hand side has {b.shape[0]} rows, expected {n}")
    try:
        return np.linalg.solve(f.matrix, b)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(f"cannot solve a singular system: {err}") from err


def condition_number(m) -> float:
    """2-norm condition number from the full singular value spectrum.

    Returns ``inf`` when the smallest singular value underflows to zero.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"condition number needs a square matrix, got shape {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])
