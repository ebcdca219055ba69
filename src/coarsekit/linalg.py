"""Dense complex linear algebra helpers.

Everything operates on plain ``numpy`` arrays of dtype complex128.  The one
project-wide convention that matters: vectorization is column-stacking
(Fortran order), so ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotUnitary

# Relative threshold below which a singular value counts as zero.
RANK_TOL = 1e-10
# Frobenius bound on M*M - I for a matrix to count as unitary.
UNITARY_TOL = 1e-9


def asmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    # a complex entry is finite iff both its parts are, so one scan checks both
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*)/2."""
    return (a + a.conj().T) / 2


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a).flatten(order="F")


def require_unitary(m, what: str) -> np.ndarray:
    """``m`` as a complex matrix; NotUnitary unless it is square with
    ``||M*M - I||_F <= UNITARY_TOL``, which a Gram that overflows to NaN
    fails."""
    m = asmatrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected, not warned about
        if m.shape[0] != m.shape[1] or not frob(m.conj().T @ m - np.eye(len(m))) <= UNITARY_TOL:
            raise NotUnitary(f"{what} must be unitary")
    return m


def kernel_basis(a) -> np.ndarray:
    """Orthonormal basis of the (right) null space, as columns.

    Returns a ``(cols, k)`` array; ``k`` may be zero.
    """
    m = asmatrix(a)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    cutoff = RANK_TOL * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh.conj().T[:, rank:]
