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


def minus_identity(g: np.ndarray) -> np.ndarray:
    """g - I, in place on a fresh square g of any memory layout; no identity
    is built.  ``einsum("ii->i", g)`` is a writable view of the diagonal."""
    np.einsum("ii->i", g)[...] -= 1.0
    return g


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
        if m.shape[0] != m.shape[1] or not frob(minus_identity(m.conj().T @ m)) <= UNITARY_TOL:
            raise NotUnitary(f"{what} must be unitary")
    return m


def pinv(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``rank_tol * s_max`` are treated as exactly zero.
    """
    m = asmatrix(a)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    return np.linalg.pinv(m, rcond=rank_tol)


def kernel_basis(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the (right) null space, as columns.

    Returns a ``(cols, k)`` array; ``k`` may be zero.
    """
    m = asmatrix(a)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    cutoff = rank_tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh.conj().T[:, rank:]


def partial_trace(a, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Partial trace of an operator on a bipartite space of shape dA*dB.

    ``keep="A"`` traces out the second factor, ``keep="B"`` the first.
    """
    dA, dB = dims
    m = asmatrix(a)
    if m.shape != (dA * dB, dA * dB):
        raise DimensionMismatch(f"expected {(dA * dB, dA * dB)}, got {m.shape}")
    t = m.reshape(dA, dB, dA, dB)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
