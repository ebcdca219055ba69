"""Quantum states and channels in Kraus, Choi, and transfer-matrix form.

Conventions, fixed package-wide:

- vectorization is column-stacking, so a channel with Kraus operators
  ``{K}`` has transfer matrix ``sum_k kron(K.conj(), K)``;
- the Choi matrix is ``sum_k outer(vec(K), vec(K).conj())`` and lives on
  (input x output) with the input factor as the major index, hence trace
  preservation reads ``partial_trace(choi, (din, dout), keep="A") == I``.

Channels are stored as Kraus lists; the other two forms are derived on
demand and cached.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NotCP,
    NotEquivalent,
    NotHermitian,
    NotUnitary,
    NumericalFailure,
)
from .linalg import RANK_TOL, asmatrix, frob, hermitize, partial_trace, pinv, unvec, vec

TP_TOL = 1e-9
CP_TOL = 1e-8
CHOI_TP_TOL = 1e-8
EQ_TOL = 1e-8
PHASE_TIE_RTOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A dim x dim density operator: Hermitian, PSD, unit trace."""

    mat: np.ndarray

    def __post_init__(self):
        m = asmatrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        if frob(m - m.conj().T) > 1e-10 * max(1.0, frob(m)):
            raise NotHermitian("density matrix is not Hermitian")
        w = np.linalg.eigvalsh(hermitize(m))
        if w.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {w.min():.3e}")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValueError(f"trace {np.trace(m)} != 1")
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, state) -> "DensityMatrix":
        v = np.asarray(state, dtype=np.complex128).ravel()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


class KrausChannel:
    """A linear map given by a Kraus list, trace preserving by default.

    ``require_tp=False`` admits non-TP Kraus maps (used for channel duals,
    which are unital instead).
    """

    def __init__(self, kraus, *, require_tp: bool = True, tp_tol: float = TP_TOL):
        ops = tuple(_freeze(asmatrix(k)) for k in kraus)
        if not ops:
            raise ValueError("at least one Kraus operator required")
        dout, din = ops[0].shape
        if any(op.shape != (dout, din) for op in ops):
            raise DimensionMismatch("all Kraus operators must share one shape")
        if require_tp:
            x = np.concatenate(ops)
            gram = x.conj().T @ x
            err = frob(gram - np.eye(din))
            if err > tp_tol:
                raise ValueError(f"not trace preserving: ||sum K*K - I|| = {err:.3e}")
        self.kraus = ops
        self.din = din
        self.dout = dout

    def __len__(self) -> int:
        return len(self.kraus)

    def __repr__(self) -> str:
        return f"KrausChannel(din={self.din}, dout={self.dout}, n_kraus={len(self.kraus)})"

    @cached_property
    def choi(self) -> "ChoiMatrix":
        return kraus_to_choi(self)

    @cached_property
    def transfer_mat(self) -> np.ndarray:
        return kraus_to_transfer_mat(self.kraus)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a CPTP map, on (input x output) with input major."""

    din: int
    dout: int
    mat: np.ndarray

    def __post_init__(self):
        m = asmatrix(self.mat)
        n = self.din * self.dout
        if m.shape != (n, n):
            raise DimensionMismatch(f"expected {(n, n)}, got {m.shape}")
        if frob(m - m.conj().T) > 1e-10 * max(1.0, frob(m)):
            raise NotHermitian("Choi matrix is not Hermitian")
        w = np.linalg.eigvalsh(hermitize(m))
        if w.min() < -CP_TOL:
            raise NotCP(f"Choi eigenvalue {w.min():.3e} < -{CP_TOL}")
        tp = partial_trace(m, (self.din, self.dout), keep="A")
        if frob(tp - np.eye(self.din)) > CHOI_TP_TOL:
            raise ValueError("Choi partial trace over output is not the identity")
        object.__setattr__(self, "mat", _freeze(m))


def apply(ch: KrausChannel, rho):
    """Apply the channel; DensityMatrix in, DensityMatrix out (or raw arrays)."""
    raw = rho.mat if isinstance(rho, DensityMatrix) else asmatrix(rho)
    if raw.shape != (ch.din, ch.din):
        raise DimensionMismatch(f"state has dim {raw.shape}, channel expects {ch.din}")
    out = sum(op @ raw @ op.conj().T for op in ch.kraus)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out)
    return out


def unitary_channel(u, tol: float = 1e-9) -> KrausChannel:
    """Channel rho -> u rho u* for a unitary u."""
    m = asmatrix(u)
    if m.shape[0] != m.shape[1]:
        raise NotUnitary(f"unitary must be square, got {m.shape}")
    if frob(m.conj().T @ m - np.eye(m.shape[0])) > tol:
        raise NotUnitary("u*u deviates from the identity")
    return KrausChannel([m])


def kraus_to_choi(ch: KrausChannel) -> ChoiMatrix:
    n = ch.din * ch.dout
    mat = np.zeros((n, n), dtype=np.complex128)
    for op in ch.kraus:
        v = vec(op)
        mat += np.outer(v, v.conj())
    return ChoiMatrix(ch.din, ch.dout, mat)


def kraus_to_transfer_mat(ops) -> np.ndarray:
    """Transfer matrix ``sum_k kron(K_k.conj(), K_k)`` of dout x din Kraus
    operators, as one product: with X the operators flattened to rows
    (K, dout din), ``conj(X)^T X`` holds conj(K[a, i]) K[b, j] at
    ((a, i), (b, j)), which realigns to ((a, b), (i, j))."""
    x = np.asarray(ops)
    k, dout, din = x.shape
    x = x.reshape(k, dout * din)
    p = (x.conj().T @ x).reshape(dout, din, dout, din)
    return p.transpose(0, 2, 1, 3).reshape(dout * dout, din * din)


def _fix_phase(op: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the pivot is real >= 0: the first entry, in
    flat (row-major) order, whose modulus is within a relative PHASE_TIE_RTOL
    of the largest, so rounding cannot choose among tied entries."""
    mod = np.abs(op).ravel()
    if mod.max() == 0:
        return op
    pivot = op.flat[np.argmax(mod >= (1 - PHASE_TIE_RTOL) * mod.max())]
    return op * (pivot.conjugate() / abs(pivot))


def choi_to_kraus(c: ChoiMatrix, rank_tol: float = RANK_TOL) -> KrausChannel:
    """Kraus operators from the Choi eigendecomposition.

    One operator per eigenvalue above ``rank_tol * max_eigenvalue``; each is
    phase-fixed so tests are deterministic.  Raises NotCP on eigenvalues
    below ``-1e-8``.
    """
    w, v = np.linalg.eigh(hermitize(c.mat))
    if w.min() < -CP_TOL:
        raise NotCP(f"Choi eigenvalue {w.min():.3e} < -{CP_TOL}")
    cutoff = rank_tol * max(w.max(), 0.0)
    ops = [
        _fix_phase(unvec(np.sqrt(lam) * v[:, k], c.dout, c.din))
        for k, lam in enumerate(w)
        if lam > cutoff
    ]
    # eigendecomposition reproduces TP only as well as the Choi satisfied it
    return KrausChannel(ops, tp_tol=10 * CHOI_TP_TOL)


def transfer_to_choi_mat(t: np.ndarray, din: int, dout: int) -> np.ndarray:
    """Reshuffle a (dout^2, din^2) transfer matrix into a Choi matrix."""
    t4 = np.asarray(t).reshape(dout, dout, din, din)
    return t4.transpose(3, 1, 2, 0).reshape(din * dout, din * dout)


def choi_to_transfer_mat(c: np.ndarray, din: int, dout: int) -> np.ndarray:
    """Inverse reshuffle of :func:`transfer_to_choi_mat`."""
    c4 = np.asarray(c).reshape(din, dout, din, dout)
    return c4.transpose(3, 1, 2, 0).reshape(dout * dout, din * din)


def compose(later: KrausChannel, earlier: KrausChannel) -> KrausChannel:
    """Composition later(earlier(.)), Kraus set = all pairwise products."""
    if earlier.dout != later.din:
        raise DimensionMismatch(
            f"cannot compose: earlier.dout={earlier.dout}, later.din={later.din}"
        )
    ops = [lo @ eo for lo in later.kraus for eo in earlier.kraus]
    return KrausChannel(ops, tp_tol=10 * TP_TOL)


def dual(ch: KrausChannel) -> KrausChannel:
    """Heisenberg-picture adjoint, Kraus set {K*}; unital rather than TP."""
    return KrausChannel(
        [op.conj().T for op in ch.kraus], require_tp=False
    )


def channels_equal(a: KrausChannel, b: KrausChannel, tol: float = EQ_TOL) -> bool:
    """True iff the Choi matrices agree within Frobenius distance tol.

    The distance is taken between the transfer matrices, one product each:
    a Choi matrix only permutes its transfer matrix's entries, so the
    Frobenius distance is the same.
    """
    if (a.din, a.dout) != (b.din, b.dout):
        raise DimensionMismatch("channels act between different spaces")
    return frob(a.transfer_mat - b.transfer_mat) <= tol


def connecting_unitary(a: KrausChannel, b: KrausChannel, tol: float = EQ_TOL) -> np.ndarray:
    """Unitary W with ``K_i(a) = sum_j W[i, j] K_j(b)`` for equal channels.

    The vectorized Kraus operators of both lists are stacked as columns and
    zero-padded to a common count N.  The partial isometry pinv(Vb) @ Va is
    completed to a unitary through its SVD; the completion is exact whenever
    the two channels coincide, because equal Choi matrices force equal
    column spans.

    Raises NotEquivalent if the channels differ beyond tol, NumericalFailure
    if the recovered W misses the residual bound 10*tol.
    """
    if not channels_equal(a, b, tol):
        raise NotEquivalent("channels differ; no connecting unitary exists")
    n = max(len(a.kraus), len(b.kraus))
    va, vb = (np.column_stack([vec(op) for op in ch.kraus]) for ch in (a, b))
    # zero columns stand for the zero operators that pad the shorter list
    va, vb = (np.pad(v, ((0, 0), (0, n - v.shape[1]))) for v in (va, vb))
    wt = pinv(vb) @ va
    p, _, qh = np.linalg.svd(wt)
    w = (p @ qh).T
    # column i is vec(K_i(a) - sum_j W[i, j] K_j(b)), so its norm is that
    # operator's Frobenius norm
    residual = float(np.linalg.norm(va - vb @ w.T, axis=0).max())
    if residual > 10 * tol:
        raise NumericalFailure(f"connecting unitary residual {residual:.3e} > {10 * tol:.1e}")
    return w
