"""Quantum channels in Kraus, Choi, and transfer-matrix form.

Conventions, fixed package-wide:

- vectorization is column-stacking, so a channel with Kraus operators
  ``{K}`` has transfer matrix ``sum_k kron(K.conj(), K)``;
- the Choi matrix is ``sum_k outer(vec(K), vec(K).conj())`` and lives on
  (input x output) with the input factor as the major index, hence trace
  preservation reads ``tr_out J = I``;
- a Hermitian X has the real coordinates ``y(X) = vec(Re X + Im X)``, an
  isometry onto R^(n^2) with inverse ``X = sym(Y) + i antisym(Y)`` for
  Y = unvec(y) (``vec_from_real``); a channel acts on them by its real
  transfer matrix ``Re T + Im(T Pi)``, Pi the transpose permutation on
  vecs (``kraus_to_real_transfer_mat``).

Channels are stored as one read-only (K, dout, din) Kraus stack; the other
two forms are derived on demand and cached.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NotCP, NotEquivalent, NotHermitian, NumericalFailure
from .linalg import RANK_TOL, asmatrix, frob, hermitize, require_unitary

TP_TOL = 1e-9
CP_TOL = 1e-8
CHOI_TP_TOL = 1e-8
EQ_TOL = 1e-8
PHASE_TIE_RTOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


class KrausChannel:
    """A linear map given by Kraus operators, trace preserving by default.

    ``kraus`` is a read-only, C-contiguous (K, dout, din) complex copy of
    the operators given (an iterable of matrices or a 3-D array).
    ``require_tp=False`` admits non-TP Kraus maps (used for channel duals,
    which are unital instead).
    """

    def __init__(self, kraus, *, require_tp: bool = True, tp_tol: float = TP_TOL):
        kraus = kraus if isinstance(kraus, np.ndarray) else list(kraus)
        if len(kraus) == 0:
            raise ValueError("at least one Kraus operator required")
        try:
            ops = _freeze(kraus)
        except ValueError as exc:
            if len({np.shape(k) for k in kraus}) > 1:
                raise DimensionMismatch("all Kraus operators must share one shape") from exc
            raise
        if ops.ndim != 3:
            raise DimensionMismatch(f"Kraus operators must be matrices, got ndim={ops.ndim - 1}")
        if not np.isfinite(ops).all():
            raise ValueError("Kraus operators contain NaN or Inf entries")
        _, dout, din = ops.shape
        err = None
        if require_tp:
            x = ops.reshape(-1, din)
            with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the test below
                err = frob(x.conj().T @ x - np.eye(din))
            if not err <= tp_tol:
                raise ValueError(f"not trace preserving: ||sum K*K - I|| = {err:.3e}")
        self.kraus = ops
        self.din = din
        self.dout = dout
        self._tp_err = err

    def __len__(self) -> int:
        return len(self.kraus)

    def __repr__(self) -> str:
        return f"KrausChannel(din={self.din}, dout={self.dout}, n_kraus={len(self.kraus)})"

    @property
    def _unitary_stack_delta(self) -> Optional[float]:
        """delta >= ||W W* - I||_2 for the stacked operators W = [M_1; ...;
        M_K] when W is square (K dout = din) and its trace-preservation error
        ||W*W - I||_F, as ``__init__`` measured it, is within 16 din eps;
        None otherwise, and for a map built with ``require_tp=False``.

        A square W has ``||W W* - I||_2 = ||W*W - I||_2 <= ||W*W - I||_F``.
        The measured Gram is off the exact one by at most gamma_{din+2}
        ``||W||_F^2`` <= 2 din^2 eps (complex inner products; Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
        Lemma 3.5), so delta is the measured error plus 2 din^2 eps, at most
        18 din^2 eps.  The threshold admits every stack that is unitary to
        rounding: the stack of a Haar unitary, or of a product of up to
        three, measures at most (10 + din) eps at din <= 96.
        ``Scenario._image`` and ``_algebraic_lstsq`` factor such a map in
        closed form, where the threshold is weighed."""
        eps = np.finfo(float).eps
        if (self._tp_err is None or len(self.kraus) * self.dout != self.din
                or self._tp_err > 16 * self.din * eps):
            return None
        return self._tp_err + 2 * self.din**2 * eps

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
        mh = m.conj().T
        if not frob(m - mh) <= 1e-10 * max(1.0, frob(m)):
            raise NotHermitian("Choi matrix is not Hermitian")
        w = np.linalg.eigvalsh((m + mh) / 2)
        if w.min() < -CP_TOL:
            raise NotCP(f"Choi eigenvalue {w.min():.3e} < -{CP_TOL}")
        # tr_out J, the trace over the output factor
        tp = np.einsum("ikjk->ij", m.reshape(self.din, self.dout, self.din, self.dout))
        if not frob(tp - np.eye(self.din)) <= CHOI_TP_TOL:
            raise ValueError("Choi partial trace over output is not the identity")
        object.__setattr__(self, "mat", _freeze(m))


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """The matrix ``sum_k K rho K*``, the channel applied to rho."""
    rho = asmatrix(rho)
    if rho.shape != (ch.din, ch.din):
        raise DimensionMismatch(f"state has dim {rho.shape}, channel expects {ch.din}")
    return (ch.kraus @ rho @ ch.kraus.conj().swapaxes(1, 2)).sum(axis=0)


def unitary_channel(u) -> KrausChannel:
    """Channel rho -> u rho u* for a unitary u."""
    return KrausChannel([require_unitary(u, "u")])


def _vecs(ops: np.ndarray) -> np.ndarray:
    """The column-stacked vecs of a (K, dout, din) stack, as K rows."""
    return ops.swapaxes(1, 2).reshape(len(ops), -1)


def kraus_to_choi(ch: KrausChannel) -> ChoiMatrix:
    """``sum_k vec(K_k) vec(K_k)*``, one product of the stacked vecs."""
    x = _vecs(ch.kraus)
    return ChoiMatrix(ch.din, ch.dout, x.T @ x.conj())


def _transfer_view(ops: np.ndarray) -> np.ndarray:
    """The transfer matrix of a (K, dout, din) stack as a (dout, dout, din,
    din) view of one product: with X the operators flattened to rows
    (K, dout din), ``conj(X)^T X`` holds conj(K[a, i]) K[b, j] at
    (a, i, b, j), viewed at (a, b, i, j)."""
    k, dout, din = ops.shape
    x = ops.reshape(k, dout * din)
    return (x.conj().T @ x).reshape(dout, din, dout, din).swapaxes(1, 2)


def kraus_to_transfer_mat(ops: np.ndarray) -> np.ndarray:
    """Transfer matrix ``sum_k kron(K_k.conj(), K_k)`` of a (K, dout, din)
    stack."""
    _, dout, din = ops.shape
    return _transfer_view(ops).reshape(dout * dout, din * din)


def kraus_to_real_transfer_mat(ops: np.ndarray) -> np.ndarray:
    """Real transfer matrix ``T_R = Re T + Im(T Pi)`` of a (K, dout, din)
    stack, T its transfer matrix and Pi the transpose permutation on vecs,
    which swaps T's input indices.  T_R is the map in the real coordinates
    y(X) of Hermitian operators (see ``vec_from_real``), ``C_out* T C_in``,
    so it has T's singular values.  Both terms are strided views of the one
    product of ``_transfer_view``; no complex copy is realigned."""
    _, dout, din = ops.shape
    t = _transfer_view(ops)
    out = np.empty((dout, dout, din, din))
    np.add(t.real, t.imag.swapaxes(2, 3), out=out)
    return out.reshape(dout * dout, din * din)


def vec_from_real(y: np.ndarray, n: int) -> np.ndarray:
    """The vecs ``C y`` of the Hermitian n x n operators with real
    coordinates y, for one n^2 vector or the columns of an (n^2, m) array.

    ``y(X) = vec(Re X + Im X)`` is an isometry from the Hermitian operators
    onto R^(n^2): Re X is symmetric and Im X antisymmetric, so the two are
    orthogonal.  With Y = unvec(y), X = sym(Y) + i antisym(Y), so
    ``C = (1+i)/2 I + (1-i)/2 Pi``, which is unitary."""
    y3 = y.reshape(n, n, -1)
    yt = y3.swapaxes(0, 1)
    return ((0.5 + 0.5j) * y3 + (0.5 - 0.5j) * yt).reshape(y.shape)


def _kept_columns(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The columns v_k sqrt(w_k) of the eigenpairs (w, v) with w_k above
    ``RANK_TOL * max(w)`` (so none is zero): the vecs of a Kraus set."""
    keep = w > RANK_TOL * max(w.max(), 0.0)
    return v[:, keep] * np.sqrt(w[keep])


def _phase_fixed(cols: np.ndarray, din: int, dout: int) -> np.ndarray:
    """The (K, dout, din) Kraus stack whose vecs are the K columns of cols,
    each phase-fixed so tests are deterministic: its pivot, the first entry
    in flat (row-major) order whose modulus is within a relative
    PHASE_TIE_RTOL of the largest, is made real >= 0, so rounding cannot
    choose among tied entries."""
    flat = cols.T.reshape(-1, din, dout).swapaxes(1, 2).reshape(len(cols.T), -1)
    mod = np.abs(flat)
    pivot_at = np.argmax(mod >= (1 - PHASE_TIE_RTOL) * mod.max(axis=1, keepdims=True), axis=1)
    pivot = flat[np.arange(len(flat)), pivot_at]
    # hypot rounds as abs() of one complex scalar does; np.abs of an array may not
    phase = pivot.conj() / np.hypot(pivot.real, pivot.imag)
    return (flat * phase[:, None]).reshape(-1, dout, din)


def choi_to_kraus(c: ChoiMatrix) -> KrausChannel:
    """Kraus operators from the Choi eigendecomposition: one operator per
    eigenvalue above ``RANK_TOL * max_eigenvalue``, phase-fixed.  ``c`` is
    CP by construction.
    """
    ops = _phase_fixed(_kept_columns(*np.linalg.eigh(hermitize(c.mat))), c.din, c.dout)
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
    ops = later.kraus[:, None] @ earlier.kraus[None]
    return KrausChannel(ops.reshape(-1, later.dout, earlier.din), tp_tol=10 * TP_TOL)


def dual(ch: KrausChannel) -> KrausChannel:
    """Heisenberg-picture adjoint, Kraus set {K*}; unital rather than TP."""
    return KrausChannel(ch.kraus.conj().swapaxes(1, 2), require_tp=False)


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

    The vectorized Kraus operators of both lists are stacked as columns Va,
    Vb and zero-padded to a common count N.  W minimizes ||Va - Vb W^T||_F
    over all unitaries: with the SVD Vb* Va = P S Q*, W^T = P Q* (orthogonal
    Procrustes; Schoenemann, Psychometrika 31, 1, 1966), so no rank cutoff
    is involved.  Equal Choi matrices Va Va* = Vb Vb* make the minimum zero.

    Raises NotEquivalent if the channels differ beyond tol, NumericalFailure
    if the recovered W misses the residual bound 10*tol.
    """
    if not channels_equal(a, b, tol):
        raise NotEquivalent("channels differ; no connecting unitary exists")
    n = max(len(a.kraus), len(b.kraus))
    # zero columns stand for the zero operators that pad the shorter list
    va, vb = (np.pad(_vecs(ch.kraus).T, ((0, 0), (0, n - len(ch)))) for ch in (a, b))
    p, _, qh = np.linalg.svd(vb.conj().T @ va)
    w = (p @ qh).T
    # column i is vec(K_i(a) - sum_j W[i, j] K_j(b)), so its norm is that
    # operator's Frobenius norm
    residual = float(np.linalg.norm(va - vb @ w.T, axis=0).max())
    if not residual <= 10 * tol:
        raise NumericalFailure(f"connecting unitary residual {residual:.3e} > {10 * tol:.1e}")
    return w
