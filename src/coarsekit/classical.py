"""Classical counterpart of the coarse-graining question.

Two fixed causal structures over finite random variables:

- a chain A -> B -> Y with a proxy A -> X.  The coarse observables are
  (X, Y); an effective conditional table P~(Y|X) always exists and
  reproduces the marginal of Y exactly (law of total probability), in
  contrast to the quantum case;
- an interventional variant in which X also drives B directly, so that
  setting X by fiat (severing A -> X) is meaningful.  The interventional
  distribution comes from the truncated factorization of the joint.

Tables are column-stochastic matrices: ``p[y, x]`` is the probability of
child outcome y given parent outcome x.  Multi-parent tables flatten parent
indices row-major, so the column for (a, x) is ``a * n_x + x``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, ZeroMarginal

STOCHASTIC_TOL = 1e-12


def _astable(p) -> np.ndarray:
    m = np.asarray(p, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch("conditional table must be a matrix")
    # written to fail on NaN, which compares false both ways
    if not np.all((m >= -STOCHASTIC_TOL) & (m <= 1 + STOCHASTIC_TOL)):
        raise ValueError("probabilities must lie in [0, 1]")
    colsums = m.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > STOCHASTIC_TOL):
        raise ValueError(f"columns must sum to 1, got {colsums}")
    m = m.copy()
    m.setflags(write=False)
    return m


def _asdist(p) -> np.ndarray:
    v = np.asarray(p, dtype=np.float64).ravel()
    # written to fail on NaN and infinities
    if not (np.all(v >= -STOCHASTIC_TOL) and abs(v.sum() - 1.0) <= STOCHASTIC_TOL):
        raise ValueError("not a probability vector")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class CondTable:
    """Column-stochastic conditional probability table p[child, parent]."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _astable(self.p))

    @property
    def n_out(self) -> int:
        return self.p.shape[0]

    @property
    def n_in(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True)
class ChainModel:
    """The observational DAG: A -> B -> Y, A -> X."""

    pA: np.ndarray
    pB_given_A: CondTable
    pX_given_A: CondTable
    pY_given_B: CondTable

    def __post_init__(self):
        object.__setattr__(self, "pA", _asdist(self.pA))
        n_a = self.pA.size
        if self.pB_given_A.n_in != n_a or self.pX_given_A.n_in != n_a:
            raise DimensionMismatch("B and X tables must condition on A")
        if self.pY_given_B.n_in != self.pB_given_A.n_out:
            raise DimensionMismatch("Y table must condition on B")


@dataclass(frozen=True)
class DoModel:
    """The interventional DAG: A -> X, (A, X) -> B, B -> Y."""

    pA: np.ndarray
    pX_given_A: CondTable
    pB_given_AX: CondTable
    pY_given_B: CondTable

    def __post_init__(self):
        object.__setattr__(self, "pA", _asdist(self.pA))
        n_a = self.pA.size
        n_x = self.pX_given_A.n_out
        if self.pX_given_A.n_in != n_a:
            raise DimensionMismatch("X table must condition on A")
        if self.pB_given_AX.n_in != n_a * n_x:
            raise DimensionMismatch(
                f"B table must have {n_a}*{n_x} parent columns (a*n_x + x)"
            )
        if self.pY_given_B.n_in != self.pB_given_AX.n_out:
            raise DimensionMismatch("Y table must condition on B")

    @property
    def n_x(self) -> int:
        return self.pX_given_A.n_out


def x_marginal(m: ChainModel) -> np.ndarray:
    return m.pX_given_A.p @ m.pA


def emergent_channel(m: ChainModel) -> CondTable:
    """The effective conditional table P~(Y|X) linking the coarse variables.

    Sums the microscopic chain over A and B, with P(A|X) obtained by Bayes
    inversion; every outcome of X must have positive probability for the
    inversion to be defined.
    """
    px = x_marginal(m)
    if np.any(px <= 0.0):
        raise ZeroMarginal(f"P(X) has a zero entry: {px}")
    # p_a_given_x[a, x] = P(X=x|A=a) P(A=a) / P(X=x)
    joint_xa = m.pX_given_A.p * m.pA[None, :]
    p_a_given_x = (joint_xa / px[:, None]).T
    return CondTable(m.pY_given_B.p @ m.pB_given_A.p @ p_a_given_x)


def joint_xy(m: ChainModel) -> np.ndarray:
    """Joint P(Y=y, X=x) by full enumeration over A and B."""
    n_y = m.pY_given_B.n_out
    n_x = m.pX_given_A.n_out
    out = np.zeros((n_y, n_x))
    for a, pa in enumerate(m.pA):
        for b in range(m.pB_given_A.n_out):
            p_ab = pa * m.pB_given_A.p[b, a]
            out += p_ab * np.outer(m.pY_given_B.p[:, b], m.pX_given_A.p[:, a])
    return out


def verify_total_probability(m: ChainModel) -> float:
    """Max deviation of sum_x P~(y|x) P(x) from the enumerated P(y)."""
    p_y = joint_xy(m).sum(axis=1)
    p_tilde = emergent_channel(m)
    reassembled = p_tilde.p @ x_marginal(m)
    return float(np.max(np.abs(p_y - reassembled)))


def do_intervention(m: DoModel, x: int) -> np.ndarray:
    """P(Y | do(X=x)) by truncated factorization.

    Fixing X by intervention severs the A -> X edge, so A keeps its prior:
    ``P(y|do(x)) = sum_a P(a) sum_b P(b|a,x) P(y|b)``.  The result never
    depends on the X|A table.
    """
    if not (isinstance(x, numbers.Integral) and not isinstance(x, bool) and 0 <= x < m.n_x):
        raise IndexOutOfRange(f"x={x} outside alphabet of size {m.n_x}")
    cols = m.pB_given_AX.p[:, np.arange(m.pA.size) * m.n_x + x]
    p_b = cols @ m.pA
    return m.pY_given_B.p @ p_b


def observational_vs_do(m: DoModel, x: int) -> tuple[np.ndarray, np.ndarray]:
    """P(Y|X=x) by enumeration next to P(Y|do(X=x)).

    The two differ exactly when A confounds X and B; conditioning keeps the
    backdoor path open while intervening severs it.
    """
    do = do_intervention(m, x)  # checks that x lies in the alphabet
    px = m.pX_given_A.p @ m.pA
    if px[x] <= 0.0:
        raise ZeroMarginal(f"P(X={x}) = 0; conditional undefined")
    p_a_given_x = m.pX_given_A.p[x, :] * m.pA / px[x]
    cols = m.pB_given_AX.p[:, np.arange(m.pA.size) * m.n_x + x]
    return m.pY_given_B.p @ (cols @ p_a_given_x), do
