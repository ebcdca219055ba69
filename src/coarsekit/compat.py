"""Compatibility of a microscopic unitary with a coarse-graining map.

Given a CPTP coarse-graining ``cg`` from dimension D to dimension d and a
D x D unitary ``u``, four independent criteria decide whether an effective
d-level dynamics ``gamma`` exists with ``gamma(cg(rho)) == cg(u rho u*)``
for every state rho:

1. kernel invariance of the coarse-graining under conjugation by u
   (exact; decides whether a well-defined linear map exists at all);
2. a one-sided algebraic shortcut: a single d x d matrix V intertwining
   every Kraus operator, ``M_k u == V M_k`` (sufficient, not necessary);
3. semidefinite feasibility for a CPTP effective map, decided by Dykstra
   alternating projections on the effective map's Choi matrix;
4. a randomized discrimination witness: a binary ensemble whose optimal
   guessing probability increases across the dynamics certifies that no
   CPTP effective map can exist.

``run_all`` aggregates the four verdicts, cross-checks their logical
consistency, and constructs the effective channel when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .channel import (
    ChoiMatrix,
    DensityMatrix,
    KrausChannel,
    choi_to_kraus,
    choi_to_transfer_mat,
    compose,
    connecting_unitary,
    channels_equal,
    transfer_to_choi_mat,
    unitary_channel,
)
from .errors import (
    DimensionMismatch,
    MethodDisagreement,
    NotCP,
    NotEquivalent,
    NotUnitary,
    NumericalFailure,
)
from .linalg import RANK_TOL, asmatrix, frob, hermitize, partial_trace, vec
from .rand import ginibre, random_pure_state_vec, state_from_factor

# No criterion calls these four; they stay importable from this module
# because perfbench wraps them here.
from .linalg import kernel_basis, pinv  # noqa: F401
from .rand import random_density_mat, random_pure_state_mat  # noqa: F401

FIBER_TOL = 1e-8
ALGEBRAIC_REL_TOL = 1e-8
SDP_TOL = 1e-7
SDP_MAX_ITER = 20000
SDP_STALL_WINDOW = 200
SDP_STALL_RTOL = 1e-12
WITNESS_MARGIN = 1e-9
# Working set of one witness batch in bytes: the state factors and their
# Kraus images.  It caps the trials per batch; at D*n = 1024 a batch is one
# trial, and each factor is then pushed through on its own.
_WITNESS_BATCH_BYTES = 2**20

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


class _Image(NamedTuple):
    """The coarse-graining's transfer matrix T_cg = U diag(sigma) V*, cut at
    rank r, and the transfer matrix A of {M_k u} split along V: ``av = A V``
    and the part of A outside the image, ``e = A - A V V*``."""

    u: np.ndarray  # d^2 x r
    sigma: np.ndarray  # r
    av: np.ndarray  # d^2 x r
    e: np.ndarray  # d^2 x D^2


@dataclass(frozen=True)
class Scenario:
    """A coarse-graining map paired with a microscopic unitary."""

    cg: KrausChannel
    u: np.ndarray

    def __post_init__(self):
        m = asmatrix(self.u)
        if m.shape != (self.cg.din, self.cg.din):
            raise DimensionMismatch(
                f"unitary is {m.shape}, coarse-graining expects {self.cg.din}"
            )
        if frob(m.conj().T @ m - np.eye(m.shape[0])) > 1e-9:
            raise NotUnitary("microscopic dynamics must be unitary")
        if self.cg.dout > self.cg.din:
            raise DimensionMismatch("coarse-graining must not increase dimension")
        mm = m.astype(np.complex128)
        mm.setflags(write=False)
        object.__setattr__(self, "u", mm)

    @property
    def D(self) -> int:
        return self.cg.din

    @property
    def d(self) -> int:
        return self.cg.dout

    @cached_property
    def _kraus_after(self) -> tuple[np.ndarray, ...]:
        """The Kraus operators {M_k u} of the coarse-graining after u."""
        return tuple(m @ self.u for m in self.cg.kraus)

    @cached_property
    def _image(self) -> _Image:
        """One thin SVD of T_cg, shared by kernel invariance, the SDP and
        construction; computed on first use."""
        a = sum(np.kron(m.conj(), m) for m in self._kraus_after)
        u, sigma, vh = np.linalg.svd(self.cg.transfer_mat, full_matrices=False)
        r = int(np.sum(sigma > RANK_TOL * sigma[0]))
        vh = vh[:r]
        av = a @ vh.conj().T
        # with a trivial kernel A lies in the image exactly
        e = a - av @ vh if r < a.shape[1] else np.zeros_like(a)
        return _Image(u[:, :r], sigma[:r], av, e)


@dataclass(frozen=True)
class CheckConfig:
    """Tolerances, iteration caps, and sampling settings for run_all."""

    fiber_tol: float = FIBER_TOL
    algebraic_rel_tol: float = ALGEBRAIC_REL_TOL
    sdp_tol: float = SDP_TOL
    sdp_max_iter: int = SDP_MAX_ITER
    equality_tol: float = 1e-8
    witness_trials: int = 1000
    ancilla_dims: Optional[tuple[int, ...]] = None
    seed: int = 0

    def resolved_ancillas(self, s: "Scenario") -> tuple[int, ...]:
        if self.ancilla_dims is not None:
            return self.ancilla_dims
        return tuple(sorted({1, s.d, s.D}))


@dataclass(frozen=True)
class EnsembleWitness:
    """A binary ensemble whose distinguishability grows across the dynamics.

    pg_before / pg_after are optimal guessing probabilities for the
    coarse-grained ensemble before and after the microscopic unitary; any
    increase beyond numerical noise rules out a CPTP effective map.
    """

    p0: float
    p1: float
    rho0: DensityMatrix
    rho1: DensityMatrix
    pg_before: float
    pg_after: float
    ancilla_dim: int = 1
    trial: int = 0

    @property
    def gap(self) -> float:
        return self.pg_after - self.pg_before


@dataclass(frozen=True)
class SdpOutcome:
    status: str
    residual: float
    iterations: int
    choi: Optional[ChoiMatrix] = None


@dataclass(frozen=True)
class CompatReport:
    """Verdicts and residuals of all four criteria for one scenario."""

    fiber_preserved: bool
    fiber_residual: float
    algebraic_v: Optional[np.ndarray]
    algebraic_residual: float
    dual_identity_residual: float
    sdp: SdpOutcome
    witness: Optional[EnsembleWitness]
    emergent: Optional[KrausChannel]
    diagram_residual: Optional[float]
    method_agreement: dict = field(default_factory=dict)
    verdict: str = UNDECIDED


def check_fiber_preservation(s: Scenario, tol: float = FIBER_TOL) -> tuple[bool, float]:
    """Exact test that conjugation by u maps ker(cg) into ker(cg).

    Two microscopic states have the same coarse-grained image iff they differ
    by a kernel element of the coarse-graining's transfer matrix, so an
    effective map is well defined iff the kernel is invariant.  The residual
    is the operator norm of (T_cg . T_u) restricted to the kernel; no
    sampling is involved.

    With the thin SVD T_cg = U S V* (rank r <= d^2), the kernel is the
    complement of V, and T_cg . T_u = A is the d^2 x D^2 transfer matrix of
    {M_k u}, so the residual is ``||A - A V V*||_2``; no D^2 x D^2 array is
    formed.
    """
    residual = float(np.linalg.norm(s._image.e, 2))
    return residual <= tol, residual


def _algebraic_lstsq(s: Scenario) -> tuple[np.ndarray, float, float]:
    """Least-squares solution of ``M_k u == V M_k`` over all Kraus operators.

    Stacks the linear system for V (column-stacking convention) and returns
    the minimum-norm solution, the joint residual, and the norm of the
    right-hand side that the residual is judged against.
    """
    d = s.d
    eye_d = np.eye(d)
    mu = s._kraus_after
    a = np.vstack([np.kron(m.T, eye_d) for m in s.cg.kraus])
    b = np.concatenate([vec(mu_k) for mu_k in mu])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    v = x.reshape(d, d, order="F")
    residual = float(
        np.sqrt(sum(frob(mu_k - v @ m) ** 2 for mu_k, m in zip(mu, s.cg.kraus)))
    )
    scale = float(np.sqrt(sum(frob(mu_k) ** 2 for mu_k in mu)))
    return v, residual, scale


def solve_algebraic_V(
    s: Scenario, rel_tol: float = ALGEBRAIC_REL_TOL
) -> tuple[Optional[np.ndarray], float]:
    """Search for a single matrix V with ``M_k u == V M_k`` for every k.

    Returns (V, residual) with V reported only when the residual is below
    ``rel_tol`` times the norm of the right-hand side.  Existence of such a
    V is sufficient for a well-defined effective dynamics but not necessary:
    absence proves nothing.
    """
    v, residual, scale = _algebraic_lstsq(s)
    if residual <= rel_tol * scale:
        return v, residual
    return None, residual


def verify_dual_identity(s: Scenario, v) -> float:
    """Residual of reconstructing u from V through the dual coarse-graining,
    ``|| u - sum_k M_k* V M_k ||_F``."""
    vm = asmatrix(v)
    if vm.shape != (s.d, s.d):
        raise DimensionMismatch(f"V must be {s.d}x{s.d}, got {vm.shape}")
    rebuilt = sum(m.conj().T @ vm @ m for m in s.cg.kraus)
    return frob(s.u - rebuilt)


def helstrom_pguess(p0: float, rho0, rho1) -> float:
    """Optimal guessing probability for a binary ensemble,
    ``(1 + || p0 rho0 - p1 rho1 ||_1) / 2``."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be a probability, got {p0}")
    m0 = rho0.mat if isinstance(rho0, DensityMatrix) else asmatrix(rho0)
    m1 = rho1.mat if isinstance(rho1, DensityMatrix) else asmatrix(rho1)
    if m0.shape != m1.shape:
        raise DimensionMismatch(f"state shapes differ: {m0.shape} vs {m1.shape}")
    w = np.linalg.eigvalsh(hermitize(p0 * m0 - (1.0 - p0) * m1))
    return float(0.5 * (1.0 + np.abs(w).sum()))


# Whether each of the two states of trial t is pure, by t mod 4: every four
# trials draw each pairing of pure and Wishart states once, so a search of a
# given budget costs the same whatever its seed.
_TRIAL_KINDS = ((True, True), (True, False), (False, True), (False, False))


def _draw_trial(dim: int, ancilla_dim: int, seed: int, t: int):
    """Weight p0 and the two state factors of witness trial t.

    Each trial has its own generator, so a trial's ensemble does not depend
    on how trials are batched.  A factor is a unit vector (pure state) or a
    square complex Gaussian G (Wishart state G G*/tr), as _TRIAL_KINDS says.
    """
    rng = np.random.default_rng([seed, ancilla_dim, t])
    p0 = rng.uniform(0.2, 0.8)
    factors = [
        random_pure_state_vec(dim, rng) if pure else ginibre(dim, rng)
        for pure in _TRIAL_KINDS[t % len(_TRIAL_KINDS)]
    ]
    return p0, factors


def _factor_bytes(s: Scenario, n: int, rank: int) -> int:
    """Working set of one factor: G, its Kraus images on both paths with
    their conjugate, and the per-operator Gram blocks."""
    k, dn = len(s.cg.kraus), s.d * n
    return 16 * (rank * (s.D * n + 4 * k * dn) + 2 * k * dn * dn)


def _coarse_grams(s: Scenario, n: int, ops: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coarse-grained Gram matrices of stacked factors, before and after u.

    ``ops`` stacks {M_k} over {M_k u} as (2 K d, D) and ``g`` is (m, D n, r).
    Returns (m, 2, d n, d n) holding ``sum_k (A_k x I_n) G G* (A_k x I_n)*``
    for A = M and A = M u.  ``(A_k x I_n) G`` is A_k applied to the system
    index of G read as (D, n r), so no lifted operator is formed.
    """
    m, _, r = g.shape
    k, dn = len(s.cg.kraus), s.d * n
    # rows (A_k, j) and columns (a, c) of the product, read as the (j a, c)
    # image Y_k of G
    y = (ops @ g.reshape(m, s.D, n * r)).reshape(m, 2 * k, dn, r)
    grams = y @ y.conj().swapaxes(-1, -2)
    return grams.reshape(m, 2, k, dn, dn).sum(axis=2)


def _guessing_probs(s: Scenario, n: int, ops: np.ndarray, draws) -> np.ndarray:
    """Helstrom guessing probabilities (b, 2), before and after u, of the
    coarse-grained ensembles of a batch of drawn trials.

    Factors of one shape are pushed through together, in chunks that fit
    _WITNESS_BATCH_BYTES, and all 2 b Helstrom operators go through one
    stacked ``eigvalsh``.
    """
    dn = s.d * n
    factors = [g for _, pair in draws for g in pair]
    weights = np.empty(len(factors))
    for i, g in enumerate(factors):
        p0 = draws[i // 2][0]
        p = p0 if i % 2 == 0 else 1.0 - p0
        weights[i] = p if g.ndim == 1 else p / np.vdot(g, g).real
    grams = np.empty((len(factors), 2, dn, dn), dtype=np.complex128)
    for pure in (True, False):
        idx = [i for i, g in enumerate(factors) if (g.ndim == 1) == pure]
        if not idx:
            continue
        rank = 1 if pure else s.D * n
        chunk = max(1, _WITNESS_BATCH_BYTES // _factor_bytes(s, n, rank))
        for lo in range(0, len(idx), chunk):
            part = idx[lo : lo + chunk]
            g = np.stack([factors[i] for i in part]).reshape(len(part), s.D * n, rank)
            grams[part] = _coarse_grams(s, n, ops, g)
    grams *= weights[:, None, None, None]
    helstrom = grams[0::2] - grams[1::2]
    w = np.linalg.eigvalsh(helstrom)
    return 0.5 * (1.0 + np.abs(w).sum(axis=-1))


def search_witness(
    s: Scenario, trials: int, ancilla_dim: int = 1, seed: int = 0
) -> Optional[EnsembleWitness]:
    """Randomized hunt for an ensemble violating data processing.

    Samples binary ensembles on the microscopic system tensored with an
    ancilla (Haar-random pure states and Wishart mixed states, each pairing
    of the two kinds once every four trials, weight drawn uniformly), so
    the cost of a search depends on its budget and not on its seed, and
    compares guessing probabilities of the coarse-grained ensemble before
    and after the unitary.  Returns the first violation found; absence
    proves nothing, the test is one-sided.

    States stay in factor form, rho = G G*/tr, and the coarse image is
    ``Y Y*`` with Y the stacked Kraus operators {M_k} (before) or {M_k u}
    (after) applied to the system factor of G; no lifted operator and no
    density matrix on the (D n)-dimensional space is built in the trial
    loop.  Trials run in batches that grow geometrically from one trial up
    to the _WITNESS_BATCH_BYTES working set, and each batch's Helstrom
    eigenvalues come from one stacked ``eigvalsh``.  Trial t draws from its
    own ``default_rng([seed, ancilla_dim, t])``, so the result does not
    depend on the batching; the states of the returned trial are rebuilt
    from their factors.
    """
    if trials < 1 or ancilla_dim < 1:
        raise ValueError("trials and ancilla_dim must be >= 1")
    n = ancilla_dim
    dim = s.D * n
    ops = np.concatenate([*s.cg.kraus, *s._kraus_after])
    # per trial: two factors at worst (Wishart) plus four Helstrom blocks
    per_trial = 2 * _factor_bytes(s, n, dim) + 4 * 16 * (s.d * n) ** 2
    cap = max(1, _WITNESS_BATCH_BYTES // per_trial)
    start, size = 0, 1
    while start < trials:
        stop = min(trials, start + size)
        draws = [_draw_trial(dim, ancilla_dim, seed, t) for t in range(start, stop)]
        pg = _guessing_probs(s, n, ops, draws)
        hits = np.flatnonzero(pg[:, 1] > pg[:, 0] + WITNESS_MARGIN)
        if hits.size:
            j = int(hits[0])
            p0, (g0, g1) = draws[j]
            return EnsembleWitness(
                p0=float(p0),
                p1=float(1.0 - p0),
                rho0=DensityMatrix(state_from_factor(g0)),
                rho1=DensityMatrix(state_from_factor(g1)),
                pg_before=float(pg[j, 0]),
                pg_after=float(pg[j, 1]),
                ancilla_dim=ancilla_dim,
                trial=start + j,
            )
        start, size = stop, min(2 * size, cap)
    return None


def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of n x n Hermitian matrices, stacked (n^2, n, n)."""
    out = np.zeros((n * n, n, n), dtype=np.complex128)
    idx = 0
    for i in range(n):
        out[idx, i, i] = 1.0
        idx += 1
    inv_s2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for k in range(i + 1, n):
            out[idx, i, k] = out[idx, k, i] = inv_s2
            idx += 1
            out[idx, i, k] = -1j * inv_s2
            out[idx, k, i] = 1j * inv_s2
            idx += 1
    return out


def sdp_feasibility(
    s: Scenario, max_iter: int = SDP_MAX_ITER, tol: float = SDP_TOL
) -> SdpOutcome:
    """Decide existence of a CPTP effective map by alternating projections.

    The unknown is the effective map's Choi matrix J, constrained to be PSD
    (cone projection by eigenvalue clipping), trace preserving, and to close
    the coarse-graining square (both affine; their orthogonal projector is
    precomputed from the stacked linear system).  Dykstra's correction on
    the cone side makes the iteration converge to a point of the
    intersection whenever one exists.

    The square T_J T_cg = A (A the transfer matrix of {M_k u}) is taken in
    the thin SVD T_cg = U S V*: its rows along V read T_J U S = A V, d^2 r
    equations whatever D is, and its rows off V read 0 = A - A V V*, which
    no J can change.  The affine system holds the first and the trace
    condition; the second enters the residual as the constant
    ``||A - A V V*||_F``.

    The reported residual is the affine violation of the PSD-projected
    iterate, ``sqrt(||affine rows||^2 + ||A - A V V*||_F^2)``.
    ``feasible`` means residual <= tol; ``infeasible`` means the residual
    stalled (relative change < 1e-12 across 200 iterations) while still
    above 100*tol, which in practice signals an empty intersection;
    anything else is ``undecided``.
    """
    if max_iter < 1 or tol <= 0:
        raise ValueError("max_iter must be >= 1 and tol > 0")
    d = s.d
    n = d * d
    img = s._image
    us = img.u * img.sigma
    off_image = frob(img.e)
    basis = _hermitian_basis(n)

    cols = []
    for b_el in basis:
        tb = choi_to_transfer_mat(b_el, d, d)
        diagram = (tb @ us).ravel()
        tp = partial_trace(b_el, (d, d), keep="A").ravel()
        cols.append(
            np.concatenate([diagram.real, diagram.imag, tp.real, tp.imag])
        )
    a = np.array(cols).T
    b_vec = np.concatenate(
        [img.av.ravel().real, img.av.ravel().imag, np.eye(d).ravel(), np.zeros(d * d)]
    )
    a_pinv = np.linalg.pinv(a, rcond=1e-13)

    x = np.zeros(n * n)
    p = np.zeros(n * n)
    history: list[float] = []
    status = UNDECIDED
    residual = np.inf
    iterations = 0
    psd_point = None
    for iterations in range(1, max_iter + 1):
        j_mat = np.einsum("a,aij->ij", x + p, basis)
        w, vecs = np.linalg.eigh(j_mat)
        psd_point = (vecs * np.maximum(w, 0.0)) @ vecs.conj().T
        y = np.einsum("aij,ji->a", basis, psd_point).real
        p = x + p - y
        violation = a @ y - b_vec
        x = y - a_pinv @ violation
        residual = float(np.hypot(np.linalg.norm(violation), off_image))
        history.append(residual)
        if residual <= tol:
            status = FEASIBLE
            break
        if iterations > SDP_STALL_WINDOW and residual > 100 * tol:
            past = history[-SDP_STALL_WINDOW - 1]
            if abs(past - residual) <= SDP_STALL_RTOL * max(residual, 1e-300):
                status = INFEASIBLE
                break

    choi = None
    if status == FEASIBLE:
        try:
            choi = ChoiMatrix(d, d, hermitize(psd_point))
        except (NotCP, ValueError):
            # feasible only marginally; the iterate is not yet a valid channel
            choi = None
    return SdpOutcome(status=status, residual=residual, iterations=iterations, choi=choi)


def construct_emergent(
    s: Scenario,
    diagram_tol: float = FIBER_TOL,
    sdp_max_iter: int = SDP_MAX_ITER,
) -> Optional[KrausChannel]:
    """Build the effective channel, or return None when none exists.

    The candidate transfer matrix is T_cg . T_u . pinv(T_cg): the
    pseudoinverse realizes the (set-valued) inverse of the coarse-graining
    on its image, and the candidate is the least-squares-optimal linear
    effective map.  If it closes the diagram we test complete positivity
    and trace preservation directly; a candidate that closes the diagram
    but is not CPTP may still admit a CPTP completion off the image of the
    coarse-graining, which the feasibility SDP then searches for.

    Both come from the thin SVD T_cg = U S V* shared with the other
    criteria: the candidate is ``(A V) S^-1 U*``, with A = T_cg . T_u the
    transfer matrix of {M_k u}, and its diagram residual is
    ``||A - A V V*||_F``.
    """
    d = s.d
    img = s._image
    t_gamma = (img.av / img.sigma) @ img.u.conj().T
    diagram_residual = frob(img.e)
    if diagram_residual > diagram_tol:
        return None

    j_raw = transfer_to_choi_mat(t_gamma, d, d)
    herm_err = frob(j_raw - j_raw.conj().T)
    j_mat = hermitize(j_raw)
    w_min = float(np.linalg.eigvalsh(j_mat).min())
    tp_err = frob(partial_trace(j_mat, (d, d), keep="A") - np.eye(d))
    if herm_err <= 1e-8 and w_min >= -1e-8 and tp_err <= 1e-8:
        return choi_to_kraus(ChoiMatrix(d, d, j_mat))

    out = sdp_feasibility(s, max_iter=sdp_max_iter, tol=1e-9)
    if out.status == FEASIBLE and out.choi is not None:
        return choi_to_kraus(out.choi)
    return None


def diagram_distance(s: Scenario, gamma: KrausChannel) -> float:
    """Choi-space distance between gamma(cg(.)) and cg(u . u*)."""
    left = compose(gamma, s.cg)
    right = compose(s.cg, unitary_channel(s.u))
    return frob(left.choi.mat - right.choi.mat)


def verify_kraus_equivalence(
    s: Scenario, gamma: KrausChannel, tol: float = 1e-8
) -> tuple[bool, Optional[np.ndarray]]:
    """Check that {K_i M_j} and {M_k u} are unitarily equivalent Kraus sets.

    Both sets represent the two paths around the coarse-graining square, so
    gamma closes the diagram iff a single unitary mixes one list into the
    other.  Returns (True, V) with the mixing matrix on success; the per-
    operator reconstruction residual is bounded by 10*tol.
    """
    if (gamma.din, gamma.dout) != (s.d, s.d):
        raise DimensionMismatch(
            f"gamma must act on dimension {s.d}, got {gamma.din}->{gamma.dout}"
        )
    upper = compose(gamma, s.cg)
    lower = compose(s.cg, unitary_channel(s.u))
    if not channels_equal(upper, lower, tol):
        return False, None
    try:
        v = connecting_unitary(upper, lower, tol)
    except (NotEquivalent, NumericalFailure):
        return False, None
    return True, v


def run_all(s: Scenario, cfg: Optional[CheckConfig] = None) -> CompatReport:
    """Run all four criteria, cross-check them, and assemble a report.

    Raises MethodDisagreement when the verdicts are logically inconsistent
    (a bug or a tolerance pathology; never ignored silently).
    """
    cfg = cfg or CheckConfig()
    fiber_ok, fiber_res = check_fiber_preservation(s, cfg.fiber_tol)

    v_lsq, alg_res, scale = _algebraic_lstsq(s)
    v_opt = v_lsq if alg_res <= cfg.algebraic_rel_tol * scale else None
    dual_res = verify_dual_identity(s, v_lsq)

    sdp = sdp_feasibility(s, max_iter=cfg.sdp_max_iter, tol=cfg.sdp_tol)

    witness = None
    if cfg.witness_trials > 0:
        for ancilla in cfg.resolved_ancillas(s):
            witness = search_witness(s, cfg.witness_trials, ancilla, cfg.seed)
            if witness is not None:
                break

    emergent = construct_emergent(s, diagram_tol=cfg.fiber_tol, sdp_max_iter=cfg.sdp_max_iter)
    diag_res = diagram_distance(s, emergent) if emergent is not None else None
    if diag_res is not None and diag_res > 1e-6:
        raise MethodDisagreement(
            f"constructed effective map fails to close the diagram: {diag_res:.3e}"
        )

    flags = {
        "algebraic_implies_fiber": v_opt is None or fiber_ok,
        "sdp_feasible_implies_fiber": sdp.status != FEASIBLE or fiber_ok,
        "witness_implies_not_feasible": witness is None or sdp.status != FEASIBLE,
        "witness_implies_no_emergent": witness is None or emergent is None,
        "emergent_implies_fiber": emergent is None or fiber_ok,
        "emergent_implies_sdp_not_infeasible": emergent is None or sdp.status != INFEASIBLE,
    }
    if not all(flags.values()):
        failed = sorted(k for k, ok in flags.items() if not ok)
        raise MethodDisagreement(
            f"criteria disagree ({', '.join(failed)}); "
            f"fiber={fiber_ok} residual={fiber_res:.3e}, sdp={sdp.status}, "
            f"witness={'found' if witness else 'none'}, "
            f"emergent={'yes' if emergent else 'no'}"
        )

    if emergent is not None:
        verdict = "compatible"
    elif not fiber_ok or sdp.status == INFEASIBLE or witness is not None:
        verdict = "incompatible"
    else:
        verdict = UNDECIDED

    return CompatReport(
        fiber_preserved=fiber_ok,
        fiber_residual=fiber_res,
        algebraic_v=v_opt,
        algebraic_residual=alg_res,
        dual_identity_residual=dual_res,
        sdp=sdp,
        witness=witness,
        emergent=emergent,
        diagram_residual=diag_res,
        method_agreement=flags,
        verdict=verdict,
    )
