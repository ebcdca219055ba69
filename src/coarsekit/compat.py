"""Compatibility of a microscopic unitary with a coarse-graining map.

Given a CPTP coarse-graining ``cg`` from dimension D to dimension d and a
D x D unitary ``u``, four criteria decide whether an effective d-level
dynamics ``gamma`` exists with ``gamma(cg(rho)) == cg(u rho u*)`` for every
state rho:

1. kernel invariance of cg under conjugation by u, exact
   (``check_fiber_preservation``); a failure yields an ensemble witness in
   closed form (``Scenario._kernel_witness``);
2. a d x d intertwiner V with ``M_k u == V M_k`` for every Kraus operator,
   sufficient only (``_algebraic_lstsq``);
3. semidefinite feasibility of the effective map's Choi matrix, whose
   feasible point is the effective channel (``sdp_feasibility``);
4. a random discrimination witness, searched for only to document an
   incompatible verdict that criterion 1 left without one
   (``search_witness``).

``run_all`` holds all four to one tolerance, ``CheckConfig.tol``, and reads
the verdict off them.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .channel import (CHOI_TP_TOL, TP_TOL, KrausChannel, _freeze, _kept_columns,
                      _phase_fixed, choi_to_transfer_mat, compose, connecting_unitary,
                      kraus_to_real_transfer_mat, transfer_to_choi_mat, vec_from_real)
from .errors import DimensionMismatch, MethodDisagreement, NotEquivalent, NumericalFailure
from .linalg import RANK_TOL, asmatrix, frob, hermitize, require_unitary
from .rand import state_from_factor

# No criterion calls these five; they stay importable from this module
# because perfbench wraps them here.
from .channel import choi_to_kraus  # noqa: F401
from .linalg import kernel_basis  # noqa: F401
from numpy.linalg import pinv  # noqa: F401
from .rand import random_density_mat, random_pure_state_mat  # noqa: F401

TOL = 1e-8
# past BAND * tol a residual or Farkas margin proves that no channel exists
BAND = 100
SDP_MAX_ITER = 20000
WITNESS_MARGIN = 1e-9

# the SDP's statuses are FEASIBLE, INFEASIBLE and UNDECIDED; the verdicts
# are COMPATIBLE, INCOMPATIBLE and UNDECIDED
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"
UNDECIDED = "undecided"


class _Image(NamedTuple):
    """The real factors that ``Scenario._image`` derives: T_R = ``u``
    diag(``sigma``) ``v``^T cut at rank r (``v`` None for a square stack),
    ``cut`` the largest singular value the cut dropped (0 if none), ``av`` =
    A V, ``e`` = E = A - A V V^T (a square stack's E' in its frame), ``e_norm``
    = ||E||_2 with ``e_top`` the top eigenvector of E E^T, and ``e_frob`` =
    ||E||_F.  T_R and A are not kept."""

    u: np.ndarray  # d^2 x r, U_R
    sigma: np.ndarray  # r
    v: Optional[np.ndarray]  # D^2 x r
    cut: float
    av: np.ndarray  # d^2 x r
    e: np.ndarray  # d^2 x D^2
    e_norm: float
    e_top: np.ndarray  # d^2
    e_frob: float


@dataclass(frozen=True)
class Scenario:
    """A coarse-graining map paired with a microscopic unitary."""

    cg: KrausChannel
    u: np.ndarray

    def __post_init__(self):
        m = asmatrix(self.u)
        # a square u of the wrong size is a mismatch; a non-square one is not unitary
        if m.shape[0] != self.cg.din:
            raise DimensionMismatch(
                f"unitary is {m.shape}, coarse-graining expects {self.cg.din}"
            )
        require_unitary(m, "microscopic dynamics")
        if self.cg.dout > self.cg.din:
            raise DimensionMismatch("coarse-graining must not increase dimension")
        object.__setattr__(self, "u", _freeze(m))

    @property
    def D(self) -> int:
        return self.cg.din

    @property
    def d(self) -> int:
        return self.cg.dout

    @cached_property
    def _kraus_after(self) -> np.ndarray:
        """The coarse-graining after u: the read-only (K, d, D) stack {M_k u}."""
        ops = (self.cg.kraus.reshape(-1, self.D) @ self.u).reshape(self.cg.kraus.shape)
        ops.setflags(write=False)
        return ops

    @cached_property
    def _image(self) -> _Image:
        """One factorization of T_cg, shared by the kernel check, the SDP
        and construction, computed on first use.  cg and u preserve
        Hermiticity, so both act by real transfer matrices
        (``kraus_to_real_transfer_mat``): T_R for cg, A for {M_k u}.

        The thin SVD T_R = U_R S V^T, cut below RANK_TOL s_0, splits A into
        A V and E = A - A V V^T, the part of the dynamics off T_R's row
        space.  It is taken of the tall T_R^T, which LAPACK's ``gesdd`` takes
        as R-SVD (T. F. Chan, ACM TOMS 8, 1982): a QR, an SVD of the
        d^2 x d^2 triangle and their product, each backward stable, so the
        cut sees the wide SVD's singular values, which T_R T_R^T would lose
        below sqrt(eps) s_0.  One ``eigh`` of the d^2 x d^2 Gram E E^T gives
        ||E||_2 = sqrt(max(lambda_max, 0)) to a few ulps, and its top
        eigenvector.

        A square stack W = [M_1; ...; M_K] (K d = D) within
        ``KrausChannel._unitary_stack_delta`` takes no SVD: cg = tr_K Ad_W
        (Stinespring, Proc. Amer. Math. Soc. 6, 211, 1955), so T_R = P G^T,
        P the real transfer matrix of tr_K and G that of Ad_W*.  P P^T = K I
        gives sigma = sqrt(K) 1, U_R = I, cut = 0 and V = G P^T / sqrt(K).
        The real transfer matrix A' of the K row blocks of u' = (W u) W* is
        A G, so A V = A' P^T / sqrt(K) and E' = A' - A' P^T P / K
        (``_strip_block_mean``).  With ||W W* - I||_2 <= delta, G's singular
        values lie in [1 - delta, 1 + delta] and E = E' G^T - A (G G^T - I),
        so in the 2- and Frobenius norms ||E|| is within delta ||E'|| +
        (2 delta + delta^2) ||A|| of ||E'||, with ||A||_2 <= sqrt(K)
        (1 + delta) and ||A||_F <= d ||A||_2.  No T_R, V or (A V) V^T is
        formed; the image keeps E'."""
        if self.cg._unitary_stack_delta is None:
            t = kraus_to_real_transfer_mat(self.cg.kraus)
            a = kraus_to_real_transfer_mat(self._kraus_after)
            v, sigma, uh = np.linalg.svd(t.T, full_matrices=False)
            r = int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))
            v = v[:, :r]
            av = a @ v
            # with a trivial kernel A lies in the image exactly
            e = a - av @ v.T if r < a.shape[1] else np.zeros_like(a)
            cut = float(sigma[r]) if r < sigma.size else 0.0
            # a copy past a cut, where the view V would keep all d^2 columns
            u_r, v, sigma = uh[:r].T, v.copy() if r < sigma.size else v, sigma[:r]
        else:
            k, n, big = len(self.cg), self.d**2, self.D
            stack = self.cg.kraus.reshape(big, big)
            frame = self._kraus_after.reshape(big, big) @ stack.conj().T
            e = kraus_to_real_transfer_mat(frame.reshape(self.cg.kraus.shape))
            sigma = np.full(n, np.sqrt(k))
            u_r, v, cut = np.eye(n), None, 0.0
            av = _strip_block_mean(e, k, self.d)[1].reshape(n, n) / sigma[0]
        w, y = np.linalg.eigh(e @ e.T)
        return _Image(u_r, sigma, v, cut, av, e, float(np.sqrt(max(w[-1], 0.0))), y[:, -1],
                      frob(e))

    @cached_property
    def _kernel_witness(self) -> Optional["EnsembleWitness"]:
        """An ensemble witness read off a failed kernel check, in closed form
        (after Buscemi, Commun. Math. Phys. 310, 625, 2012), or None; the
        check builds it when it fails.

        The top right singular vector x of the image's E is a Hermitian H
        (``vec_from_real``): the kernel element that u pushes furthest out
        of the kernel, cg(H) = 0 and ``||cg(u H u*)||_F = ||E||_2 ||H||_F``.
        H is traceless (cg preserves the trace), so X = H / ||H||_1 has PSD
        parts of trace 1/2 each, X = (rho0 - rho1) / 2 with no ancilla, and
        pg_before = 1/2, ``pg_after = (1 + ||cg(u H u*)||_1 / ||H||_1) / 2``.

        cg(H) = U_R S V^T x, and cg(u H u*) = A x is read as E x, off by
        ``||A V||_2 ||V^T x||``, with ||A V||_2 <= sigma_0 and V^T x at
        rounding after a second projection.  A square stack's E' gives
        x' = W H W*: its block mean goes out again, cg(H) is its block
        trace, and X = W* H' W / ||H'||_1, hermitized, to the frame's delta.

        None when H is 0, or when the gap is within WITNESS_MARGIN, as for a
        check that fails only by rounding.
        """
        img, d, big = self._image, self.d, self.D
        # x = E^T y for the top eigenvector y of E E^T.  E's rounding puts x off
        # the kernel by about eps ||A||, which ||x|| = ||E||_2 does not dwarf
        # when the check fails narrowly, so its part along V is taken out once
        # more, on a square stack as the block mean
        x = img.e_top @ img.e
        if img.v is None:
            cg_h = _strip_block_mean(x, len(self.cg), d)[0].sum(axis=-1).ravel()
        else:
            x -= img.v @ (img.v.T @ x)
            cg_h = img.u * img.sigma @ (img.v.T @ x)
        # H, then cg(H) and cg(u H u*) in vec coordinates; vecs are
        # column-stacked, so a matrix is its vec reshaped and transposed, and
        # without the transpose it is the conjugate, with the same eigenvalues
        h = vec_from_real(x, big).reshape(big, big).T
        h_norm = np.abs(np.linalg.eigvalsh(h)).sum()
        if not h_norm > 0:
            return None
        images = vec_from_real(np.column_stack((cg_h, img.e @ x)), d)
        pg_before, pg_after = _helstrom(images.T.reshape(2, d, d), h_norm)
        if pg_after <= pg_before + WITNESS_MARGIN:
            return None
        if img.v is None:
            stack = self.cg.kraus.reshape(big, big)
            h = hermitize(stack.conj().T @ h @ stack)
        return EnsembleWitness(_freeze(h / h_norm), float(pg_before), float(pg_after),
                               source="kernel")


def _strip_block_mean(y: np.ndarray, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Take, in place, the mean of the K diagonal d x d blocks out of each,
    for the D x D operators whose real coordinates run along y's last axis.
    Returns the blocks, a (..., d, d, K) view, and tr_K y, their sum before."""
    blocks = np.einsum("...kakb->...abk", y.reshape(*y.shape[:-1], k, d, k, d))
    total = blocks.sum(axis=-1, keepdims=True)
    blocks -= total / k
    return blocks, total


def _require_count(name: str, value, low: int) -> None:
    """The range rule of every count and seed: an integer (Python or NumPy,
    not 2.5, "3" or a bool) >= low."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_tol(value) -> None:
    """The range rule of every tolerance: a finite real number > 0, not a bool.
    The test is a comparison, so NaN and an integer past float range (which
    ``math.isfinite`` cannot take) fail it."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max):
        raise ValueError(f"tol must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class CheckConfig:
    """Settings of run_all: ``tol``, the one decision tolerance of all its
    checks, the SDP's iteration cap and the witness search's settings."""

    tol: float = TOL
    sdp_max_iter: int = SDP_MAX_ITER
    witness_trials: int = 1000
    ancilla_dims: Optional[tuple[int, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        _require_tol(self.tol)
        if self.ancilla_dims is not None:
            # a tuple, so the config hashes and no later change escapes the checks
            try:
                dims = tuple(self.ancilla_dims)
            except TypeError:  # not iterable: a bare 3, or a 0-d array
                dims = ()
            if not dims:
                raise ValueError("ancilla_dims must be a non-empty sequence, "
                                 f"got {self.ancilla_dims!r}")
            object.__setattr__(self, "ancilla_dims", dims)
        _require_count("sdp_max_iter", self.sdp_max_iter, 1)
        _require_count("seed", self.seed, 0)
        _require_count("witness_trials", self.witness_trials, 0)
        for n in self.ancilla_dims or ():
            _require_count("each of ancilla_dims", n, 1)

    def resolved_ancillas(self, s: "Scenario") -> tuple[int, ...]:
        """The ancilla dimensions the search tries: ``ancilla_dims``, else 1
        and d.  Ancilla D, whose Wishart factors are (D D) x (2 D D), is
        searched only when asked for: a witness read off the SDP's dual
        certificate needs an ancilla of dimension d alone (Buscemi, Commun.
        Math. Phys. 310, 625, 2012)."""
        if self.ancilla_dims is not None:
            return self.ancilla_dims
        return tuple(sorted({1, s.d}))

    # a read-only alias of tol for perfbench's sdp_setup_probe, which reads it
    @property
    def sdp_tol(self) -> float:
        return self.tol


@dataclass(frozen=True)
class EnsembleWitness:
    """A binary ensemble whose distinguishability grows across the dynamics.

    ``x`` is the ensemble's operator X = p0 rho0 - p1 rho1 on the system and
    an ``ancilla_dim``-level ancilla: a read-only Hermitian (D n) x (D n)
    matrix, from which p0 = (1 + tr X) / 2.  pg_before / pg_after are the
    optimal guessing probabilities (1 + ||(cg x id)(X)||_1) / 2 of the
    coarse-grained ensemble before and after the microscopic unitary; any
    increase beyond numerical noise rules out a CPTP effective map.
    """

    x: np.ndarray
    pg_before: float
    pg_after: float
    ancilla_dim: int = 1
    trial: int = 0
    # "kernel": built from a failed kernel check; "search": a random trial
    source: str = "search"

    @property
    def gap(self) -> float:
        return self.pg_after - self.pg_before


@dataclass(frozen=True)
class SdpOutcome:
    """``channel``, the effective channel, is set exactly when ``status``
    is ``feasible``; its Choi matrix is ``channel.choi``, built on use."""

    status: str
    residual: float
    iterations: int
    channel: Optional[KrausChannel] = None


@dataclass(frozen=True)
class CompatReport:
    """Verdicts and residuals of all four criteria for one scenario."""

    fiber_preserved: bool
    fiber_residual: float
    algebraic_v: Optional[np.ndarray]
    algebraic_residual: float
    sdp: SdpOutcome
    witness: Optional[EnsembleWitness]
    emergent: Optional[KrausChannel]
    diagram_residual: Optional[float]
    method_agreement: dict = field(default_factory=dict)
    verdict: str = UNDECIDED


def check_fiber_preservation(s: Scenario, tol: float = TOL) -> tuple[bool, float]:
    """Exact test that conjugation by u maps ker(cg) into ker(cg).

    Two microscopic states have the same coarse-grained image iff they differ
    by a kernel element of cg's transfer matrix, so an effective map is well
    defined iff the kernel is invariant.  The residual is the operator norm
    of T_cg . T_u on the kernel, ``||E||_2`` of ``Scenario._image``, with no
    sampling.  It is taken over the Hermitian kernel elements: the kernel
    is closed under adjoints, so its complex span adds no direction and
    this is the complex check's residual too.  tol only decides the
    verdict; a failed check builds its witness
    (``Scenario._kernel_witness``), cached on the scenario.
    """
    _require_tol(tol)
    residual = s._image.e_norm
    if residual > tol:
        s._kernel_witness  # built and cached on first access
    return residual <= tol, residual


def _algebraic_lstsq(s: Scenario) -> tuple[np.ndarray, float, float]:
    """Least-squares solution of ``M_k u == V M_k`` over all Kraus operators.

    With M = [M_1 ... M_K] and B = [M_1 u ... M_K u] (d x K D), the system
    V M = B is solved as ``M^T V^T = B^T``.  Returns the minimum-norm V, the
    residual ``rho = ||B - V M||_F`` and the bound it puts on the kernel
    residual ``||E||_2``, ``||V||_2^2 s_cut + 2 ||V||_2 ||cg(I)||_2^(1/2) rho
    + rho^2``.

    Proof: with M_k u = V M_k + R_k and X in the check's kernel (T_cg's
    right singular vectors past the rank cut), ||X||_F = 1,
    ``cg(u X u*) = V cg(X) V* + sum_k (V M_k X R_k* + R_k X M_k* V*)
    + sum_k R_k X R_k*``.  The cut makes X a kernel element only
    numerically: ``||cg(X)||_F <= s_cut``, the largest singular value it
    dropped.  The middle sum is V M (I_K x X) R* plus its adjoint, and
    ``||M||_2^2 = ||cg(I)||_2``; the last is R (I_K x X) R*, ||R||_F = rho.
    Each term is bounded by ||P Q S||_F <= ||P||_2 ||Q||_2 ||S||_F with
    ||X||_2 <= 1, and ||E||_2 is the largest ``||cg(u X u*)||_F``.

    The proof holds for any V, with that V's rho, and needs only an upper
    bound on ||M||_2.  So a square stack, with ``M M* = cg(I) = K I +
    sum_k Delta_kk`` and ||Delta||_2 <= delta (``Scenario._image``), takes
    no ``lstsq``: V = B M* / K, the least-squares B M* (M M*)^-1 to within a
    relative delta / (1 - delta), and ``||M||_2 <= sqrt(K (1 + delta))``.
    ||V||_2 is read off the d x d ``eigvalsh`` of V V*.
    """
    m_cat, b_cat = (x.transpose(1, 0, 2).reshape(s.d, -1) for x in (s.cg.kraus, s._kraus_after))
    delta = s.cg._unitary_stack_delta
    if delta is None:
        # lstsq also returns the singular values of M^T, so ||M||_2 is its first
        vt, _, _, m_sv = np.linalg.lstsq(m_cat.T, b_cat.T, rcond=None)
        v, m_norm = vt.T, m_sv[0]
    else:
        k = len(s.cg)
        v, m_norm = (b_cat @ m_cat.conj().T) / k, np.sqrt(k * (1.0 + delta))
    rho = frob(b_cat - v @ m_cat)
    v_norm = np.sqrt(max(np.linalg.eigvalsh(v @ v.conj().T)[-1], 0.0))
    bound = v_norm**2 * s._image.cut + 2 * v_norm * m_norm * rho + rho**2
    return v, rho, float(bound)


def solve_algebraic_V(s: Scenario, tol: float = TOL) -> tuple[Optional[np.ndarray], float]:
    """Search for a single matrix V with ``M_k u == V M_k`` for every k.

    Returns (V, residual), with V reported only when the bound that the
    residual puts on the kernel residual (``_algebraic_lstsq``) is within
    the kernel check's tolerance ``tol``: a V found implies that
    ``check_fiber_preservation(s, tol)`` holds.  Existence of such a V is
    sufficient for a well-defined effective dynamics but not necessary:
    absence proves nothing.
    """
    _require_tol(tol)
    v, residual, bound = _algebraic_lstsq(s)
    return (v if bound <= tol else None), residual


def verify_dual_identity(s: Scenario, v) -> float:
    """Residual of reconstructing u from V through the dual coarse-graining,
    ``|| u - sum_k M_k* V M_k ||_F``."""
    vm = asmatrix(v)
    if vm.shape != (s.d, s.d):
        raise DimensionMismatch(f"V must be {s.d}x{s.d}, got {vm.shape}")
    # with X the operators stacked as (K d, D), the sum is X* (V M_k stacked)
    rebuilt = s.cg.kraus.reshape(-1, s.D).conj().T @ (vm @ s.cg.kraus).reshape(-1, s.D)
    return frob(s.u - rebuilt)


def _helstrom(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The Helstrom value ``(1 + ||X||_1 / scale) / 2`` of a Hermitian X, or
    of each in a stack, from one ``eigvalsh``."""
    return 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(x)).sum(axis=-1) / scale)


def helstrom_pguess(p0: float, rho0, rho1) -> float:
    """Optimal guessing probability of the ensemble {p0: rho0, 1 - p0:
    rho1} of two state matrices, ``_helstrom`` of p0 rho0 - p1 rho1.  ``p0``
    follows ``_require_tol``'s rule, a real number and not a bool, in [0, 1]."""
    if not (isinstance(p0, numbers.Real) and not isinstance(p0, bool) and 0 <= p0 <= 1):
        raise ValueError(f"p0 must be a probability, got {p0!r}")
    m0, m1 = asmatrix(rho0), asmatrix(rho1)
    if m0.shape != m1.shape:
        raise DimensionMismatch(f"state shapes differ: {m0.shape} vs {m1.shape}")
    return float(_helstrom(hermitize(p0 * m0 - (1.0 - p0) * m1)))


def _witness_trials(dim: int, seed: int, ancilla_dim: int) -> Iterator[tuple]:
    """Trials 0, 1, ... of a search: p0 and the factors G0, G1 of its two
    states G G*/tr of dimension dim, from three streams spawned from
    ``SeedSequence([seed, ancilla_dim])``: weights, pure-state vectors (real
    parts, then imaginary) and Wishart factors (interleaved real and
    imaginary parts, viewed as complex), each read in trial order.  State 0
    of trial t is pure when t mod 4 < 2 and state 1 when t is even, so a
    search's cost depends on its budget and not on its seed."""
    children = np.random.SeedSequence([seed, ancilla_dim]).spawn(3)
    weights, vecs, mats = (np.random.default_rng(c) for c in children)

    def factor(pure: bool) -> np.ndarray:
        if pure:
            re, im = vecs.standard_normal((2, dim))
            return re + 1j * im
        return mats.standard_normal((dim, 2 * dim)).view(np.complex128)

    for t in itertools.count():
        yield weights.uniform(0.2, 0.8), factor(t % 4 < 2), factor(t % 2 == 0)


def _trial_pguess(s: Scenario, n: int, p0: float, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Helstrom guessing probabilities (before, after u) of the coarse-grained
    ensemble {p0: G0 G0*/||G0||^2, 1 - p0: G1 G1*/||G1||^2} on the system and
    an n-level ancilla.  Each factor G goes through {M_k} and {M_k u} one
    operator at a time: M_k applied to G read as (D, n r), read back as
    (d n, r), is the image Y_k = (M_k x I_n) G, and the blocks Y_k Y_k* are
    summed.  Both values come from one stacked ``_helstrom``."""
    dn = s.d * n
    helstrom = np.zeros((2, dn, dn), dtype=np.complex128)
    for path, kraus in enumerate((s.cg.kraus, s._kraus_after)):
        for p, g in ((p0, g0), (p0 - 1.0, g1)):
            gram = np.zeros((dn, dn), dtype=np.complex128)
            for m in kraus:
                y = (m @ g.reshape(s.D, -1)).reshape(dn, -1)
                gram += y @ y.conj().T
            helstrom[path] += (p / np.vdot(g, g).real) * gram
    return _helstrom(helstrom)


def search_witness(
    s: Scenario, trials: int, ancilla_dim: int = 1, seed: int = 0
) -> Optional[EnsembleWitness]:
    """Randomized hunt for an ensemble violating data processing.

    One trial at a time, draws a binary ensemble of a pure or Wishart
    state pair on the system and an ancilla (``_witness_trials``) and
    compares the guessing probabilities of its coarse-grained images before
    and after the unitary (``_trial_pguess``).  Returns the first
    violation, its X = p0 rho0 - p1 rho1 rebuilt from the factors; absence
    proves nothing.
    """
    _require_count("trials", trials, 1)
    _require_count("ancilla_dim", ancilla_dim, 1)
    _require_count("seed", seed, 0)
    draws = _witness_trials(s.D * ancilla_dim, seed, ancilla_dim)
    for t in range(trials):
        p0, g0, g1 = next(draws)
        before, after = _trial_pguess(s, ancilla_dim, p0, g0, g1)
        if after > before + WITNESS_MARGIN:
            x = p0 * state_from_factor(g0) - (1.0 - p0) * state_from_factor(g1)
            return EnsembleWitness(_freeze(x), float(before), float(after),
                                   ancilla_dim=ancilla_dim, trial=t)
        del g0, g1  # so that the next trial's draws do not join them in memory
    return None


def _channel(w: np.ndarray, vecs: np.ndarray, d: int) -> Optional[KrausChannel]:
    """The channel at a cone projection's PSD point J, in Kraus form, read
    off its eigenpairs (w, vecs): the columns c_k = v_k sqrt(w_k) that
    ``choi_to_kraus``'s rank rule keeps are the vecs of a Kraus set of J_+,
    J less the eigenvalues that rule drops.  The congruence by R x I,
    R = (tr_out J_+)^(-1/2), makes J_+ exactly trace preserving and maps c_k
    to (R x I) c_k: read as d x (d m), the columns' Gram is tr_out J_+ and R
    multiplies them from the left, so no second decomposition and no
    Kronecker product is formed.  The congruence keeps J_+ PSD and moves
    its diagram residual by O(tol).  None while J_+ is no channel: tr_out J_+
    singular, as it cannot be within a residual tol < 1 of the affine set,
    or trace preservation missed by CHOI_TP_TOL."""
    y = _kept_columns(w, vecs).reshape(d, -1)
    s, q = np.linalg.eigh(y @ y.conj().T)
    if s.min() <= 0:
        return None
    r = (q / np.sqrt(s)) @ q.conj().T
    try:
        return KrausChannel(_phase_fixed((r @ y).reshape(d * d, -1), d, d), tp_tol=CHOI_TP_TOL)
    except ValueError:
        return None


def _zero_iteration(residual: float, tol: float,
                    channel: Optional[KrausChannel] = None) -> SdpOutcome:
    """A decision at 0 iterations: ``feasible`` with a channel, else
    ``infeasible`` past BAND*tol and ``undecided`` within it."""
    if channel is not None:
        return SdpOutcome(FEASIBLE, residual, 0, channel)
    return SdpOutcome(INFEASIBLE if residual > BAND * tol else UNDECIDED, residual, 0)


def sdp_feasibility(
    s: Scenario, max_iter: int = SDP_MAX_ITER, tol: float = TOL
) -> SdpOutcome:
    """Decide existence of a CPTP effective map, in closed form where the
    affine set allows and by alternating projections otherwise.

    The unknown is the effective map's Choi matrix J: PSD (cone projection
    by eigenvalue clipping), trace preserving, and closing the square
    T_J T_cg = A (both affine).  In ``Scenario._image``'s split, taken to
    complex vecs by the unitary C of ``vec_from_real`` (U = C U_R, and A V
    likewise), the rows along V read T_J U = (A V) S^-1, whatever D is, and
    the rows off V read 0 = E, which no J changes.  So the affine set L is
    {T : T U = (A V) S^-1, w* T = w*}, w = vec(I); the two constraints act
    on opposite sides of T and hold at once, as cg and {M_k u} preserve the
    trace.  Its orthogonal projection is closed form, ``T0 + (I - w w*/d) T
    (I - U U*)`` with T0 = (A V) S^-1 U* + ``w w*/d (I - U U*)``, and keeps J
    Hermitian; an iteration is one ``eigh`` of J and two d^2 x d^2 products.

    The residual of the PSD-projected point is ``sqrt(||T_J U S - A V||^2 +
    ||tr_out J - I||^2 + ||E||_F^2)``: ``feasible`` when <= tol and the
    point gives a channel (``_channel``), which the outcome then carries.
    It is never below ||E||_F, so past tol that term alone decides, at 0
    iterations and before U and A V are formed: ``infeasible`` past
    BAND*tol, ``undecided`` in between.  r = d^2 makes I - U U* = 0 and L
    the one point T0, decided by the same bands at 0 iterations too.

    Else Dykstra's alternating projections run at most ``max_iter`` times;
    the correction p on the cone side makes them converge to a point of the
    intersection whenever one exists (Boyle & Dykstra 1986; Bauschke &
    Borwein, J. Approx. Theory 79, 1994).  From x = p = 0 each step takes
    j = x + p, P = P_K(j), p <- j - P and x <- P_L(P), adding to j the
    difference x - P, orthogonal to L's directions; so is every j.  The
    first step is closed form: P_K(0) = 0 leaves x = J0, T0's Choi matrix.
    Every J in L has <j, J> = <j, J0>, while a PSD J of trace d has <j, J>
    <= d max(lambda_max(j), 0).  So a Farkas margin ``m = (<j, J0> - d
    max(lambda_max(j), 0)) / ||j||_F`` > 0 proves that no CPTP J exists and
    puts every PSD J of trace d at distance >= m from L; the loop stops
    ``infeasible`` at m > BAND*tol, with lambda_max(j) and ||j||_F =
    sqrt(sum w^2) from the cone projection's eigenvalues w.  It goes on
    while a point within tol is not yet a channel, and is ``undecided`` at
    ``max_iter`` with neither a channel nor a certificate.
    """
    _require_count("max_iter", max_iter, 1)
    _require_tol(tol)
    d = s.d
    n = d * d
    img = s._image
    off_image = img.e_frob
    if off_image > tol:
        # every point's residual is at least off_image, so none is within tol
        return _zero_iteration(off_image, tol)
    u, av = vec_from_real(img.u, d), vec_from_real(img.av, d)  # in vec coordinates
    us = u * img.sigma
    # vec(I): the trace-preservation row of a transfer matrix T is tp_row @ T
    tp_row = np.eye(d, dtype=np.complex128).ravel()

    def project(j_mat):
        """j_mat's eigenpairs and PSD projection, its transfer matrix and residual."""
        w, vecs = np.linalg.eigh(j_mat)
        psd = (vecs * np.maximum(w, 0.0)) @ vecs.conj().T
        t_y = choi_to_transfer_mat(psd, d, d)
        diagram = t_y @ us - av
        trace = tp_row @ t_y - tp_row
        sq = np.vdot(diagram, diagram).real + np.vdot(trace, trace).real
        return w, vecs, psd, t_y, float(np.sqrt(sq + off_image**2))

    candidate = (av / img.sigma) @ u.conj().T
    if img.sigma.size == n:
        w, vecs, _, _, residual = project(transfer_to_choi_mat(candidate, d, d))
        return _zero_iteration(residual, tol, _channel(w, vecs, d) if residual <= tol else None)
    w_hat = tp_row / np.sqrt(d)
    off_u = np.eye(n) - u @ u.conj().T
    off_w = np.eye(n) - np.outer(w_hat, w_hat)
    t0 = candidate + np.outer(w_hat, w_hat @ off_u)
    j0 = transfer_to_choi_mat(t0, d, d)
    # iteration 1 projects j = 0, which P_K keeps: p = 0, x = P_L(0) = J0, and
    # the residual is ``project``'s at J = 0, in its order, with no eigh
    residual = float(np.sqrt(np.vdot(av, av).real + d + off_image**2))
    x, p = j0, np.zeros((n, n), dtype=np.complex128)
    for iterations in range(2, max_iter + 1):
        j_mat = x + p
        w, vecs, psd_point, t_y, residual = project(j_mat)
        p = j_mat - psd_point
        x = transfer_to_choi_mat(t0 + off_w @ t_y @ off_u, d, d)
        channel = _channel(w, vecs, d) if residual <= tol else None
        if channel is not None:
            return SdpOutcome(FEASIBLE, residual, iterations, channel)
        if np.vdot(j_mat, j0).real - d * max(w[-1], 0.0) > BAND * tol * np.sqrt(np.dot(w, w)):
            return SdpOutcome(INFEASIBLE, residual, iterations)
    return SdpOutcome(UNDECIDED, residual, max_iter)


def construct_emergent(s: Scenario, sdp: Optional[SdpOutcome] = None) -> Optional[KrausChannel]:
    """The effective channel in Kraus form, or None when the SDP finds none.

    The channel is ``sdp.channel`` (``_channel``).  ``sdp`` is an outcome of
    ``sdp_feasibility(s)``; without one the SDP runs with its defaults.
    """
    if sdp is None:
        sdp = sdp_feasibility(s)
    return sdp.channel


def _require_effective(s: Scenario, gamma: KrausChannel) -> None:
    if (gamma.din, gamma.dout) != (s.d, s.d):
        raise DimensionMismatch(
            f"gamma must act on dimension {s.d}, got {gamma.din}->{gamma.dout}"
        )


def diagram_distance(s: Scenario, gamma: KrausChannel) -> float:
    """Choi-space distance between gamma(cg(.)) and cg(u . u*).

    A Choi matrix realigns its transfer matrix, so the distance is
    ``||T_gamma T_cg - A||_F``, with no composed channel formed.  E's rows
    are orthogonal to V, so in ``Scenario._image``'s real split the square
    distance is ``||T_gamma,R U_R S - A V||_F^2 + ||E||_F^2``.
    """
    _require_effective(s, gamma)
    img = s._image
    t_gamma = kraus_to_real_transfer_mat(gamma.kraus)
    return float(np.hypot(frob(t_gamma @ (img.u * img.sigma) - img.av), img.e_frob))


def verify_kraus_equivalence(
    s: Scenario, gamma: KrausChannel, tol: float = TOL
) -> tuple[bool, Optional[np.ndarray]]:
    """Check that {K_i M_j} and {M_k u} are unitarily equivalent Kraus sets.

    Both sets represent the two paths around the coarse-graining square, so
    gamma closes the diagram iff a single unitary mixes one list into the
    other.  Returns (True, V) with the mixing matrix on success; the per-
    operator reconstruction residual is bounded by 10*tol.
    """
    _require_tol(tol)
    _require_effective(s, gamma)
    upper = compose(gamma, s.cg)
    # cg after u: the channel with Kraus operators M_k u
    lower = KrausChannel(s._kraus_after, tp_tol=10 * TP_TOL)
    try:
        v = connecting_unitary(upper, lower, tol)
    except (NotEquivalent, NumericalFailure):
        return False, None
    return True, v


def run_all(s: Scenario, cfg: Optional[CheckConfig] = None) -> CompatReport:
    """Run all four criteria, cross-check them, and assemble a report.

    The rule: ``compatible`` when the SDP's channel closes the square,
    ``incompatible`` when the kernel check fails or the SDP is
    ``infeasible``, else ``undecided``, so the verdict reads ``cfg.tol`` and
    ``cfg.sdp_max_iter`` alone.  The random search never decides: it runs
    only for an ``incompatible`` verdict that the kernel check left without
    a witness, and only attaches what it finds, so a report that is not
    ``incompatible`` does not depend on its settings.

    A compatible report needs no witness, as none exists: once a CPTP
    gamma closes the square to its diagram residual delta, no ensemble can
    gain more than ``sqrt(d D) delta / 2`` in guessing probability.  With
    Delta = gamma . cg - cg(u . u*) and a witness's X (``EnsembleWitness``,
    ||X||_1 <= 1) on the system and any ancilla, the gap is half of
    ``||(cg(u . u*) x id)(X)||_1 - ||(cg x id)(X)||_1``; gamma x id
    contracts the trace norm, so the gap is at most ``||Delta||_<> / 2``.
    Delta is a difference of CP maps; splitting its unnormalized Choi
    matrix J(Delta) = P - Q into PSD parts gives ``||Delta||_<> <= tr P +
    tr Q = ||J(Delta)||_1`` (Watrous 2018, ch. 3), and J(Delta) is dD x dD,
    so ``||J(Delta)||_1 <= sqrt(d D) ||J(Delta)||_F = sqrt(d D) delta``.

    ``method_agreement`` holds the two cross-checks that can fail: an
    intertwiner and a feasible SDP each imply that the kernel check holds.
    The intertwiner is accepted on its bound on the kernel residual
    (``_algebraic_lstsq``), so its flag fails only by rounding; a feasible
    SDP's residual is at least ``||E||_F >= ||E||_2``.  Raises
    MethodDisagreement when either fails, or when the channel misses the
    square by more than BAND*tol (a bug or a tolerance pathology; never
    ignored silently).
    """
    cfg = cfg or CheckConfig()
    fiber_ok, fiber_res = check_fiber_preservation(s, cfg.tol)

    v_opt, alg_res = solve_algebraic_V(s, cfg.tol)

    sdp = sdp_feasibility(s, max_iter=cfg.sdp_max_iter, tol=cfg.tol)

    emergent = construct_emergent(s, sdp)
    diag_res = diagram_distance(s, emergent) if emergent is not None else None
    # the channel's diagram residual is the SDP's, within tol, plus the O(tol)
    # shift of its trace normalization; past BAND*tol the SDP would say infeasible
    if diag_res is not None and diag_res > BAND * cfg.tol:
        raise MethodDisagreement(
            f"constructed effective map fails to close the diagram: {diag_res:.3e}"
        )

    flags = {
        "algebraic_implies_fiber": v_opt is None or fiber_ok,
        "sdp_feasible_implies_fiber": sdp.status != FEASIBLE or fiber_ok,
    }
    if not all(flags.values()):
        failed = sorted(k for k, ok in flags.items() if not ok)
        raise MethodDisagreement(
            f"criteria disagree ({', '.join(failed)}); fiber={fiber_ok} "
            f"residual={fiber_res:.3e}, algebraic residual={alg_res:.3e}, sdp={sdp.status}"
        )

    if emergent is not None:
        verdict = COMPATIBLE
    elif not fiber_ok or sdp.status == INFEASIBLE:
        verdict = INCOMPATIBLE
    else:
        verdict = UNDECIDED

    # the search only documents an incompatible verdict that has no witness yet
    witness = None if fiber_ok else s._kernel_witness
    if verdict == INCOMPATIBLE and witness is None and cfg.witness_trials > 0:
        for ancilla in cfg.resolved_ancillas(s):
            witness = search_witness(s, cfg.witness_trials, ancilla, cfg.seed)
            if witness is not None:
                break

    return CompatReport(
        fiber_preserved=fiber_ok,
        fiber_residual=fiber_res,
        algebraic_v=v_opt,
        algebraic_residual=alg_res,
        sdp=sdp,
        witness=witness,
        emergent=emergent,
        diagram_residual=diag_res,
        method_agreement=flags,
        verdict=verdict,
    )
