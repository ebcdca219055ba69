"""Kernel invariance, the SDP and construction against dense references.

The references build the coarse-graining square at full size: the
D^2 x D^2 transfer matrix T_u of u, the kernel of T_cg as a basis, the
d^2 D^2 diagram rows ``T_J T_cg = T_cg T_u`` in the SDP, and the candidate
``T_cg T_u pinv(T_cg)``.  The code under test works from one thin SVD of
T_cg.  An orthogonal change of the diagram rows relates the two SDPs, so
every verdict, status and iteration count must be equal; residuals and
matrices may differ by rounding.
"""

import numpy as np
import pytest

from coarsekit import compat
from coarsekit.channel import (
    ChoiMatrix,
    KrausChannel,
    choi_to_kraus,
    choi_to_transfer_mat,
    transfer_to_choi_mat,
)
from coarsekit.linalg import frob, hermitize, kernel_basis, partial_trace, pinv
from coarsekit.rand import haar_unitary
from coarsekit.scenarios import (
    example2,
    random_planted_scenario,
    random_scenario,
    registry,
)

TOL = 1e-12


def _dephasing(haar: bool) -> compat.Scenario:
    """example2 with no coherences (rank r = 2 < d^2 = 4), with its block
    unitary or with a Haar unitary that mixes the blocks."""
    rng = np.random.default_rng(11)
    named = example2(3, 2, [haar_unitary(3, rng) for _ in range(2)], "none")
    if not haar:
        return named.scenario
    return compat.Scenario(named.scenario.cg, haar_unitary(6, rng))


CASES = {
    **{name: (lambda name=name: registry()[name].scenario) for name in registry()},
    **{
        f"random-D4-s{seed}": (lambda seed=seed: random_scenario(4, 2, 3, seed).scenario)
        for seed in range(4)
    },
    "random-D6-d3": lambda: random_scenario(6, 3, 3, 0).scenario,
    "planted-d2-e2": lambda: random_planted_scenario(2, 2, 0).scenario,
    "planted-d3-e2": lambda: random_planted_scenario(3, 2, 0).scenario,
    "dephasing-block": lambda: _dephasing(haar=False),
    "dephasing-haar": lambda: _dephasing(haar=True),
}


def _rhs(s):
    """T_cg T_u through the D^2 x D^2 transfer matrix of u."""
    return s.cg.transfer_mat @ np.kron(s.u.conj(), s.u)


def _dense_fiber(s, tol=compat.FIBER_TOL):
    ker = kernel_basis(s.cg.transfer_mat)
    if ker.shape[1] == 0:
        return True, 0.0
    residual = float(np.linalg.norm(_rhs(s) @ ker, 2))
    return residual <= tol, residual


def _dense_sdp(s, max_iter=compat.SDP_MAX_ITER, tol=compat.SDP_TOL):
    """Dykstra iteration with all d^2 D^2 diagram rows."""
    d = s.d
    n = d * d
    t_cg = s.cg.transfer_mat
    rhs = _rhs(s)
    basis = compat._hermitian_basis(n)
    cols = []
    for b_el in basis:
        diagram = (choi_to_transfer_mat(b_el, d, d) @ t_cg).ravel()
        tp = partial_trace(b_el, (d, d), keep="A").ravel()
        cols.append(np.concatenate([diagram.real, diagram.imag, tp.real, tp.imag]))
    a = np.array(cols).T
    b_vec = np.concatenate(
        [rhs.ravel().real, rhs.ravel().imag, np.eye(d).ravel(), np.zeros(d * d)]
    )
    a_pinv = np.linalg.pinv(a, rcond=1e-13)
    x = np.zeros(n * n)
    p = np.zeros(n * n)
    history = []
    status = compat.UNDECIDED
    for iterations in range(1, max_iter + 1):
        w, vecs = np.linalg.eigh(np.einsum("a,aij->ij", x + p, basis))
        psd_point = (vecs * np.maximum(w, 0.0)) @ vecs.conj().T
        y = np.einsum("aij,ji->a", basis, psd_point).real
        p = x + p - y
        violation = a @ y - b_vec
        x = y - a_pinv @ violation
        residual = float(np.linalg.norm(violation))
        history.append(residual)
        if residual <= tol:
            status = compat.FEASIBLE
            break
        if iterations > compat.SDP_STALL_WINDOW and residual > 100 * tol:
            past = history[-compat.SDP_STALL_WINDOW - 1]
            if abs(past - residual) <= compat.SDP_STALL_RTOL * residual:
                status = compat.INFEASIBLE
                break
    choi = None
    if status == compat.FEASIBLE:
        try:
            choi = ChoiMatrix(d, d, hermitize(psd_point))
        except ValueError:
            choi = None
    return compat.SdpOutcome(status, residual, iterations, choi)


def _dense_candidate(s):
    t_cg = s.cg.transfer_mat
    t_gamma = _rhs(s) @ pinv(t_cg)
    return t_gamma, frob(t_gamma @ t_cg - _rhs(s))


def _dense_construct(s, diagram_tol=compat.FIBER_TOL):
    d = s.d
    t_gamma, residual = _dense_candidate(s)
    if residual > diagram_tol:
        return None
    j_raw = transfer_to_choi_mat(t_gamma, d, d)
    j_mat = hermitize(j_raw)
    w_min = float(np.linalg.eigvalsh(j_mat).min())
    tp_err = frob(partial_trace(j_mat, (d, d), keep="A") - np.eye(d))
    if frob(j_raw - j_raw.conj().T) <= 1e-8 and w_min >= -1e-8 and tp_err <= 1e-8:
        return choi_to_kraus(ChoiMatrix(d, d, j_mat))
    out = _dense_sdp(s, tol=1e-9)
    if out.status == compat.FEASIBLE and out.choi is not None:
        return choi_to_kraus(out.choi)
    return None


def _close(got, want):
    return abs(got - want) <= TOL * max(1.0, abs(want))


@pytest.mark.parametrize("case", CASES)
def test_fiber_check_matches_dense_kernel(case):
    s = CASES[case]()
    ok, residual = compat.check_fiber_preservation(s)
    ok_ref, residual_ref = _dense_fiber(s)
    assert ok == ok_ref
    assert abs(residual - residual_ref) <= TOL


@pytest.mark.parametrize("case", CASES)
def test_sdp_matches_full_diagram_rows(case):
    s = CASES[case]()
    out = compat.sdp_feasibility(s)
    ref = _dense_sdp(s)
    assert (out.status, out.iterations) == (ref.status, ref.iterations)
    assert _close(out.residual, ref.residual)
    assert (out.choi is None) == (ref.choi is None)


@pytest.mark.parametrize("case", CASES)
def test_candidate_matches_pseudoinverse(case):
    s = CASES[case]()
    img = s._image
    t_gamma = (img.av / img.sigma) @ img.u.conj().T
    t_ref, residual_ref = _dense_candidate(s)
    assert frob(t_gamma - t_ref) <= TOL
    assert abs(frob(img.e) - residual_ref) <= TOL


@pytest.mark.parametrize("case", CASES)
def test_construct_matches_dense(case):
    s = CASES[case]()
    got = compat.construct_emergent(s)
    ref = _dense_construct(s)
    assert (got is None) == (ref is None)
    if got is not None:
        assert isinstance(got, KrausChannel)
        assert frob(got.choi.mat - ref.choi.mat) <= 1e-10


def test_cases_cover_both_sides_of_the_rank_question():
    ranks = {case: CASES[case]()._image.sigma.size for case in CASES}
    assert ranks["dephasing-block"] == ranks["dephasing-haar"] == 2
    assert ranks["random-D4-s0"] == 4
