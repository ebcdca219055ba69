"""Kernel invariance, the SDP and construction against dense references.

The references build the coarse-graining square at full size: the
D^2 x D^2 transfer matrix T_u of u, the kernel of T_cg as a basis, the
d^2 D^2 diagram rows ``T_J T_cg = T_cg T_u`` in the SDP, and the candidate
``T_cg T_u pinv(T_cg)``.  The reference SDP is the basis method: it
writes J in an orthonormal basis of d^4 Hermitian matrices, stacks the
affine rows into one real system and projects with that system's ``pinv``.
The code under test works from one thin SVD of T_cg and projects onto the
affine set in closed form.  Both project orthogonally onto the same
affine set from zero and stop on the same Farkas certificate, so every
verdict and status must be equal; residuals and matrices may differ by
rounding.  Where the code under test decides
without iterating (a failed kernel check, or r = d^2 where the affine set
is one point) it reports 0 iterations; elsewhere its iteration count must
equal the reference's.
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
    vec_from_real,
)
from coarsekit.linalg import RANK_TOL, frob, hermitize, kernel_basis
from coarsekit.rand import haar_unitary, random_kraus_ops
from coarsekit.scenarios import random_planted_scenario, random_scenario, registry

from builders import (
    cycled,
    decohered_example2,
    dephased_hadamard,
    pauli_contraction,
    three_cycle,
    tr_out,
)

TOL = 1e-12


def _dephasing(haar: bool) -> compat.Scenario:
    """example2 with no coherences (rank r = 2 < d^2 = 4), with its block
    unitary or with a Haar unitary that mixes the blocks."""
    rng = np.random.default_rng(11)
    s = decohered_example2(3, 2, rng)
    return compat.Scenario(s.cg, haar_unitary(6, rng)) if haar else s


def _block_dephased_hadamard(p):
    """Two blocks of ``dephased_hadamard(p)``: Kraus operators |b><b| x K,
    then u = I x H.  D = d = 4 with r = 8 < d^2, so the loop decides."""
    s = dephased_hadamard(p)
    ops = [np.kron(np.outer(b, b), k) for b in np.eye(2) for k in s.cg.kraus]
    return compat.Scenario(KrausChannel(ops), np.kron(np.eye(2), s.u))


def _cycled_preparations(d, seed):
    """Random complex preparations, cycled by the shift |i> -> |i + 1>."""
    rng = np.random.default_rng(seed)
    return cycled(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


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
    "dephased-hadamard-p0.1": lambda: dephased_hadamard(0.1),
    "dephased-hadamard-p0.5": lambda: dephased_hadamard(0.5),
    "pauli-contraction-4e-4": lambda: pauli_contraction(4e-4),
    "pauli-contraction-4e-6": lambda: pauli_contraction(4e-6),
    "block-dephased-hadamard-p0.1": lambda: _block_dephased_hadamard(0.1),
    "block-dephased-hadamard-p0.5": lambda: _block_dephased_hadamard(0.5),
    "cycle-d3": three_cycle,
    **{
        f"cycled-preparations-d{d}-s{seed}": (lambda d=d, seed=seed: _cycled_preparations(d, seed))
        for d, seed in [(3, 0), (3, 3), (4, 0), (4, 1)]
    },
}
# the loop cases the reference stops with a certificate, from 2 to 27 iterations
CERTIFIED = [
    "block-dephased-hadamard-p0.1",
    "block-dephased-hadamard-p0.5",
    "cycle-d3",
    *(case for case in CASES if case.startswith("cycled-preparations")),
]


def _rhs(s):
    """T_cg T_u through the D^2 x D^2 transfer matrix of u."""
    return s.cg.transfer_mat @ np.kron(s.u.conj(), s.u)


def _dense_fiber(s, tol=compat.TOL):
    ker = kernel_basis(s.cg.transfer_mat)
    if ker.shape[1] == 0:
        return True, 0.0
    residual = float(np.linalg.norm(_rhs(s) @ ker, 2))
    return residual <= tol, residual


def _hermitian_basis(n):
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


def _dense_system(s):
    """The affine rows, all d^2 D^2 diagram rows and the trace rows, in the
    coordinates of ``_hermitian_basis(d^2)``: (a, b, basis) with the rows
    reading a y = b."""
    d = s.d
    t_cg = s.cg.transfer_mat
    rhs = _rhs(s)
    basis = _hermitian_basis(d * d)
    cols = []
    for b_el in basis:
        diagram = (choi_to_transfer_mat(b_el, d, d) @ t_cg).ravel()
        tp = tr_out(b_el, d, d).ravel()
        cols.append(np.concatenate([diagram.real, diagram.imag, tp.real, tp.imag]))
    b_vec = np.concatenate(
        [rhs.ravel().real, rhs.ravel().imag, np.eye(d).ravel(), np.zeros(d * d)]
    )
    return np.array(cols).T, b_vec, basis


def _band(residual, tol):
    return compat.INFEASIBLE if residual > compat.BAND * tol else compat.UNDECIDED


def _dense_sdp(s, max_iter=compat.SDP_MAX_ITER, tol=compat.TOL):
    """Dykstra iteration with all d^2 D^2 diagram rows, from zero, and the
    iterate j = x + p it stopped at.  It says ``infeasible`` only with the
    certificate of the code under test, in these coordinates: j is
    orthogonal to the null space of the rows, so <j, y> = <j, y0> on the
    affine set (y0 = a^+ b), against <= d max(lambda_max(j), 0) on a PSD
    point of trace d.  Inconsistent rows (no affine set) are decided by
    their least-squares residual at 0 iterations; rows of full column rank
    (the affine set is one point) by the residual bands on the iteration
    that reaches that point, iteration 2."""
    d = s.d
    a, b_vec, basis = _dense_system(s)
    a_pinv = np.linalg.pinv(a, rcond=1e-13)
    y0 = a_pinv @ b_vec
    off_image = float(np.linalg.norm(a @ y0 - b_vec))
    if off_image > tol:
        return compat.SdpOutcome(_band(off_image, tol), off_image, 0), np.zeros_like(y0)
    sv = np.linalg.svd(a, compute_uv=False)
    one_point = sv[-1] > 1e-13 * sv[0]
    x = p = np.zeros(a.shape[1])
    status = compat.UNDECIDED
    for iterations in range(1, max_iter + 1):
        j = x + p
        w, vecs = np.linalg.eigh(np.einsum("a,aij->ij", j, basis))
        psd_point = (vecs * np.maximum(w, 0.0)) @ vecs.conj().T
        y = np.einsum("aij,ji->a", basis, psd_point).real
        p = j - y
        violation = a @ y - b_vec
        x = y - a_pinv @ violation
        residual = float(np.linalg.norm(violation))
        if residual <= tol:
            status = compat.FEASIBLE
            break
        if one_point and iterations == 2:
            status = _band(residual, tol)
            break
        if j @ y0 - d * max(w[-1], 0.0) > compat.BAND * tol * np.linalg.norm(j):
            status = compat.INFEASIBLE
            break
    choi = None
    if status == compat.FEASIBLE:
        try:
            choi = ChoiMatrix(d, d, hermitize(psd_point))
        except ValueError:
            choi = None
    return compat.SdpOutcome(status, residual, iterations,
                             None if choi is None else choi_to_kraus(choi)), j


def _dense_candidate(s):
    t_cg = s.cg.transfer_mat
    t_gamma = _rhs(s) @ np.linalg.pinv(t_cg, rcond=RANK_TOL)
    return t_gamma, frob(t_gamma @ t_cg - _rhs(s))


def _dense_construct(s, diagram_tol=compat.TOL):
    d = s.d
    t_gamma, residual = _dense_candidate(s)
    if residual > diagram_tol:
        return None
    j_raw = transfer_to_choi_mat(t_gamma, d, d)
    j_mat = hermitize(j_raw)
    w_min = float(np.linalg.eigvalsh(j_mat).min())
    tp_err = frob(tr_out(j_mat, d, d) - np.eye(d))
    if frob(j_raw - j_raw.conj().T) <= 1e-8 and w_min >= -1e-8 and tp_err <= 1e-8:
        return choi_to_kraus(ChoiMatrix(d, d, j_mat))
    out, _ = _dense_sdp(s, tol=1e-9)
    if out.status == compat.FEASIBLE and out.channel is not None:
        return out.channel
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
    ref, _ = _dense_sdp(s)
    assert out.status == ref.status
    assert (out.channel is None) == (ref.channel is None)
    _, off_image = _dense_candidate(s)
    if off_image > compat.BAND * compat.TOL:
        # the kernel check decides: no J changes ||A - A V V*||_F
        assert out.iterations == 0
        assert abs(out.residual - off_image) <= TOL
        assert out.residual <= ref.residual + TOL
    elif s._image.sigma.size == s.d**2:
        # the affine set is one point, which the reference reaches and keeps
        assert out.iterations == 0
        assert _close(out.residual, ref.residual)
        if out.channel is not None:
            assert frob(out.channel.choi.mat - ref.channel.choi.mat) <= TOL
    else:
        assert out.iterations == ref.iterations
        assert _close(out.residual, ref.residual)


@pytest.mark.parametrize("case", CASES)
def test_candidate_matches_pseudoinverse(case):
    s = CASES[case]()
    img = s._image
    u, av = vec_from_real(img.u, s.d), vec_from_real(img.av, s.d)
    t_gamma = (av / img.sigma) @ u.conj().T
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


@pytest.mark.parametrize("case", CERTIFIED)
def test_a_certificate_stop_holds_a_farkas_certificate(case):
    # the reference's j is orthogonal to the directions of the affine set,
    # so <j, y> = <j, y0> on it, while a PSD y of trace d has <j, y> <= d
    # lambda_max(j): a margin above 0 leaves no feasible point
    s = CASES[case]()
    ref, j = _dense_sdp(s)
    assert (ref.status, ref.channel) == (compat.INFEASIBLE, None) and ref.iterations > 0
    a, b_vec, basis = _dense_system(s)
    norm = np.linalg.norm(j)
    assert np.linalg.norm(kernel_basis(a).conj().T @ j) <= 1e-12 * norm
    lam = np.linalg.eigvalsh(np.einsum("a,aij->ij", j, basis))[-1]
    y0 = np.linalg.lstsq(a, b_vec, rcond=None)[0]
    assert (j @ y0 - s.d * max(lam, 0.0)) / norm > compat.BAND * compat.TOL


def test_cases_cover_both_sides_of_the_rank_question():
    ranks = {case: CASES[case]()._image.sigma.size for case in CASES}
    assert ranks["dephasing-block"] == ranks["dephasing-haar"] == 2
    assert ranks["random-D4-s0"] == 4


def _noisy_dephasing(eps):
    """(1 - eps) times a rank-4 dephasing of D = 8 onto d = 4 (example2 with
    no coherences), mixed with eps times a random full-rank channel: T_cg
    has 4 singular values of order 1 and 12 of order eps."""
    rng = np.random.default_rng(3)
    s = decohered_example2(2, 4, rng)
    noise = random_kraus_ops(8, 4, 4, rng)
    ops = [np.sqrt(1 - eps) * m for m in s.cg.kraus]
    ops += [np.sqrt(eps) * m for m in noise]
    return compat.Scenario(KrausChannel(ops), s.u)


@pytest.mark.parametrize("eps, rank", [(1e-6, 16), (1e-9, 16), (1e-11, 4), (1e-13, 4)])
def test_image_resolves_the_rank_of_the_wide_svd(eps, rank):
    s = _noisy_dephasing(eps)
    t_cg = s.cg.transfer_mat
    u, sigma, vh = np.linalg.svd(t_cg, full_matrices=False)
    r = int(np.sum(sigma > RANK_TOL * sigma[0]))
    assert r == rank
    u, sigma, vh = u[:, :r], sigma[:r], vh[:r]
    a = KrausChannel(s._kraus_after, require_tp=False).transfer_mat
    av = a @ vh.conj().T
    candidate = (av / sigma) @ u.conj().T
    img = s._image
    img_u, img_av = vec_from_real(img.u, s.d), vec_from_real(img.av, s.d)
    assert img.sigma.size == r
    assert np.abs(img.sigma - sigma).max() <= TOL
    assert frob(img_av @ img_av.conj().T - av @ av.conj().T) <= TOL
    # the candidate is determined to eps sigma_0 / sigma_r off the image, by
    # either SVD, and to rounding on it
    img_candidate = (img_av / img.sigma) @ img_u.conj().T
    assert frob((img_candidate - candidate) @ t_cg) <= TOL
    assert frob(img_candidate - candidate) <= TOL * sigma[0] / sigma[-1]
    _, residual = compat.check_fiber_preservation(s)
    assert abs(residual - np.linalg.norm(a - av @ vh, 2)) <= TOL
    # the Gram route squares the singular values: those of order eps fall
    # under rounding, so its rank is wrong whenever they are near the cut
    gram = np.linalg.eigvalsh(t_cg @ t_cg.conj().T)
    gram_rank = int(np.sum(gram > (RANK_TOL * sigma[0]) ** 2))
    assert (gram_rank == r) == (eps == 1e-6)


@pytest.mark.parametrize("name", [n for n, e in registry().items() if e.expected == "compatible"])
def test_kernel_residual_is_the_spectral_norm(name):
    # along u exp(i eps H) the residual runs from rounding to order one
    s = registry()[name].scenario
    rng = np.random.default_rng(1)
    g = rng.normal(size=(s.D, s.D)) + 1j * rng.normal(size=(s.D, s.D))
    w, v = np.linalg.eigh(g + g.conj().T)
    w /= np.abs(w).max()
    for eps in np.logspace(-14, -1, 27):
        perturbed = compat.Scenario(s.cg, s.u @ (v * np.exp(1j * eps * w)) @ v.conj().T)
        _, residual = compat.check_fiber_preservation(perturbed)
        want = np.linalg.norm(perturbed._image.e, 2)
        assert abs(residual - want) <= TOL * want
