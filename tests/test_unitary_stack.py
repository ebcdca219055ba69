"""A square Kraus stack, factored in closed form, decides as the SVD path does.

The stack W = [M_1; ...; M_K] of a coarse-graining with K d = D operators is
a square D x D matrix, unitary when the map is trace preserving: an
environment traced out after a change of frame.  ``Scenario._image`` and
``_algebraic_lstsq`` then take T_R's factorization and the intertwiner in
closed form (derived there), with no SVD and no least-squares solve.
Appending one zero Kraus operator leaves the map as it is but makes the
stack (K + 1) d x D, so that copy takes the SVD path: the two decide the
same scenario by the two routes, with no setting to switch between them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsekit import compat
from coarsekit.channel import KrausChannel
from coarsekit.rand import haar_unitary, random_kraus_ops
from coarsekit.scenarios import example2, random_planted_scenario, random_scenario, registry

from builders import decohered_example2

EPS = np.finfo(float).eps
REG = registry()


def _square(family, d, k, seed):
    """A scenario whose k Kraus operators of size d x (k d) stack to a square
    unitary: a random Kraus map, a planted intertwiner, example2 with its
    coherences kept (equal blocks, compatible, for an odd seed), a unitary
    coarse-graining (k = 1) or the full trace (d = 1), each with u Haar
    unless the family fixes it."""
    rng = np.random.default_rng(seed)
    big = k * d
    if family == "random":
        return compat.Scenario(KrausChannel(random_kraus_ops(big, d, k, rng)),
                               haar_unitary(big, rng))
    if family == "planted":
        return random_planted_scenario(d, k, seed).scenario
    if family == "example2":
        blocks = [haar_unitary(k, rng) for _ in range(d)]
        return example2(k, d, blocks[:1] * d if seed % 2 else blocks, "full").scenario
    # a unitary coarse-graining, or the full trace, read off one Haar unitary
    return compat.Scenario(KrausChannel(haar_unitary(big, rng).reshape(k, d, big)),
                           haar_unitary(big, rng))


def _in_frame(s, seed):
    """The same decision in a Haar input frame F: cg(F . F*) and F* u F,
    whose square closes exactly when the original one does."""
    f = haar_unitary(s.D, np.random.default_rng(seed))
    return compat.Scenario(KrausChannel(s.cg.kraus @ f), f.conj().T @ s.u @ f)


def _padded(s):
    """The same map with one zero Kraus operator appended."""
    zero = np.zeros((1, s.d, s.D))
    return compat.Scenario(KrausChannel(np.concatenate((s.cg.kraus, zero))), s.u)


@st.composite
def square_scenarios(draw):
    family = draw(st.sampled_from(["random", "planted", "example2", "unitary", "trace"]))
    d = 1 if family == "trace" else draw(st.integers(1, 4))
    k = 1 if family == "unitary" else draw(st.integers(1, 16 if family == "trace" else 6))
    seed = draw(st.integers(0, 2**31 - 1))
    s = _square(family, d, k, seed)
    return _in_frame(s, seed + 1) if draw(st.booleans()) else s


def _decision(report):
    witness = report.witness.source if report.witness is not None else None
    return (report.verdict, report.sdp.status, report.sdp.iterations,
            report.algebraic_v is not None, witness)


@settings(max_examples=60)
@given(s=square_scenarios())
def test_a_square_stack_decides_as_the_svd_path_does(s):
    # Rounding: both factorizations span T_R's row space, the closed form's V
    # orthonormal to 36.4 D^2 eps (Scenario._image) and the SVD's to its own
    # rounding, of the same order.  Each residual is a norm of A (||A||_2 =
    # sqrt(K)) times V V^T, or of products of A V with the SDP's d^2 x d^2
    # factors, so the two paths' residuals differ by a small multiple of
    # sqrt(K) D^2 eps: over 150 draws the largest difference was 4.0 of them.
    delta = s.cg._unitary_stack_delta
    assert delta is not None and _padded(s).cg._unitary_stack_delta is None
    # delta bounds the stack's exact TP error, which extended precision
    # computes to far below eps; W W* - I has the eigenvalues of W* W - I
    w = s.cg.kraus.reshape(s.D, s.D).astype(np.clongdouble)
    exact = np.sqrt((np.abs(w.conj().T @ w - np.eye(s.D)) ** 2).sum())
    assert exact <= delta
    cfg = compat.CheckConfig(witness_trials=0)
    closed, svd = compat.run_all(s, cfg), compat.run_all(_padded(s), cfg)
    assert _decision(closed) == _decision(svd)
    rounding = 32 * np.sqrt(len(s.cg)) * s.D**2 * EPS
    for got, want in ((closed.fiber_residual, svd.fiber_residual),
                      (closed.algebraic_residual, svd.algebraic_residual),
                      (closed.sdp.residual, svd.sdp.residual)):
        assert abs(got - want) <= rounding
    assert (closed.diagram_residual is None) == (svd.diagram_residual is None)
    if closed.diagram_residual is not None:
        assert abs(closed.diagram_residual - svd.diagram_residual) <= rounding


def _scaled_haar():
    """A square Haar stack scaled by 1 + 1e-11: trace preserving to 2e-11
    sqrt(D) = 8e-11, within the default tp_tol 1e-9, but far above the
    closed form's threshold of 16 D eps = 5.7e-14."""
    rng = np.random.default_rng(7)
    ops = ((1 + 1e-11) * haar_unitary(16, rng)).reshape(4, 4, 16)
    return compat.Scenario(KrausChannel(ops), haar_unitary(16, rng))


_WORK_CASES = {
    # square stacks: no SVD and no least-squares solve
    "random-16-4-4": (lambda: random_scenario(16, 4, 4, 7).scenario, 0),
    "planted-4-4": (lambda: random_planted_scenario(4, 4, 7).scenario, 0),
    "example2-incompatible": (lambda: REG["example2-incompatible"].scenario, 0),
    # K d > D: one of each
    "dephasing-3-3": (lambda: decohered_example2(3, 3, 0), 1),
    "example1-incompatible": (lambda: REG["example1-incompatible"].scenario, 1),
    "scaled-haar": (_scaled_haar, 1),
}


def _spy(monkeypatch, name):
    """The shapes of the matrices that ``np.linalg.<name>`` is called on."""
    calls, real = [], getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("case", sorted(_WORK_CASES))
def test_a_square_stack_takes_no_svd_and_no_lstsq(monkeypatch, case):
    build, count = _WORK_CASES[case]
    named = build()
    s = compat.Scenario(named.cg, named.u)  # nothing cached
    assert s.cg._tp_err <= 1e-9
    assert (s.cg._unitary_stack_delta is None) == (count == 1)
    svd, lstsq = _spy(monkeypatch, "svd"), _spy(monkeypatch, "lstsq")
    compat.run_all(s, compat.CheckConfig(witness_trials=0))
    # the SVD path factors the D^2 x d^2 T_R^T, and solves K D equations
    assert svd == [(s.D**2, s.d**2)] * count
    assert lstsq == [(len(s.cg) * s.D, s.d)] * count
