"""Scenarios and helpers that several test modules share, each defined once.

pytest collects only ``test_*.py``.  Equal arguments give bit-identical
arrays, so a number pinned on a scenario (a search's trial, a loop's
iteration count) holds in every module that builds it.
"""

import numpy as np

from coarsekit.channel import KrausChannel
from coarsekit.compat import Scenario
from coarsekit.io import dumps, scenario_to_json
from coarsekit.rand import haar_unitary
from coarsekit.scenarios import _rotation, example1, example2

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def tr_out(m, din, dout):
    """Partial trace over the output (minor) factor of an operator on din x dout."""
    return np.einsum("ikjk->ij", m.reshape(din, dout, din, dout))


def tr_in(m, din, dout):
    """Partial trace over the input (major) factor of an operator on din x dout."""
    return np.einsum("kikj->ij", m.reshape(din, dout, din, dout))


def pg_from_x(s, x, n):
    """(pg_before, pg_after) of a witness's X on the system and an n-level
    ancilla, recomputed densely: (1 + ||sum_k (M_k x I_n) X (M_k x I_n)*||_1)
    / 2 through {M_k}, then through {M_k u}."""
    eye = np.eye(n)
    pgs = []
    for kraus in (s.cg.kraus, s.cg.kraus @ s.u):
        image = sum(np.kron(m, eye) @ x @ np.kron(m, eye).conj().T for m in kraus)
        pgs.append(0.5 * (1.0 + np.abs(np.linalg.eigvalsh(image)).sum()))
    return tuple(pgs)


def write_scenario(path, s):
    """Write ``s`` as a scenario file at ``path`` and return the path as a string."""
    path.write_text(dumps(scenario_to_json(s)), encoding="utf-8")
    return str(path)


def pauli_contraction(theta):
    """A Pauli channel with Bloch contraction (0.9, 0.8, 0.85), then a
    z-rotation by theta.  T_cg is invertible (r = d^2), so a linear
    effective map always exists; at theta = 4e-6 it misses complete
    positivity by a margin between tol and BAND tol, which the SDP can
    neither certify nor refute."""
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1.0, -1.0])]
    probs = [0.8875, 0.0625, 0.0125, 0.0375]
    cg = KrausChannel([np.sqrt(p) * np.asarray(m, dtype=np.complex128)
                       for p, m in zip(probs, paulis)])
    return Scenario(cg, np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))


def dephased_hadamard(p):
    """A qubit dephased with off-diagonals scaled by 1 - p, then a Hadamard:
    D = d = 2, so the kernel check holds, but the one linear effective map
    is not completely positive."""
    z = np.diag([1.0, -1.0])
    cg = KrausChannel([np.sqrt(1 - p / 2) * np.eye(2), np.sqrt(p / 2) * z])
    return Scenario(cg, HADAMARD)


def measure_prepare(states, u):
    """Measure in the computational basis and prepare states[i] on outcome
    i: T_cg has rank at most d < d^2, so the SDP's loop decides, and the map
    is not unital.  A permutation u keeps cg's kernel, the matrices with
    zero diagonal."""
    eye = np.eye(len(states))
    ops = [np.outer(psi / np.linalg.norm(psi), eye[i]) for i, psi in enumerate(states)]
    return Scenario(KrausChannel(ops), np.asarray(u, dtype=complex))


def cycled(states):
    """``measure_prepare`` followed by the shift |i> -> |i + 1>."""
    return measure_prepare(states, np.roll(np.eye(len(states)), 1, axis=0))


def three_cycle():
    """|0>, |0>+|1>, |0>+|1>+|2> cycled: the kernel check holds, and the
    loop certifies within 10 iterations that no CPTP effective map exists."""
    return cycled(np.tril(np.ones((3, 3))))


def swap():
    """|0> or |+> prepared, then X: the one effective channel is the
    Hadamard, which the loop reaches after 7540 iterations."""
    return measure_prepare(np.array([[1, 0], [1, 1]]), [[0, 1], [1, 0]])


def decohered_example2(k, d, seed):
    """example2 with no coherences and Haar blocks of size k (D = k d,
    r = d < d^2): compatible, and decided by the loop.  ``seed`` is an int
    or a Generator, which the d draws advance."""
    rng = np.random.default_rng(seed)
    return example2(k, d, [haar_unitary(k, rng) for _ in range(d)], "none").scenario


def rotated_example1(angle):
    """example1 with u2 = H R(angle) H, a rotation that mixes the kept and
    the discarded direction: incompatible at any angle > 0."""
    return example1(HADAMARD @ _rotation(angle) @ HADAMARD).scenario


def lift(s, m):
    """The same physics on a discarded m-level environment: cg' = cg x tr_m
    (Kraus operators M_k x <j|) and u' = u x I_m."""
    eye = np.eye(m)
    ops = (s.cg.kraus[:, None, :, :, None] * eye[None, :, None, None, :]).reshape(-1, s.d, s.D * m)
    return Scenario(KrausChannel(ops), np.kron(s.u, eye))
