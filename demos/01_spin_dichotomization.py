#!/usr/bin/env python3
"""A spin-1 system dichotomized onto a qubit inherits a clean dynamics.

The coarse description keeps only the angular-momentum expectations of the
big system, packed into a qubit Bloch vector.  Because those expectations
rotate as a vector under any rotation of the big system, the qubit picture
closes on itself: the effective dynamics is the same rotation, at the
half-angle convention of qubit generators.  The criteria agree, and since
the constructed channel closes the square, no witness search is needed.
"""

import numpy as np

from coarsekit import CheckConfig, run_all
from coarsekit.channel import unitary_channel
from coarsekit.linalg import frob
from coarsekit.scenarios import emergent_spin_rotation, spin_dichotomization

rng = np.random.default_rng(11)
alpha = rng.uniform(0, 2 * np.pi)
axis = rng.normal(size=3)
axis /= np.linalg.norm(axis)

print(f"rotation angle  alpha = {alpha:.4f}")
print(f"rotation axis   n     = {np.round(axis, 4)}")

named = spin_dichotomization(3, alpha, axis)
s = named.scenario
print(f"\nscenario: D={s.D} -> d={s.d}, "
      f"coarse-graining has {len(s.cg.kraus)} Kraus operators")

report = run_all(s, CheckConfig(seed=1))

print(f"\nfiber preservation : {report.fiber_preserved}"
      f"   (residual {report.fiber_residual:.2e})")
print(f"algebraic intertwiner : "
      f"{'found' if report.algebraic_v is not None else 'not found'}"
      f"   (residual {report.algebraic_residual:.2e})")
print("  note: the single-matrix intertwiner is a sufficient condition only;")
print("  this scenario is compatible even though no such matrix exists.")
# the coarse-graining's transfer matrix has full rank d^2, so the SDP's
# affine set is one point and the SDP needs no iteration
assert report.sdp.iterations == 0
print(f"sdp feasibility : {report.sdp.status}"
      f"   (residual {report.sdp.residual:.2e}, one candidate point, no iteration)")
# the channel closes the square, so run_all skips the witness search: no
# ensemble can gain distinguishability across the dynamics
assert report.witness is None
print("witness search : skipped, the effective channel below closes the square")
print(f"\nverdict: {report.verdict.upper()}")

expected = unitary_channel(emergent_spin_rotation(alpha, axis))
dist = frob(report.emergent.choi.mat - expected.choi.mat)
print(f"\nconstructed effective channel vs half-angle qubit rotation:")
print(f"  Choi distance = {dist:.2e}")
assert dist < 1e-7
print("  -> the macroscopic dynamics is exactly the inherited rotation")
