#!/usr/bin/env python3
"""Two independent refutations: a feasibility SDP and a guessing game.

For an effective channel to exist, its Choi matrix must be PSD, trace
preserving, and close the coarse-graining square, an intersection of a
cone and an affine set.  Here u moves the kernel of the coarse-graining out
of itself, so part of the square, ||A - A V V*||_F, is the same for every
candidate channel: the SDP is decided by that kernel check, without
iterating.
Independently, an effective channel would forbid any ensemble from
becoming MORE distinguishable after the microscopic dynamics (data
processing).  On an incompatible scenario both attacks land.
"""

import numpy as np

from coarsekit.compat import helstrom_pguess, sdp_feasibility, search_witness
from coarsekit.scenarios import registry

named = registry()["example1-incompatible"]
s = named.scenario

out = sdp_feasibility(s, max_iter=20000, tol=1e-7)
assert out.iterations == 0
print(f"feasibility SDP: {out.status}, decided by the kernel check at 0 iterations")
print(f"  residual ||A - A V V*||_F = {out.residual:.3e}, which no effective map changes")

w = search_witness(s, trials=1000, ancilla_dim=1, seed=0)
print(f"\nwitness search over random binary ensembles:")
# the witness is its operator X = p0 rho0 - p1 rho1, of trace p0 - p1
print(f"  found at trial {w.trial}: tr X = p0 - p1 = {np.trace(w.x).real:.3f}")
print(f"  optimal guessing probability before: {w.pg_before:.6f}")
print(f"  optimal guessing probability after : {w.pg_after:.6f}")
print(f"  gap: {w.gap:.3e}")
print("  information about the ensemble INCREASED through the dynamics,")
print("  which no physical effective channel could allow.")

# the Helstrom bound itself, on a textbook pair
pg = helstrom_pguess(0.5, np.diag([1.0, 0.0]), np.full((2, 2), 0.5))
print(f"\nHelstrom check, |0> vs |+> at even odds: {pg:.6f}"
      f"  (closed form {(1 + 1 / np.sqrt(2)) / 2:.6f})")

# a compatible scenario never yields a witness
spin = registry()["spin-d3"].scenario
assert search_witness(spin, trials=1000, ancilla_dim=1, seed=0) is None
print("\non the compatible spin scenario, 1000 trials find nothing, as they must.")
