#!/usr/bin/env python3
"""Which microscopic unitaries survive a qutrit-to-qubit squeeze?

The coarse-graining keeps level |0> plus the symmetric combination of
levels |1>,|2>, and throws the antisymmetric one away.  States that differ
only in the discarded directions form one fiber: they are macroscopically
identical.  A microscopic unitary admits an effective dynamics exactly
when it never splits a fiber; here, when the kept/discarded directions
are its eigenvectors.
"""

import numpy as np

from coarsekit import run_all
from coarsekit.compat import check_fiber_preservation
from coarsekit.scenarios import example1

S2 = np.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / S2


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


# phases on the kept/discarded combinations: fibers are respected
u2_good = HADAMARD @ np.diag(np.exp(1j * np.array([0.4, -0.9]))) @ HADAMARD
# a rotation between them: fibers get torn apart
u2_bad = HADAMARD @ rotation(np.pi / 4) @ HADAMARD

for label, u2 in [("phases on |+>,|->", u2_good), ("pi/4 mixing of |+>,|->", u2_bad)]:
    named = example1(u2)
    ok, residual = check_fiber_preservation(named.scenario)
    report = run_all(named.scenario)
    print(f"{label}:")
    print(f"  kernel invariance residual = {residual:.2e}  -> fiber preserved: {ok}")
    print(f"  verdict: {report.verdict}")
    if report.emergent is not None:
        print(f"  effective channel found ({len(report.emergent.kraus)} Kraus ops)")
    if report.witness is not None:
        w = report.witness
        print(f"  discrimination witness ({w.source}): guessing probability rises "
              f"{w.pg_before:.4f} -> {w.pg_after:.4f} across the dynamics")
        print("  (a physical impossibility under any effective channel)")
    print()

print("the image of a state keeps the population split and one coherence;")
print("the dynamics is effective iff it never leaks the discarded coherence")
print("into the kept one.")
