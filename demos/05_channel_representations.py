#!/usr/bin/env python3
"""One channel, three faces: Kraus list, Choi matrix, transfer matrix.

Round trips between the representations, the unitary freedom of Kraus
lists, and the Heisenberg-picture dual.
"""

import numpy as np

from coarsekit.channel import (
    KrausChannel,
    channels_equal,
    choi_to_kraus,
    connecting_unitary,
    dual,
)
from coarsekit.linalg import frob
from coarsekit.rand import haar_unitary, random_density_mat, random_kraus_ops

rng = np.random.default_rng(5)
ch = KrausChannel(random_kraus_ops(din=3, dout=2, kraus_count=3, rng=rng))
print(f"random channel: {ch}")

# Choi round trip
back = choi_to_kraus(ch.choi)
print(f"Kraus -> Choi -> Kraus: {len(back.kraus)} operators, "
      f"Choi distance {frob(back.choi.mat - ch.choi.mat):.2e}")

# transfer matrix agrees with direct application
rho = random_density_mat(3, rng)
via_transfer = (ch.transfer_mat @ rho.flatten(order="F")).reshape(2, 2, order="F")
direct = sum(k @ rho @ k.conj().T for k in ch.kraus)
print(f"transfer vs direct application: {frob(via_transfer - direct):.2e}")

# unitary freedom: mixing the Kraus list changes nothing physical
w0 = haar_unitary(3, rng)
mixed = KrausChannel(
    [sum(w0[i, j] * ch.kraus[j] for j in range(3)) for i in range(3)]
)
print(f"\nmixed Kraus list describes the same channel: {channels_equal(ch, mixed)}")
w = connecting_unitary(mixed, ch)
residual = max(
    frob(mixed.kraus[i] - sum(w[i, j] * ch.kraus[j] for j in range(3)))
    for i in range(3)
)
print(f"recovered the connecting unitary, reconstruction residual {residual:.2e}")

# the dual is unital, not trace preserving
d = dual(ch)
unital = sum(k @ np.eye(2) @ k.conj().T for k in d.kraus)
print(f"\ndual maps identity to identity: {frob(unital - np.eye(3)):.2e}")
a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
lhs = np.trace(a @ sum(k @ rho @ k.conj().T for k in ch.kraus))
rhs = np.trace(sum(k @ a @ k.conj().T for k in d.kraus) @ rho)
print(f"Heisenberg/Schroedinger pairing: |difference| = {abs(lhs - rhs):.2e}")
