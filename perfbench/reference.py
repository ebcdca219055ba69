"""A fixed reference computation, timed between decisions.

On a shared host the speed of the same code drifts by tens of percent over
minutes, as other load comes and goes; interpreter-bound code, such as the
witness search on small matrices, drifts the most.  A run therefore also
times this computation, which does not touch coarsekit, right before and
after each decision, and divides the decision's time by the mean of the two.
The ratio, a decision's cost in reference units, moves with the program and
little with the machine.  Seconds are still reported alongside.

The computation mixes the kinds of work coarsekit's decisions are made of:
a pure-Python loop, many products and eigenvalues of tiny matrices, and one
dense eigendecomposition.  Its inputs are fixed, so its work never changes.
"""

from __future__ import annotations

import time

import numpy as np

PY_ITERATIONS = 100_000
SMALL_ITERATIONS = 500
SMALL_DIM = 6
DENSE_DIM = 256


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.normal(size=(SMALL_DIM, SMALL_DIM)) + 1j * rng.normal(size=(SMALL_DIM, SMALL_DIM))
        self.small = a + a.conj().T
        b = rng.normal(size=(DENSE_DIM, DENSE_DIM))
        self.dense = b + b.T
        self.times: list[float] = []

    def time(self) -> float:
        """Seconds of one run of the computation; also kept in ``times``."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(PY_ITERATIONS):
            acc += i * i
        for _ in range(SMALL_ITERATIONS):
            np.linalg.eigvalsh(self.small @ self.small)
        np.linalg.eigh(self.dense)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed
