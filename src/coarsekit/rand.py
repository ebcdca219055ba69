"""Seeded random primitives: Haar unitaries, states, and CPTP maps."""

from __future__ import annotations

import numpy as np


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(ginibre(dim, rng))
    # normalize the R-diagonal phases so the distribution is exactly Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """dim x dim matrix of independent complex Gaussian entries."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def state_from_factor(g: np.ndarray) -> np.ndarray:
    """Density matrix of a factor: ``v v*`` with v = g/||g|| for a vector g,
    else ``G G* / tr(G G*)`` for a matrix G."""
    if g.ndim == 1:
        v = g / np.linalg.norm(g)
        return np.outer(v, v.conj())
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_pure_state_mat(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state."""
    return state_from_factor(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_density_mat(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state from a Wishart matrix."""
    return state_from_factor(ginibre(dim, rng))


def random_kraus_ops(
    din: int, dout: int, kraus_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Kraus operators of a random CPTP map via a Haar isometry, as a
    (kraus_count, dout, din) stack.

    Embeds the input into output x environment with a Haar-random isometry
    and traces out a ``kraus_count``-dimensional environment.
    """
    if dout * kraus_count < din:
        raise ValueError(
            f"no isometry from dim {din} into {dout}x{kraus_count}; "
            "increase kraus_count"
        )
    big = haar_unitary(dout * kraus_count, rng)
    isometry = big[:, :din]
    return isometry.reshape(kraus_count, dout, din)
