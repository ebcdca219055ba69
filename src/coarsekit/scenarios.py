"""Built-in scenarios and seeded random scenario generators.

The registry names are stable identifiers used by the CLI:

- ``example1-compatible`` / ``example1-incompatible``: a qutrit squeezed
  into a qubit, keeping one coherence; the microscopic unitary either
  respects or mixes the kept/discarded directions.
- ``example2-compatible`` / ``example2-incompatible``: pairs of levels
  merged into single levels with coherences kept; compatibility requires
  all block unitaries to act identically in their local Fourier bases.
- ``spin-d3``: the spin-1 system dichotomized onto a qubit through its
  angular-momentum expectations, rotated about z.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChoiMatrix, KrausChannel, choi_to_kraus
from .compat import COMPATIBLE, INCOMPATIBLE, Scenario, _require_count
from .errors import DimensionMismatch
from .linalg import frob, hermitize, require_unitary
from .rand import haar_unitary, random_kraus_ops

UNKNOWN = "unknown"


@dataclass(frozen=True)
class NamedScenario:
    name: str
    scenario: Scenario
    expected: str
    notes: str = ""


def example1(u2, name: str = "example1") -> NamedScenario:
    """Qutrit-to-qubit coarse-graining keeping a single coherence.

    The map sends span{|1>,|2>} onto the qubit's |1> through the symmetric
    combination |+> = (|1>+|2>)/sqrt2, discarding the antisymmetric one.
    The microscopic unitary is block diagonal, fixing |0> and acting with
    ``u2`` on span{|1>,|2>}; the effective dynamics is well defined exactly
    when (|1>+|2>) and (|1>-|2>) are eigenvectors of ``u2``.
    """
    u2 = require_unitary(u2, "u2")
    if u2.shape != (2, 2):
        raise DimensionMismatch("u2 must be 2x2")
    s2 = np.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / s2
    minus = np.array([1.0, -1.0]) / s2
    k0 = np.array([[1, 0, 0], [0, 1 / s2, 1 / s2]], dtype=np.complex128)
    k1 = np.array([[0, 0, 0], [0, 1 / s2, -1 / s2]], dtype=np.complex128)
    u = np.eye(3, dtype=np.complex128)
    u[1:, 1:] = u2

    def eig_residual(v):
        w = u2 @ v
        return np.linalg.norm(w - (v.conj() @ w) * v)

    ok = max(eig_residual(plus), eig_residual(minus)) <= 1e-9
    return NamedScenario(
        name=name,
        scenario=Scenario(KrausChannel([k0, k1]), u),
        expected=COMPATIBLE if ok else INCOMPATIBLE,
        notes="compatible iff (|1>+|2>)/sqrt2 and (|1>-|2>)/sqrt2 are eigenvectors of u2",
    )


def _fourier(k: int) -> np.ndarray:
    """Columns are the local Fourier vectors; for k=2, |+> and |->."""
    omega = np.exp(2j * np.pi / k)
    idx = np.arange(k)
    return omega ** np.outer(idx, idx) / np.sqrt(k)


def example2(
    k: int, d: int, blocks, coherence_mode: str = "full", name: str = "example2"
) -> NamedScenario:
    """k levels merged into each of d coarse levels, with block dynamics.

    ``coherence_mode="full"`` keeps coherences between coarse levels: one
    Kraus operator per local Fourier row, so the image sees every cross-
    block Fourier-diagonal sum.  ``"none"`` decoheres the image completely,
    one Kraus operator per (row, block), leaving only block populations.

    The microscopic unitary is the direct sum of the given k x k blocks.
    With full coherences the scenario is compatible iff all blocks agree in
    their local Fourier bases up to a global phase; with no coherences any
    block-diagonal unitary is compatible.  The Fourier frame F cancels in
    (F* B_0 F)* (F* B_j F) = F* B_0* B_j F, and the test is B_0* B_j = c I.
    """
    _require_count("k", k, 1)
    _require_count("d", d, 1)
    blocks = [require_unitary(b, "block") for b in blocks]
    if len(blocks) != d:
        raise DimensionMismatch(f"need {d} blocks, got {len(blocks)}")
    if any(b.shape != (k, k) for b in blocks):
        raise DimensionMismatch(f"blocks must be {k}x{k}")
    if coherence_mode not in ("full", "none"):
        raise ValueError(f"coherence_mode must be 'full' or 'none', got {coherence_mode!r}")
    big = k * d
    f = _fourier(k)
    u = np.zeros((big, big), dtype=np.complex128)
    for j, blk in enumerate(blocks):
        u[j * k : (j + 1) * k, j * k : (j + 1) * k] = blk

    # row j of an operator reads block j through the bra of local Fourier
    # vector i: one operator per i, or per (i, j) when coherences are cut
    levels = np.arange(d)
    if coherence_mode == "full":
        ops = np.zeros((k, d, d, k), dtype=np.complex128)
        ops[:, levels, levels] = f.conj().T[:, None]
        gs = [blocks[0].conj().T @ b_j for b_j in blocks[1:]]
        ok = all(frob(g - np.trace(g) / k * np.eye(k)) <= 1e-9 for g in gs)
        expected = COMPATIBLE if ok else INCOMPATIBLE
        notes = "compatible iff all blocks coincide in their local Fourier bases up to a phase"
    else:
        ops = np.zeros((k, d, d, d, k), dtype=np.complex128)
        ops[:, levels, levels, levels] = f.conj().T[:, None]
        expected = COMPATIBLE
        notes = "decohered image keeps only block populations; any block-diagonal unitary passes"

    return NamedScenario(
        name=name,
        scenario=Scenario(KrausChannel(ops.reshape(-1, d, big)), u),
        expected=expected,
        notes=notes,
    )


def spin_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular momentum matrices (Jx, Jy, Jz) for spin (dim-1)/2, hbar = 1.

    Basis ordered by descending Jz eigenvalue, ladder construction.
    """
    _require_count("dim", dim, 2)
    j = (dim - 1) / 2
    m = np.arange(j, -j - 1, -1.0)
    jz = np.diag(m).astype(np.complex128)
    jp = np.zeros((dim, dim), dtype=np.complex128)
    for r in range(dim - 1):
        jp[r, r + 1] = np.sqrt(j * (j + 1) - m[r + 1] * (m[r + 1] + 1))
    jm = jp.conj().T
    return (jp + jm) / 2, (jp - jm) / 2j, jz


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def _spin_rotation(alpha, n, j) -> np.ndarray:
    """exp(-i alpha <J, n>) for the three Hermitian generators J, if alpha is
    a finite real number (not a bool) and n three finite real components of
    unit norm within 1e-12; ValueError otherwise."""
    n_vec = np.asarray(n, dtype=np.complex128).ravel()
    if not (isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
            and abs(alpha) <= sys.float_info.max and n_vec.size == 3 and np.isfinite(n_vec).all()
            and not n_vec.imag.any() and abs(np.linalg.norm(n_vec) - 1.0) <= 1e-12):
        raise ValueError(f"need a finite real angle and a unit 3-vector, got {alpha!r}, {n!r}")
    x, y, z = n_vec.real
    h = alpha * (x * j[0] + y * j[1] + z * j[2])
    w, v = np.linalg.eigh(hermitize(h))
    return (v * np.exp(-1j * w)) @ v.conj().T


def spin_dichotomization(dim: int, alpha: float, n, name: str = "spin") -> NamedScenario:
    """Map a spin-(dim-1)/2 system onto a qubit through its J expectations.

    The map rho -> (tr rho I + c sum_i tr(J_i rho) sigma_i)/2, c = 2/(dim-1),
    has the Choi matrix (I + c sum_i J_i^T (x) sigma_i)/2, input factor
    major; the microscopic dynamics is the rotation exp(-i alpha <J, n>).
    Because J expectations rotate as a vector, the induced qubit dynamics
    is the rotation by the same angle, exp(-i (alpha/2) <sigma, n>).

    ChoiMatrix checks complete positivity of the dichotomization and raises
    NotCP when it fails for the requested dimension.
    """
    jx, jy, jz = spin_matrices(dim)
    u = _spin_rotation(alpha, n, (jx, jy, jz))
    coeff = 2.0 / (dim - 1)
    m = 2 * dim
    # the closed form, with each J_i^T (x) sigma_i one broadcast product
    choi = 0.5 * (np.eye(m, dtype=np.complex128) + coeff * sum(
        (j.T[:, None, :, None] * s[None, :, None, :]).reshape(m, m)
        for s, j in zip(_PAULI, (jx, jy, jz))))
    cg = choi_to_kraus(ChoiMatrix(dim, 2, choi))
    return NamedScenario(
        name=name,
        scenario=Scenario(cg, u),
        expected=COMPATIBLE,
        notes="effective dynamics: conjugation by exp(-i alpha/2 <sigma, n>)",
    )


def emergent_spin_rotation(alpha: float, n) -> np.ndarray:
    """The qubit rotation the dichotomized spin system inherits."""
    return _spin_rotation(alpha, n, [s / 2 for s in _PAULI])


def random_scenario(big_dim: int, small_dim: int, kraus_count: int, seed: int) -> NamedScenario:
    """Haar-random coarse-graining and unitary; deterministic in seed."""
    _require_count("big_dim", big_dim, 1)
    _require_count("small_dim", small_dim, 1)
    _require_count("kraus_count", kraus_count, 1)
    _require_count("seed", seed, 0)
    if small_dim > big_dim:
        raise DimensionMismatch("small_dim must not exceed big_dim")
    rng = np.random.default_rng(seed)
    cg = KrausChannel(random_kraus_ops(big_dim, small_dim, kraus_count, rng))
    u = haar_unitary(big_dim, rng)
    return NamedScenario(
        name=f"random-D{big_dim}-d{small_dim}-k{kraus_count}-s{seed}",
        scenario=Scenario(cg, u),
        expected=UNKNOWN,
    )


def random_planted_scenario(small_dim: int, env_dim: int, seed: int) -> NamedScenario:
    """Scenario engineered to satisfy the single-V intertwining identity.

    The coarse-graining is an environment trace in a Haar-rotated frame and
    the microscopic unitary acts as a random V on the system factor of that
    frame, so ``M_k u == V M_k`` holds exactly by construction.
    """
    _require_count("small_dim", small_dim, 1)
    _require_count("env_dim", env_dim, 1)
    _require_count("seed", seed, 0)
    big_dim = small_dim * env_dim
    rng = np.random.default_rng(seed)
    w = haar_unitary(big_dim, rng)
    v = haar_unitary(small_dim, rng)
    ops = w.reshape(small_dim, env_dim, big_dim).swapaxes(0, 1)
    u = w.conj().T @ np.kron(v, np.eye(env_dim)) @ w
    return NamedScenario(
        name=f"planted-d{small_dim}-e{env_dim}-s{seed}",
        scenario=Scenario(KrausChannel(ops), u),
        expected=COMPATIBLE,
        notes="intertwining matrix planted by construction",
    )


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _in_pm_basis(m: np.ndarray) -> np.ndarray:
    hadamard = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    return hadamard @ m @ hadamard


def _fourier_rotated(block: np.ndarray) -> np.ndarray:
    f2 = _fourier(2)
    return f2 @ _rotation(np.pi / 3) @ f2.conj().T @ block


_BUILDERS = {
    # phases on |+>,|-> of span{|1>,|2>}: eigenvectors preserved
    "example1-compatible": lambda n: example1(
        _in_pm_basis(np.diag(np.exp(1j * np.array([np.pi / 3, -np.pi / 5])))), name=n),
    # rotation by pi/4 between |+> and |->: eigenvectors mixed
    "example1-incompatible": lambda n: example1(_in_pm_basis(_rotation(np.pi / 4)), name=n),
    "example2-compatible": lambda n: example2(2, 2, [_rotation(0.4)] * 2, "full", name=n),
    "example2-incompatible": lambda n: example2(
        2, 2, [_rotation(0.4), _fourier_rotated(_rotation(0.4))], "full", name=n),
    "spin-d3": lambda n: spin_dichotomization(3, np.pi / 2, (0.0, 0.0, 1.0), name=n),
}


def registry(name: str | None = None) -> dict[str, NamedScenario]:
    """The built-in named scenarios, keyed by their CLI identifiers.

    With ``name``, only that entry is built (an empty dict when no entry
    has that name); no other entry's matrices are evaluated.
    """
    if name is None:
        return {n: build(n) for n, build in _BUILDERS.items()}
    return {name: _BUILDERS[name](name)} if name in _BUILDERS else {}
