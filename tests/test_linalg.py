import numpy as np
import pytest

from coarsekit import linalg
from coarsekit.channel import ChoiMatrix, KrausChannel, apply, unitary_channel
from coarsekit.compat import Scenario
from coarsekit.errors import DimensionMismatch, NotUnitary
from coarsekit.scenarios import example1, example2


def rand_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_vec_convention():
    # column stacking: vec(A X B) == kron(B.T, A) vec(X)
    rng = np.random.default_rng(0)
    a, x, b = (rand_complex(rng, 3) for _ in range(3))
    lhs = (a @ x @ b).flatten(order="F")
    rhs = np.kron(b.T, a) @ x.flatten(order="F")
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_kernel_basis():
    rng = np.random.default_rng(13)
    a = rand_complex(rng, 2, 5)
    ker = linalg.kernel_basis(a)
    assert ker.shape == (5, 3)
    assert np.linalg.norm(a @ ker) < 1e-10
    assert linalg.frob(ker.conj().T @ ker - np.eye(3)) < 1e-10
    assert linalg.kernel_basis(np.eye(4)).shape == (4, 0)



# every constructor that takes a unitary, and the name it gives the matrix
UNITARY_TAKERS = {
    "Scenario": (lambda u: Scenario(KrausChannel([np.eye(2)]), u), "microscopic dynamics"),
    "unitary_channel": (unitary_channel, "u"),
    "example1": (example1, "u2"),
    "example2": (lambda u: example2(2, 2, [np.eye(2), u]), "block"),
}


class TestRequireUnitary:
    """``require_unitary`` is the one unitarity check; every constructor that
    takes a unitary goes through it and names the matrix it rejects."""

    @pytest.mark.parametrize("bad", [np.diag([1.0, 0.5]), np.eye(2, 3)],
                             ids=["non-unitary", "non-square"])
    @pytest.mark.parametrize("taker", sorted(UNITARY_TAKERS))
    def test_rejects_and_names_the_matrix(self, taker, bad):
        build, what = UNITARY_TAKERS[taker]
        with pytest.raises(NotUnitary, match=f"^{what} must be unitary$"):
            build(bad)

    @pytest.mark.parametrize("taker", sorted(UNITARY_TAKERS))
    def test_accepts_a_unitary(self, taker):
        build, _ = UNITARY_TAKERS[taker]
        build(np.array([[0, 1j], [1j, 0]]))

    def test_scenario_size_mismatch_comes_first(self):
        # a square u of the wrong size, and not unitary either
        with pytest.raises(DimensionMismatch):
            Scenario(KrausChannel([np.eye(2)]), 2 * np.eye(3))

    def test_tolerance(self):
        u = np.diag([1.0, np.exp(0.3j)])
        assert np.array_equal(linalg.require_unitary(u, "u"), u)
        # stretching one column by 1 + e moves ||u*u - I||_F by about 2 e
        linalg.require_unitary(u @ np.diag([1 + 0.4 * linalg.UNITARY_TOL, 1.0]), "u")
        with pytest.raises(NotUnitary):
            linalg.require_unitary(u @ np.diag([1 + 0.6 * linalg.UNITARY_TOL, 1.0]), "u")

    def test_a_gram_that_overflows_is_rejected(self):
        # u is finite, but u*u holds inf - inf = NaN, so its deviation from I
        # is NaN, which no tolerance accepts
        u = np.diag([1e200 * (1 + 1j), 1.0])
        with pytest.raises(NotUnitary, match="must be unitary"):
            linalg.require_unitary(u, "u")
        with pytest.raises(ValueError, match="not trace preserving"):
            KrausChannel([u])


@pytest.mark.parametrize("a", [1.0, np.zeros(3), np.zeros((2, 2, 2))], ids=["0-d", "1-d", "3-d"])
def test_asmatrix_takes_only_matrices(a):
    with pytest.raises(DimensionMismatch, match="expected a matrix"):
        linalg.asmatrix(a)


# every check that scans a complex matrix for NaN/Inf, with a matrix it accepts
FINITE_TAKERS = {
    "asmatrix": (linalg.asmatrix, np.eye(2)),
    "require_unitary": (lambda m: linalg.require_unitary(m, "u"), np.eye(2)),
    "apply": (lambda rho: apply(KrausChannel([np.eye(2)]), rho), np.eye(2) / 2),
    "ChoiMatrix": (lambda m: ChoiMatrix(2, 2, m), np.eye(4) / 2),
    "Scenario": (lambda u: Scenario(KrausChannel([np.eye(2)]), u), np.eye(2)),
}


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("taker", sorted(FINITE_TAKERS))
def test_one_scan_rejects_a_non_finite_part(taker, bad, part):
    # one isfinite over the complex array: an entry is finite iff both parts are
    build, good = FINITE_TAKERS[taker]
    build(good)
    m = good.astype(np.complex128)
    m[0, 1] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with pytest.raises(ValueError, match="NaN or Inf"):
        build(m)
