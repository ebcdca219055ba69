import numpy as np
import pytest

from coarsekit import linalg
from coarsekit.errors import DimensionMismatch


def rand_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def rand_hermitian(rng, n):
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2


def test_vec_convention():
    # column stacking: vec(A X B) == kron(B.T, A) vec(X)
    rng = np.random.default_rng(0)
    a, x, b = (rand_complex(rng, 3) for _ in range(3))
    lhs = linalg.vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ linalg.vec(x)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_unvec_roundtrip():
    rng = np.random.default_rng(1)
    m = rand_complex(rng, 2, 5)
    assert np.array_equal(linalg.unvec(linalg.vec(m), 2, 5), m)
    with pytest.raises(DimensionMismatch):
        linalg.unvec(np.arange(5), 2, 2)


class TestPinv:
    def test_invertible(self):
        rng = np.random.default_rng(5)
        a = rand_complex(rng, 2)
        assert linalg.frob(linalg.pinv(a) - np.linalg.inv(a)) < 1e-10

    def test_zero_matrix(self):
        assert np.array_equal(linalg.pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_rank_deficient(self):
        rng = np.random.default_rng(6)
        x = rand_complex(rng, 3, 1)
        y = rand_complex(rng, 2, 1)
        a = x @ y.conj().T
        ap = linalg.pinv(a)
        assert linalg.frob(a @ ap @ a - a) < 1e-8
        assert linalg.frob(ap @ a @ ap - ap) < 1e-8

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_penrose_identities(self, rank):
        rng = np.random.default_rng(10 + rank)
        a = np.zeros((4, 3), dtype=complex)
        for _ in range(rank):
            a += rand_complex(rng, 4, 1) @ rand_complex(rng, 1, 3)
        ap = linalg.pinv(a)
        assert linalg.frob(a @ ap @ a - a) < 1e-8
        assert linalg.frob(ap @ a @ ap - ap) < 1e-8
        assert linalg.frob((a @ ap).conj().T - a @ ap) < 1e-8
        assert linalg.frob((ap @ a).conj().T - ap @ a) < 1e-8


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(8)
        rho = rand_hermitian(rng, 3)
        sigma = rand_hermitian(rng, 2)
        out = linalg.partial_trace(np.kron(rho, sigma), (3, 2), keep="A")
        assert linalg.frob(out - rho * np.trace(sigma)) < 1e-12

    def test_maximally_entangled(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        proj = np.outer(phi, phi.conj())
        assert linalg.frob(linalg.partial_trace(proj, (2, 2), "A") - np.eye(2) / 2) < 1e-12
        assert linalg.frob(linalg.partial_trace(proj, (2, 2), "B") - np.eye(2) / 2) < 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        g = rand_complex(rng, 8)
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        for keep in ("A", "B"):
            out = linalg.partial_trace(rho, (4, 2), keep)
            assert abs(np.trace(out) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(5), (2, 2), "A")


def test_kernel_basis():
    rng = np.random.default_rng(13)
    a = rand_complex(rng, 2, 5)
    ker = linalg.kernel_basis(a)
    assert ker.shape == (5, 3)
    assert np.linalg.norm(a @ ker) < 1e-10
    assert linalg.frob(ker.conj().T @ ker - np.eye(3)) < 1e-10
    assert linalg.kernel_basis(np.eye(4)).shape == (4, 0)
