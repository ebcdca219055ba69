import numpy as np
import pytest

from coarsekit import channel as qc
from coarsekit.errors import DimensionMismatch, NotCP, NotEquivalent, NotUnitary
from coarsekit.linalg import frob, partial_trace, vec
from coarsekit.rand import haar_unitary, random_density_mat, random_kraus_ops

S2 = np.sqrt(2.0)


def example1_kraus():
    k0 = np.array([[1, 0, 0], [0, 1 / S2, 1 / S2]], dtype=complex)
    k1 = np.array([[0, 0, 0], [0, 1 / S2, -1 / S2]], dtype=complex)
    return [k0, k1]


def example2_kraus():
    k0 = np.array(
        [[1 / S2, 1 / S2, 0, 0], [0, 0, 1 / S2, 1 / S2]], dtype=complex
    )
    k1 = np.array(
        [[1 / S2, -1 / S2, 0, 0], [0, 0, 1 / S2, -1 / S2]], dtype=complex
    )
    return [k0, k1]


def rand_channel(din, dout, n_kraus, seed):
    rng = np.random.default_rng(seed)
    return qc.KrausChannel(random_kraus_ops(din, dout, n_kraus, rng))


class TestValidation:
    def test_density_matrix(self):
        rho = qc.DensityMatrix(np.eye(2) / 2)
        assert rho.dim == 2
        with pytest.raises(ValueError):
            qc.DensityMatrix(np.diag([0.5, 0.6]))
        with pytest.raises(ValueError):
            qc.DensityMatrix(np.diag([1.5, -0.5]))

    def test_kraus_channel_requires_tp(self):
        with pytest.raises(ValueError):
            qc.KrausChannel([np.eye(2) * 0.5])
        qc.KrausChannel([np.eye(2) * 0.5], require_tp=False)

    def test_kraus_shapes_must_match(self):
        with pytest.raises(DimensionMismatch):
            qc.KrausChannel([np.eye(2), np.zeros((3, 2))])

    def test_random_channels_are_cptp(self):
        for seed in range(8):
            ch = rand_channel(3, 2, 3, seed)
            gram = sum(k.conj().T @ k for k in ch.kraus)
            assert frob(gram - np.eye(3)) < 1e-9
            w = np.linalg.eigvalsh(ch.choi.mat)
            assert w.min() > -1e-8


class TestApply:
    def test_identity(self):
        ch = qc.KrausChannel([np.eye(2)])
        rho = qc.DensityMatrix(np.array([[0.25, 0.1], [0.1, 0.75]]))
        assert frob(qc.apply(ch, rho).mat - rho.mat) < 1e-14

    def test_example1_on_basis_states(self):
        ch = qc.KrausChannel(example1_kraus())
        out0 = qc.apply(ch, qc.DensityMatrix.pure([1, 0, 0]))
        assert frob(out0.mat - np.diag([1.0, 0.0])) < 1e-12
        # |2><2| feeds both Kraus operators, each landing on |1><1| with weight 1/2
        out2 = qc.apply(ch, qc.DensityMatrix.pure([0, 0, 1]))
        k0, k1 = example1_kraus()
        e22 = np.zeros((3, 3))
        e22[2, 2] = 1.0
        oracle = k0 @ e22 @ k0.conj().T + k1 @ e22 @ k1.conj().T
        assert frob(out2.mat - oracle) < 1e-14
        assert frob(out2.mat - np.diag([0.0, 1.0])) < 1e-12

    def test_dimension_mismatch(self):
        ch = qc.KrausChannel(example1_kraus())
        with pytest.raises(DimensionMismatch):
            qc.apply(ch, qc.DensityMatrix(np.eye(2) / 2))


class TestUnitaryChannel:
    def test_identity(self):
        ch = qc.unitary_channel(np.eye(2))
        assert len(ch.kraus) == 1

    def test_pauli_x_swaps(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        ch = qc.unitary_channel(x)
        out = qc.apply(ch, qc.DensityMatrix(np.diag([1.0, 0.0])))
        assert frob(out.mat - np.diag([0.0, 1.0])) < 1e-14

    def test_spin1_z_rotation_phases(self):
        # exp(-i alpha Jz) for spin 1, alpha = pi/2
        jz = np.diag([1.0, 0.0, -1.0])
        w, v = np.linalg.eigh(jz)
        u = (v * np.exp(-1j * np.pi / 2 * w)) @ v.conj().T
        expected = np.diag([np.exp(-1j * np.pi / 2), 1.0, np.exp(1j * np.pi / 2)])
        assert frob(u - expected) < 1e-12
        qc.unitary_channel(u)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            qc.unitary_channel(np.diag([1.0, 0.5]))


class TestChoi:
    def test_identity_choi(self):
        choi = qc.kraus_to_choi(qc.KrausChannel([np.eye(2)]))
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[i * 2 + i, j * 2 + j] = 1.0
        assert frob(choi.mat - expected) < 1e-14

    def test_depolarizing_choi(self):
        ops = []
        for i in range(2):
            for j in range(2):
                op = np.zeros((2, 2), dtype=complex)
                op[i, j] = 1 / S2
                ops.append(op)
        choi = qc.kraus_to_choi(qc.KrausChannel(ops))
        assert frob(choi.mat - np.eye(4) / 2) < 1e-14

    def test_example1_choi_trace_and_rank(self):
        choi = qc.kraus_to_choi(qc.KrausChannel(example1_kraus()))
        assert abs(np.trace(choi.mat).real - 3.0) < 1e-12
        w = np.linalg.eigvalsh(choi.mat)
        assert np.sum(w > 1e-10) == 2
        assert w.min() > -1e-12

    def test_choi_to_kraus_identity(self):
        ch = qc.choi_to_kraus(qc.kraus_to_choi(qc.KrausChannel([np.eye(2)])))
        assert len(ch.kraus) == 1
        # phase fixed: largest entry real positive
        assert frob(ch.kraus[0] - np.eye(2)) < 1e-12

    def test_choi_to_kraus_depolarizing_count(self):
        ch = qc.choi_to_kraus(qc.ChoiMatrix(2, 2, np.eye(4) / 2))
        assert len(ch.kraus) == 4

    def test_round_trip_random(self):
        for seed in range(10):
            ch = rand_channel(2, 2, 3, seed)
            back = qc.choi_to_kraus(ch.choi)
            assert frob(back.choi.mat - ch.choi.mat) < 1e-8

    def test_round_trip_rectangular(self):
        for din, dout in [(2, 2), (3, 2), (4, 3)]:
            ch = rand_channel(din, dout, 2, din * 10 + dout)
            back = qc.choi_to_kraus(ch.choi)
            assert frob(back.choi.mat - ch.choi.mat) < 1e-8

    def test_not_cp(self):
        with pytest.raises(NotCP):
            qc.ChoiMatrix(2, 2, np.diag([1.5, -0.5, 1.0, 1.0]))


class TestTransfer:
    def test_identity(self):
        t = qc.transfer(qc.KrausChannel([np.eye(2)]))
        assert frob(t.mat - np.eye(4)) < 1e-14

    def test_unitary_form(self):
        u = haar_unitary(3, np.random.default_rng(1))
        t = qc.transfer(qc.unitary_channel(u))
        assert frob(t.mat - np.kron(u.conj(), u)) < 1e-14

    def test_agrees_with_apply(self):
        ch = qc.KrausChannel(example2_kraus())
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10):
            rho = random_density_mat(4, rng)
            via_transfer = (ch.transfer_mat @ vec(rho)).reshape(2, 2, order="F")
            direct = sum(k @ rho @ k.conj().T for k in ch.kraus)
            worst = max(worst, frob(via_transfer - direct))
        assert worst < 1e-10

    def test_reshuffle_consistency(self):
        for seed, (din, dout) in enumerate([(2, 2), (3, 2), (4, 3)]):
            ch = rand_channel(din, dout, 2, 40 + seed)
            choi_via_reshuffle = qc.transfer_to_choi_mat(ch.transfer_mat, din, dout)
            assert frob(choi_via_reshuffle - ch.choi.mat) < 1e-12
            back = qc.choi_to_transfer_mat(ch.choi.mat, din, dout)
            assert frob(back - ch.transfer_mat) < 1e-12

    def test_choi_contraction_agrees(self):
        # applying via the Choi matrix: tr_in(J (rho^T x I))
        ch = rand_channel(3, 2, 2, 77)
        rng = np.random.default_rng(78)
        rho = random_density_mat(3, rng)
        contracted = partial_trace(
            ch.choi.mat @ np.kron(rho.T, np.eye(2)), (3, 2), keep="B"
        )
        direct = sum(k @ rho @ k.conj().T for k in ch.kraus)
        assert frob(contracted - direct) < 1e-9


class TestCompose:
    def test_identity_is_neutral(self):
        lam = qc.KrausChannel(example1_kraus())
        comp = qc.compose(qc.KrausChannel([np.eye(2)]), lam)
        assert frob(comp.choi.mat - lam.choi.mat) < 1e-12

    def test_kraus_products(self):
        lam = qc.KrausChannel(example1_kraus())
        u = haar_unitary(3, np.random.default_rng(3))
        comp = qc.compose(lam, qc.unitary_channel(u))
        assert len(comp.kraus) == 2
        for got, m in zip(comp.kraus, lam.kraus):
            assert frob(got - m @ u) < 1e-14

    def test_transfer_homomorphism(self):
        a = rand_channel(3, 2, 2, 5)
        b = rand_channel(4, 3, 2, 6)
        comp = qc.compose(a, b)
        assert frob(comp.transfer_mat - a.transfer_mat @ b.transfer_mat) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qc.compose(rand_channel(3, 2, 2, 7), rand_channel(3, 2, 2, 8))


class TestDual:
    def test_dual_of_unitary(self):
        u = haar_unitary(3, np.random.default_rng(9))
        d = qc.dual(qc.unitary_channel(u))
        assert frob(d.kraus[0] - u.conj().T) < 1e-14

    def test_unitality(self):
        lam = qc.KrausChannel(example1_kraus())
        d = qc.dual(lam)
        out = sum(k @ np.eye(2) @ k.conj().T for k in d.kraus)
        assert frob(out - np.eye(3)) < 1e-12

    def test_adjoint_identity(self):
        lam = qc.KrausChannel(example2_kraus())
        d = qc.dual(lam)
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = random_density_mat(4, rng)
            lhs = np.trace(a @ sum(k @ rho @ k.conj().T for k in lam.kraus))
            rhs = np.trace(sum(k @ a @ k.conj().T for k in d.kraus) @ rho)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_dual_unitality_random(self):
        for seed in range(5):
            ch = rand_channel(4, 2, 3, 20 + seed)
            d = qc.dual(ch)
            out = sum(k @ np.eye(2) @ k.conj().T for k in d.kraus)
            assert frob(out - np.eye(4)) < 1e-9


class TestEquivalence:
    def test_self_equality(self):
        ch = rand_channel(3, 2, 2, 30)
        assert qc.channels_equal(ch, ch)

    def test_mixed_kraus_sets_are_equal(self):
        ch = rand_channel(3, 2, 3, 31)
        w = haar_unitary(3, np.random.default_rng(32))
        mixed = qc.KrausChannel(
            [sum(w[i, j] * ch.kraus[j] for j in range(3)) for i in range(3)]
        )
        assert qc.channels_equal(ch, mixed)

    def test_different_channels(self):
        ident = qc.KrausChannel([np.eye(2)])
        flip = qc.unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))
        assert not qc.channels_equal(ident, flip)

    def test_equivalence_relation_properties(self):
        chans = [rand_channel(2, 2, 2, 50 + k) for k in range(4)]
        for ch in chans:
            assert qc.channels_equal(ch, ch)
        for a in chans:
            for b in chans:
                assert qc.channels_equal(a, b) == qc.channels_equal(b, a)


class TestConnectingUnitary:
    def test_identity_case(self):
        ch = rand_channel(3, 2, 2, 60)
        w = qc.connecting_unitary(ch, ch)
        n = len(ch.kraus)
        assert frob(w.conj().T @ w - np.eye(n)) < 1e-10
        for i in range(n):
            rebuilt = sum(w[i, j] * ch.kraus[j] for j in range(n))
            assert frob(ch.kraus[i] - rebuilt) < 1e-7

    def test_plant_and_recover(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            ch = qc.KrausChannel(random_kraus_ops(3, 2, 3, rng))
            w0 = haar_unitary(3, rng)
            mixed = qc.KrausChannel(
                [sum(w0[i, j] * ch.kraus[j] for j in range(3)) for i in range(3)]
            )
            w = qc.connecting_unitary(mixed, ch)
            assert frob(w.conj().T @ w - np.eye(3)) < 1e-10
            for i in range(3):
                rebuilt = sum(w[i, j] * ch.kraus[j] for j in range(3))
                assert frob(mixed.kraus[i] - rebuilt) < 1e-7

    def test_example1_rotation_mix(self):
        ch = qc.KrausChannel(example1_kraus())
        th = 0.7
        w0 = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
        )
        mixed = qc.KrausChannel(
            [sum(w0[i, j] * ch.kraus[j] for j in range(2)) for i in range(2)]
        )
        w = qc.connecting_unitary(mixed, ch)
        for i in range(2):
            rebuilt = sum(w[i, j] * ch.kraus[j] for j in range(2))
            assert frob(mixed.kraus[i] - rebuilt) < 1e-8

    def test_padding_unequal_lengths(self):
        ch = rand_channel(2, 2, 3, 61)
        squeezed = qc.choi_to_kraus(ch.choi)  # may have fewer operators
        w = qc.connecting_unitary(ch, squeezed)
        n = max(len(ch.kraus), len(squeezed.kraus))
        assert w.shape == (n, n)

    def test_rejects_different_channels(self):
        with pytest.raises(NotEquivalent):
            qc.connecting_unitary(
                qc.KrausChannel([np.eye(2)]),
                qc.unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex)),
            )
