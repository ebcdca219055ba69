import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsekit import channel as qc
from coarsekit.errors import (DimensionMismatch, NotCP, NotEquivalent, NotHermitian, NotUnitary,
                             NumericalFailure)
from coarsekit.linalg import RANK_TOL, frob, hermitize
from coarsekit.rand import haar_unitary, random_density_mat, random_kraus_ops

from builders import tr_in

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
    @pytest.mark.parametrize(
        "mat, error, message",
        [
            # a qubit channel's Choi matrix is 4 x 4
            (np.eye(3), DimensionMismatch, "expected"),
            (np.eye(4) / 2 + np.triu(np.ones((4, 4)), 1) * 0.1, NotHermitian, "Hermitian"),
            # PSD but its output trace is 2 per input, not 1
            (np.eye(4), ValueError, "partial trace"),
            # the transpose map's Choi matrix, the swap: trace preserving, eigenvalue -1
            (np.eye(4)[[0, 2, 1, 3]], NotCP, "eigenvalue"),
            (np.where(np.eye(4) > 0, np.nan, 0.0), ValueError, "NaN or Inf"),
        ],
        ids=["non-square", "non-hermitian", "non-tp", "non-cp", "nan"],
    )
    def test_choi_matrix_invariants(self, mat, error, message):
        with pytest.raises(error, match=message):
            qc.ChoiMatrix(2, 2, mat)

    def test_kraus_channel_requires_tp(self):
        with pytest.raises(ValueError):
            qc.KrausChannel([np.eye(2) * 0.5])
        qc.KrausChannel([np.eye(2) * 0.5], require_tp=False)

    def test_kraus_shapes_must_match(self):
        with pytest.raises(DimensionMismatch):
            qc.KrausChannel([np.eye(2), np.zeros((3, 2))])

    def test_kraus_entries_must_be_numbers(self):
        # one shape, so the conversion's own error is the one raised
        with pytest.raises(ValueError, match="complex"):
            qc.KrausChannel([[["a"]]])

    @pytest.mark.parametrize("tp_tol", [qc.TP_TOL, 10 * qc.TP_TOL])
    def test_kraus_tp_tolerance(self, tp_tol):
        ops = random_kraus_ops(2, 2, 3, np.random.default_rng(0))
        # stretching one input by 1 + e moves ||sum K*K - I||_F by about 2 e
        qc.KrausChannel(ops @ np.diag([1 + 0.4 * tp_tol, 1.0]), tp_tol=tp_tol)
        with pytest.raises(ValueError, match="not trace preserving"):
            qc.KrausChannel(ops @ np.diag([1 + 0.6 * tp_tol, 1.0]), tp_tol=tp_tol)

    def test_choi_tp_tolerance(self):
        j = rand_channel(2, 2, 3, 0).choi.mat

        def stretched(e):
            # the congruence by D x I, D = diag(1 + e, 1), acts on the input factor
            # and keeps J PSD, so tr_out moves to D^2, about 2 e from the identity
            big = np.kron(np.diag([1 + e, 1.0]), np.eye(2))
            return big @ j @ big

        qc.ChoiMatrix(2, 2, stretched(0.4 * qc.CHOI_TP_TOL))
        with pytest.raises(ValueError, match="partial trace"):
            qc.ChoiMatrix(2, 2, stretched(0.6 * qc.CHOI_TP_TOL))

    @pytest.mark.parametrize("layout", [np.asarray, np.asfortranarray, lambda j: j.T],
                             ids=["c-order", "f-order", "transpose"])
    def test_choi_tp_check_ignores_memory_layout(self, layout):
        # J.T = conj(J) is the Choi matrix of the conjugate channel, also CPTP;
        # the partial trace of a column-major J comes out column-major
        qc.ChoiMatrix(2, 2, layout(rand_channel(2, 2, 3, 0).choi.mat))
        with pytest.raises(ValueError, match="partial trace"):
            qc.ChoiMatrix(2, 2, layout(np.zeros((4, 4))))

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
        rho = np.array([[0.25, 0.1], [0.1, 0.75]])
        assert frob(qc.apply(ch, rho) - rho) < 1e-14

    def test_example1_on_basis_states(self):
        ch = qc.KrausChannel(example1_kraus())
        e = np.eye(3)
        out0 = qc.apply(ch, np.outer(e[0], e[0]))
        assert frob(out0 - np.diag([1.0, 0.0])) < 1e-12
        # |2><2| feeds both Kraus operators, each landing on |1><1| with weight 1/2
        out2 = qc.apply(ch, np.outer(e[2], e[2]))
        k0, k1 = example1_kraus()
        e22 = np.zeros((3, 3))
        e22[2, 2] = 1.0
        oracle = k0 @ e22 @ k0.conj().T + k1 @ e22 @ k1.conj().T
        assert frob(out2 - oracle) < 1e-14
        assert frob(out2 - np.diag([0.0, 1.0])) < 1e-12

    def test_dimension_mismatch(self):
        ch = qc.KrausChannel(example1_kraus())
        with pytest.raises(DimensionMismatch):
            qc.apply(ch, np.eye(2) / 2)


class TestUnitaryChannel:
    def test_identity(self):
        ch = qc.unitary_channel(np.eye(2))
        assert len(ch.kraus) == 1

    def test_pauli_x_swaps(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        ch = qc.unitary_channel(x)
        out = qc.apply(ch, np.diag([1.0, 0.0]))
        assert frob(out - np.diag([0.0, 1.0])) < 1e-14

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

    def test_choi_to_kraus_phase_survives_rounding_among_tied_entries(self):
        # every entry of the Hadamard has modulus 1/sqrt(2), so rounding alone
        # would pick the pivot; the first entry in flat order is taken instead
        choi = qc.unitary_channel(np.array([[1, 1], [1, -1]]) / S2).choi.mat
        want = qc.choi_to_kraus(qc.ChoiMatrix(2, 2, choi)).kraus[0]
        assert frob(want - np.array([[1, 1], [1, -1]]) / S2) < 1e-12
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            noise = (g + g.conj().T) / frob(g + g.conj().T)
            got = qc.choi_to_kraus(qc.ChoiMatrix(2, 2, choi + 1e-15 * noise))
            assert len(got.kraus) == 1
            assert frob(got.kraus[0] - want) <= 1e-12

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

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_choi_to_kraus_reads_the_hermitian_part_eigh(self, d):
        # an anti-Hermitian perturbation within the 1e-10 Hermiticity bound,
        # which eigh of m itself (it reads one triangle) would see
        rng = np.random.default_rng(d)
        m = rand_channel(d, d, 3, d).choi.mat.copy()
        g = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        m += 0.2e-10 * max(1.0, frob(m)) * (g - g.conj().T) / frob(g - g.conj().T)
        got = qc.choi_to_kraus(qc.ChoiMatrix(d, d, m)).kraus
        # the operators built from eigh(hermitize(m)), as choi_to_kraus builds them
        w, v = np.linalg.eigh(hermitize(m))
        keep = w > RANK_TOL * w.max()
        vecs = (v[:, keep] * np.sqrt(w[keep])).T
        flat = vecs.reshape(-1, d, d).swapaxes(1, 2).reshape(len(vecs), -1)
        mod = np.abs(flat)
        pivot = flat[np.arange(len(flat)), np.argmax(
            mod >= (1 - qc.PHASE_TIE_RTOL) * mod.max(axis=1, keepdims=True), axis=1)]
        phase = pivot.conj() / np.hypot(pivot.real, pivot.imag)
        want = (flat * phase[:, None]).reshape(-1, d, d)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert d == 1 or not np.array_equal(np.linalg.eigh(m)[1], v)


class TestTransfer:
    def test_identity(self):
        t = qc.KrausChannel([np.eye(2)]).transfer_mat
        assert frob(t - np.eye(4)) < 1e-14

    def test_unitary_form(self):
        u = haar_unitary(3, np.random.default_rng(1))
        t = qc.unitary_channel(u).transfer_mat
        assert frob(t - np.kron(u.conj(), u)) < 1e-14

    def test_agrees_with_apply(self):
        ch = qc.KrausChannel(example2_kraus())
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10):
            rho = random_density_mat(4, rng)
            via_transfer = (ch.transfer_mat @ rho.flatten(order="F")).reshape(2, 2, order="F")
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
        contracted = tr_in(ch.choi.mat @ np.kron(rho.T, np.eye(2)), 3, 2)
        direct = sum(k @ rho @ k.conj().T for k in ch.kraus)
        assert frob(contracted - direct) < 1e-9


def _real_coords(x):
    """y(X) = vec(Re X + Im X), column-stacked, for a Hermitian X."""
    return (x.real + x.imag).flatten(order="F")


def _from_real_coords(y, n):
    """The Hermitian X = sym(Y) + i antisym(Y) with Y = unvec(y)."""
    m = y.reshape(n, n, order="F")
    return (m + m.T) / 2 + 1j * (m - m.T) / 2


@settings(max_examples=80)
@given(
    din=st.integers(1, 6),
    dout=st.integers(1, 6),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_real_transfer_matrix_acts_on_hermitian_coordinates(din, dout, k, seed):
    # any Kraus stack, TP or not, maps Hermitian to Hermitian operators
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((k, dout, 2 * din)).view(np.complex128)
    g = rng.standard_normal((din, 2 * din)).view(np.complex128)
    x = g + g.conj().T
    t_r = qc.kraus_to_real_transfer_mat(ops)
    assert t_r.dtype == np.float64 and t_r.shape == (dout * dout, din * din)
    image = sum(m @ x @ m.conj().T for m in ops)
    got = _from_real_coords(t_r @ _real_coords(x), dout)
    assert frob(got - image) <= 1e-12 * max(1.0, frob(image))
    # the coordinates are an isometry, and C y is the vec of the operator
    assert abs(np.linalg.norm(_real_coords(x)) - frob(x)) <= 1e-12 * frob(x)
    vec_x = x.flatten(order="F")
    assert np.linalg.norm(qc.vec_from_real(_real_coords(x), din) - vec_x) <= 1e-12 * frob(x)
    # T_R = C_out* T C_in: the same singular values as the complex T
    want = np.linalg.svd(qc.KrausChannel(ops, require_tp=False).transfer_mat, compute_uv=False)
    sv = np.linalg.svd(t_r, compute_uv=False)
    assert np.abs(sv - want).max() <= 1e-12 * max(1.0, want[0])


def test_vec_from_real_is_unitary_column_by_column():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        c = qc.vec_from_real(np.eye(n * n), n)
        assert frob(c.conj().T @ c - np.eye(n * n)) <= 1e-14
        # one vector and a stack of columns agree, and a stack's image is the
        # product with C bit for bit, the signs of its zero parts included
        for m in (1, 2, n * n, 3 * n * n + 1):
            y = rng.standard_normal((n * n, m))
            got = qc.vec_from_real(y, n)
            assert np.array_equal(got, c @ y)
            assert np.array_equal(np.signbit(got.view(float)), np.signbit((c @ y).view(float)))
            assert np.abs(qc.vec_from_real(y[:, -1], n) - got[:, -1]).max() <= 1e-15


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

    def test_channels_between_different_spaces_raise(self):
        with pytest.raises(DimensionMismatch, match="different spaces"):
            qc.channels_equal(rand_channel(3, 2, 2, 33), rand_channel(2, 2, 2, 34))

    def test_different_channels(self):
        ident = qc.KrausChannel([np.eye(2)])
        flip = qc.unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))
        assert not qc.channels_equal(ident, flip)

    @pytest.mark.parametrize("seed", range(6))
    def test_distance_is_the_choi_distance(self, seed):
        # the oracle: Choi matrices built from vec(K) outer products
        def choi(ch):
            vecs = [op.flatten(order="F") for op in ch.kraus]
            return sum(np.outer(v, v.conj()) for v in vecs)

        din, dout = [(2, 2), (3, 2), (4, 3)][seed % 3]
        a = rand_channel(din, dout, 2 + seed % 3, 400 + seed)
        b = rand_channel(din, dout, 3, 500 + seed)
        # a second pair a small step apart, so the distance lands near tol
        near = qc.KrausChannel([np.sqrt(1 - 1e-9) * op for op in a.kraus]
                               + [np.sqrt(1e-9) * op for op in b.kraus])
        for x, y in ((a, b), (a, near)):
            want = frob(choi(x) - choi(y))
            assert abs(frob(x.transfer_mat - y.transfer_mat) - want) <= 1e-12
            assert qc.channels_equal(x, y, tol=2 * want)
            assert not qc.channels_equal(x, y, tol=want / 2)

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

    def test_equal_channels_that_no_unitary_connects_fail(self):
        # {I} and {sqrt(1-e) I, sqrt(e) Z} are equal within tol (their
        # transfer matrices differ by 2 sqrt(2) e), but the best unitary
        # leaves a residual near sqrt(2 e) = 4.5e-5, past the bound 10 tol
        eps = 1e-9
        a = qc.KrausChannel([np.eye(2)])
        b = qc.KrausChannel([np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * np.diag([1.0, -1.0])])
        assert qc.channels_equal(a, b)
        with pytest.raises(NumericalFailure, match="connecting unitary residual"):
            qc.connecting_unitary(a, b)


@st.composite
def _planted_mixings(draw):
    """A random Kraus set b of k operators, d_out x d_in, and the set a that a
    Haar unitary W0 mixes it into, plus noise of relative size 1e-9 and a
    renormalization to TP.  k <= d_in d_out keeps b's vecs independent."""
    din, dout = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(-(-din // dout), din * dout))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    b = qc.KrausChannel(random_kraus_ops(din, dout, k, rng))
    w0 = haar_unitary(k, rng)
    ops = np.tensordot(w0, b.kraus, axes=1)
    g = rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape)
    ops = ops + 1e-9 * frob(ops.reshape(k, -1)) / frob(g.reshape(k, -1)) * g
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", ops.conj(), ops))
    return qc.KrausChannel(ops @ ((v / np.sqrt(w)) @ v.conj().T)), b, w0


@settings(max_examples=300)
@given(_planted_mixings())
def test_connecting_unitary_is_the_least_squares_unitary(planted):
    # W minimizes ||Va - Vb W^T||_F over all unitaries, so it does at least as
    # well as the planted W0, up to rounding.  The computed W is the exact
    # polar factor of M = Vb* Va perturbed by dM, ||dM||_F <= m eps ||Vb||_F
    # ||Va||_F with m = d_in d_out + k (forming M, then its SVD); Li's bound
    # moves the polar factor by at most ||dM||_F / sigma_min(M), which moves
    # the residual by at most ||Vb||_2 times that.  Evaluating a residual
    # adds m eps ||Vb||_F sqrt(k) at most.  A backward-stable SVD returns P
    # and Q unitary to a small multiple of k eps, and each product adds k eps;
    # 10 k eps covers it (the worst of 3000 draws was 4.6 k eps).
    a, b, w0 = planted
    va, vb = (qc._vecs(ch.kraus).T for ch in (a, b))
    k, m = len(b), va.shape[0] + len(b)
    eps = np.finfo(float).eps
    w = qc.connecting_unitary(a, b)
    assert frob(w.conj().T @ w - np.eye(k)) <= 10 * k * eps
    sigma_min = np.linalg.svd(vb.conj().T @ va, compute_uv=False)[-1]
    rounding = m * eps * frob(vb) * (
        np.linalg.norm(vb, 2) * frob(va) / sigma_min + 2 * np.sqrt(k))
    assert frob(va - vb @ w.T) <= frob(va - vb @ w0.T) + rounding
