"""The stacked Kraus contract: ``KrausChannel.kraus`` is one read-only
(K, dout, din) array, and every channel operation on it agrees with the
per-operator loop it replaces (kept here as the reference)."""

import numpy as np
import pytest

from coarsekit import channel as qc
from coarsekit.errors import DimensionMismatch
from coarsekit.linalg import RANK_TOL, hermitize
from coarsekit.rand import haar_unitary, random_kraus_ops

# stacked products add the same terms in another order, so results that are
# not bit-identical agree to a few ulps of the operands' scale
ROUNDING = 64 * np.finfo(np.float64).eps


def _loop_compose(later, earlier):
    return [lo @ eo for lo in later.kraus for eo in earlier.kraus]


def _loop_dual(ch):
    return [op.conj().T for op in ch.kraus]


def _loop_choi(ch):
    n = ch.din * ch.dout
    mat = np.zeros((n, n), dtype=np.complex128)
    for op in ch.kraus:
        v = op.flatten(order="F")
        mat += np.outer(v, v.conj())
    return mat


def _loop_apply(ch, rho):
    return sum(op @ rho @ op.conj().T for op in ch.kraus)


def _loop_connecting_unitary(a, b):
    n = max(len(a.kraus), len(b.kraus))
    va, vb = (np.column_stack([op.flatten(order="F") for op in ch.kraus]) for ch in (a, b))
    va, vb = (np.pad(v, ((0, 0), (0, n - v.shape[1]))) for v in (va, vb))
    p, _, qh = np.linalg.svd(vb.conj().T @ va)
    return (p @ qh).T


def _loop_fix_phase(op):
    mod = np.abs(op).ravel()
    if mod.max() == 0:
        return op
    pivot = op.flat[np.argmax(mod >= (1 - qc.PHASE_TIE_RTOL) * mod.max())]
    return op * (pivot.conjugate() / abs(pivot))


def _loop_choi_to_kraus(c, rank_tol=RANK_TOL):
    w, v = np.linalg.eigh(hermitize(c.mat))
    cutoff = rank_tol * max(w.max(), 0.0)
    return [
        _loop_fix_phase((np.sqrt(lam) * v[:, k]).reshape(c.dout, c.din, order="F"))
        for k, lam in enumerate(w)
        if lam > cutoff
    ]


def _channels(seed):
    """A channel din -> dout and one dout -> d3, with random sizes and counts."""
    rng = np.random.default_rng(seed)
    din, dout, d3 = (int(x) for x in rng.integers(1, 6, size=3))
    first = qc.KrausChannel(random_kraus_ops(din, dout, int(rng.integers(-(-din // dout), 7)), rng))
    later = qc.KrausChannel(random_kraus_ops(dout, d3, int(rng.integers(-(-dout // d3), 6)), rng))
    return first, later, rng


def _assert_close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=ROUNDING * scale)


class TestConstruction:
    def test_every_iterable_gives_the_same_channel(self):
        ops = random_kraus_ops(3, 2, 3, np.random.default_rng(0))
        stack = np.array(ops)
        channels = [
            qc.KrausChannel(list(ops)),
            qc.KrausChannel(tuple(ops)),
            qc.KrausChannel(op for op in ops),
            qc.KrausChannel(stack),
        ]
        for ch in channels:
            assert ch.kraus.shape == (3, 2, 3)
            assert ch.kraus.dtype == np.complex128
            assert (ch.din, ch.dout, len(ch)) == (3, 2, 3)
            np.testing.assert_array_equal(ch.kraus, stack)

    def test_read_only_and_not_aliased(self):
        src = np.array(random_kraus_ops(2, 2, 2, np.random.default_rng(1)))
        ch = qc.KrausChannel(src)
        assert not ch.kraus.flags.writeable
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 1.0
        assert not np.shares_memory(ch.kraus, src)
        before = ch.kraus.copy()
        src[:] = 0.0
        np.testing.assert_array_equal(ch.kraus, before)

    def test_strided_input_is_stored_c_contiguous(self):
        ops = np.array(random_kraus_ops(3, 3, 2, np.random.default_rng(2)))
        ch = qc.KrausChannel(ops.swapaxes(1, 2).conj(), require_tp=False)
        assert ch.kraus.flags.c_contiguous
        assert ch.kraus.view(np.float64).shape == (2, 3, 6)

    @pytest.mark.parametrize(
        "ops",
        [
            pytest.param([np.eye(2), np.zeros((3, 2))], id="ragged"),
            pytest.param([np.ones(2)], id="1-d"),
            pytest.param([np.eye(2), np.ones(2)], id="1-d-among-2-d"),
            pytest.param([np.ones((1, 2, 2))], id="3-d"),
        ],
    )
    def test_operators_of_the_wrong_shape(self, ops):
        with pytest.raises(DimensionMismatch):
            qc.KrausChannel(ops, require_tp=False)

    @pytest.mark.parametrize(
        "ops",
        [
            pytest.param([], id="empty-list"),
            pytest.param(iter([]), id="empty-generator"),
            pytest.param(np.zeros((0, 2, 2)), id="empty-stack"),
            pytest.param([np.diag([np.nan, 1.0])], id="nan"),
            pytest.param([np.diag([1.0, np.inf * 1j])], id="inf"),
        ],
    )
    def test_empty_or_non_finite(self, ops):
        with pytest.raises(ValueError) as info:
            qc.KrausChannel(ops, require_tp=False)
        assert not isinstance(info.value, DimensionMismatch)


@pytest.mark.parametrize("seed", range(24))
class TestAgainstTheLoops:
    def test_compose(self, seed):
        first, later, _ = _channels(seed)
        np.testing.assert_array_equal(
            qc.compose(later, first).kraus, np.array(_loop_compose(later, first))
        )

    def test_dual(self, seed):
        first, _, _ = _channels(seed)
        np.testing.assert_array_equal(qc.dual(first).kraus, np.array(_loop_dual(first)))

    def test_kraus_to_choi(self, seed):
        first, _, _ = _channels(seed)
        _assert_close(qc.kraus_to_choi(first).mat, _loop_choi(first))

    def test_apply(self, seed):
        first, _, rng = _channels(seed)
        rho = rng.normal(size=(first.din,) * 2) + 1j * rng.normal(size=(first.din,) * 2)
        _assert_close(qc.apply(first, rho), _loop_apply(first, rho))

    def test_connecting_unitary(self, seed):
        first, _, rng = _channels(seed)
        k = len(first)
        mixed = qc.KrausChannel(np.tensordot(haar_unitary(k, rng), first.kraus, axes=1))
        np.testing.assert_array_equal(
            qc.connecting_unitary(mixed, first), _loop_connecting_unitary(mixed, first)
        )

    def test_choi_to_kraus_bit_for_bit(self, seed):
        first, _, _ = _channels(seed)
        np.testing.assert_array_equal(
            qc.choi_to_kraus(first.choi).kraus, np.array(_loop_choi_to_kraus(first.choi))
        )


def test_choi_to_kraus_tied_pivots_bit_for_bit():
    # every entry of the Hadamard has modulus 1/sqrt(2), and the Choi noise
    # only rounds among them; the phase fix must pick the same pivot
    s2 = np.sqrt(2.0)
    hadamard = qc.unitary_channel(np.array([[1, 1], [1, -1]]) / s2).choi.mat
    # a mixture whose two operators each have tied moduli
    flips = qc.KrausChannel([np.eye(2) / s2, np.array([[0, 1j], [1j, 0]]) / s2]).choi.mat
    rng = np.random.default_rng(3)
    for choi in (hadamard, flips):
        for _ in range(30):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            c = qc.ChoiMatrix(2, 2, choi + 1e-15 * (g + g.conj().T))
            np.testing.assert_array_equal(
                qc.choi_to_kraus(c).kraus, np.array(_loop_choi_to_kraus(c))
            )
