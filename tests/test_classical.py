import itertools

import numpy as np
import pytest

from coarsekit import classical as cl
from coarsekit.errors import DimensionMismatch, IndexOutOfRange, ZeroMarginal


EYE2 = cl.CondTable(np.eye(2))


def binary_chain():
    return cl.ChainModel(
        pA=[0.5, 0.5],
        pB_given_A=cl.CondTable([[0.9, 0.2], [0.1, 0.8]]),
        pX_given_A=cl.CondTable([[0.8, 0.3], [0.2, 0.7]]),
        pY_given_B=cl.CondTable(np.eye(2)),
    )


def random_chain(rng, n_a, n_b, n_x, n_y):
    def table(rows, cols):
        t = rng.uniform(0.05, 1.0, size=(rows, cols))
        return cl.CondTable(t / t.sum(axis=0))

    pa = rng.uniform(0.05, 1.0, size=n_a)
    return cl.ChainModel(
        pA=pa / pa.sum(),
        pB_given_A=table(n_b, n_a),
        pX_given_A=table(n_x, n_a),
        pY_given_B=table(n_y, n_b),
    )


def enumerate_emergent(m):
    """Independent oracle: sum the joint over (A, B) outcome by outcome."""
    n_a = m.pA.size
    n_b = m.pB_given_A.n_out
    n_x = m.pX_given_A.n_out
    n_y = m.pY_given_B.n_out
    px = np.zeros(n_x)
    joint_yx = np.zeros((n_y, n_x))
    for a, b, x, y in itertools.product(range(n_a), range(n_b), range(n_x), range(n_y)):
        p = (
            m.pY_given_B.p[y, b]
            * m.pB_given_A.p[b, a]
            * m.pX_given_A.p[x, a]
            * m.pA[a]
        )
        joint_yx[y, x] += p
    px = joint_yx.sum(axis=0)
    return joint_yx / px[None, :]


class TestCondTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            cl.CondTable([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(ValueError):
            cl.CondTable([[1.2, 0.0], [-0.2, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_entry_is_rejected(self, bad):
        # a NaN compares false both ways, so it used to pass the range check
        with pytest.raises(ValueError):
            cl.CondTable([[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_chain_rejects_a_non_finite_marginal(self, bad):
        with pytest.raises(ValueError):
            cl.ChainModel(
                pA=np.array([bad, 0.5]),
                pB_given_A=cl.CondTable(np.eye(2)),
                pX_given_A=cl.CondTable(np.eye(2)),
                pY_given_B=cl.CondTable(np.eye(2)),
            )

    def test_model_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            cl.ChainModel(
                pA=[1.0],
                pB_given_A=cl.CondTable(np.eye(2)),
                pX_given_A=cl.CondTable(np.eye(2)),
                pY_given_B=cl.CondTable(np.eye(2)),
            )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: cl.CondTable([0.5, 0.5]), "must be a matrix"),
            (lambda: cl.ChainModel([0.5, 0.5], EYE2, EYE2, cl.CondTable(np.eye(3))),
             "Y table must condition on B"),
            (lambda: cl.DoModel([1.0], EYE2, cl.CondTable(np.eye(2)), EYE2),
             "X table must condition on A"),
            (lambda: cl.DoModel([0.5, 0.5], EYE2, EYE2, EYE2), "parent columns"),
            (lambda: cl.DoModel([0.5, 0.5], EYE2, cl.CondTable(np.full((2, 4), 0.5)),
                                cl.CondTable(np.eye(3))), "Y table must condition on B"),
        ],
        ids=["table-ndim", "chain-y", "do-x", "do-b", "do-y"],
    )
    def test_each_dimension_check_names_its_table(self, build, message):
        with pytest.raises(DimensionMismatch, match=message):
            build()


class TestEmergentChannel:
    def test_identity_tables(self):
        m = cl.ChainModel(
            pA=[0.5, 0.5],
            pB_given_A=cl.CondTable(np.eye(2)),
            pX_given_A=cl.CondTable(np.eye(2)),
            pY_given_B=cl.CondTable(np.eye(2)),
        )
        assert np.allclose(cl.emergent_channel(m).p, np.eye(2), atol=1e-14)

    def test_uniform_y_absorbs_everything(self):
        m = cl.ChainModel(
            pA=[0.3, 0.7],
            pB_given_A=cl.CondTable([[0.9, 0.2], [0.1, 0.8]]),
            pX_given_A=cl.CondTable([[0.6, 0.1], [0.4, 0.9]]),
            pY_given_B=cl.CondTable(np.full((2, 2), 0.5)),
        )
        assert np.allclose(cl.emergent_channel(m).p, 0.5, atol=1e-14)

    def test_binary_model_against_enumeration(self):
        m = binary_chain()
        got = cl.emergent_channel(m).p
        assert np.allclose(got, enumerate_emergent(m), atol=1e-14)
        # frozen closed forms: P(Y=0|X=0) = 0.39/0.55, P(Y=0|X=1) = 0.16/0.45
        assert abs(got[0, 0] - 0.39 / 0.55) < 1e-14
        assert abs(got[0, 1] - 0.16 / 0.45) < 1e-14

    def test_columns_stochastic_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            dims = rng.integers(2, 5, size=4)
            m = random_chain(rng, *dims)
            table = cl.emergent_channel(m).p
            assert np.allclose(table.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(table, enumerate_emergent(m), atol=1e-12)

    # X=1 unreachable: from A=1 only, or from no A at all
    @pytest.mark.parametrize("pX", [np.eye(2), [[1.0, 1.0], [0.0, 0.0]]], ids=["eye", "x0"])
    def test_zero_marginal_raises(self, pX):
        m = cl.ChainModel(
            pA=[1.0, 0.0],
            pB_given_A=cl.CondTable(np.eye(2)),
            pX_given_A=cl.CondTable(pX),
            pY_given_B=cl.CondTable(np.eye(2)),
        )
        with pytest.raises(ZeroMarginal):
            cl.emergent_channel(m)


class TestTotalProbability:
    def test_identity_model(self):
        m = cl.ChainModel(
            pA=[0.25, 0.75],
            pB_given_A=cl.CondTable(np.eye(2)),
            pX_given_A=cl.CondTable(np.eye(2)),
            pY_given_B=cl.CondTable(np.eye(2)),
        )
        assert cl.verify_total_probability(m) < 1e-15

    def test_binary_model(self):
        assert cl.verify_total_probability(binary_chain()) <= 1e-12

    def test_random_3x3x3x3_models(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = random_chain(rng, 3, 3, 3, 3)
            assert cl.verify_total_probability(m) <= 1e-12


def do_model(pB_cols, pX=None):
    return cl.DoModel(
        pA=[0.5, 0.5],
        pX_given_A=cl.CondTable(pX if pX is not None else [[0.95, 0.05], [0.05, 0.95]]),
        pB_given_AX=cl.CondTable(pB_cols),
        pY_given_B=cl.CondTable(np.eye(2)),
    )


class TestDoIntervention:
    def test_b_ignoring_x_gives_marginal(self):
        # columns ordered (a=0,x=0), (a=0,x=1), (a=1,x=0), (a=1,x=1)
        m = do_model([[0.9, 0.9, 0.3, 0.3], [0.1, 0.1, 0.7, 0.7]])
        marginal = m.pY_given_B.p @ (
            np.array([[0.9, 0.3], [0.1, 0.7]]) @ m.pA
        )
        for x in (0, 1):
            assert np.allclose(cl.do_intervention(m, x), marginal, atol=1e-12)

    def test_deterministic_chain(self):
        # A pinned to 0, B = X xor A = X, Y = B
        m = cl.DoModel(
            pA=[1.0, 0.0],
            pX_given_A=cl.CondTable([[0.5, 0.5], [0.5, 0.5]]),
            pB_given_AX=cl.CondTable([[1, 0, 0, 1], [0, 1, 1, 0]]),
            pY_given_B=cl.CondTable(np.eye(2)),
        )
        assert np.allclose(cl.do_intervention(m, 0), [1.0, 0.0], atol=1e-14)
        assert np.allclose(cl.do_intervention(m, 1), [0.0, 1.0], atol=1e-14)

    def test_b_equals_x(self):
        m = do_model([[1, 0, 1, 0], [0, 1, 0, 1]])
        for x in (0, 1):
            expected = m.pY_given_B.p[:, x]
            assert np.allclose(cl.do_intervention(m, x), expected, atol=1e-14)

    def test_result_is_distribution(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.01, 1.0, size=(3, 6))
        m = cl.DoModel(
            pA=[0.25, 0.75],
            pX_given_A=cl.CondTable([[0.5, 0.4], [0.3, 0.3], [0.2, 0.3]]),
            pB_given_AX=cl.CondTable(t / t.sum(axis=0)),
            pY_given_B=cl.CondTable(np.eye(3)),
        )
        out = cl.do_intervention(m, 2)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= -1e-15)

    def test_index_out_of_range(self):
        m = do_model([[1, 0, 1, 0], [0, 1, 0, 1]])
        with pytest.raises(IndexOutOfRange):
            cl.do_intervention(m, 2)

    def test_invariant_under_px_changes(self):
        b_table = [[0.9, 0.4, 0.2, 0.6], [0.1, 0.6, 0.8, 0.4]]
        m1 = do_model(b_table, pX=[[0.95, 0.05], [0.05, 0.95]])
        m2 = do_model(b_table, pX=[[0.3, 0.8], [0.7, 0.2]])
        for x in (0, 1):
            assert np.allclose(
                cl.do_intervention(m1, x), cl.do_intervention(m2, x), atol=1e-12
            )


class TestObservationalVsDo:
    def test_no_confounding(self):
        m = do_model(
            [[0.9, 0.4, 0.2, 0.6], [0.1, 0.6, 0.8, 0.4]],
            pX=[[0.6, 0.6], [0.4, 0.4]],  # X independent of A
        )
        for x in (0, 1):
            obs, do = cl.observational_vs_do(m, x)
            assert np.allclose(obs, do, atol=1e-12)

    @pytest.mark.parametrize("x", [0, 1])
    def test_planted_confounder(self, x):
        # A drives both X and B; B ignores X entirely
        m = do_model([[0.95, 0.95, 0.05, 0.05], [0.05, 0.05, 0.95, 0.95]])
        obs, do = cl.observational_vs_do(m, x)
        assert obs.sum() == pytest.approx(1.0) and do.sum() == pytest.approx(1.0)
        assert np.abs(obs - do).sum() > 0.1

    def test_deterministic_case(self):
        m = cl.DoModel(
            pA=[1.0, 0.0],
            pX_given_A=cl.CondTable([[0.5, 0.5], [0.5, 0.5]]),
            pB_given_AX=cl.CondTable([[1, 0, 0, 1], [0, 1, 1, 0]]),
            pY_given_B=cl.CondTable(np.eye(2)),
        )
        obs, do = cl.observational_vs_do(m, 1)
        assert np.allclose(obs, do, atol=1e-14)
        assert np.allclose(do, [0.0, 1.0], atol=1e-14)

    def test_zero_marginal(self):
        m = do_model(
            [[0.9, 0.4, 0.2, 0.6], [0.1, 0.6, 0.8, 0.4]],
            pX=[[1.0, 1.0], [0.0, 0.0]],
        )
        with pytest.raises(ZeroMarginal):
            cl.observational_vs_do(m, 1)
