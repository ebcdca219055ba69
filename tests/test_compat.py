import tracemalloc

import numpy as np
import pytest

import coarsekit as ck
from coarsekit import compat
from coarsekit.channel import KrausChannel, unitary_channel
from coarsekit.errors import DimensionMismatch, NotEquivalent, NumericalFailure
from coarsekit.linalg import frob
from coarsekit.rand import haar_unitary, random_density_mat, random_kraus_ops
from coarsekit.scenarios import (
    emergent_spin_rotation,
    example1,
    random_planted_scenario,
    random_scenario,
    registry,
    spin_dichotomization,
)

REG = registry()


def identity_scenario(u=None, dim=2, seed=0):
    if u is None:
        u = haar_unitary(dim, np.random.default_rng(seed))
    return ck.Scenario(KrausChannel([np.eye(dim)]), u)


class TestFiberPreservation:
    def test_identity_cg_trivial_kernel(self):
        ok, res = compat.check_fiber_preservation(identity_scenario())
        assert ok and res == 0.0

    def test_registry_verdicts(self):
        for name in ("example1-compatible", "example2-compatible", "spin-d3"):
            ok, res = compat.check_fiber_preservation(REG[name].scenario)
            assert ok, name
            assert res < 1e-10
        for name in ("example1-incompatible", "example2-incompatible"):
            ok, res = compat.check_fiber_preservation(REG[name].scenario)
            assert not ok, name
            assert res > 1e-3

    def test_residual_invariant_under_global_phase(self):
        s = REG["example1-incompatible"].scenario
        _, res = compat.check_fiber_preservation(s)
        phased = ck.Scenario(s.cg, np.exp(0.83j) * s.u)
        _, res_phased = compat.check_fiber_preservation(phased)
        assert abs(res - res_phased) < 1e-10

    def test_residual_invariant_under_kraus_remix(self):
        s = REG["example1-incompatible"].scenario
        _, res = compat.check_fiber_preservation(s)
        w = haar_unitary(2, np.random.default_rng(7))
        remixed_ops = [
            sum(w[i, j] * s.cg.kraus[j] for j in range(2)) for i in range(2)
        ]
        _, res_remixed = compat.check_fiber_preservation(
            ck.Scenario(KrausChannel(remixed_ops), s.u)
        )
        assert abs(res - res_remixed) < 1e-10


class TestAlgebraic:
    def test_identity_cg_gives_v_equal_u(self):
        s = identity_scenario(dim=3, seed=1)
        v, res = compat.solve_algebraic_V(s)
        assert v is not None
        assert res < 1e-10
        assert frob(v - s.u) < 1e-10

    def test_planted_scenarios(self):
        for seed in range(5):
            ns = random_planted_scenario(2, 3, seed)
            v, res = compat.solve_algebraic_V(ns.scenario)
            assert v is not None, seed
            assert res < 1e-9

    def test_incompatible_has_large_residual(self):
        v, res = compat.solve_algebraic_V(REG["example1-incompatible"].scenario)
        assert v is None
        assert res > 1e-3

    def test_run_all_uses_the_same_decision(self):
        cfg = compat.CheckConfig(witness_trials=0)
        for ns in REG.values():
            v, res = compat.solve_algebraic_V(ns.scenario)
            report = compat.run_all(ns.scenario, cfg)
            assert report.algebraic_residual == res
            assert (report.algebraic_v is None) == (v is None), ns.name


class TestDualIdentity:
    def test_identity_cg(self):
        s = identity_scenario(dim=2, seed=2)
        assert compat.verify_dual_identity(s, s.u) < 1e-12

    def test_planted(self):
        ns = random_planted_scenario(3, 2, 11)
        v, _ = compat.solve_algebraic_V(ns.scenario)
        assert compat.verify_dual_identity(ns.scenario, v) < 1e-8

    def test_random_v_fails(self):
        s = REG["example1-incompatible"].scenario
        v = haar_unitary(2, np.random.default_rng(3))
        assert compat.verify_dual_identity(s, v) > 0.1

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            compat.verify_dual_identity(REG["spin-d3"].scenario, np.eye(3))


class TestConstructEmergent:
    def test_identity_cg_returns_unitary_channel(self):
        s = identity_scenario(dim=2, seed=4)
        gamma = compat.construct_emergent(s)
        assert gamma is not None
        assert ck.channels_equal(gamma, unitary_channel(s.u), 1e-10)

    def test_spin_matches_bloch_rotation(self):
        alpha, n = np.pi / 2, (0.0, 0.0, 1.0)
        ns = spin_dichotomization(3, alpha, n)
        gamma = compat.construct_emergent(ns.scenario)
        assert gamma is not None
        expected = unitary_channel(emergent_spin_rotation(alpha, n))
        assert frob(gamma.choi.mat - expected.choi.mat) < 1e-7

    def test_incompatible_returns_none(self):
        assert compat.construct_emergent(REG["example1-incompatible"].scenario) is None

    def test_diagram_closes(self):
        for name in ("example1-compatible", "example2-compatible", "spin-d3"):
            s = REG[name].scenario
            gamma = compat.construct_emergent(s)
            assert gamma is not None, name
            assert compat.diagram_distance(s, gamma) < 1e-6


class TestSdpFeasibility:
    def test_identity_cg_feasible_with_unitary_choi(self):
        s = identity_scenario(dim=2, seed=5)
        out = compat.sdp_feasibility(s)
        assert out.status == compat.FEASIBLE
        assert out.choi is not None
        expected = unitary_channel(s.u).choi.mat
        assert frob(out.choi.mat - expected) < 1e-6

    def test_example2_equal_blocks_feasible(self):
        out = compat.sdp_feasibility(REG["example2-compatible"].scenario)
        assert out.status == compat.FEASIBLE

    def test_example2_unequal_blocks_infeasible(self):
        out = compat.sdp_feasibility(REG["example2-incompatible"].scenario)
        assert out.status == compat.INFEASIBLE
        assert out.residual > 1e-5 * 100

    def test_feasible_implies_fiber(self):
        # one-directional sanity across a small mixed family
        cases = [REG[k].scenario for k in REG] + [
            random_scenario(4, 2, 3, seed).scenario for seed in range(6)
        ]
        for s in cases:
            out = compat.sdp_feasibility(s)
            if out.status == compat.FEASIBLE:
                ok, _ = compat.check_fiber_preservation(s)
                assert ok


class TestHelstrom:
    def test_orthogonal_states(self):
        pg = compat.helstrom_pguess(
            0.5, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        )
        assert abs(pg - 1.0) < 1e-12

    def test_identical_states(self):
        rho = random_density_mat(3, np.random.default_rng(6))
        assert abs(compat.helstrom_pguess(0.5, rho, rho) - 0.5) < 1e-12

    def test_zero_plus_overlap(self):
        plus = np.full((2, 2), 0.5)
        pg = compat.helstrom_pguess(0.5, np.diag([1.0, 0.0]), plus)
        assert abs(pg - 0.5 * (1 + 1 / np.sqrt(2))) < 1e-12

    def test_biased_prior(self):
        # p0 = 1 with any states: always guess 0
        rho = random_density_mat(2, np.random.default_rng(7))
        sig = random_density_mat(2, np.random.default_rng(8))
        assert abs(compat.helstrom_pguess(1.0, rho, sig) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compat.helstrom_pguess(0.5, np.eye(2) / 2, np.eye(3) / 3)

    def test_data_processing_monotonicity(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            rho0 = random_density_mat(3, rng)
            rho1 = random_density_mat(3, rng)
            p0 = rng.uniform(0.1, 0.9)
            before = compat.helstrom_pguess(p0, rho0, rho1)
            ch = KrausChannel(random_kraus_ops(3, 2, 2, rng))
            after = compat.helstrom_pguess(
                p0,
                sum(k @ rho0 @ k.conj().T for k in ch.kraus),
                sum(k @ rho1 @ k.conj().T for k in ch.kraus),
            )
            assert after <= before + 1e-10


class TestWitnessSearch:
    def test_identity_scenario_never_violates(self):
        s = identity_scenario(dim=3, seed=10)
        assert compat.search_witness(s, trials=200, ancilla_dim=1, seed=0) is None

    def test_spin_scenario_no_witness_in_1000_trials(self):
        s = REG["spin-d3"].scenario
        assert compat.search_witness(s, trials=1000, ancilla_dim=1, seed=0) is None

    def test_example1_incompatible_witness_found(self):
        s = REG["example1-incompatible"].scenario
        w = compat.search_witness(s, trials=1000, ancilla_dim=1, seed=0)
        assert w is not None
        assert w.gap > 1e-4
        assert 0.5 <= w.pg_before <= 1.0 + 1e-12
        assert 0.5 <= w.pg_after <= 1.0 + 1e-12
        # the witness is reproducible: same seed finds the same ensemble
        w2 = compat.search_witness(s, trials=1000, ancilla_dim=1, seed=0)
        assert w2.trial == w.trial
        assert frob(w2.rho0.mat - w.rho0.mat) == 0.0


class TestKrausEquivalence:
    def test_identity_scenario(self):
        s = identity_scenario(dim=2, seed=12)
        ok, v = compat.verify_kraus_equivalence(s, unitary_channel(s.u))
        assert ok
        assert v.shape == (1, 1)
        assert abs(abs(v[0, 0]) - 1.0) < 1e-9

    def test_spin_scenario(self):
        s = REG["spin-d3"].scenario
        gamma = unitary_channel(emergent_spin_rotation(np.pi / 2, (0, 0, 1)))
        ok, v = compat.verify_kraus_equivalence(s, gamma)
        assert ok
        assert frob(v.conj().T @ v - np.eye(v.shape[0])) < 1e-8

    def test_incompatible_scenario_rejects_any_gamma(self):
        s = REG["example1-incompatible"].scenario
        for seed in range(3):
            gamma = KrausChannel(random_kraus_ops(2, 2, 2, np.random.default_rng(seed)))
            ok, v = compat.verify_kraus_equivalence(s, gamma)
            assert not ok
            assert v is None

    @pytest.mark.parametrize("error", [NotEquivalent("differ"), NumericalFailure("residual")])
    def test_connecting_unitary_failure_rejects(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(compat, "connecting_unitary", fail)
        s = REG["spin-d3"].scenario
        gamma = unitary_channel(emergent_spin_rotation(np.pi / 2, (0, 0, 1)))
        assert compat.verify_kraus_equivalence(s, gamma) == (False, None)

    def test_unexpected_error_propagates(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(compat, "connecting_unitary", fail)
        s = REG["spin-d3"].scenario
        gamma = unitary_channel(emergent_spin_rotation(np.pi / 2, (0, 0, 1)))
        with pytest.raises(ZeroDivisionError, match="bug"):
            compat.verify_kraus_equivalence(s, gamma)


class TestRunAll:
    def test_identity_compatible(self):
        report = compat.run_all(identity_scenario(dim=2, seed=13),
                                compat.CheckConfig(witness_trials=100))
        assert report.verdict == "compatible"
        assert ck.channels_equal(report.emergent, unitary_channel(identity_scenario(dim=2, seed=13).u))

    def test_spin_all_methods_agree(self):
        report = compat.run_all(REG["spin-d3"].scenario,
                                compat.CheckConfig(witness_trials=200))
        assert report.verdict == "compatible"
        assert report.fiber_preserved
        assert report.sdp.status == compat.FEASIBLE
        assert report.witness is None
        assert report.emergent is not None
        assert all(report.method_agreement.values())

    def test_example1_incompatible(self):
        report = compat.run_all(REG["example1-incompatible"].scenario,
                                compat.CheckConfig(witness_trials=500))
        assert report.verdict == "incompatible"
        assert not report.fiber_preserved
        assert report.algebraic_residual > 1e-3
        assert report.sdp.status != compat.FEASIBLE
        assert report.emergent is None
        assert report.witness is not None or report.sdp.status == compat.INFEASIBLE

    def test_witness_disabled_by_zero_trials(self):
        report = compat.run_all(REG["spin-d3"].scenario,
                                compat.CheckConfig(witness_trials=0))
        assert report.witness is None
        assert report.verdict == "compatible"


def test_fiber_vs_sdp_cooccurrence_recorded():
    """Only the proven direction is asserted (feasible => fiber preserved).

    Whether fiber preservation forces a CPTP completion is an open
    question, so the observed co-occurrence counts are printed for the
    record instead of being asserted.
    """
    from collections import Counter

    family = [ns.scenario for ns in REG.values()]
    family += [random_planted_scenario(2, 2, 300 + k).scenario for k in range(3)]
    family += [random_scenario(4, 2, 3, 400 + k).scenario for k in range(5)]
    counts = Counter()
    for s in family:
        fiber_ok, _ = compat.check_fiber_preservation(s)
        out = compat.sdp_feasibility(s)
        counts[(fiber_ok, out.status)] += 1
        if out.status == compat.FEASIBLE:
            assert fiber_ok
    print("\nfiber/sdp co-occurrence:", dict(counts))


class TestImplicationChain:
    def test_algebraic_implies_fiber_and_dual_identity(self):
        rng = np.random.default_rng(999)
        n_alg = 0
        for k in range(40):
            if k % 3 == 0:
                small, env = [(2, 2), (2, 3), (3, 2)][(k // 3) % 3]
                s = random_planted_scenario(small, env, 1000 + k).scenario
            else:
                big, small = [(3, 2), (4, 2), (6, 3)][k % 3]
                s = random_scenario(big, small, 3, 2000 + k).scenario
            v, res = compat.solve_algebraic_V(s)
            if v is not None:
                n_alg += 1
                ok, _ = compat.check_fiber_preservation(s)
                assert ok
                assert compat.verify_dual_identity(s, v) <= 1e-7
        assert n_alg >= 10  # the planted third must all qualify


def test_image_criteria_build_nothing_of_size_D2_by_D2():
    # one D^2 x D^2 complex array at D=48 takes 81 MB; the d^2 x D^2
    # matrices of the thin-SVD path take 0.15 MB each
    s = random_scenario(48, 2, 24, 0).scenario
    tracemalloc.start()
    try:
        compat.check_fiber_preservation(s)
        compat.sdp_feasibility(s)
        compat.construct_emergent(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
