import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coarsekit as ck
from coarsekit import compat
from coarsekit.channel import (
    ChoiMatrix,
    KrausChannel,
    channels_equal,
    compose,
    kraus_to_transfer_mat,
    transfer_to_choi_mat,
    unitary_channel,
    vec_from_real,
)
from coarsekit.errors import DimensionMismatch, MethodDisagreement, NotEquivalent, NumericalFailure
from coarsekit.linalg import RANK_TOL, frob, vec
from coarsekit.rand import haar_unitary, random_density_mat, random_kraus_ops
from coarsekit.scenarios import (
    emergent_spin_rotation,
    example2,
    random_planted_scenario,
    random_scenario,
    registry,
    spin_dichotomization,
)

from builders import (
    decohered_example2,
    dephased_hadamard,
    lift,
    pauli_contraction,
    rotated_example1,
    swap,
    three_cycle,
    tr_out,
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


# scenarios of every kind the criteria meet: registry, planted, random,
# rank-deficient dephasing with block and Haar unitaries, identity
ORACLE_CASES = [
    *(pytest.param(ns.scenario, id=name) for name, ns in REG.items()),
    pytest.param(random_planted_scenario(2, 3, 0).scenario, id="planted-2-3"),
    pytest.param(random_planted_scenario(4, 4, 1).scenario, id="planted-4-4"),
    pytest.param(random_scenario(8, 2, 4, 0).scenario, id="random-8-2-4"),
    pytest.param(random_scenario(16, 4, 4, 1).scenario, id="random-16-4-4"),
    pytest.param(decohered_example2(3, 4, 0), id="dephasing-3-4-block"),
    pytest.param(
        ck.Scenario(decohered_example2(3, 4, 0).cg, haar_unitary(12, np.random.default_rng(1))),
        id="dephasing-3-4-haar",
    ),
    pytest.param(identity_scenario(dim=3, seed=1), id="identity-3"),
]


def _kron_lstsq(s):
    """The stacked column-stacking system (M_k^T x I_d) vec(V) = vec(M_k u)
    over all k, with its joint residual rho, the right-hand side's norm, and
    the bound ||V||_2^2 s_cut + 2 ||V||_2 ||cg(I)||_2^(1/2) rho + rho^2,
    with s_cut from a full SVD of T_cg and cg(I) summed operator by operator."""
    d = s.d
    mu = [m @ s.u for m in s.cg.kraus]
    a = np.vstack([np.kron(m.T, np.eye(d)) for m in s.cg.kraus])
    b = np.concatenate([vec(mu_k) for mu_k in mu])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    v = x.reshape(d, d, order="F")
    residual = np.sqrt(sum(frob(mu_k - v @ m) ** 2 for mu_k, m in zip(mu, s.cg.kraus)))
    scale = np.sqrt(sum(frob(mu_k) ** 2 for mu_k in mu))
    sv = np.linalg.svd(s.cg.transfer_mat, compute_uv=False)
    s_cut = sv[sv <= RANK_TOL * sv[0]].max(initial=0.0)
    cg_eye = sum(m @ m.conj().T for m in s.cg.kraus)
    v_norm = np.linalg.svd(v, compute_uv=False)[0]
    bound = (v_norm**2 * s_cut + 2 * v_norm * np.sqrt(np.linalg.eigvalsh(cg_eye)[-1]) * residual
             + residual**2)
    return v, residual, scale, bound


class TestAlgebraic:
    @pytest.mark.parametrize("s", ORACLE_CASES)
    def test_matches_the_kron_system(self, s):
        v, residual, bound = compat._algebraic_lstsq(s)
        v_ref, residual_ref, scale_ref, bound_ref = _kron_lstsq(s)
        assert frob(v - v_ref) <= 1e-12 * max(1.0, frob(v_ref))
        assert abs(residual - residual_ref) <= 1e-12 * scale_ref
        assert abs(bound - bound_ref) <= 1e-12 * max(1.0, bound_ref)

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
        assert channels_equal(gamma, unitary_channel(s.u), 1e-10)

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

    @pytest.mark.parametrize(
        "s",
        [
            *(pytest.param(REG[name].scenario, id=name)
              for name in ("example1-compatible", "example2-compatible", "spin-d3")),
            *(pytest.param(random_planted_scenario(d, e, seed).scenario, id=f"planted-{d}-{e}")
              for d, e, seed in ((2, 3, 0), (3, 2, 1), (4, 4, 2))),
            # rank-deficient with a kernel that u does not keep: no channel,
            # and the part of A outside the image is not zero
            pytest.param(
                ck.Scenario(decohered_example2(3, 4, 0).cg,
                            haar_unitary(12, np.random.default_rng(1))),
                id="dephasing-3-4-haar",
            ),
        ],
    )
    def test_diagram_distance_matches_the_composed_channels(self, s):
        def composed(gamma):
            left = compose(gamma, s.cg)
            right = compose(s.cg, unitary_channel(s.u))
            return frob(left.choi.mat - right.choi.mat)

        def product(gamma):
            # the distance as the full d^2 x D^2 product of transfer matrices
            a = kraus_to_transfer_mat(s._kraus_after)
            return frob(gamma.transfer_mat @ s.cg.transfer_mat - a)

        gamma = compat.construct_emergent(s)
        # a channel that does not close the square is measured alike
        other = KrausChannel(random_kraus_ops(s.d, s.d, 2, np.random.default_rng(s.D)))
        assert composed(other) > 0.1
        for g in (other,) if gamma is None else (gamma, other):
            got = compat.diagram_distance(s, g)
            assert abs(got - composed(g)) <= 1e-12
            assert abs(got - product(g)) <= 1e-12 * max(1.0, product(g))

    def test_diagram_distance_dimension_check(self):
        s = REG["spin-d3"].scenario
        with pytest.raises(DimensionMismatch):
            compat.diagram_distance(s, unitary_channel(np.eye(3)))


class TestSinglePath:
    """run_all decides and builds the channel with one SDP call."""

    @pytest.fixture
    def sdp_calls(self, compat_calls):
        return compat_calls("sdp_feasibility")

    @pytest.mark.parametrize("tol", [compat.TOL, 1e-7, 1e-5])
    def test_swapped_preparations_give_the_hadamard(self, sdp_calls, tol):
        # prepare |0> or |+>; X swaps the outcomes, so the one effective
        # channel swaps |0> and |+>: the Hadamard, reached by the loop
        s = swap()
        cfg = compat.CheckConfig(tol=tol, witness_trials=0)
        report = compat.run_all(s, cfg)
        assert report.verdict == "compatible"
        assert len(sdp_calls) == 1 and report.sdp.iterations > 0
        assert report.diagram_residual <= compat.BAND * tol
        # the point is made exactly trace preserving: at tol = 1e-7 its trace
        # error would otherwise fail the trace check of compose
        tp = tr_out(report.sdp.channel.choi.mat, 2, 2)
        assert frob(tp - np.eye(2)) <= 1e-12
        hadamard = unitary_channel(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert frob(report.emergent.choi.mat - hadamard.choi.mat) <= compat.BAND * tol
        # given an outcome, construction runs no SDP of its own
        assert compat.construct_emergent(s, report.sdp) is not None
        assert len(sdp_calls) == 1

    def test_cycle_is_certified_in_one_loop(self, sdp_calls):
        # |0>, |0>+|1>, |0>+|1>+|2> cycled by a permutation: the loop's
        # iterate certifies that no channel exists
        s = three_cycle()
        report = compat.run_all(s, compat.CheckConfig(witness_trials=0))
        assert report.verdict == "incompatible" and report.sdp.status == compat.INFEASIBLE
        assert len(sdp_calls) == 1 and 0 < report.sdp.iterations <= 10
        assert report.sdp.residual > compat.BAND * compat.TOL
        assert report.emergent is None

    def test_capped_swap_runs_to_its_cap_undecided(self, sdp_calls):
        # the swap below needs 7540 iterations; no certificate stops a loop
        # that a channel ends, so at a cap of 500 it decides nothing
        s = swap()
        report = compat.run_all(s, compat.CheckConfig(witness_trials=0, sdp_max_iter=500))
        assert report.verdict == compat.UNDECIDED
        assert len(sdp_calls) == 1 and report.sdp.iterations == 500
        assert report.emergent is None


class TestSdpFeasibility:
    def test_identity_cg_feasible_with_unitary_choi(self):
        s = identity_scenario(dim=2, seed=5)
        out = compat.sdp_feasibility(s)
        assert out.status == compat.FEASIBLE
        assert out.channel is not None
        expected = unitary_channel(s.u).choi.mat
        assert frob(out.channel.choi.mat - expected) < 1e-6

    def test_example2_equal_blocks_feasible(self):
        out = compat.sdp_feasibility(REG["example2-compatible"].scenario)
        assert out.status == compat.FEASIBLE

    def test_example2_unequal_blocks_infeasible(self):
        out = compat.sdp_feasibility(REG["example2-incompatible"].scenario)
        assert out.status == compat.INFEASIBLE
        assert out.residual > 1e-5 * 100

    def test_near_compatible_undecided_without_iterating(self):
        # a Pauli channel with Bloch contraction (0.9, 0.8, 0.85), then a
        # z-rotation by 4e-6: T_cg is invertible (r = d^2), so the affine set
        # is one point, whose PSD projection misses it by 5.4e-7, between
        # tol and 100*tol
        s = pauli_contraction(4e-6)
        out = compat.sdp_feasibility(s)
        assert (out.status, out.iterations) == (compat.UNDECIDED, 0)
        assert compat.TOL < out.residual <= compat.BAND * compat.TOL

    @pytest.mark.parametrize("eps", [1e-9, 3e-9, 1e-8])
    def test_band_off_the_image_decided_without_iterating(self, eps):
        # dephasing with Haar blocks, u exp(i eps G): tol < ||A - A V V*||_F
        # <= 100 tol, so no point is within tol; the loop used to run all
        # 20000 iterations (about 1.4 s) and end undecided at this residual
        rng = np.random.default_rng(0)
        s = decohered_example2(4, 4, rng)
        g = rng.standard_normal((s.D, s.D)) + 1j * rng.standard_normal((s.D, s.D))
        w, q = np.linalg.eigh((g + g.conj().T) / 2)
        s = ck.Scenario(s.cg, s.u @ (q * np.exp(1j * eps * w)) @ q.conj().T)
        off_image = frob(s._image.e)
        assert compat.TOL < off_image <= compat.BAND * compat.TOL
        out = compat.sdp_feasibility(s)
        assert (out.status, out.iterations, out.residual) == (compat.UNDECIDED, 0, off_image)
        report = compat.run_all(s, compat.CheckConfig(witness_trials=0))
        assert report.verdict == "incompatible" and report.witness.source == "kernel"

    @pytest.mark.parametrize("p, quotient", [(0.1, -0.1056), (0.5, -0.75)])
    def test_dephased_hadamard_has_an_eigenvector_certificate(self, p, quotient):
        # D = d = 2: the kernel check holds and the one linear effective map
        # J0 is not CP; J0's lowest eigenvector has a negative Rayleigh quotient
        s = dephased_hadamard(p)
        assert compat.check_fiber_preservation(s)[0]
        img = s._image
        u, av = vec_from_real(img.u, 2), vec_from_real(img.av, 2)
        j0 = transfer_to_choi_mat((av / img.sigma) @ u.conj().T, 2, 2)
        vec = np.linalg.eigh(j0)[1][:, 0]
        assert np.vdot(vec, j0 @ vec).real == pytest.approx(quotient, abs=1e-4)
        out = compat.sdp_feasibility(s)
        assert (out.status, out.iterations) == (compat.INFEASIBLE, 0)

    def test_swap_keeps_its_long_feasible_loop(self):
        # the loop's slowest feasible case; the certificate never stops it
        s = swap()
        out = compat.sdp_feasibility(s)
        assert (out.status, out.iterations) == (compat.FEASIBLE, 7540)
        assert out.channel is not None

    def test_loop_goes_on_until_the_point_is_a_channel(self):
        # at tol = 10 the loop's first point, J = 0, is within tol of the
        # affine set, but tr_out J = 0 makes it no channel
        s = example2(3, 2, [np.eye(3)] * 2, "none").scenario
        out = compat.sdp_feasibility(s, tol=10.0)
        assert (out.status, out.iterations) == (compat.FEASIBLE, 2)
        assert out.channel is not None

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

    # the rule of every tolerance, a real number and not a bool, in [0, 1]:
    # True used to read as 1, and a string or None raised a TypeError
    @pytest.mark.parametrize("p0", [1.5, True, False, "0.5", None])
    def test_p0_must_be_a_probability(self, p0):
        with pytest.raises(ValueError, match="probability"):
            compat.helstrom_pguess(p0, np.eye(2) / 2, np.eye(2) / 2)

    @pytest.mark.parametrize("p0, same", [(np.float64(0.3), 0.3), (1, 1.0)])
    def test_p0_takes_numpy_floats_and_integers(self, p0, same):
        rho0, rho1 = np.diag([1.0, 0.0]), np.eye(2) / 2
        assert compat.helstrom_pguess(p0, rho0, rho1) == compat.helstrom_pguess(same, rho0, rho1)

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
        assert frob(w2.x - w.x) == 0.0


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

    def test_gamma_that_misses_the_square_is_rejected(self):
        # spin-d3 is compatible, with the rotation by pi/2; the rotation by
        # pi/3 is a channel, but not the one that closes the square
        s = REG["spin-d3"].scenario
        gamma = unitary_channel(emergent_spin_rotation(np.pi / 3, (0, 0, 1)))
        assert compat.diagram_distance(s, gamma) > 1e-2
        assert compat.verify_kraus_equivalence(s, gamma) == (False, None)

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


@pytest.mark.parametrize(
    "field, value",
    [
        ("witness_trials", -1),
        ("witness_trials", 2.5),
        ("ancilla_dims", (2, 0)),
        ("ancilla_dims", (1.5,)),
        ("ancilla_dims", ()),
        ("seed", -1),
        ("seed", 1.5),
        ("sdp_max_iter", 0),
        ("tol", 0.0),
        ("tol", float("nan")),
        ("tol", float("inf")),
        # an integer past float range, which math.isfinite cannot take
        pytest.param("tol", 10**400, id="tol-10**400"),
        # a bool is an int in Python, but never a number here, as in a scenario file
        ("tol", True),
        ("sdp_max_iter", True),
        ("seed", True),
        ("seed", False),
        ("witness_trials", False),
        ("ancilla_dims", (True,)),
        # not a sequence at all
        ("ancilla_dims", 3),
        pytest.param("ancilla_dims", np.array(3), id="ancilla_dims-0d-array"),
    ],
)
def test_check_config_rejects_out_of_range_settings(field, value):
    with pytest.raises(ValueError, match="must be"):
        compat.CheckConfig(**{field: value})


def test_check_config_has_one_decision_tolerance():
    assert [f.name for f in dataclasses.fields(compat.CheckConfig)] == [
        "tol", "sdp_max_iter", "witness_trials", "ancilla_dims", "seed"]
    for former in ("fiber_tol", "sdp_tol"):
        with pytest.raises(TypeError):
            compat.CheckConfig(**{former: 1e-8})
    # sdp_tol, which the benchmark reads, is tol and cannot be set
    cfg = compat.CheckConfig(tol=1e-6)
    assert cfg.sdp_tol == cfg.tol == 1e-6
    with pytest.raises(AttributeError):
        cfg.sdp_tol = 1e-7


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda s: compat.sdp_feasibility(s, max_iter=2.5), "max_iter"),
        (lambda s: compat.sdp_feasibility(s, max_iter=0), "max_iter"),
        (lambda s: compat.sdp_feasibility(s, tol=float("nan")), "tol"),
        (lambda s: compat.sdp_feasibility(s, tol=float("inf")), "tol"),
        (lambda s: compat.sdp_feasibility(s, tol=10**400), "tol"),
        (lambda s: compat.search_witness(s, 2.5), "trials"),
        (lambda s: compat.search_witness(s, 3, 1.5), "ancilla_dim"),
        (lambda s: compat.search_witness(s, 2, 1, -1), "seed"),
        (lambda s: compat.check_fiber_preservation(s, float("nan")), "tol"),
        (lambda s: compat.check_fiber_preservation(s, float("inf")), "tol"),
        (lambda s: compat.check_fiber_preservation(s, 10**400), "tol"),
        (lambda s: compat.solve_algebraic_V(s, float("nan")), "tol"),
        (lambda s: compat.solve_algebraic_V(s, float("inf")), "tol"),
        (lambda s: compat.verify_kraus_equivalence(s, KrausChannel([np.eye(s.d)]),
                                                   tol=float("nan")), "tol"),
        (lambda s: compat.verify_kraus_equivalence(s, KrausChannel([np.eye(s.d)]),
                                                   tol=float("inf")), "tol"),
        (lambda s: compat.check_fiber_preservation(s, True), "tol"),
        (lambda s: compat.sdp_feasibility(s, max_iter=True), "max_iter"),
        (lambda s: compat.sdp_feasibility(s, tol=True), "tol"),
        (lambda s: compat.search_witness(s, True), "trials"),
        (lambda s: compat.search_witness(s, 3, True), "ancilla_dim"),
        (lambda s: compat.search_witness(s, 2, 1, False), "seed"),
    ],
    ids=["sdp-max_iter-2.5", "sdp-max_iter-0", "sdp-tol-nan", "sdp-tol-inf", "sdp-tol-10**400",
         "search-trials-2.5", "search-ancilla-1.5", "search-seed--1",
         "fiber-tol-nan", "fiber-tol-inf", "fiber-tol-10**400", "algebraic-tol-nan", "algebraic-tol-inf",
         "kraus-equivalence-tol-nan", "kraus-equivalence-tol-inf",
         "fiber-tol-true", "sdp-max_iter-true", "sdp-tol-true", "search-trials-true",
         "search-ancilla-true", "search-seed-false"],
)
def test_criteria_share_the_range_rule(call, name):
    # the same rule as CheckConfig's, with the argument named: a NaN
    # tolerance passed `tol <= 0` (a compatible kernel read as not preserved),
    # an infinite one passed every residual, 2.5 and 1.5 raised bare
    # TypeErrors, and 10**400 an OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(REG["example2-compatible"].scenario)


def test_scenario_must_not_increase_dimension():
    # an isometry from a qubit into a qutrit is a valid CPTP map, with d > D
    iso = KrausChannel([np.eye(3, 2)])
    with pytest.raises(DimensionMismatch, match="must not increase dimension"):
        ck.Scenario(iso, np.eye(2))


def test_check_config_takes_numpy_integers():
    cfg = compat.CheckConfig(witness_trials=np.int64(5), ancilla_dims=(np.int32(2),),
                             seed=np.uint8(3), sdp_max_iter=np.int64(10))
    assert (cfg.witness_trials, cfg.seed) == (5, 3)


def test_check_config_stores_ancilla_dims_as_a_tuple():
    # a list would leave the config unhashable and open to changes after
    # __post_init__ has checked it
    dims = [1, 2]
    cfg = compat.CheckConfig(ancilla_dims=dims)
    dims.append(0)
    assert cfg.ancilla_dims == (1, 2)
    assert hash(cfg) == hash(compat.CheckConfig(ancilla_dims=(1, 2)))


class TestRunAll:
    def test_identity_compatible(self):
        report = compat.run_all(identity_scenario(dim=2, seed=13),
                                compat.CheckConfig(witness_trials=100))
        assert report.verdict == "compatible"
        assert channels_equal(report.emergent, unitary_channel(identity_scenario(dim=2, seed=13).u))

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

    @pytest.mark.parametrize("name", sorted(REG))
    def test_method_agreement_holds_the_checks_that_can_fail(self, name):
        report = compat.run_all(REG[name].scenario, compat.CheckConfig(witness_trials=10))
        assert report.method_agreement == {
            "algebraic_implies_fiber": True,
            "sdp_feasible_implies_fiber": True,
        }

    def test_a_feasible_sdp_with_a_failed_kernel_check_raises(self, monkeypatch):
        # a feasible SDP bounds the kernel residual by ||E||_F <= tol, so a
        # feasible outcome beside a failed kernel check is a bug, never ignored
        monkeypatch.setattr(compat, "sdp_feasibility", lambda s, max_iter, tol:
                            compat.SdpOutcome(status=compat.FEASIBLE, residual=0.0, iterations=1))
        with pytest.raises(MethodDisagreement, match="sdp_feasible_implies_fiber"):
            compat.run_all(REG["example1-incompatible"].scenario,
                           compat.CheckConfig(witness_trials=0))

    def test_a_channel_that_misses_the_square_raises(self, monkeypatch):
        # the SDP's channel closes the square to within O(tol); a diagram
        # distance past 100 tol is a bug, never ignored
        monkeypatch.setattr(compat, "diagram_distance", lambda s, gamma: 1.0)
        with pytest.raises(MethodDisagreement, match="fails to close the diagram"):
            compat.run_all(REG["spin-d3"].scenario, compat.CheckConfig(witness_trials=0))

    def test_witness_disabled_by_zero_trials(self):
        report = compat.run_all(REG["spin-d3"].scenario,
                                compat.CheckConfig(witness_trials=0))
        assert report.witness is None
        assert report.verdict == "compatible"


COMPATIBLE_NAMES = [n for n, e in REG.items() if e.expected == "compatible"]


class TestWitnessSkip:
    """run_all searches for a witness only when no channel closes the square
    and the kernel check yields no witness."""

    @pytest.mark.parametrize("name", COMPATIBLE_NAMES)
    def test_compatible_decision_does_not_search(self, compat_calls, name):
        calls = compat_calls("search_witness")
        report = compat.run_all(REG[name].scenario)
        assert report.verdict == "compatible"
        assert calls == []
        assert report.witness is None

    def test_incompatible_decision_searches_only_without_a_kernel_witness(self, compat_calls):
        calls = compat_calls("search_witness")
        # the kernel check fails and yields the witness: no search
        report = compat.run_all(REG["example1-incompatible"].scenario)
        assert report.verdict == "incompatible"
        assert calls == []
        assert report.witness is not None and report.witness.source == "kernel"
        # the dephased Hadamard at p = 0.5: the kernel check holds and the SDP
        # is infeasible, so the search runs
        s = dephased_hadamard(0.5)
        report = compat.run_all(s)
        assert report.fiber_preserved and report.sdp.status == compat.INFEASIBLE
        assert len(calls) >= 1
        assert report.witness is None or report.witness.source == "search"


def _witness_bound(s, diagram_residual):
    """The largest guessing-probability gain any ensemble can show when a
    channel closes the square to ``diagram_residual``: sqrt(d D) delta / 2."""
    return 0.5 * np.sqrt(s.d * s.D) * diagram_residual


@st.composite
def compatible_scenarios(draw):
    if draw(st.booleans()):
        return REG[draw(st.sampled_from(COMPATIBLE_NAMES))].scenario
    d = draw(st.integers(2, 3))
    env = draw(st.integers(1, 12 // d))
    return random_planted_scenario(d, env, draw(st.integers(0, 2**31 - 1))).scenario


@settings(max_examples=30)
@given(s=compatible_scenarios(), which=st.integers(0, 2), seed=st.integers(0, 2**31 - 1))
def test_no_witness_beats_the_diagram_bound(s, which, seed):
    report = compat.run_all(s, compat.CheckConfig(witness_trials=0))
    assert report.verdict == "compatible"
    ancilla = (1, s.d, s.D)[which]
    w = compat.search_witness(s, 16, ancilla, seed)
    assert w is None or w.gap <= _witness_bound(s, report.diagram_residual)


def _lifted(kraus, x, n):
    ops = [np.kron(k, np.eye(n)) for k in kraus]
    return sum(k @ x @ k.conj().T for k in ops)


def _trace_norm(x):
    return float(np.abs(np.linalg.eigvalsh(x)).sum())


@settings(max_examples=30)
@given(
    s=compatible_scenarios(),
    which=st.integers(0, 2),
    mix=st.floats(1e-6, 0.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_bound_holds_for_a_channel_off_the_square(s, which, mix, seed):
    # the derivation in run_all's docstring, for a gamma that misses the
    # square by a non-trivial delta: the two paths' guessing probabilities
    # differ by at most sqrt(d D) delta / 2 on every ensemble
    rng = np.random.default_rng(seed)
    gamma = compat.construct_emergent(s)
    noise = random_kraus_ops(s.d, s.d, 2, rng)
    mixed = KrausChannel([np.sqrt(1 - mix) * k for k in gamma.kraus]
                         + [np.sqrt(mix) * k for k in noise])
    bound = _witness_bound(s, compat.diagram_distance(s, mixed))
    upper = [g @ m for g in mixed.kraus for m in s.cg.kraus]
    n = (1, s.d, s.D)[which]
    for _ in range(4):
        p0 = rng.uniform(0.2, 0.8)
        x = p0 * random_density_mat(s.D * n, rng) - (1 - p0) * random_density_mat(s.D * n, rng)
        gap = 0.5 * (_trace_norm(_lifted(s._kraus_after, x, n)) - _trace_norm(_lifted(upper, x, n)))
        assert abs(gap) <= bound + 1e-12


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


@settings(max_examples=30)
@given(
    d=st.integers(2, 3),
    extra=st.integers(1, 3),
    spare=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_scenarios_decided_by_the_kernel_check(d, extra, spare, seed):
    # run_all raises MethodDisagreement if the criteria contradict each other
    big = d + extra
    s = random_scenario(big, d, -(-big // d) + spare, seed).scenario
    report = compat.run_all(s, compat.CheckConfig(witness_trials=4))
    off_image = frob(s._image.e)
    if off_image > compat.BAND * compat.TOL:
        assert (report.sdp.status, report.sdp.iterations) == (compat.INFEASIBLE, 0)
        assert abs(report.sdp.residual - off_image) <= 1e-12
        assert report.verdict == "incompatible"
    elif off_image > compat.TOL:
        assert (report.sdp.status, report.sdp.iterations) == (compat.UNDECIDED, 0)


@settings(max_examples=30)
@given(d=st.integers(2, 3), env=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_planted_scenarios_compatible_without_iterating(d, env, seed):
    s = random_planted_scenario(d, env, seed).scenario
    report = compat.run_all(s, compat.CheckConfig(witness_trials=4))
    assert report.verdict == "compatible"
    assert (report.sdp.status, report.sdp.iterations) == (compat.FEASIBLE, 0)


@settings(max_examples=30)
@given(
    d=st.integers(2, 3),
    k=st.integers(1, 3),
    planted=st.booleans(),
    mixed=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_feasible_outcomes_carry_a_trace_preserving_channel(d, k, planted, mixed, seed):
    if planted:
        s = random_planted_scenario(d, k, seed).scenario
    else:
        rng = np.random.default_rng(seed)
        s = decohered_example2(k, d, rng)
        if mixed:
            # a Haar unitary across the blocks tears the fibers
            s = ck.Scenario(s.cg, haar_unitary(k * d, rng))
    out = compat.sdp_feasibility(s)
    assert (out.status == compat.FEASIBLE) == (out.channel is not None)
    if out.channel is not None:
        assert frob(tr_out(out.channel.choi.mat, d, d) - np.eye(d)) <= 1e-12


@settings(max_examples=30)
@given(k=st.integers(2, 3), d=st.integers(2, 4), seed=st.integers(0, 2**31 - 1))
def test_decohered_example2_is_feasible_and_never_certified(k, d, seed):
    # any block-diagonal unitary is compatible with no coherences (r = d <
    # d^2), so the loop must reach the channel and never stop on a
    # certificate of infeasibility
    s = decohered_example2(k, d, seed)
    out = compat.sdp_feasibility(s)
    assert (out.status, out.iterations) == (compat.FEASIBLE, 2)
    assert out.channel is not None


@st.composite
def compatible_pairs(draw):
    """Two scenarios of one coarse-graining, each closed by the SDP's
    channel: decohered example2 blocks of one (k, d), spin-1 rotations of
    one dichotomization, or example1 rotated by at most 5e-9, where the SDP
    still builds a channel."""
    family = draw(st.sampled_from(["decohered", "spin", "rotated"]))
    if family == "decohered":
        k, d = draw(st.integers(2, 3)), draw(st.integers(2, 4))
        return tuple(decohered_example2(k, d, draw(st.integers(0, 2**31 - 1))) for _ in range(2))
    if family == "spin":
        def rotation():
            theta, phi = draw(st.floats(0, np.pi)), draw(st.floats(0, 2 * np.pi))
            n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
            return spin_dichotomization(3, draw(st.floats(-np.pi, np.pi)), n).scenario

        return rotation(), rotation()
    return tuple(rotated_example1(draw(st.floats(0, 5e-9))) for _ in range(2))


@given(pair=compatible_pairs())
# the composed distance reads 0.83 of the bound at (5e-9, 5e-9), and 1.000
# of it at (5e-9, 1e-12): the bound is tight
@example(pair=(rotated_example1(5e-9), rotated_example1(5e-9)))
@example(pair=(rotated_example1(5e-9), rotated_example1(1e-12)))
def test_composed_channels_close_the_composed_square(pair):
    # With Delta_i = T_gi T_cg - T_cg T_ui and T_{u1 u2} = T_u1 T_u2,
    #   T_g1 T_g2 T_cg - T_cg T_u1 T_u2 = T_g1 Delta_2 + Delta_1 T_u2.
    # T_u2 is unitary, so ||Delta_1 T_u2||_F = delta_1.  A CPTP map contracts
    # the trace norm of a Hermitian X, so ||g(X)||_2 <= ||g(X)||_1 <= ||X||_1
    # <= sqrt(d) ||X||_2; T_g has the singular values of its real transfer
    # matrix, the map on Hermitian X, so ||T_g||_2 <= sqrt(d) and
    # compose(g1, g2) closes (cg, u1 u2) to at most delta_1 + sqrt(d) delta_2.
    # Rounding: each of the three distances rests on an SVD of the d^2 x D^2
    # T_cg and products of inner dimension at most D^2, of factors of spectral
    # norm at most sqrt(D) (cg) and sqrt(d) (a channel), so each is off by a
    # small multiple of D^2 sqrt(d D) eps.
    s1, s2 = pair
    assert np.array_equal(s1.cg.kraus, s2.cg.kraus)
    g1, g2 = (compat.construct_emergent(s) for s in pair)
    delta1, delta2 = compat.diagram_distance(s1, g1), compat.diagram_distance(s2, g2)
    composed = compat.diagram_distance(ck.Scenario(s1.cg, s1.u @ s2.u), compose(g1, g2))
    rounding = 3 * s1.D**2 * np.sqrt(s1.d * s1.D) * np.finfo(float).eps
    assert composed <= delta1 + np.sqrt(s1.d) * delta2 + rounding



@pytest.mark.parametrize("name", [n for n, e in REG.items() if e.expected == "compatible"])
def test_verdict_flips_once_along_a_perturbed_unitary(name):
    # for a generic H, u exp(i eps H) is incompatible at every eps > 0; along
    # eps = 1e-10 .. 1e-4 the verdict must leave `compatible` once, where
    # the kernel residual meets the tolerance, and never raise
    # MethodDisagreement
    s = REG[name].scenario
    rng = np.random.default_rng(0)
    g = rng.normal(size=(s.D, s.D)) + 1j * rng.normal(size=(s.D, s.D))
    w, v = np.linalg.eigh(g + g.conj().T)
    w /= np.abs(w).max()
    compatible, residuals = [], []
    for eps in np.logspace(-10, -4, 25):
        u = s.u @ (v * np.exp(1j * eps * w)) @ v.conj().T
        report = compat.run_all(ck.Scenario(s.cg, u), compat.CheckConfig(witness_trials=0))
        compatible.append(report.verdict == "compatible")
        residuals.append(report.fiber_residual)
    flip = compatible.index(False)
    assert flip > 0 and not any(compatible[flip:])
    assert compat.TOL / 10 < residuals[flip] <= 10 * compat.TOL


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


def _perturbed(s, eps, seed):
    """u exp(i eps G) for a Gaussian Hermitian G of operator norm 1."""
    g = np.random.default_rng(seed).standard_normal((s.D, 2 * s.D)).view(np.complex128)
    w, q = np.linalg.eigh(g + g.conj().T)
    return ck.Scenario(s.cg, s.u @ (q * np.exp(1j * eps * w / np.abs(w).max())) @ q.conj().T)


_INVERSION_CGS = {
    **{name: (lambda name=name: REG[name].scenario) for name in sorted(REG)},
    # kappa = sqrt(2), as example1's: a lift scales every singular value by sqrt(m)
    "example1-lifted-4": lambda: lift(REG["example1-compatible"].scenario, 4),
}


def _with_u(s, log_eps=None, seed=0):
    """s's coarse-graining with u Haar, or with s's u moved by exp(i eps G)."""
    if log_eps is None:
        return ck.Scenario(s.cg, haar_unitary(s.D, np.random.default_rng(seed)))
    return _perturbed(s, 10.0**log_eps, seed)


@st.composite
def inversion_cases(draw):
    """A registry entry's coarse-graining, lifted example1's or a random
    Kraus map (square when D = d K), with a unitary from ``_with_u``."""
    name = draw(st.sampled_from(sorted(_INVERSION_CGS) + ["random"]))
    seed = draw(st.integers(0, 2**31 - 1))
    if name == "random":
        d, k = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        big = draw(st.integers(d, d * k))
        rng = np.random.default_rng(seed)
        s = ck.Scenario(KrausChannel(random_kraus_ops(big, d, k, rng)), haar_unitary(big, rng))
    else:
        s = _INVERSION_CGS[name]()
    return _with_u(s, draw(st.one_of(st.none(), st.floats(-12, -1))), seed)


def _inversion_example(name, log_eps=None):
    return _with_u(_INVERSION_CGS[name](), log_eps)


@settings(max_examples=60)
@given(s=inversion_cases())
@example(s=_inversion_example("example1-lifted-4"))
@example(s=_inversion_example("example1-lifted-4", -9.0))
@example(s=_inversion_example("example1-compatible", -6.0))
@example(s=_inversion_example("example2-compatible", -9.0))
@example(s=_inversion_example("example2-incompatible"))
@example(s=_inversion_example("example1-incompatible"))
@example(s=_inversion_example("spin-d3", -3.0))
def test_the_kernel_residual_of_u_inverse_is_within_kappa(s):
    """kappa^-1 <= ||E(u*)||_2 / ||E(u)||_2 <= kappa, kappa = sigma_max /
    sigma_min of T_cg's kept singular values.

    In the real coordinates of Hermitian operators T_u is orthogonal.  With
    T_R = U S V^T cut at rank r and V_perp the complement of V, E(u) =
    T_R T_u (I - V V^T) = U S N V_perp^T for N = V^T T_u V_perp, so
    sigma_min ||N||_2 <= ||E(u)||_2 <= sigma_max ||N||_2; T_u* = T_u^T puts
    P^T, P = V_perp^T T_u V, in N's place.  T_u's blocks in the basis
    (V, V_perp) give N N^T = I - M M^T and P^T P = I - M^T M for the square
    M = V^T T_u V, whose two Grams share their eigenvalues, so ||N||_2 =
    ||P||_2 and the bound follows.  A square stack has every singular value
    sqrt(K), so kappa = 1 and the two residuals are equal.

    Rounding: E is A (I - V V^T) with ||A||_2 = sigma_max and V orthonormal
    to O(D^2 eps), so each computed ||E||_2 is off by a small multiple of
    rho = sigma_max D^2 eps; over 600 draws the bound was exceeded by at
    most 0.22 rho.
    """
    img, img_inv = s._image, ck.Scenario(s.cg, s.u.conj().T)._image
    kappa = img.sigma[0] / img.sigma[-1]
    rho = img.sigma[0] * s.D**2 * np.finfo(float).eps
    if s.cg._unitary_stack_delta is not None:
        assert kappa == 1.0
        assert abs(img_inv.e_norm - img.e_norm) <= rho
    assert img_inv.e_norm <= kappa * img.e_norm + rho
    assert img.e_norm <= kappa * img_inv.e_norm + rho


_COMPOSITION_CGS = {
    **{name: (lambda name=name: REG[name].scenario) for name in sorted(REG)},
    # kappa = sqrt(2), as example1's
    "example1-rotated-lifted-4": lambda: lift(rotated_example1(5e-9), 4),
}


def _composition_pair(s, log_eps1, log_eps2, seed=0):
    """s's coarse-graining with u1 and u2 each s's u moved by exp(i eps G)."""
    return _perturbed(s, 10.0**log_eps1, seed), _perturbed(s, 10.0**log_eps2, seed + 1)


@st.composite
def composition_cases(draw):
    """A registry entry's coarse-graining, lifted rotated example1's or a
    random Kraus map (D 3-8, d 2-3, K from ceil(D/d) to ceil(D/d) + 2, so
    square when K d = D, with u = I), and a pair from ``_composition_pair``."""
    name = draw(st.sampled_from(sorted(_COMPOSITION_CGS) + ["random"]))
    seed = draw(st.integers(0, 2**31 - 1))
    if name == "random":
        d = draw(st.integers(2, 3))
        big = draw(st.integers(3, 8))
        k = draw(st.integers(-(-big // d), -(-big // d) + 2))
        ops = random_kraus_ops(big, d, k, np.random.default_rng(seed))
        s = ck.Scenario(KrausChannel(ops), np.eye(big))
    else:
        s = _COMPOSITION_CGS[name]()
    return _composition_pair(s, draw(st.floats(-9, -1)), draw(st.floats(-9, -1)), seed)


@settings(max_examples=60)
@given(pair=composition_cases())
@example(pair=_composition_pair(_COMPOSITION_CGS["example1-rotated-lifted-4"](), -9.0, -9.0))
@example(pair=_composition_pair(REG["spin-d3"].scenario, -9.0, -1.0))
@example(pair=_composition_pair(REG["example2-compatible"].scenario, -6.0, -9.0))
@example(pair=_composition_pair(REG["example1-incompatible"].scenario, -1.0, -1.0))
def test_the_kernel_residual_of_a_product_is_within_the_composition_bound(pair):
    """||E(u1 u2)||_2 <= ||E(u1)||_2 + kappa ||E(u2)||_2, kappa = sigma_max /
    sigma_min of T_cg's kept singular values; as kappa >= 1 this implies
    kappa (||E(u1)||_2 + ||E(u2)||_2).

    In the real coordinates of Hermitian operators, T_R = U S V^T cut at
    rank r, V_perp the complement of V and T_u orthogonal,
    T_{u1 u2} = T_u1 T_u2 and E(u) = T_R T_u (I - V V^T), so ||E(u)||_2 =
    ||T_R T_u V_perp||_2.  Splitting T_u2 V_perp along (V, V_perp),
    ``T_{u1 u2} V_perp = T_u1 V (V^T T_u2 V_perp) + T_u1 V_perp (V_perp^T
    T_u2 V_perp)``.  T_R times the first term has norm <= sigma_max
    ||V^T T_u2 V_perp||_2, and ``||E(u2)||_2 = ||S V^T T_u2 V_perp||_2 >=
    sigma_min ||V^T T_u2 V_perp||_2``, so it is <= kappa ||E(u2)||_2.  T_R
    times the second term has norm <= ||E(u1)||_2, since a block of the
    orthogonal T_u2 has norm <= 1.  The argument holds wherever the cut
    falls, so this law cannot see a misplaced cut; the composition of
    channels does.

    Rounding: as in the inversion law, each computed ||E||_2 is off by a
    small multiple of rho = sigma_max D^2 eps, and the bound adds three of
    them, one scaled by kappa.  The law is tight (a ratio of 1 - 6e-9 seen
    over 1776 draws of these cases), so the test allows (2 + kappa) rho.
    """
    s1, s2 = pair
    s12 = ck.Scenario(s1.cg, s1.u @ s2.u)
    img = s1._image
    kappa = img.sigma[0] / img.sigma[-1]
    rho = img.sigma[0] * s1.D**2 * np.finfo(float).eps
    assert s12._image.e_norm <= img.e_norm + kappa * s2._image.e_norm + (2 + kappa) * rho


_BASES = {
    **{name: (lambda seed, name=name: REG[name].scenario) for name in sorted(REG)},
    # u2 = H R(5e-9) H, a rotation mixing the kept and discarded directions
    "example1-rotated": lambda seed: rotated_example1(5e-9),
    "random-3-2": lambda seed: random_scenario(3, 2, 2, seed).scenario,
    "random-4-2": lambda seed: random_scenario(4, 2, 3, seed).scenario,
    "planted-2-2": lambda seed: random_planted_scenario(2, 2, seed).scenario,
}


@settings(max_examples=60)
@given(
    base=st.sampled_from(sorted(_BASES)),
    seed=st.integers(0, 2**31 - 1),
    log_eps=st.one_of(st.none(), st.floats(-10.5, -6.5)),
    m=st.sampled_from([1, 2, 4, 8, 16, 32]),
    tol=st.sampled_from([1e-8, 1e-7, 1e-6, 1e-5]),
)
# at the relative rule, ||B - V M||_F <= 1e-8 ||B||_F, each of these accepted
# V with a failed kernel check, and run_all raised MethodDisagreement
@example(base="example1-rotated", seed=0, log_eps=None, m=8, tol=1e-8)
@example(base="planted-2-2", seed=0, log_eps=-8.0, m=4, tol=1e-8)
@example(base="planted-2-2", seed=2, log_eps=-8.5, m=16, tol=1e-8)
# accepted V, perturbed and unperturbed
@example(base="planted-2-2", seed=3, log_eps=-10.0, m=2, tol=1e-8)
@example(base="planted-2-2", seed=5, log_eps=None, m=32, tol=1e-8)
def test_lifted_decisions_never_raise_and_an_intertwiner_bounds_the_kernel(
    base, seed, log_eps, m, tol
):
    s = _BASES[base](seed)
    if log_eps is not None:
        s = _perturbed(s, 10.0**log_eps, seed)
    s = lift(s, m)
    report = compat.run_all(s, compat.CheckConfig(tol=tol, witness_trials=0))
    if report.algebraic_v is not None:
        *_, bound = _kron_lstsq(s)
        assert report.fiber_preserved
        assert report.fiber_residual <= bound <= tol
    if frob(s._image.e) > tol:
        assert report.sdp.iterations == 0


def _phase_damped_trace(seed):
    """A 3-level environment traced out, then the qubit's coherences scaled
    by p = 10^-(1 + seed mod 9), with a Haar u of size 6: T_cg keeps the
    populations, so sigma_min / sigma_max = p, and the witness's re-projection
    divides by p^2."""
    p = 10.0 ** -(1 + seed % 9)
    cg = lift(dephased_hadamard(1 - p), 3).cg
    return compat.Scenario(cg, haar_unitary(6, np.random.default_rng(seed)))


_WITNESS_BASES = {
    "example1-incompatible": lambda seed: REG["example1-incompatible"].scenario,
    "example2-incompatible": lambda seed: REG["example2-incompatible"].scenario,
    "random-5-2": lambda seed: random_scenario(5, 2, 3, seed).scenario,
    "random-6-3": lambda seed: random_scenario(6, 3, 2, seed).scenario,
    "phase-damped-trace": _phase_damped_trace,
}


@settings(max_examples=40)
@given(
    base=st.sampled_from(sorted(_WITNESS_BASES)),
    seed=st.integers(0, 2**31 - 1),
    m=st.sampled_from([1, 2, 4, 8]),
)
@example(base="example1-incompatible", seed=0, m=32)  # D = 96
@example(base="phase-damped-trace", seed=8, m=8)  # p = 1e-9, D = 48
def test_kernel_witness_is_a_hermitian_kernel_element(base, seed, m):
    # the witness's X = p0 rho0 - p1 rho1 is the kernel element read off the
    # real coordinates, Hermitian to the bit and read-only: cg(X) is as small
    # as the rank cut lets it be
    s = lift(_WITNESS_BASES[base](seed), m)
    fiber_ok, _ = compat.check_fiber_preservation(s)
    assert not fiber_ok
    w = s._kernel_witness
    assert w is not None and w.source == "kernel"
    x = w.x
    assert np.array_equal(x, x.conj().T) and not x.flags.writeable
    cg_x = sum(k @ x @ k.conj().T for k in s.cg.kraus)
    assert frob(cg_x) <= (s._image.cut + 1e-12) * frob(x)


def test_kernel_witness_is_none_without_a_split():
    # r = D^2 makes E exactly 0, so X = 0 has no PSD parts of positive trace
    assert identity_scenario(np.eye(2))._kernel_witness is None


# K d = D, a square stack factored in closed form, and K d > D, factored by the SVD
@pytest.mark.parametrize("kraus_count", [24, 25])
def test_image_criteria_build_nothing_of_size_D2_by_D2(kraus_count):
    # one D^2 x D^2 complex array at D=48 takes 81 MB; the d^2 x D^2
    # matrices of the thin-SVD path take 0.15 MB each
    s = random_scenario(48, 2, kraus_count, 0).scenario
    tracemalloc.start()
    try:
        compat.check_fiber_preservation(s)
        compat.sdp_feasibility(s)
        compat.construct_emergent(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("kraus_count", [8, 9])
def test_image_criteria_hold_real_d2_by_D2_arrays(kraus_count):
    # at D = 32, d = 4 a d^2 x D^2 array takes 128 KiB in real coordinates
    # and 256 KiB in complex ones; the complex factorization peaked at 1.29 MiB
    s = random_scenario(32, 4, kraus_count, 7).scenario
    tracemalloc.start()
    try:
        compat.check_fiber_preservation(s)
        compat.sdp_feasibility(s)
        compat.construct_emergent(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "s",
    [
        pytest.param(random_scenario(32, 4, 8, 7).scenario, id="square-D32"),
        pytest.param(random_scenario(32, 4, 9, 7).scenario, id="svd-D32"),
        pytest.param(decohered_example2(8, 4, 7), id="dephasing-D32"),  # r = d < d^2
    ],
)
def test_the_image_keeps_real_factors_and_the_split_alone(s):
    # E (d^2 x D^2), V (D^2 x r), U_R and A V (d^2 x r), E E^T's top
    # eigenvector and sigma, all real.  U_R and the eigenvector are views of
    # the d^2 x d^2 factors they are cut from, and sigma of all d^2 singular
    # values, so those count at that size; 8 KiB covers the tuple, the array
    # headers and the floats (2.7 KiB measured).  At D = 32, d = 4, r = 16 the
    # bound is 270 KiB and the image keeps 265 KiB; with T_R, A and complex
    # copies of U, A V and U S it kept 404 KiB
    d2, dd2 = s.d**2, s.D**2
    s._kraus_after, s.cg._unitary_stack_delta  # the scenario's and the channel's
    tracemalloc.start()
    try:
        img = s._image
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    r = img.sigma.size
    assert kept <= 8 * (d2 * dd2 + dd2 * r + d2 * d2 + d2 * r + d2 * d2 + d2) + 8192
    assert all(f.dtype == np.float64 for f in img if isinstance(f, np.ndarray))


def test_sdp_builds_nothing_of_size_d4():
    # at d=6 a basis of d^4 Hermitian matrices of size d^2 x d^2 takes 27 MB
    # and its stacked real system and that system's pinv 28 MB each; the
    # closed-form projection needs a few d^2 x d^2 matrices of 21 KB each
    s = random_planted_scenario(6, 2, 0).scenario
    tracemalloc.start()
    try:
        compat.sdp_feasibility(s, max_iter=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_sdp_loop_builds_nothing_of_size_d4():
    # the planted case above has r = d^2 and decides without iterating; this
    # decohered one (d = 6, r = 6 < d^2) runs the loop under the same bound
    blocks = [haar_unitary(2, np.random.default_rng(k)) for k in range(6)]
    s = example2(2, 6, blocks, "none").scenario
    tracemalloc.start()
    try:
        out = compat.sdp_feasibility(s, max_iter=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.iterations > 0
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "s",
    [
        pytest.param(random_planted_scenario(4, 4, 0).scenario, id="planted-16"),
        pytest.param(decohered_example2(4, 4, 0), id="dephasing-16"),  # K = 16
    ],
)
def test_witness_search_holds_two_factors_and_one_kraus_image(s):
    # at ancilla D (D n = 256) each Wishart factor takes 1 MiB and its image
    # under one Kraus operator 256 KiB; the search holds one trial's two
    # factors, one image with its conjugate, and the Gram and Helstrom
    # blocks, but never every operator's image at once
    dim, dn = s.D * s.D, s.d * s.D
    factors = 2 * 16 * dim**2
    image = 16 * dn * dim
    blocks = 6 * 16 * dn**2
    # the cached operators {M_k u} belong to the scenario, not the search
    s._kraus_after
    tracemalloc.start()
    try:
        assert compat.search_witness(s, 4, s.D, seed=0) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < factors + 2 * image + blocks + 2**16


@settings(max_examples=60)
@given(d=st.integers(1, 5), rank=st.integers(1, 25), seed=st.integers(0, 2**31 - 1))
# a rank-1 J whose tr_out J has lambda_min = 1.47e-4: ||sum K*K - I||_F reads
# 3.31e-12 = 2.2 eps / lambda_min
@example(d=5, rank=1, seed=220)
def test_channel_congruence_matches_the_kronecker_product(d, rank, seed):
    # J = G G* scaled to trace d, of any rank up to d^2, given to _channel as
    # its eigenpairs; the congruence by R x I with R = (tr_out J)^(-1/2),
    # built with a Kronecker product here.  Both sides round like
    # eps ||R||_2^2 ||J||_F; a rank-1 J at d = 5 has shown 2e-12 ||J||_F, so
    # the bound carries ||R||_2^2
    rng = np.random.default_rng(seed)
    shape = (d * d, min(rank, d * d))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psd = g @ g.conj().T
    psd *= d / np.trace(psd).real
    w, q = np.linalg.eigh(np.trace(psd.reshape(d, d, d, d), axis1=1, axis2=3))
    r = np.kron((q / np.sqrt(w)) @ q.conj().T, np.eye(d))
    got = compat._channel(*np.linalg.eigh(psd), d)
    assert got is not None
    assert frob(got.choi.mat - r @ psd @ r) <= 1e-13 * frob(psd) / w.min()
    # sum K*K = R (tr_out J) R rounds like eps ||R||_2^2 ||tr_out J||_2, so
    # its bound carries ||R||_2^2 = 1 / lambda_min as well; the d eigenvalues
    # of tr_out J sum to d, so lambda_min <= 1 and the bound is never below 1e-12
    x = got.kraus.reshape(-1, d)
    assert frob(x.conj().T @ x - np.eye(d)) <= 1e-12 / w.min()


def _ill_conditioned_rank_one():
    rng = np.random.default_rng(0)
    return haar_unitary(2, rng) @ np.diag([1.0, 1e-6]) @ haar_unitary(2, rng)


@pytest.mark.parametrize(
    "k, singular",
    [(np.diag([1.0, 0.0]), True), (_ill_conditioned_rank_one(), False)],
    ids=["singular", "tp-missed"],
)
def test_channel_is_none_while_the_point_is_no_channel(k, singular):
    # J = vec(K) vec(K)*.  For K = |0><0|, tr_out J is singular.  For the other
    # K its lambda_min is 1e-12, so ||R||_2^2 = 1e12 and sum K*K - I rounds
    # like eps 1e12 (2e-5 seen), far past CHOI_TP_TOL
    j = np.outer(vec(k), vec(k).conj())
    lam_min = np.linalg.eigvalsh(tr_out(j, 2, 2)).min()
    assert (lam_min <= 0) == singular and lam_min < 1e-11
    assert compat._channel(*np.linalg.eigh(j), 2) is None


def _eigensolver_calls(monkeypatch, pick):
    """The names of the eigensolvers called on the matrices that ``pick``
    selects, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            if pick(a):
                calls.append(_name)
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _complex_eighs(monkeypatch, n):
    """The names of the eigensolvers called on complex n x n matrices."""
    return _eigensolver_calls(monkeypatch, lambda a: np.shape(a) == (n, n) and np.iscomplexobj(a))


def _real_eighs(monkeypatch, n):
    """The names of the eigensolvers called on real n x n matrices."""
    return _eigensolver_calls(monkeypatch, lambda a: np.shape(a) == (n, n) and np.isrealobj(a))


_KERNEL_CASES = {
    "example1-incompatible": lambda: REG["example1-incompatible"].scenario,
    "example2-incompatible": lambda: REG["example2-incompatible"].scenario,
    "random": lambda: random_scenario(8, 2, 4, 7).scenario,
    "spin-d3": lambda: REG["spin-d3"].scenario,
    "example2-compatible": lambda: REG["example2-compatible"].scenario,
    "planted": lambda: random_planted_scenario(3, 2, 5).scenario,
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_the_kernel_check_takes_one_gram_eigh_whatever_tol(monkeypatch, case):
    # the residual and the witness's vector come from one eigh of E E^T,
    # the only real d^2 x d^2 eigenproblem of a decision; tol decides the
    # verdict but never which solver runs
    for tol in (1e-14, compat.TOL, 10.0):
        named = _KERNEL_CASES[case]()
        s = compat.Scenario(named.cg, named.u)  # nothing cached
        with monkeypatch.context() as m:
            calls = _real_eighs(m, s.d**2)
            report = compat.run_all(s, compat.CheckConfig(tol=tol, witness_trials=0))
        assert calls == ["eigh"]
        # eigh and eigvalsh of one symmetric n x n Gram G each put lambda_max
        # within c n eps ||G||_2 of the exact value, with c a small constant,
        # and ||G||_2 = lambda_max; sqrt halves the relative error, so with
        # c = 1 the residuals agree to within n eps of the residual
        e = s._image.e
        want = float(np.sqrt(max(np.linalg.eigvalsh(e @ e.T)[-1], 0.0)))
        assert abs(report.fiber_residual - want) <= s.d**2 * np.finfo(float).eps * want
        assert report.fiber_preserved == (report.fiber_residual <= tol)


def test_a_closed_form_compatible_decision_takes_one_choi_eigendecomposition(monkeypatch):
    # the SDP's cone projection, whose eigenpairs also give the channel's
    # Kraus form; the kernel check's real Gram E E^T and the d x d tr_out J
    # of the trace normalization are not Choi matrices
    s = random_planted_scenario(4, 4, 0).scenario
    choi = _complex_eighs(monkeypatch, s.d**2)
    krons = []

    def kron(*args, _f=np.kron):
        krons.append(args)
        return _f(*args)

    monkeypatch.setattr(np, "kron", kron)
    built = []
    monkeypatch.setattr(ChoiMatrix, "__post_init__",
                        lambda self, _f=ChoiMatrix.__post_init__: built.append(self) or _f(self))
    report = compat.run_all(s)
    assert report.verdict == "compatible"
    assert report.sdp.iterations == 0
    assert choi == ["eigh"]
    assert krons == []
    assert built == []


def test_a_feasible_loop_decision_takes_one_eigendecomposition_per_later_iteration(monkeypatch):
    # a decohered example2 scenario (r = d < d^2) is decided by the loop,
    # whose first step projects the zero matrix in closed form
    s = decohered_example2(3, 3, 3)
    choi = _complex_eighs(monkeypatch, s.d**2)
    report = compat.run_all(s, compat.CheckConfig(witness_trials=0))
    assert report.verdict == "compatible"
    assert report.sdp.status == compat.FEASIBLE and report.sdp.iterations >= 2
    assert choi == ["eigh"] * (report.sdp.iterations - 1)


@pytest.mark.parametrize("name", ["dephasing", "swap", "cycle"])
def test_a_one_iteration_loop_is_undecided_at_the_zero_point(monkeypatch, name):
    # iteration 1 projects J = 0 and takes no eigh; its residual is the
    # zero point's, computed as a projection of J = 0 computes it
    cases = {"dephasing": lambda: decohered_example2(2, 2, 0), "swap": swap, "cycle": three_cycle}
    s = cases[name]()
    img, n = s._image, s.d**2
    # r < d^2 and no residual off the image: the loop decides
    assert img.sigma.size < n and img.e_frob <= compat.TOL
    calls = _complex_eighs(monkeypatch, n)
    out = compat.sdp_feasibility(s, max_iter=1)
    assert (out.status, out.iterations, out.channel) == (compat.UNDECIDED, 1, None)
    assert calls == []
    zero = np.zeros((n, n), dtype=np.complex128)
    tp_row = np.eye(s.d, dtype=np.complex128).ravel()
    diagram = zero @ (vec_from_real(img.u, s.d) * img.sigma) - vec_from_real(img.av, s.d)
    trace = tp_row @ zero - tp_row
    sq = np.vdot(diagram, diagram).real + np.vdot(trace, trace).real
    assert out.residual == float(np.sqrt(sq + img.e_frob**2))
