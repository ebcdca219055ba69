import numpy as np
import pytest

import coarsekit as ck
from coarsekit import compat
from coarsekit.channel import channels_equal, unitary_channel
from coarsekit.errors import DimensionMismatch, NotUnitary
from coarsekit.linalg import frob
from coarsekit.scenarios import (
    _fourier,
    emergent_spin_rotation,
    example1,
    example2,
    random_planted_scenario,
    random_scenario,
    registry,
    spin_dichotomization,
    spin_matrices,
)

S2 = np.sqrt(2.0)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / S2


class TestExample1:
    def test_diagonal_in_pm_basis_is_compatible(self):
        u2 = HADAMARD @ np.diag(np.exp(1j * np.array([0.5, -1.1]))) @ HADAMARD
        assert example1(u2).expected == "compatible"

    def test_identity_block_is_compatible(self):
        assert example1(np.eye(2)).expected == "compatible"

    def test_pm_mixing_rotation_is_incompatible(self):
        u2 = HADAMARD @ rotation(np.pi / 4) @ HADAMARD
        assert example1(u2).expected == "incompatible"

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            example1(np.diag([1.0, 0.5]))

    def test_image_formula(self):
        # state written over {|0>, |+>, |->}: image keeps (1-p, a) and drops b
        ns = example1(np.eye(2))
        cg = ns.scenario.cg
        q = np.zeros((3, 3), dtype=complex)
        q[:, 0] = [1, 0, 0]
        q[:, 1] = [0, 1 / S2, 1 / S2]
        q[:, 2] = [0, 1 / S2, -1 / S2]
        rng = np.random.default_rng(0)
        p = 0.37
        a = 0.11 - 0.05j
        b = -0.04 + 0.09j
        inner = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        inner = inner @ inner.conj().T
        inner /= np.trace(inner).real
        rho_rot = np.array(
            [
                [1 - p, a, b],
                [np.conj(a), p * inner[0, 0], p * inner[0, 1]],
                [np.conj(b), p * inner[1, 0], p * inner[1, 1]],
            ]
        )
        rho = q @ rho_rot @ q.conj().T
        image = sum(k @ rho @ k.conj().T for k in cg.kraus)
        expected = np.array([[1 - p, a], [np.conj(a), p]])
        assert frob(image - expected) < 1e-12

    def test_expected_matches_fiber_oracle(self):
        cases = [
            np.eye(2),
            HADAMARD @ np.diag(np.exp(1j * np.array([0.9, 0.2]))) @ HADAMARD,
            HADAMARD @ rotation(np.pi / 4) @ HADAMARD,
            rotation(0.3),
        ]
        for u2 in cases:
            ns = example1(u2)
            ok, _ = compat.check_fiber_preservation(ns.scenario)
            assert (ns.expected == "compatible") == ok


class TestExample2:
    def test_equal_blocks_compatible(self):
        blk = rotation(0.4)
        ns = example2(2, 2, [blk, blk], "full")
        assert ns.expected == "compatible"
        ok, _ = compat.check_fiber_preservation(ns.scenario)
        assert ok

    def test_blocks_differing_by_rotation_incompatible(self):
        f2 = _fourier(2)
        blk = rotation(0.4)
        off = f2 @ rotation(np.pi / 3) @ f2.conj().T @ blk
        ns = example2(2, 2, [blk, off], "full")
        assert ns.expected == "incompatible"
        ok, _ = compat.check_fiber_preservation(ns.scenario)
        assert not ok

    def test_phase_offset_blocks_still_compatible(self):
        # equal up to a global phase in the Fourier frame
        blk = rotation(0.4)
        ns = example2(2, 2, [blk, np.exp(0.7j) * blk], "full")
        assert ns.expected == "compatible"
        ok, _ = compat.check_fiber_preservation(ns.scenario)
        assert ok

    def test_decohered_mode_any_blocks_compatible(self):
        rng = np.random.default_rng(1)
        from coarsekit.rand import haar_unitary

        blocks = [haar_unitary(2, rng) for _ in range(2)]
        ns = example2(2, 2, blocks, "none")
        assert ns.expected == "compatible"
        ok, _ = compat.check_fiber_preservation(ns.scenario)
        assert ok
        assert len(ns.scenario.cg.kraus) == 4

    def test_two_block_kraus_structure(self):
        blk = np.eye(2)
        ns = example2(2, 2, [blk, blk], "full")
        k0, k1 = ns.scenario.cg.kraus
        expected_k0 = np.array(
            [[1 / S2, 1 / S2, 0, 0], [0, 0, 1 / S2, 1 / S2]], dtype=complex
        )
        expected_k1 = np.array(
            [[1 / S2, -1 / S2, 0, 0], [0, 0, 1 / S2, -1 / S2]], dtype=complex
        )
        assert frob(k0 - expected_k0) < 1e-12
        assert frob(k1 - expected_k1) < 1e-12

    def test_image_formula_in_pm_basis(self):
        # image entries are sums over the +/- frame: populations and cross-block coherences
        ns = example2(2, 2, [np.eye(2), np.eye(2)], "full")
        cg = ns.scenario.cg
        basis = np.zeros((4, 4), dtype=complex)
        basis[:2, 0] = [1 / S2, 1 / S2]
        basis[:2, 1] = [1 / S2, -1 / S2]
        basis[2:, 2] = [1 / S2, 1 / S2]
        basis[2:, 3] = [1 / S2, -1 / S2]
        rng = np.random.default_rng(2)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        r = basis.conj().T @ rho @ basis
        image = sum(k @ rho @ k.conj().T for k in cg.kraus)
        expected = np.array(
            [
                [r[0, 0] + r[1, 1], r[0, 2] + r[1, 3]],
                [r[2, 0] + r[3, 1], r[2, 2] + r[3, 3]],
            ]
        )
        assert frob(image - expected) < 1e-12

    def test_larger_blocks(self):
        from coarsekit.rand import haar_unitary

        rng = np.random.default_rng(3)
        blk = haar_unitary(3, rng)
        ns = example2(3, 2, [blk, blk], "full")
        assert ns.expected == "compatible"
        ok, _ = compat.check_fiber_preservation(ns.scenario)
        assert ok

    def test_block_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            example2(2, 3, [np.eye(2), np.eye(2)], "full")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: example1(np.eye(3)), DimensionMismatch, "u2 must be 2x2"),
        (lambda: example2(2, 2, [np.eye(3)] * 2), DimensionMismatch, "blocks must be 2x2"),
        (lambda: example2(2, 2, [np.eye(2)] * 2, "some"), ValueError, "coherence_mode must be"),
        (lambda: spin_matrices(1), ValueError, "dim must be an integer >= 2"),
        # the same range rule for the counts of example2 and spin_matrices
        (lambda: example2(0, 2, []), ValueError, "k must be an integer >= 1"),
        (lambda: example2(2.0, 2, [np.eye(2)] * 2), ValueError, "k must be an integer >= 1"),
        (lambda: example2(2, 0, []), ValueError, "d must be an integer >= 1"),
        (lambda: spin_matrices(2.5), ValueError, "dim must be an integer >= 2"),
        (lambda: spin_dichotomization(2.5, 0.3, (0, 0, 1)), ValueError, "dim must be an integer"),
        # the range rule of random_scenario: counts >= 1, seed >= 0, never a bool
        (lambda: random_planted_scenario(2, 2, True), ValueError, "seed must be an integer"),
        (lambda: random_planted_scenario(2.5, 2, 1), ValueError, "small_dim must be an integer"),
        (lambda: random_planted_scenario(True, 2, 1), ValueError, "small_dim must be an integer"),
        (lambda: random_planted_scenario(2, 2, 1.5), ValueError, "seed must be an integer"),
        (lambda: random_planted_scenario(0, 3, 1), ValueError, "small_dim must be an integer"),
        (lambda: random_planted_scenario(2, 0, 1), ValueError, "env_dim must be an integer"),
        (lambda: random_planted_scenario(2, 2, -1), ValueError, "seed must be an integer"),
    ],
    ids=["example1-block-size", "example2-block-size", "example2-coherence-mode",
         "spin-matrices-dim", "example2-zero-k", "example2-float-k", "example2-zero-d",
         "spin-matrices-float-dim", "spin-dichotomization-float-dim", "planted-bool-seed",
         "planted-float-dim", "planted-bool-dim", "planted-float-seed", "planted-zero-dim",
         "planted-zero-env", "planted-negative-seed"],
)
def test_builders_reject_bad_arguments(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestSpinDichotomization:
    def test_d2_is_identity_channel(self):
        ns = spin_dichotomization(2, 0.7, (0.0, 1.0, 0.0))
        ident = ck.KrausChannel([np.eye(2)])
        assert frob(ns.scenario.cg.choi.mat - ident.choi.mat) < 1e-10

    def test_trivial_rotation(self):
        ns = spin_dichotomization(3, 0.0, (0.0, 0.0, 1.0))
        assert frob(ns.scenario.u - np.eye(3)) < 1e-12
        gamma = compat.construct_emergent(ns.scenario)
        assert channels_equal(gamma, ck.KrausChannel([np.eye(2)]))

    def test_spin_matrices_algebra(self):
        for dim in (2, 3, 4, 5):
            jx, jy, jz = spin_matrices(dim)
            # [Jx, Jy] = i Jz and casimir = j(j+1) I
            assert frob(jx @ jy - jy @ jx - 1j * jz) < 1e-12
            j = (dim - 1) / 2
            casimir = jx @ jx + jy @ jy + jz @ jz
            assert frob(casimir - j * (j + 1) * np.eye(dim)) < 1e-12

    def test_d3_compatible_with_half_angle_rotation(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            alpha = rng.uniform(0, 2 * np.pi)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            ns = spin_dichotomization(3, alpha, n)
            gamma = compat.construct_emergent(ns.scenario)
            assert gamma is not None
            expected = unitary_channel(emergent_spin_rotation(alpha, n))
            assert frob(gamma.choi.mat - expected.choi.mat) < 1e-7

    def test_requires_unit_vector(self):
        with pytest.raises(ValueError):
            spin_dichotomization(3, 1.0, (1.0, 1.0, 0.0))

    @pytest.mark.parametrize(
        "alpha, n",
        [(np.pi, (0, 1)), (np.pi, (0, 0, 2)), (np.nan, (0, 0, 1)), (np.inf, (0, 0, 1)),
         (1.0, (0, np.nan, 1)), (1.0, (0, np.inf, 0)), (True, (0, 0, 1)), (10**400, (0, 0, 1)),
         (1.0, (0, 0, 1j)), (1.0, ("z", 0, 1))],
        ids=["two-components", "norm-2", "nan-angle", "inf-angle", "nan-axis", "inf-axis",
             "bool-angle", "huge-int-angle", "complex-axis", "text-axis"],
    )
    @pytest.mark.parametrize("build", [lambda a, n: spin_dichotomization(3, a, n),
                                       emergent_spin_rotation], ids=["scenario", "emergent"])
    def test_one_rule_for_the_rotation(self, build, alpha, n):
        # emergent_spin_rotation used to return the y rotation for (0, 1), the
        # double angle for (0, 0, 2) and NaNs for a NaN angle;
        # spin_dichotomization raised LinAlgError for an infinite angle; text
        # fails numpy's conversion, itself a ValueError
        with pytest.raises(ValueError, match="finite real angle and a unit 3-vector|malformed"):
            build(alpha, n)

    def test_a_real_axis_given_as_complex_numbers_is_accepted(self):
        assert np.array_equal(emergent_spin_rotation(0.3, (0, 0, 1 + 0j)),
                              emergent_spin_rotation(0.3, (0, 0, 1)))

    def test_cp_for_moderate_dimensions(self):
        for dim in (2, 3, 4, 5, 6):
            spin_dichotomization(dim, 0.3, (0.0, 0.0, 1.0))


class TestRandomScenarios:
    def test_deterministic_in_seed(self):
        a = random_scenario(4, 2, 3, 123)
        b = random_scenario(4, 2, 3, 123)
        assert np.array_equal(a.scenario.u, b.scenario.u)
        for ka, kb in zip(a.scenario.cg.kraus, b.scenario.cg.kraus):
            assert np.array_equal(ka, kb)

    def test_channel_is_cptp(self):
        for seed in range(5):
            ns = random_scenario(6, 3, 4, seed)
            gram = sum(k.conj().T @ k for k in ns.scenario.cg.kraus)
            assert frob(gram - np.eye(6)) < 1e-9

    def test_unitary_quality(self):
        ns = random_scenario(5, 2, 4, 7)
        u = ns.scenario.u
        assert frob(u.conj().T @ u - np.eye(5)) < 1e-10

    def test_planted_scenario_intertwines(self):
        ns = random_planted_scenario(3, 2, 5)
        s = ns.scenario
        v, res = compat.solve_algebraic_V(s)
        assert v is not None and res < 1e-9
        for m in s.cg.kraus:
            assert frob(m @ s.u - v @ m) < 1e-9


class TestRegistry:
    def test_names(self):
        assert set(registry()) == {
            "example1-compatible",
            "example1-incompatible",
            "example2-compatible",
            "example2-incompatible",
            "spin-d3",
        }

    def test_one_name_builds_that_entry(self):
        every = registry()
        for name, ns in every.items():
            one = registry(name)
            assert list(one) == [name]
            got = one[name]
            assert (got.name, got.expected, got.notes) == (ns.name, ns.expected, ns.notes)
            # bit for bit, signed zeros included
            assert got.scenario.u.tobytes() == ns.scenario.u.tobytes()
            assert got.scenario.cg.kraus.tobytes() == ns.scenario.cg.kraus.tobytes()

    def test_one_name_evaluates_no_other_entry(self, monkeypatch):
        from coarsekit import scenarios

        calls = []
        for name in ("example1", "example2", "_fourier"):
            monkeypatch.setattr(scenarios, name, lambda *a, _n=name, **k: calls.append(_n))
        assert list(registry("spin-d3")) == ["spin-d3"]
        assert calls == []

    def test_unknown_name_gives_no_entry(self):
        assert registry("no-such-scenario") == {}

    def test_expected_verdicts_hold(self):
        cfg = compat.CheckConfig(witness_trials=150)
        for name, ns in registry().items():
            report = compat.run_all(ns.scenario, cfg)
            assert report.verdict == ns.expected, name
            if ns.expected == "incompatible":
                assert not report.fiber_preserved
                assert report.emergent is None
