"""The witness search against a dense reference.

The reference draws each state as a (D n) x (D n) density matrix and pushes
it through ``kron(M_k, I_n)`` and ``kron(u, I_n)``; the search keeps each
state as a factor G of G G*/tr and pushes G through the Kraus operators one
at a time.  Both read three streams spawned from
``SeedSequence([seed, ancilla_dim])`` (weights, pure-state vectors, Wishart
factors) in trial order, one trial at a time, so they must return the same
trial with bit-identical states; guessing probabilities may differ by
rounding.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsekit import compat
from coarsekit.rand import haar_unitary
from coarsekit.scenarios import random_planted_scenario, random_scenario, registry

from builders import decohered_example2, rotated_example1

REG = registry()
PG_TOL = 1e-12


def _dense_pguess(s, n, p0, rho0, rho1):
    """Guessing probabilities before and after u, through lifted operators."""
    eye_n = np.eye(n)
    lifted = [np.kron(m, eye_n) for m in s.cg.kraus]
    u_lift = np.kron(s.u, eye_n)

    def coarse(r):
        return sum(k @ r @ k.conj().T for k in lifted)

    def moved(r):
        return u_lift @ r @ u_lift.conj().T

    before = compat.helstrom_pguess(p0, coarse(rho0), coarse(rho1))
    after = compat.helstrom_pguess(p0, coarse(moved(rho0)), coarse(moved(rho1)))
    return before, after


def _dense_draw(dim, rng, pure):
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    # real and imaginary parts interleaved
    x = rng.normal(size=(dim, 2 * dim))
    g = x[:, 0::2] + 1j * x[:, 1::2]
    w = g @ g.conj().T
    return w / np.trace(w).real


def _search_streams(seed, n):
    """The weight, pure-vector and Wishart streams of a search."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence([seed, n]).spawn(3)]


def _dense_trials(s, n, seed):
    """Trials (p0, rho0, rho1) for t = 0, 1, ..., drawn one at a time."""
    weights, vecs, mats = _search_streams(seed, n)
    for t in itertools.count():
        p0 = weights.uniform(0.2, 0.8)
        # trials cycle through (pure, pure), (pure, mixed), (mixed, pure), (mixed, mixed)
        pure0, pure1 = [(True, True), (True, False), (False, True), (False, False)][t % 4]
        rho0 = _dense_draw(s.D * n, vecs if pure0 else mats, pure0)
        rho1 = _dense_draw(s.D * n, vecs if pure1 else mats, pure1)
        yield p0, rho0, rho1


def _dense_search(s, trials, n, seed):
    """Reference search: (trial, p0, rho0, rho1, pg_before, pg_after) or None."""
    draws = _dense_trials(s, n, seed)
    for t in range(trials):
        p0, rho0, rho1 = next(draws)
        before, after = _dense_pguess(s, n, p0, rho0, rho1)
        if after > before + compat.WITNESS_MARGIN:
            return t, p0, rho0, rho1, before, after
    return None


def assert_matches_dense(s, trials, n, seed):
    got = compat.search_witness(s, trials, n, seed)
    want = _dense_search(s, trials, n, seed)
    if want is None:
        assert got is None
        return None
    assert got is not None
    t, p0, rho0, rho1, before, after = want
    assert got.trial == t
    assert got.ancilla_dim == n
    assert got.p0 == p0 and got.p1 == 1.0 - p0
    assert np.array_equal(got.rho0.mat, rho0)
    assert np.array_equal(got.rho1.mat, rho1)
    assert abs(got.pg_before - before) <= PG_TOL
    assert abs(got.pg_after - after) <= PG_TOL
    return got


def assert_witness_holds(s, w):
    """Recompute the witness's guessing probabilities from its own states."""
    before, after = _dense_pguess(s, w.ancilla_dim, w.p0, w.rho0.mat, w.rho1.mat)
    assert abs(w.pg_before - before) <= PG_TOL
    assert abs(w.pg_after - after) <= PG_TOL
    assert after > before + compat.WITNESS_MARGIN


def _registry_cases():
    for name, ns in REG.items():
        s = ns.scenario
        for n in sorted({1, s.d, s.D}):
            for seed in (0, 1):
                yield pytest.param(name, n, seed, id=f"{name}-anc{n}-seed{seed}")


@pytest.mark.parametrize("name,n,seed", list(_registry_cases()))
def test_registry_matches_dense(name, n, seed):
    s = REG[name].scenario
    w = assert_matches_dense(s, 300, n, seed)
    if w is not None:
        assert_witness_holds(s, w)
    else:
        assert REG[name].expected == "compatible"


def test_random_scenario_with_ancilla():
    s = random_scenario(8, 2, 4, seed=0).scenario
    for seed in (0, 1):
        w = assert_matches_dense(s, 100, 2, seed)
        assert w is not None
        assert_witness_holds(s, w)


def test_witness_past_trial_63():
    # example1 with a tiny rotation: violations exceed the margin only rarely
    s = rotated_example1(8e-9)
    w = assert_matches_dense(s, 200, 2, seed=1)
    assert w is not None and w.trial > 63
    assert_witness_holds(s, w)


def test_full_search_without_a_witness():
    # all 40 trials run, and none is a witness
    assert assert_matches_dense(REG["example2-compatible"].scenario, 40, 4, seed=0) is None


@pytest.mark.parametrize(
    "s,n",
    [
        pytest.param(REG["example1-incompatible"].scenario, 2, id="example1-incompatible-anc2"),
        pytest.param(decohered_example2(4, 4, 3), 1, id="dephasing-4-4-anc1"),
    ],
)
def test_every_trial_probability_matches_dense(s, n):
    seed = 3
    trials = compat._witness_trials(s.D * n, seed, n)
    for p0, rho0, rho1 in itertools.islice(_dense_trials(s, n, seed), 24):
        q0, g0, g1 = next(trials)
        assert q0 == p0
        pg = compat._trial_pguess(s, n, q0, g0, g1)
        before, after = _dense_pguess(s, n, p0, rho0, rho1)
        assert abs(pg[0] - before) <= PG_TOL
        assert abs(pg[1] - after) <= PG_TOL


def test_trial_kinds_do_not_depend_on_the_seed():
    # every four trials pair pure and Wishart states once each way, so the
    # work of a search is fixed by its budget
    for seed in (0, 1, 7):
        trials = compat._witness_trials(6, seed, 2)
        kinds = [tuple(g.ndim == 1 for g in next(trials)[1:]) for _ in range(8)]
        assert kinds == [(True, True), (True, False), (False, True), (False, False)] * 2


def _budget_cases():
    for case in _registry_cases():
        name, n, seed = case.values
        yield pytest.param(REG[name].scenario, 300, n, seed, id=case.id)
    yield pytest.param(random_scenario(8, 2, 4, seed=0).scenario, 100, 2, 0, id="random-8-2-4")
    yield pytest.param(rotated_example1(8e-9), 200, 2, 1, id="near-compatible")
    yield pytest.param(decohered_example2(4, 4, 3), 300, 1, 0, id="dephasing-4-4-anc1")
    # the same coarse-graining after a Haar unitary: a witness at trial 6
    cg = decohered_example2(4, 4, 3).cg
    haar = compat.Scenario(cg, haar_unitary(16, np.random.default_rng(1)))
    yield pytest.param(haar, 300, 1, 2, id="dephasing-4-4-haar-anc1")


def _outcome(w):
    if w is None:
        return None
    return w.trial, w.p0, w.pg_before, w.pg_after, w.rho0.mat.tobytes(), w.rho1.mat.tobytes()


@pytest.mark.parametrize("s,trials,n,seed", list(_budget_cases()))
def test_witness_does_not_depend_on_the_trial_budget(s, trials, n, seed):
    # trial t reads the t-th draws of each stream whatever the budget: a
    # budget that ends at the witness finds the same one, bit for bit, and
    # a budget that stops one trial short finds none
    w = compat.search_witness(s, trials, n, seed)
    if w is None:
        assert compat.search_witness(s, trials // 3, n, seed) is None
        return
    assert _outcome(compat.search_witness(s, w.trial + 1, n, seed)) == _outcome(w)
    if w.trial > 0:
        assert compat.search_witness(s, w.trial, n, seed) is None


def _image_cases():
    for name, ns in REG.items():
        yield pytest.param(ns.scenario, id=name)
    yield pytest.param(decohered_example2(4, 4, 3), id="dephasing-4-4")
    yield pytest.param(random_scenario(8, 2, 4, seed=0).scenario, id="random-8-2-4")
    yield pytest.param(random_planted_scenario(2, 3, 0).scenario, id="planted-2-3")


@pytest.mark.parametrize("s", list(_image_cases()))
def test_per_operator_images_match_dense(s):
    # factors of any rank, not only the search's own draws: a pure vector and
    # a full-rank (D n) x (D n) factor, at every ancilla the search is given
    rng = np.random.default_rng(0)
    for n in sorted({1, 2, s.d, s.D}):
        dim = s.D * n
        pure = np.array([1, 1j]) @ rng.standard_normal((2, dim))
        full = rng.standard_normal((dim, 2 * dim)).view(np.complex128)
        for g0, g1 in ((pure, full), (full, pure)):
            pg = compat._trial_pguess(s, n, 0.3, g0, g1)
            rho0, rho1 = (compat.state_from_factor(g) for g in (g0, g1))
            before, after = _dense_pguess(s, n, 0.3, rho0, rho1)
            assert abs(pg[0] - before) <= PG_TOL
            assert abs(pg[1] - after) <= PG_TOL


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(REG)), seed=st.integers(0, 2**31 - 1))
def test_registry_verdicts_hold_for_any_seed(name, seed):
    # run_all raises MethodDisagreement when the criteria contradict each other
    s = REG[name].scenario
    report = compat.run_all(s, compat.CheckConfig(seed=seed))
    assert report.verdict == REG[name].expected
    if report.witness is not None:
        assert_witness_holds(s, report.witness)


# The kernel witness: built in closed form from a failed kernel check.


def _trace_norm(m):
    return np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).sum()


def _kernel_gap(s, w):
    """(||cg(u H u*)||_1 - ||cg(H)||_1) / (2 ||H||_1) for H = p0 rho0 - p1 rho1,
    through the Kraus operators."""
    h = w.p0 * w.rho0.mat - w.p1 * w.rho1.mat

    def coarse(r):
        return sum(k @ r @ k.conj().T for k in s.cg.kraus)

    moved = coarse(s.u @ h @ s.u.conj().T)
    return (_trace_norm(moved) - _trace_norm(coarse(h))) / (2 * _trace_norm(h))


def assert_kernel_witness(s, w):
    assert w is not None and w.source == "kernel"
    assert (w.ancilla_dim, w.trial) == (1, 0)
    assert_witness_holds(s, w)
    assert abs(w.pg_before - 0.5) <= 1e-9
    assert abs(w.gap - _kernel_gap(s, w)) <= 1e-12


@settings(max_examples=40)
@given(
    big=st.integers(2, 10),
    small=st.integers(2, 4),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_failed_kernel_check_yields_the_kernel_witness(big, small, extra, seed):
    small = min(small, big)
    # K d >= D Kraus operators, the fewest that make an isometry
    s = random_scenario(big, small, -(-big // small) + extra, seed).scenario
    fiber_ok, _ = compat.check_fiber_preservation(s)
    # the check builds the witness only when it fails
    assert ("_kernel_witness" in vars(s)) == (not fiber_ok)
    report = compat.run_all(s, compat.CheckConfig(witness_trials=0))
    if fiber_ok:
        assert report.witness is None
    else:
        assert_kernel_witness(s, report.witness)
        # H is pushed out of the kernel by ||E||_2 (the residual) in Frobenius
        # norm, and ||Y||_F <= ||Y||_1 <= sqrt(D) ||Y||_F
        assert report.witness.gap >= report.fiber_residual / (2 * np.sqrt(s.D)) - 1e-12


def _kernel_failed_cases():
    for name in ("example1-incompatible", "example2-incompatible"):
        yield pytest.param(REG[name].scenario, id=name)
    # the dephasing workload's Haar cases at seed 7, drawn in its order
    rng = np.random.default_rng(7)
    for k in (4, 6, 8):
        cg = decohered_example2(k, 4, rng).cg
        s = compat.Scenario(cg, haar_unitary(4 * k, rng))
        yield pytest.param(s, id=f"dephasing-k{k}-haar")


@pytest.mark.parametrize("s", list(_kernel_failed_cases()))
def test_kernel_witness_beats_the_default_search(s):
    cfg = compat.CheckConfig()
    report = compat.run_all(s, cfg)
    assert report.verdict == "incompatible" and not report.fiber_preserved
    assert_kernel_witness(s, report.witness)
    for n in cfg.resolved_ancillas(s):
        searched = compat.search_witness(s, cfg.witness_trials, n, cfg.seed)
        if searched is not None:
            assert report.witness.gap >= searched.gap
            break


def test_narrowly_failed_check_falls_back_to_the_search(compat_calls):
    # along u exp(i eps G) from a compatible scenario: at eps = 1e-10 the kernel
    # residual is about 7e-10, and a tolerance 20% below it fails the check by
    # a hair; the kernel witness's gap, about half the residual, misses
    # WITNESS_MARGIN
    s0 = REG["example1-compatible"].scenario
    g = np.random.default_rng(0).standard_normal((s0.D, 2 * s0.D)).view(np.complex128)
    w, q = np.linalg.eigh(g + g.conj().T)
    s = compat.Scenario(s0.cg, s0.u @ (q * np.exp(1e-10j * w)) @ q.conj().T)
    # a tolerance above the residual reads it without building the witness
    tol = 0.8 * compat.check_fiber_preservation(s, 1.0)[1]
    calls = compat_calls("search_witness")
    cfg = compat.CheckConfig(tol=tol, witness_trials=8)
    report = compat.run_all(s, cfg)
    assert tol < report.fiber_residual < 1.3 * tol
    assert not report.fiber_preserved and s._kernel_witness is None
    assert len(calls) >= 1
    assert report.witness is None or report.witness.source == "search"
    assert report.verdict == "incompatible"
