"""The structured, batched witness search against a dense reference.

The reference is the plain trial-by-trial search: each state is built as a
(D n) x (D n) density matrix and pushed through ``kron(M_k, I_n)`` and
``kron(u, I_n)``.  Both searches draw trial t from
``default_rng([seed, ancilla_dim, t])``, so they must return the same trial
with bit-identical states; guessing probabilities may differ by rounding.
"""

import numpy as np
import pytest

from coarsekit import compat
from coarsekit.scenarios import _rotation, example1, random_scenario, registry

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
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _dense_trial(s, n, seed, t):
    rng = np.random.default_rng([seed, n, t])
    p0 = rng.uniform(0.2, 0.8)
    # trials cycle through (pure, pure), (pure, mixed), (mixed, pure), (mixed, mixed)
    pure0, pure1 = [(True, True), (True, False), (False, True), (False, False)][t % 4]
    rho0 = _dense_draw(s.D * n, rng, pure0)
    rho1 = _dense_draw(s.D * n, rng, pure1)
    return p0, rho0, rho1


def _dense_search(s, trials, n, seed):
    """Reference search: (trial, p0, rho0, rho1, pg_before, pg_after) or None."""
    for t in range(trials):
        p0, rho0, rho1 = _dense_trial(s, n, seed, t)
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


def _near_compatible():
    # example1 with a tiny rotation: violations exceed the margin only rarely
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    return example1(h @ _rotation(8e-9) @ h).scenario


@pytest.mark.parametrize("budget", [None, 1, 200_000])
def test_witness_past_several_batches(monkeypatch, budget):
    # by default batches hold 1, 2, 4, ... trials and the witness sits in the
    # seventh; the smaller budgets cap batches at one and at 19 trials
    if budget is not None:
        monkeypatch.setattr(compat, "_WITNESS_BATCH_BYTES", budget)
    s = _near_compatible()
    w = assert_matches_dense(s, 200, 2, seed=1)
    assert w is not None and w.trial > 63
    assert_witness_holds(s, w)


@pytest.mark.parametrize("budget", [1, 200_000])
def test_small_budget_full_search(monkeypatch, budget):
    # caps of one and of three trials per batch, with no witness to stop early
    monkeypatch.setattr(compat, "_WITNESS_BATCH_BYTES", budget)
    assert_matches_dense(REG["example2-compatible"].scenario, 40, 4, seed=0)


def test_every_trial_probability_matches_dense():
    s = REG["example1-incompatible"].scenario
    n, seed = s.d, 3
    ops = np.concatenate([*s.cg.kraus, *(m @ s.u for m in s.cg.kraus)])
    draws = [compat._draw_trial(s.D * n, n, seed, t) for t in range(24)]
    pg = compat._guessing_probs(s, n, ops, draws)
    assert pg.shape == (24, 2)
    for t in range(24):
        p0, rho0, rho1 = _dense_trial(s, n, seed, t)
        assert draws[t][0] == p0
        before, after = _dense_pguess(s, n, p0, rho0, rho1)
        assert abs(pg[t, 0] - before) <= PG_TOL
        assert abs(pg[t, 1] - after) <= PG_TOL


def test_trial_kinds_do_not_depend_on_the_seed():
    # every four trials pair pure and Wishart states once each way, so the
    # work of a search is fixed by its budget
    for seed in (0, 1, 7):
        kinds = [
            tuple(g.ndim == 1 for g in compat._draw_trial(6, 2, seed, t)[1])
            for t in range(8)
        ]
        assert kinds == [(True, True), (True, False), (False, True), (False, False)] * 2
