"""Mutation checks: each decision rule's boundary is pinned by a test.

A mutant is one textual change to a rule in ``src/``, with the tests that
must fail under it.  For each mutant the script copies ``src/``, ``tests/``
and ``pyproject.toml`` to a temporary directory, applies the change there
(the old text must occur exactly once) and runs only that mutant's killing
tests with ``-x``.  Before any mutant, the same tests must pass on an
unchanged copy, so that a kill means the change was seen.

Run from anywhere, with the test extras installed:

    python tests/mutants.py

It prints each recorded equivalent mutant with its argument, then killed or
survived per mutant, and exits 1 if any survives or if a mutant or its tests
are broken.  pytest does not collect this file (it collects only
``test_*.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, any one of which must fail


MUTANTS = (
    # the random search decides again: it runs whenever no channel closes the
    # square and the kernel check left no witness, and what it finds makes the
    # verdict incompatible (the rule's parent form, ``or witness is not None``)
    Mutant(
        "search-decides",
        "src/coarsekit/compat.py",
        "    if verdict == INCOMPATIBLE and witness is None and cfg.witness_trials > 0:\n"
        "        for ancilla in cfg.resolved_ancillas(s):\n"
        "            witness = search_witness(s, cfg.witness_trials, ancilla, cfg.seed)\n"
        "            if witness is not None:\n"
        "                break\n",
        "    if emergent is None and witness is None and cfg.witness_trials > 0:\n"
        "        for ancilla in cfg.resolved_ancillas(s):\n"
        "            witness = search_witness(s, cfg.witness_trials, ancilla, cfg.seed)\n"
        "            if witness is not None:\n"
        "                verdict = INCOMPATIBLE\n"
        "                break\n",
        ("tests/test_compat.py::test_the_search_settings_never_change_a_verdict",
         "tests/test_cli.py::TestCheck::test_undecided_check_says_the_search_was_skipped"),
    ),
    # the r = d^2 closed form accepts its one point at 2 tol
    Mutant(
        "closed-form-2tol",
        "src/coarsekit/compat.py",
        "_zero_iteration(residual, tol, _channel(w, vecs, d) if residual <= tol else None)",
        "_zero_iteration(residual, tol, _channel(w, vecs, d) if residual <= 2 * tol else None)",
        ("tests/test_compat.py::TestSdpFeasibility::"
         "test_closed_form_accepts_a_point_only_within_tol",),
    ),
    # the square-stack threshold widened from 16 D eps to 1600 D eps
    Mutant(
        "stack-threshold-x100",
        "src/coarsekit/channel.py",
        "self._tp_err > 16 * self.din * eps",
        "self._tp_err > 1600 * self.din * eps",
        ("tests/test_unitary_stack.py::"
         "test_the_closed_form_takes_a_stack_only_within_its_threshold",),
    ),
    # the intertwiner's bound drops its ||V||^2 s_cut term
    Mutant(
        "alg-bound-no-cut",
        "src/coarsekit/compat.py",
        "bound = v_norm**2 * s._image.cut + 2 * v_norm",
        "bound = 2 * v_norm",
        ("tests/test_compat.py::TestAlgebraic::test_the_bound_carries_the_cut",),
    ),
    # a square stack's frame takes the sum of its diagonal blocks, not their
    # mean, out of each block
    Mutant(
        "frame-mean-no-1/k",
        "src/coarsekit/compat.py",
        "blocks -= total / k\n",
        "blocks -= total\n",
        ("tests/test_unitary_stack.py::test_a_square_stack_kernel_witness_matches_the_svd_paths",
         "tests/test_unitary_stack.py::test_a_square_stack_decides_as_the_svd_path_does"),
    ),
    # run_all's guard on the channel's diagram residual moved from BAND tol
    # to 10 BAND tol
    Mutant(
        "diag-guard-x10",
        "src/coarsekit/compat.py",
        "diag_res > BAND * cfg.tol",
        "diag_res > 10 * BAND * cfg.tol",
        ("tests/test_compat.py::TestRunAll::test_a_channel_that_misses_the_square_raises",),
    ),
)


class Equivalent(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    argument: str  # why the mutant moves no verdict


# Mutants recorded as equivalent, each with the argument that it moves no
# verdict.  The script runs no tests for them: it checks that the old text
# still occurs exactly once, so the entry follows the code, and prints the
# argument.
EQUIVALENTS = (
    Equivalent(
        "enorm-abs",
        "src/coarsekit/compat.py",
        "np.sqrt(max(w[-1], 0.0))",
        "np.sqrt(abs(w[-1]))",
        "the computed Gram E E^T has a diagonal of sums of squares, so its trace "
        "is >= 0 and every eigenvalue's modulus is at most d^2 lambda_max; eigh's "
        "backward error, a small multiple of d^2 eps lambda_max, cannot take a "
        "computed lambda_max below 0, and lambda_max = 0 makes the Gram 0, whose "
        "eigenvalues eigh returns as exact zeros, so both forms read the same",
    ),
    Equivalent(
        "fiber-le-lt",
        "src/coarsekit/compat.py",
        "return residual <= tol, residual",
        "return residual < tol, residual",
        "the two differ only when tol equals the computed residual to the bit; "
        "a caller can force that only by reading tol off that residual, and every "
        "other rule (the SDP's feasible, the intertwiner's bound) also accepts "
        "at <= tol, so the mutant changes no verdict on any other input",
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> int:
    """pytest's exit code for ``tests`` on the copy at ``tree``, importing
    coarsekit from that copy's ``src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = subprocess.run([sys.executable, "-c", "import coarsekit; print(coarsekit.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True)
    if not Path(probe.stdout.strip()).is_relative_to(tree):
        raise SystemExit(f"coarsekit is imported from {probe.stdout.strip()!r}, not the copy")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # a hung run raises TimeoutExpired, which fails the script
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=900).returncode


def _outcome(mutant: Mutant | None, tests) -> int:
    with tempfile.TemporaryDirectory(prefix="coarsekit-mutant-") as tmp:
        tree = Path(tmp).resolve()
        _copy_tree(tree)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                raise SystemExit(f"{mutant.name}: the old text occurs {count} times "
                                 f"in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return _pytest(tree, tests)


def main() -> int:
    for e in EQUIVALENTS:
        count = (ROOT / e.path).read_text(encoding="utf-8").count(e.old)
        if count != 1:
            raise SystemExit(f"{e.name}: the old text occurs {count} times in {e.path}")
        print(f"{e.name}: equivalent, not run: {e.argument}")
    tests = sorted({t for m in MUTANTS for t in m.tests})
    code = _outcome(None, tests)
    if code != 0:
        print(f"the killing tests fail on the unchanged tree (pytest exit {code})")
        return 1
    failed = False
    for m in MUTANTS:
        code = _outcome(m, m.tests)
        # pytest exits 1 when a test fails; 0 is a survivor, anything else an error
        status = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        failed |= code != 1
        print(f"{m.name}: {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
