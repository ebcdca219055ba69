"""The top level of ``coarsekit`` is the API the README documents; every
other name has one import path, the module that defines it."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import coarsekit

TOP_LEVEL = {
    "CheckConfig",
    "CompatReport",
    "KrausChannel",
    "Scenario",
    "check_fiber_preservation",
    "construct_emergent",
    "run_all",
    "sdp_feasibility",
    "search_witness",
    "solve_algebraic_V",
    "spin_dichotomization",
    "verify_dual_identity",
    "verify_kraus_equivalence",
}

# names the top level once re-exported, each with its defining module
MODULE_ONLY = {
    "ChoiMatrix": "channel",
    "apply": "channel",
    "channels_equal": "channel",
    "choi_to_kraus": "channel",
    "compose": "channel",
    "connecting_unitary": "channel",
    "dual": "channel",
    "kraus_to_choi": "channel",
    "unitary_channel": "channel",
    "ChainModel": "classical",
    "CondTable": "classical",
    "DoModel": "classical",
    "do_intervention": "classical",
    "emergent_channel": "classical",
    "observational_vs_do": "classical",
    "verify_total_probability": "classical",
    "EnsembleWitness": "compat",
    "SdpOutcome": "compat",
    "helstrom_pguess": "compat",
    "NamedScenario": "scenarios",
    "example1": "scenarios",
    "example2": "scenarios",
    "random_planted_scenario": "scenarios",
    "random_scenario": "scenarios",
    "registry": "scenarios",
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_documented_top_level():
    assert sorted(coarsekit.__all__) == sorted(TOP_LEVEL)


def test_nothing_else_public_is_bound_at_the_top_level():
    public = {
        name
        for name, value in vars(coarsekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == TOP_LEVEL


# the module-only names too: the public API is what the README documents
@pytest.mark.parametrize("name", sorted(TOP_LEVEL | MODULE_ONLY.keys()))
def test_top_level_name_is_in_the_readme(name):
    assert f"`{name}`" in README.read_text(encoding="utf-8")


@pytest.mark.parametrize("name, module", sorted(MODULE_ONLY.items()))
def test_dropped_name_imports_from_its_module(name, module):
    assert hasattr(importlib.import_module(f"coarsekit.{module}"), name)
    assert not hasattr(coarsekit, name)


@pytest.mark.parametrize("module", ["coarsekit", "coarsekit.cli", "coarsekit.io"])
def test_import_does_not_load_the_classical_module(module):
    probe = f"import sys, {module}; print('coarsekit.classical' in sys.modules)"
    src = str(Path(coarsekit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
