"""The benchmark's workloads: scenarios made from a seed, one decision each,
and the checks every decision must pass.

Each workload exercises a different part of the verdict path, so that a
change to one stage shows on the workload it should move and not on the
others; ``BENCHMARK.json`` says why each was chosen.  A decision starts
from the generated arrays, so it pays for building the ``Scenario`` as a
user does.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from coarsekit import cli, compat
from coarsekit.channel import KrausChannel
from coarsekit.rand import haar_unitary
from coarsekit.scenarios import (
    COMPATIBLE,
    INCOMPATIBLE,
    NamedScenario,
    example2,
    random_planted_scenario,
    random_scenario,
    registry,
)

DIAGRAM_TOL = 1e-6
# Witness trials per ancilla on planted-compatible.  The default budget of
# 1000 would take minutes per decision at D=32; 4 keeps the witness the
# largest stage while a pass still fits a few times into one run.
PLANTED_TRIALS = 4
SMOKE_TRIALS = 10


@dataclass(frozen=True)
class Case:
    """One scenario of a workload, kept as arrays, with its expected verdict."""

    label: str
    kraus: tuple
    u: np.ndarray
    expected: str
    cfg: compat.CheckConfig

    @classmethod
    def of(cls, named: NamedScenario, cfg: compat.CheckConfig, expected: Optional[str] = None):
        s = named.scenario
        return cls(named.name, s.cg.kraus, s.u, expected or named.expected, cfg)

    def scenario(self) -> compat.Scenario:
        return compat.Scenario(KrausChannel(self.kraus), self.u)

    def info(self) -> dict:
        s = self.scenario()
        return {
            "label": self.label,
            "D": s.D,
            "d": s.d,
            "kraus": len(self.kraus),
            "expected": self.expected,
            "witness_trials": self.cfg.witness_trials,
            "ancillas": list(self.cfg.resolved_ancillas(s)),
        }


class Workload:
    """A family of cases, how one decision on a case is made, and its checks."""

    name = ""
    # (stage, minimum share of decision time) that the workload should show
    prediction: Optional[tuple[str, float]] = None

    def cases(self, seed: int, smoke: bool) -> list[Case]:
        raise NotImplementedError

    def decide(self, case: Case):
        s = case.scenario()
        return s, compat.run_all(s, case.cfg)

    def check(self, case: Case, outcome) -> tuple[str, Optional[str]]:
        """(verdict, failure message or None) for one decision's outcome."""
        s, report = outcome
        if report.verdict != case.expected:
            return report.verdict, f"verdict {report.verdict}, expected {case.expected}"
        if case.expected == COMPATIBLE:
            ok, _ = compat.verify_kraus_equivalence(s, report.emergent)
            if not ok:
                return report.verdict, "constructed channel fails verify_kraus_equivalence"
            if report.diagram_residual is None or report.diagram_residual > DIAGRAM_TOL:
                return report.verdict, f"diagram residual {report.diagram_residual}"
        return report.verdict, None


class RegistryCli(Workload):
    name = "registry-cli"

    def __init__(self, report_path: Path) -> None:
        self.report_path = report_path
        self.extra_args: list[str] = []
        self.first_report: dict[str, bytes] = {}

    def cases(self, seed, smoke):
        self.extra_args = ["--seed", str(seed)]
        cfg = compat.CheckConfig(seed=seed)
        if smoke:
            self.extra_args += ["--trials", str(SMOKE_TRIALS)]
            cfg = compat.CheckConfig(seed=seed, witness_trials=SMOKE_TRIALS)
        return [Case.of(entry, cfg) for entry in registry().values()]

    def decide(self, case):
        argv = ["check", case.label, "--json", str(self.report_path), *self.extra_args]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, case, outcome):
        data = self.report_path.read_bytes()
        self.report_path.unlink()  # so a call that writes nothing cannot pass on an old report
        verdict = json.loads(data)["verdict"]
        if verdict != case.expected:
            return verdict, f"verdict {verdict}, expected {case.expected}"
        if outcome != {COMPATIBLE: cli.EXIT_COMPATIBLE, INCOMPATIBLE: cli.EXIT_INCOMPATIBLE}[verdict]:
            return verdict, f"exit code {outcome} for verdict {verdict}"
        if self.first_report.setdefault(case.label, data) != data:
            return verdict, "JSON report differs from the first one for this scenario"
        return verdict, None


class PlantedCompatible(Workload):
    name = "planted-compatible"
    prediction = ("witness", 0.70)

    def cases(self, seed, smoke):
        trials = 1 if smoke else PLANTED_TRIALS
        cfg = compat.CheckConfig(witness_trials=trials, seed=seed)
        envs = (2, 3) if smoke else (4, 6, 8)
        return [Case.of(random_planted_scenario(4, e, seed * 100 + e), cfg) for e in envs]


class RandomIncompatible(Workload):
    name = "random-incompatible"
    prediction = ("sdp", 0.80)

    def cases(self, seed, smoke):
        cfg = compat.CheckConfig(seed=seed)
        dims = (8, 12) if smoke else (16, 24, 32)
        return [Case.of(random_scenario(dim, 4, dim // 4, seed * 100 + dim), cfg, INCOMPATIBLE)
                for dim in dims]


class DephasingRankDeficient(Workload):
    name = "dephasing-rank-deficient"

    def cases(self, seed, smoke):
        cfg = compat.CheckConfig(ancilla_dims=(1,), seed=seed)
        if smoke:
            cfg = compat.CheckConfig(ancilla_dims=(1,), witness_trials=SMOKE_TRIALS, seed=seed)
        rng = np.random.default_rng(seed)
        out = []
        for k in (2, 3) if smoke else (4, 6, 8):
            blocks = [haar_unitary(k, rng) for _ in range(4)]
            named = example2(k, 4, blocks, "none", name=f"dephasing-k{k}-block")
            out.append(Case.of(named, cfg))
            out.append(Case(f"dephasing-k{k}-haar", named.scenario.cg.kraus,
                            haar_unitary(4 * k, rng), INCOMPATIBLE, cfg))
        return out


def make(name: str, scratch: Path) -> Workload:
    if name == RegistryCli.name:
        return RegistryCli(scratch / "registry-cli.report.json")
    for cls in (PlantedCompatible, RandomIncompatible, DephasingRankDeficient):
        if name == cls.name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")
