"""JSON file formats: scenarios in, reports and channels out.

Complex numbers are two-element arrays ``[re, im]``; matrices are row-major
nested lists.  Classical probability tables are plain float matrices.  Every
file carries ``"version": 1``.  Serialization is deterministic (sorted keys,
no timestamps), so identical inputs and seeds give byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .channel import KrausChannel
from .classical import ChainModel, CondTable, DoModel
from .compat import CompatReport, EnsembleWitness, Scenario

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed input file: bad JSON, missing keys, wrong shapes."""


def matrix_to_json(m: np.ndarray) -> list:
    """Entries as [re, im] pairs; a (K, rows, cols) stack gives K matrices."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def real_matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(m)]


def _complex_from_json(entry: Any) -> complex:
    """An ``[re, im]`` pair of two real numbers; a bool is not a number here."""
    if not isinstance(entry, list) or len(entry) != 2 or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry
    ):
        raise ValueError(f"not an [re, im] pair: {entry!r}")
    return complex(*entry)


def matrix_from_json(data: Any, what: str = "matrix") -> np.ndarray:
    try:
        m = np.array([[_complex_from_json(entry) for entry in row] for row in data],
                     dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: expected nested rows of [re, im] pairs") from exc
    if m.ndim != 2:
        raise ParseError(f"{what}: not a matrix")
    return m


def real_matrix_from_json(data: Any, what: str = "table") -> np.ndarray:
    try:
        m = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: expected a nested list of floats") from exc
    if m.ndim != 2:
        raise ParseError(f"{what}: not a matrix")
    return m


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def scenario_to_json(s: Scenario, name: Optional[str] = None) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "D": s.D,
        "d": s.d,
        "kraus": matrix_to_json(s.cg.kraus),
        "unitary": matrix_to_json(s.u),
    }
    if name:
        doc["name"] = name
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing required key {key!r}")
    return doc[key]


def scenario_from_json(doc: dict) -> Scenario:
    """Build a Scenario from a parsed document.

    Shape problems raise ParseError; violated physical invariants (non-TP
    Kraus set, non-unitary dynamics) propagate as their own exception types
    so the CLI can distinguish exit codes 64 and 65.
    """
    if not isinstance(doc, dict):
        raise ParseError("scenario file must be a JSON object")
    version = _require(doc, "version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported version {version!r}")
    big_d = int(_require(doc, "D"))
    small_d = int(_require(doc, "d"))
    kraus_json = _require(doc, "kraus")
    if not isinstance(kraus_json, list) or not kraus_json:
        raise ParseError("'kraus' must be a non-empty list of matrices")
    kraus = [matrix_from_json(k, f"kraus[{i}]") for i, k in enumerate(kraus_json)]
    u = matrix_from_json(_require(doc, "unitary"), "unitary")
    for i, k in enumerate(kraus):
        if k.shape != (small_d, big_d):
            raise ParseError(
                f"kraus[{i}] has shape {k.shape}, expected ({small_d}, {big_d})"
            )
    if u.shape != (big_d, big_d):
        raise ParseError(f"unitary has shape {u.shape}, expected ({big_d}, {big_d})")
    return Scenario(KrausChannel(kraus), u)


def chain_model_from_json(doc: dict) -> ChainModel:
    return ChainModel(
        pA=np.asarray(_require(doc, "pA"), dtype=np.float64),
        pB_given_A=CondTable(real_matrix_from_json(_require(doc, "pB_given_A"))),
        pX_given_A=CondTable(real_matrix_from_json(_require(doc, "pX_given_A"))),
        pY_given_B=CondTable(real_matrix_from_json(_require(doc, "pY_given_B"))),
    )


def do_model_from_json(doc: dict) -> DoModel:
    return DoModel(
        pA=np.asarray(_require(doc, "pA"), dtype=np.float64),
        pX_given_A=CondTable(real_matrix_from_json(_require(doc, "pX_given_A"))),
        pB_given_AX=CondTable(real_matrix_from_json(_require(doc, "pB_given_AX"))),
        pY_given_B=CondTable(real_matrix_from_json(_require(doc, "pY_given_B"))),
    )


def witness_to_json(w: EnsembleWitness) -> dict:
    return {
        "p0": w.p0,
        "p1": w.p1,
        "rho0": matrix_to_json(w.rho0.mat),
        "rho1": matrix_to_json(w.rho1.mat),
        "pg_before": w.pg_before,
        "pg_after": w.pg_after,
        "ancilla_dim": w.ancilla_dim,
        "trial": w.trial,
    }


def report_to_json(report: CompatReport, scenario_label: str, config: dict) -> dict:
    from . import __version__

    return {
        "version": FORMAT_VERSION,
        "tool": f"coarsekit {__version__}",
        "scenario": scenario_label,
        "config": config,
        "verdict": report.verdict,
        "fiber": {
            "preserved": report.fiber_preserved,
            "residual": report.fiber_residual,
        },
        "algebraic": {
            "v_found": report.algebraic_v is not None,
            "v": None if report.algebraic_v is None else matrix_to_json(report.algebraic_v),
            "residual": report.algebraic_residual,
            "dual_identity_residual": report.dual_identity_residual,
        },
        "sdp": {
            "status": report.sdp.status,
            "residual": report.sdp.residual,
            "iterations": report.sdp.iterations,
        },
        "witness": None if report.witness is None else witness_to_json(report.witness),
        "emergent": None
        if report.emergent is None
        else {"kraus": matrix_to_json(report.emergent.kraus)},
        "diagram_residual": report.diagram_residual,
        "method_agreement": dict(report.method_agreement),
    }


def channel_to_json(ch: KrausChannel) -> dict:
    return {
        "version": FORMAT_VERSION,
        "din": ch.din,
        "dout": ch.dout,
        "kraus": matrix_to_json(ch.kraus),
    }
