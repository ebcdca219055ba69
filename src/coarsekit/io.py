"""JSON file formats: scenarios in, reports and channels out.

Complex numbers are two-element arrays ``[re, im]``; matrices are row-major
nested lists.  Every numeric field holds a finite JSON number of its kind,
never a bool.  Scenario and channel files carry ``"version": 1``, reports
``"version": 2``.  ``dumps`` writes each as one compact line (sorted keys, no
timestamps), so identical inputs and seeds give byte-identical files; readers
accept any whitespace.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

import numpy as np

from .channel import KrausChannel
from .compat import CompatReport, EnsembleWitness, Scenario

FORMAT_VERSION = 1
REPORT_VERSION = 2


class ParseError(ValueError):
    """Malformed input file: bad JSON, missing keys, wrong shapes."""


def matrix_to_json(m: np.ndarray) -> list:
    """Entries as [re, im] pairs; a (K, rows, cols) stack gives K matrices."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _is_number(x: Any, kinds: type | tuple[type, ...]) -> bool:
    """A JSON number of these kinds; a bool is never a number here, and
    neither are the ``NaN`` and ``Infinity`` tokens that ``json`` reads."""
    if not isinstance(x, kinds) or isinstance(x, bool):
        return False
    # an int is finite, and may be too large for a float
    return isinstance(x, int) or math.isfinite(x)


def matrix_from_json(data: Any, what: str = "matrix") -> np.ndarray:
    """Nested rows of ``[re, im]`` pairs, checked as one (rows, cols, 2) array
    whose parts are each exactly an int or a float, finite as a float; rows
    with no entries give rows x 0.  The matrix views the pairs, keeping -0.0."""
    not_pairs = f"{what}: expected nested rows of [re, im] pairs"
    try:
        parts = np.array(data, dtype=object)
    except ValueError as exc:
        raise ParseError(not_pairs) from exc
    if parts.shape == (0,):
        raise ParseError(f"{what}: not a matrix")
    if parts.ndim == 2 and parts.shape[1] == 0:
        return np.zeros(parts.shape, dtype=np.complex128)
    if parts.ndim != 3 or parts.shape[2] != 2 or not set(map(type, parts.flat)) <= {int, float}:
        raise ParseError(not_pairs)
    try:
        pairs = parts.astype(np.float64)
    except OverflowError as exc:  # an int beyond float range
        raise ParseError(not_pairs) from exc
    if not np.isfinite(pairs).all():
        raise ParseError(not_pairs)
    return pairs.view(np.complex128)[..., 0]


def dumps(obj: Any) -> str:
    # without indent, json runs its C encoder
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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


def _object(doc: Any, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing required key {key!r}")
    return doc[key]


def _integer(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if not _is_number(value, int):
        raise ParseError(f"{key!r} must be an integer, got {value!r}")
    return value


# the settings a scenario file's config block (and the flag of the same
# name) may hold: each key's kinds and the CheckConfig field it sets, where
# ``ancilla`` sets the one-entry ``ancilla_dims``
CONFIG_KEYS = {
    "tol": ((int, float), "tol"),
    "seed": (int, "seed"),
    "trials": (int, "witness_trials"),
    "max_iter": (int, "sdp_max_iter"),
    "ancilla": (int, "ancilla_dims"),
}


def config_from_json(doc: dict) -> dict:
    """The settings in a scenario file's optional ``config`` object: ``tol``
    a real number, the other keys integers; other keys are ignored."""
    block = _object(doc.get("config", {}), "'config'")
    for key, (kinds, _) in CONFIG_KEYS.items():
        if key in block and not _is_number(block[key], kinds):
            kind = "a real number" if key == "tol" else "an integer"
            raise ParseError(f"config '{key}' must be {kind}, got {block[key]!r}")
    return {key: block[key] for key in CONFIG_KEYS if key in block}


def scenario_from_json(doc: dict) -> Scenario:
    """Build a Scenario from a parsed document; keys it does not read are ignored.

    Shape problems raise ParseError; violated physical invariants (non-TP
    Kraus set, non-unitary dynamics) propagate as their own exception types
    so the CLI can distinguish exit codes 64 and 65.
    """
    version = _require(_object(doc, "scenario file"), "version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported version {version!r}")
    big_d = _integer(doc, "D")
    small_d = _integer(doc, "d")
    kraus_json = _require(doc, "kraus")
    if not isinstance(kraus_json, list) or not kraus_json:
        raise ParseError("'kraus' must be a non-empty list of matrices")
    kraus = [matrix_from_json(k, f"kraus[{i}]") for i, k in enumerate(kraus_json)]
    u = matrix_from_json(_require(doc, "unitary"), "unitary")
    for i, k in enumerate(kraus):
        if k.shape != (small_d, big_d):
            raise ParseError(f"kraus[{i}] has shape {k.shape}, expected ({small_d}, {big_d})")
    if u.shape != (big_d, big_d):
        raise ParseError(f"unitary has shape {u.shape}, expected ({big_d}, {big_d})")
    return Scenario(KrausChannel(kraus), u)


def witness_to_json(w: EnsembleWitness) -> dict:
    """``x`` is Y = Re X + Im X for the witness's X = p0 rho0 - p1 rho1
    (``w.x``) on the system and an n-level ancilla, so X = sym(Y) + i
    antisym(Y) (``channel``'s coordinates); pg_before = (1 + ||sum_k (M_k x
    I_n) X (M_k x I_n)*||_1) / 2, pg_after with M_k u."""
    return {
        "x": (w.x.real + w.x.imag).tolist(),
        "pg_before": w.pg_before,
        "pg_after": w.pg_after,
        "ancilla_dim": w.ancilla_dim,
        "trial": w.trial,
        "source": w.source,
    }


def report_to_json(report: CompatReport, scenario_label: str, config: dict) -> dict:
    from . import __version__

    return {
        "version": REPORT_VERSION,
        "tool": f"coarsekit {__version__}",
        "scenario": scenario_label,
        "config": config,
        "verdict": report.verdict,
        "fiber": {
            "preserved": report.fiber_preserved,
            "residual": report.fiber_residual,
        },
        "algebraic": {
            "v": None if report.algebraic_v is None else matrix_to_json(report.algebraic_v),
            "residual": report.algebraic_residual,
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
    }


def channel_to_json(ch: KrausChannel) -> dict:
    return {
        "version": FORMAT_VERSION,
        "din": ch.din,
        "dout": ch.dout,
        "kraus": matrix_to_json(ch.kraus),
    }
