"""Command-line front end.

Subcommands: ``check`` (run all four criteria; ``--json`` writes a version 2
report, ``io.report_to_json``), ``construct`` (decide as ``check --trials 0``
does and emit the effective channel), ``list`` (built-in scenarios), ``gen``
(random scenario to file).

Exit codes: 0 compatible or success, 1 incompatible, 2 undecided, 64
unreadable input (a file that cannot be read, decoded as UTF-8 or parsed as
JSON, or that holds no valid scenario), 65 input that parses but violates a
physical invariant, 70 the decision could not be completed: the criteria
disagree, or a step ran out of memory, 73 an output file that cannot be
written.

``check`` and ``construct`` take each setting from its flag, else the file's
``config`` block, else ``CheckConfig``, which range-checks it (exit 65).

``main(argv)`` returns the exit code and may be called repeatedly in one
process: it builds its parser once and looks up the ``cmd_*`` handler of
the subcommand by name on every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .compat import COMPATIBLE, INCOMPATIBLE, UNDECIDED, CheckConfig, Scenario, run_all
from .errors import CoarsekitError, MethodDisagreement
from .io import (
    CONFIG_KEYS,
    ParseError,
    channel_to_json,
    config_from_json,
    dumps,
    report_to_json,
    scenario_from_json,
    scenario_to_json,
)
from .scenarios import random_scenario, registry

EXIT_COMPATIBLE = 0
EXIT_INCOMPATIBLE = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64
EXIT_INVARIANT = 65
EXIT_DISAGREEMENT = 70
EXIT_CANTCREAT = 73

_VERDICT_CODE = {
    COMPATIBLE: EXIT_COMPATIBLE,
    INCOMPATIBLE: EXIT_INCOMPATIBLE,
    UNDECIDED: EXIT_UNDECIDED,
}


class _WriteError(Exception):
    """An output file that cannot be written (exit 73)."""


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # ValueError covers a JSONDecodeError and an int past Python's digit limit;
    # a deep enough nesting exhausts the decoder's recursion limit
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from exc


def _resolve_input(name_or_path: str) -> tuple[Scenario, Optional[dict]]:
    """Registry name or scenario file -> (scenario, raw document)."""
    reg = registry(name_or_path)
    if reg:
        return reg[name_or_path].scenario, None
    doc = _load_json(name_or_path)
    return scenario_from_json(doc), doc


def _config(args, doc: Optional[dict]) -> CheckConfig:
    """The settings of ``check`` and ``construct``: each flag given, else the
    scenario file's config block, else CheckConfig's default."""
    given = config_from_json(doc) if doc is not None else {}
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    return CheckConfig(**{CONFIG_KEYS[key][1]: (value,) if key == "ancilla" else value
                          for key, value in given.items()})


def _config_echo(cfg: CheckConfig, s: Scenario) -> dict:
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    return {**fields, "ancilla_dims": list(cfg.resolved_ancillas(s))}


def _e(x: float) -> str:
    return f"{x:.3e}"


def cmd_check(args) -> int:
    scenario, doc = _resolve_input(args.input)
    cfg = _config(args, doc)
    t0 = time.perf_counter()
    report = run_all(scenario, cfg)
    elapsed = time.perf_counter() - t0

    if args.json:
        payload = report_to_json(report, args.input, _config_echo(cfg, scenario))
        _write(args.json, dumps(payload))
        print(f"{args.input}: {report.verdict} (report written to {args.json})")
    else:
        print(f"scenario: {args.input}  (D={scenario.D} -> d={scenario.d}, "
              f"{len(scenario.cg.kraus)} Kraus operators)")
        print(f"verdict: {report.verdict.upper()}")
        print(f"  fiber preservation : {'yes' if report.fiber_preserved else 'NO'}"
              f"   residual {_e(report.fiber_residual)}")
        found = report.algebraic_v is not None
        print(f"  algebraic intertwiner : {'found' if found else 'not found'}"
              f"   residual {_e(report.algebraic_residual)}"
              + ("" if found else "   (one-sided: absence is inconclusive)"))
        print(f"  sdp feasibility : {report.sdp.status}"
              f"   residual {_e(report.sdp.residual)}   iterations {report.sdp.iterations}")
        if report.emergent is not None:
            print("  witness search : skipped (the effective channel closes the square)")
        elif report.verdict == UNDECIDED:
            print("  witness search : skipped (it documents only an incompatible verdict)")
        elif report.witness is None:
            print(f"  witness search : none found"
                  f"   (trials={cfg.witness_trials}, ancillas={cfg.resolved_ancillas(scenario)})")
        else:
            w = report.witness
            found = ("witness : from the kernel check" if w.source == "kernel"
                     else f"witness search : FOUND (ancilla={w.ancilla_dim}, trial={w.trial})")
            print(f"  {found}   pg {w.pg_before:.6f} -> {w.pg_after:.6f}   gap {_e(w.gap)}")
        if report.emergent is None:
            print("  effective channel : none")
        else:
            print(f"  effective channel : {len(report.emergent.kraus)} Kraus operator(s)"
                  f"   diagram residual {_e(report.diagram_residual)}")
        print(f"  elapsed : {elapsed:.2f} s")
    return _VERDICT_CODE[report.verdict]


def cmd_construct(args) -> int:
    scenario, doc = _resolve_input(args.input)
    # the search never decides and construct prints no witness, so it runs
    # none; a channel is written only when it closes the square
    report = run_all(scenario, dataclasses.replace(_config(args, doc), witness_trials=0))
    gamma = report.emergent
    if gamma is None:
        if report.verdict == INCOMPATIBLE:
            print(f"{args.input}: no CPTP effective dynamics exists for this scenario",
                  file=sys.stderr)
        else:
            sdp = report.sdp
            print(f"{args.input}: undecided, no effective channel built; the SDP is "
                  f"{sdp.status} at residual {_e(sdp.residual)} after {sdp.iterations} "
                  f"iteration(s)", file=sys.stderr)
        return _VERDICT_CODE[report.verdict]
    payload = dumps(channel_to_json(gamma))
    if args.out:
        _write(args.out, payload)
        print(f"{args.input}: effective channel with {len(gamma.kraus)} Kraus operator(s) "
              f"written to {args.out}")
    else:
        sys.stdout.write(payload)
    return EXIT_COMPATIBLE


def cmd_list(args) -> int:
    for name, entry in registry().items():
        s = entry.scenario
        print(f"{name:26s} D={s.D} d={s.d}  expected={entry.expected:12s} {entry.notes}")
    return EXIT_COMPATIBLE


def cmd_gen(args) -> int:
    entry = random_scenario(args.D, args.d, args.kraus, args.seed)
    doc = scenario_to_json(entry.scenario, name=entry.name)
    doc["config"] = {"seed": args.seed}
    _write(args.out, dumps(doc))
    print(f"wrote {entry.name} to {args.out}")
    return EXIT_COMPATIBLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsekit",
        description="Decide whether a coarse-grained quantum system inherits "
        "a well-defined effective dynamics, and construct it when it does.",
    )
    parser.add_argument("--version", action="version", version=f"coarsekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sdp(p):
        p.add_argument("--tol", type=float, default=None,
                       help="the one decision tolerance of all four criteria (default 1e-8)")
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                       help="iteration cap for the feasibility SDP's loop (r < d^2 only)")

    p_check = sub.add_parser("check", help="run all four compatibility criteria")
    p_check.add_argument("input", help="registry name or scenario file")
    p_check.add_argument("--json", metavar="PATH", help="write a machine-readable report")
    p_check.add_argument("--seed", type=int, default=None,
                         help="seed of the random witness search, the only random step "
                         "(fallback: the file's, then 0)")
    add_sdp(p_check)
    p_check.add_argument("--trials", type=int, default=None,
                         help="random witness-search trials per ancilla dimension, spent only "
                         "to document an incompatible verdict that the kernel check left "
                         "without a witness; never changes the verdict (0 disables)")
    p_check.add_argument("--ancilla", type=int, default=None,
                         help="restrict the witness search to one ancilla dimension")

    p_cons = sub.add_parser(
        "construct",
        help="decide as check --trials 0 does, and write the effective channel when "
        "one closes the square: the feasibility SDP's point, made trace preserving",
    )
    p_cons.add_argument("input", help="registry name or scenario file")
    p_cons.add_argument("--out", metavar="PATH", help="write the channel here (default: stdout)")
    add_sdp(p_cons)

    sub.add_parser("list", help="list built-in scenarios")

    p_gen = sub.add_parser("gen", help="write a random scenario file")
    p_gen.add_argument("D", type=int, help="microscopic dimension")
    p_gen.add_argument("d", type=int, help="effective dimension")
    p_gen.add_argument("kraus", type=int, help="number of Kraus operators")
    p_gen.add_argument("--out", required=True, metavar="PATH")
    p_gen.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on every call, so a name replaced on this module takes effect
    handler = {"check": cmd_check, "construct": cmd_construct,
               "list": cmd_list, "gen": cmd_gen}[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    except MethodDisagreement as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (CoarsekitError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
