"""Spans recorded from outside coarsekit, for the benchmark's traced run.

``instrument(tracer)`` replaces, for the duration of a ``with`` block, the
names that ``run_all`` and ``cmd_check`` resolve in the ``coarsekit.compat``
and ``coarsekit.cli`` namespaces with wrappers that open and close a span
around each call.  Nothing inside ``src/`` is changed: the wrappers see only
arguments and return values, so a stage that is not a separate function call
is not a separate span.

Each span records its name, start, end, parent span and decision id.  A
tracer made with ``memory=True`` also records each span's peak memory from
``tracemalloc``: the peak traced size while the span was open, minus the
traced size when it opened.  tracemalloc slows every allocation, so timings
come from a tracer without it and peaks from a separate pass with it.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    parent: int
    decision: int
    end: float = 0.0
    peak_bytes: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``write`` puts them out as JSON lines."""

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[Span] = []
        self.decision = -1
        self.memory = memory  # needs tracemalloc started by the caller
        self._stack: list[tuple[int, int, int]] = []  # (span index, base, running max)

    def open(self, name: str) -> int:
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                idx, base, top = self._stack[-1]
                self._stack[-1] = (idx, base, max(top, peak))
            tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.decision))
        self._stack.append((len(self.spans) - 1, cur, cur))
        return len(self.spans) - 1

    def close(self, idx: int) -> Span:
        end = time.perf_counter()
        span = self.spans[idx]
        span.end = end
        _, base, top = self._stack.pop()
        if self.memory:
            span_peak = max(top, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = span_peak - base
            if self._stack:
                pidx, pbase, ptop = self._stack[-1]
                self._stack[-1] = (pidx, pbase, max(ptop, span_peak))
        return span

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "decision": s.decision,
                    "peak_mb": s.peak_bytes / MB, **s.attrs,
                }, sort_keys=True) + "\n")


def _wrap(tracer: Tracer, fn, name: Union[str, Callable[..., str]],
          on_result: Optional[Callable[[Span, tuple, dict, object], None]] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(idx)
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result

    return wrapper


class _Delegate:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _witness_name(s, trials, ancilla_dim=1, seed=0) -> str:
    if ancilla_dim == 1:
        return "compat.witness.anc1"
    if ancilla_dim == s.D:
        return "compat.witness.ancD"
    return "compat.witness.ancd"


def _witness_result(span, args, kwargs, result) -> None:
    budget = args[1] if len(args) > 1 else kwargs["trials"]
    span.attrs["found"] = result is not None
    span.attrs["trials"] = budget if result is None else result.trial + 1


def _sdp_result(span, args, kwargs, result) -> None:
    s = args[0]
    span.attrs.update(iterations=result.iterations, status=result.status, D=s.D, d=s.d)


def _dumps_result(span, args, kwargs, result) -> None:
    span.attrs["bytes"] = len(result.encode("utf-8"))


@contextmanager
def instrument(tracer: Tracer):
    """Wrap coarsekit's layer boundaries in spans, and undo it on exit."""
    import numpy as np
    from coarsekit import cli, compat

    plan = [
        (compat, "run_all", "compat.run_all", None),
        (compat, "check_fiber_preservation", "compat.fiber", None),
        (compat, "kernel_basis", "linalg.kernel_basis", None),
        (compat, "_algebraic_lstsq", "compat.algebraic", None),
        (compat, "verify_dual_identity", "compat.algebraic", None),
        (compat, "sdp_feasibility", "compat.sdp", _sdp_result),
        (compat, "search_witness", _witness_name, _witness_result),
        (compat, "helstrom_pguess", "compat.helstrom", None),
        (compat, "random_pure_state_mat", "rand.sample", None),
        (compat, "random_density_mat", "rand.sample", None),
        (compat, "construct_emergent", "compat.construct", None),
        (compat, "pinv", "linalg.pinv", None),
        (compat, "diagram_distance", "compat.diagram_distance", None),
        (compat, "verify_kraus_equivalence", "compat.verify_kraus_equivalence", None),
        (compat, "compose", "channel.compose", None),
        (compat, "choi_to_kraus", "channel.choi_to_kraus", None),
        (compat, "connecting_unitary", "channel.connecting_unitary", None),
        (cli, "cmd_check", "cli.check", None),
        (cli, "run_all", "compat.run_all", None),
        (cli, "report_to_json", "io.report_to_json", None),
        (cli, "dumps", "io.dumps", _dumps_result),
        (cli, "registry", "scenarios.generate", None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in plan]
    saved.append((compat, "np", compat.np))
    try:
        for mod, attr, name, on_result in plan:
            setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name, on_result))
        # sdp_feasibility calls np.linalg.pinv directly, so it is reached
        # through the `np` name that compat resolves.
        wrapped_pinv = _wrap(tracer, np.linalg.pinv, "linalg.pinv")
        compat.np = _Delegate(np, linalg=_Delegate(np.linalg, pinv=wrapped_pinv))
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


# Stages that run_all calls directly; their shares of decision time are
# reported, and together they must cover run_all's time.
STAGES = {
    "fiber": ("compat.fiber",),
    "algebraic": ("compat.algebraic",),
    "sdp": ("compat.sdp",),
    "witness": ("compat.witness.anc1", "compat.witness.ancd", "compat.witness.ancD"),
    "construct": ("compat.construct",),
    "diagram_distance": ("compat.diagram_distance",),
}

DECISION = "bench.decision"


def summarize(tracer: Tracer, memory: Tracer, sdp_setup_s: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans, as {name: (value, unit)}.

    Times and counts are per decision of ``tracer``; peaks are the largest
    over the spans of ``memory``.  ``sdp_setup_s`` maps (D, d) to the time
    of a one-iteration SDP probe taken outside the timed loop.
    """
    spans = tracer.spans
    decisions = [s for s in spans if s.name == DECISION]
    n = max(len(decisions), 1)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(s.duration - child_time[i] for i, s in enumerate(spans) if s.name == name)

    def peak_mb(name):
        return max((s.peak_bytes for s in memory.spans if s.name == name), default=0) / MB

    out: dict[str, tuple[float, str]] = {}
    for anc in ("anc1", "ancd", "ancD"):
        out[f"compat.witness.{anc}.s"] = (total(f"compat.witness.{anc}") / n, "s")
    anc_big = named("compat.witness.ancD")
    anc_big_s = total("compat.witness.ancD")
    out["compat.witness.ancD.self_s"] = (self_total("compat.witness.ancD") / n, "s")
    out["compat.witness.ancD.trials_per_s"] = (
        sum(s.attrs["trials"] for s in anc_big) / anc_big_s if anc_big_s > 0 else 0.0, "1/s")
    searches = [s for s in spans if s.name.startswith("compat.witness.anc")]
    out["compat.witness.trials"] = (sum(s.attrs["trials"] for s in searches) / n, "count")
    out["compat.witness.found_ratio"] = (
        sum(s.attrs["found"] for s in searches) / len(searches) if searches else 0.0, "ratio")
    out["compat.helstrom.s"] = (total("compat.helstrom") / n, "s")
    out["rand.sample.s"] = (total("rand.sample") / n, "s")
    out["rand.sample.calls"] = (len(named("rand.sample")) / n, "count")

    sdps = named("compat.sdp")
    out["compat.sdp.s"] = (total("compat.sdp") / n, "s")
    probes = [sdp_setup_s[(s.attrs["D"], s.attrs["d"])] for s in sdps]
    out["compat.sdp.setup_s"] = (sum(probes) / len(probes) if probes else 0.0, "s")
    # the probe ran setup plus one iteration; the rest of each call is iterations
    more_iters = sum(s.attrs["iterations"] - 1 for s in sdps)
    out["compat.sdp.iter_s"] = (
        sum(s.duration - p for s, p in zip(sdps, probes)) / more_iters if more_iters else 0.0, "s")
    out["compat.sdp.iterations"] = (sum(s.attrs["iterations"] for s in sdps) / n, "count")
    out["compat.sdp.calls"] = (len(sdps) / n, "count")
    out["compat.sdp.peak_mb"] = (peak_mb("compat.sdp"), "MB")
    out["linalg.pinv.s"] = (total("linalg.pinv") / n, "s")

    out["compat.fiber.s"] = (total("compat.fiber") / n, "s")
    out["compat.fiber.peak_mb"] = (peak_mb("compat.fiber"), "MB")
    out["linalg.kernel_basis.s"] = (total("linalg.kernel_basis") / n, "s")

    out["compat.algebraic.s"] = (total("compat.algebraic") / n, "s")
    out["compat.construct.self_s"] = (self_total("compat.construct") / n, "s")
    out["compat.diagram_distance.s"] = (total("compat.diagram_distance") / n, "s")
    out["compat.verify_kraus_equivalence.s"] = (total("compat.verify_kraus_equivalence") / n, "s")
    out["channel.compose.s"] = (total("channel.compose") / n, "s")
    out["channel.compose.calls"] = (len(named("channel.compose")) / n, "count")
    out["channel.choi_to_kraus.s"] = (total("channel.choi_to_kraus") / n, "s")
    out["channel.connecting_unitary.s"] = (total("channel.connecting_unitary") / n, "s")
    out["compat.run_all.self_s"] = (self_total("compat.run_all") / n, "s")

    out["cli.check.self_s"] = (self_total("cli.check") / n, "s")
    out["io.report_to_json.s"] = (total("io.report_to_json") / n, "s")
    out["io.dumps.s"] = (total("io.dumps") / n, "s")
    dumps = named("io.dumps")
    out["io.report_bytes"] = (
        sum(s.attrs["bytes"] for s in dumps) / len(dumps) if dumps else 0.0, "bytes")
    gens = named("scenarios.generate")
    out["scenarios.generate.s"] = (total("scenarios.generate") / len(gens) if gens else 0.0, "s")

    # shares of decision time, by the stages run_all calls directly
    decision_s = sum(s.duration for s in decisions)
    run_all_ids = {i for i, s in enumerate(spans) if s.name == "compat.run_all"}
    for stage, names in STAGES.items():
        t = sum(s.duration for s in spans if s.name in names and s.parent in run_all_ids)
        out[f"share.{stage}"] = (t / decision_s if decision_s else 0.0, "ratio")
    out["share.run_all_self"] = (self_total("compat.run_all") / decision_s if decision_s else 0.0,
                                 "ratio")
    out["share.outside_run_all"] = (
        (decision_s - total("compat.run_all")) / decision_s if decision_s else 0.0, "ratio")
    coverage = [child_time[i] / spans[i].duration for i in run_all_ids]
    out["trace.stage_coverage_min"] = (min(coverage) if coverage else 0.0, "ratio")
    return out
