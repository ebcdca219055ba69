"""Time-to-verdict benchmark for coarsekit.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One process runs one workload as a closed loop with a single caller: the
next decision starts only after the previous one returned, pass after pass
over the workload's scenarios, until ``--seconds`` have gone by.  Every
decision is checked (verdict, constructed channel, report bytes); a decision
that raises or fails a check counts as failed.

A fixed reference computation (``reference.py``) runs between decisions,
and each decision is also timed in units of it, because on a shared host
the machine's speed drifts by more than a regression worth catching.
``--trace 0`` reports the end-to-end metrics: ``scenarios_per_ref``,
``peak_rss_mb`` and ``setup_s``.  The rate in seconds and the median
decision time, in seconds and in reference units, with the sample count,
are printed and kept in the results but are not metrics: over ten runs
their spread reaches the largest bound a metric may have.

``--trace 1`` runs the same untraced loop, then one traced pass with spans
wrapped around coarsekit's layer boundaries from outside (see ``spans.py``)
and one more pass for peak memory, and reports per-layer metrics, each
stage's share of decision time and the tracing overhead.  ``--smoke`` shrinks every workload to tiny sizes
for the benchmark's own tests.

BLAS is pinned to one thread before numpy is imported.  Results, per-call
times and the environment go to ``perfbench/results/``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import DECISION, Tracer, instrument, summarize

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOADS = ("registry-cli", "planted-compatible", "random-incompatible",
             "dephasing-rank-deficient")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import coarsekit; "
                "print(time.perf_counter() - t); print(coarsekit.__file__)")


def parse_args(argv):
    p = argparse.ArgumentParser(description="coarsekit time-to-verdict benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return p.parse_args(argv)


class Loop:
    """Per-call times and verdicts of one closed loop."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        # decision time over the mean reference time around it (timed loop only)
        self.ratios: dict[str, list[float]] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.failures: list[str] = []
        self.passes = 0

    @property
    def all_times(self) -> list[float]:
        return [t for times in self.times.values() for t in times]

    @property
    def scenarios_per_s(self) -> float:
        """Decisions per second, from each scenario's median decision time.

        Every pass decides each scenario once, so this is the loop's rate,
        except that a stray slow call does not move it.
        """
        return len(self.times) / sum(statistics.median(t) for t in self.times.values())

    @property
    def scenarios_per_ref(self) -> float:
        """``scenarios_per_s`` with each decision timed in reference units."""
        return len(self.ratios) / sum(statistics.median(r) for r in self.ratios.values())

    @property
    def all_ratios(self) -> list[float]:
        return [r for ratios in self.ratios.values() for r in ratios]


def decide_and_check(workload, case, loop: Loop, tracer=None) -> float:
    """One decision, timed, then checked outside the timing."""
    if tracer is not None:
        tracer.decision += 1
        idx = tracer.open(DECISION)
    t0 = time.perf_counter()
    try:
        outcome, error = workload.decide(case), None
    except Exception as exc:  # a decision that raises is a failed decision
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(idx)
        idx = tracer.open("bench.check")
    if error is None:
        try:
            verdict, error = workload.check(case, outcome)
        except Exception as exc:  # a check that cannot run fails the decision
            verdict, error = "error", f"check raised {type(exc).__name__}: {exc}"
    else:
        verdict = "error"
    if tracer is not None:
        tracer.close(idx)
    loop.verdicts.setdefault(case.label, []).append(verdict)
    if error is not None:
        loop.failures.append(f"{case.label}: {error}")
    return elapsed


def run_pass(workload, cases, loop: Loop, tracer=None) -> None:
    """Decide every case once, in order."""
    for case in cases:
        elapsed = decide_and_check(workload, case, loop, tracer)
        loop.times.setdefault(case.label, []).append(elapsed)
    loop.passes += 1


def timed_loop(workload, cases, seconds: float, reference) -> Loop:
    """Decisions in pass order until ``seconds`` have gone by.

    The reference computation runs before the first decision and after each
    one, so every decision is also timed against the mean of the reference
    runs on either side of it.  The first pass is always whole; after it the
    loop stops at the first decision that ends past ``seconds``, so a run
    does not overshoot by most of a pass when one pass takes many seconds.
    """
    loop = Loop()
    start = time.perf_counter()
    before = reference.time()
    done = 0
    while done < len(cases) or time.perf_counter() - start < seconds:
        case = cases[done % len(cases)]
        elapsed = decide_and_check(workload, case, loop)
        after = reference.time()
        loop.times.setdefault(case.label, []).append(elapsed)
        loop.ratios.setdefault(case.label, []).append(2.0 * elapsed / (before + after))
        before = after
        done += 1
    loop.passes = done // len(cases)
    return loop


def import_seconds(root: Path) -> float:
    """Time of ``import coarsekit`` in a fresh interpreter."""
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, where = proc.stdout.split()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"import probe loaded coarsekit from {where}, not {src}")
    return float(seconds)


def setup(workload, args, root: Path, warmup: Loop):
    """Import, generate the scenarios, one untimed warm-up decision; repeated.

    Returns the cases and the seconds of each repetition.
    """
    repeats = 1 if args.smoke else SETUP_REPEATS
    reps = []
    for _ in range(repeats):
        imp = import_seconds(root)
        t0 = time.perf_counter()
        cases = workload.cases(args.seed, args.smoke)
        gen = time.perf_counter() - t0
        warm = decide_and_check(workload, cases[0], warmup)
        reps.append({"import_s": imp, "generate_s": gen, "warmup_s": warm,
                     "total_s": imp + gen + warm})
    return cases, reps


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sdp_setup_probe(cases) -> dict:
    """Seconds of a one-iteration SDP per (D, d), outside the timed loops."""
    from coarsekit import compat

    out = {}
    for case in cases:
        s = case.scenario()
        if (s.D, s.d) not in out:
            t0 = time.perf_counter()
            compat.sdp_feasibility(s, max_iter=1, tol=case.cfg.sdp_tol)
            out[(s.D, s.d)] = time.perf_counter() - t0
    return out


def traced_run(workload, cases, args, untraced: Loop, results: Path):
    """One traced pass for times and counts, one more for peak memory.

    Returns the two loops and the per-layer metrics.
    """
    import tracemalloc

    tracer, traced = Tracer(), Loop()
    with instrument(tracer):
        with tracer.span("scenarios.generate"):
            workload.cases(args.seed, args.smoke)
        run_pass(workload, cases, traced, tracer)
    memory, memory_loop = Tracer(memory=True), Loop()
    tracemalloc.start()
    try:
        with instrument(memory):
            run_pass(workload, cases, memory_loop, memory)
    finally:
        tracemalloc.stop()
    tracer.write(results.with_suffix(".spans.jsonl"))
    memory.write(results.with_suffix(".memory-spans.jsonl"))

    metrics = summarize(tracer, memory, sdp_setup_probe(cases))
    metrics["trace.untraced_scenarios_per_s"] = (untraced.scenarios_per_s, "1/s")
    metrics["trace.traced_scenarios_per_s"] = (traced.scenarios_per_s, "1/s")
    metrics["trace.overhead_ratio"] = (untraced.scenarios_per_s / traced.scenarios_per_s,
                                       "ratio")
    for label, verdicts in traced.verdicts.items():
        if set(verdicts) != set(untraced.verdicts[label]):
            traced.failures.append(f"{label}: traced verdicts {sorted(set(verdicts))} differ "
                                   f"from untraced {sorted(set(untraced.verdicts[label]))}")
    return [traced, memory_loop], metrics


def run(args, root: Path) -> int:
    import workloads
    from reference import Reference

    results_dir = root / "perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    results = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    workload = workloads.make(args.workload, results_dir)

    warmup = Loop()
    cases, reps = setup(workload, args, root, warmup)
    reference = Reference()
    reference.time()  # warm-up: numpy's first linear-algebra calls
    reference.times.clear()
    untraced = timed_loop(workload, cases, args.seconds, reference)
    loops = [warmup, untraced]
    if args.trace:
        traced_loops, metrics = traced_run(workload, cases, args, untraced, results)
        loops += traced_loops
    else:
        metrics = {
            "setup_s": (statistics.median(r["total_s"] for r in reps), "s"),
            "scenarios_per_ref": (untraced.scenarios_per_ref, "1/ref"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    decide_p50 = statistics.median(untraced.all_times)
    decide_ref_p50 = statistics.median(untraced.all_ratios)
    reference_p50 = statistics.median(reference.times)
    attempted = sum(sum(len(v) for v in loop.verdicts.values()) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    fail_ratio = len(failures) / attempted

    metric_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    checks = []
    if args.trace and workload.prediction is not None:
        stage, floor = workload.prediction
        share = metrics[f"share.{stage}"][0]
        checks.append({"stage": stage, "predicted_min_share": floor, "share": share,
                       "held": share >= floor})

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "cases": [c.info() for c in cases],
        "setup_repeats": reps,
        "passes": untraced.passes,
        "decide_s": {"samples": len(untraced.all_times), "p50": decide_p50,
                     "scenarios_per_s": untraced.scenarios_per_s,
                     "per_call": untraced.times},
        "decide_ref": {"p50": decide_ref_p50, "scenarios_per_ref": untraced.scenarios_per_ref,
                       "per_call": untraced.ratios},
        "reference_s": {"p50": reference_p50, "per_call": reference.times},
        "verdicts": {"untraced": untraced.verdicts,
                     **({"traced": loops[2].verdicts} if args.trace else {})},
        "attempted": attempted,
        "failures": failures,
        "fail_ratio": fail_ratio,
        "predictions": checks,
        "metrics": metric_json,
    }
    results.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {BLAS_THREADS}  results {results.relative_to(root)}")
    print(f"{len(untraced.all_times)} decisions in {untraced.passes} whole passes: "
          f"decide_s.p50 {decide_p50:.6g} s, scenarios_per_s {untraced.scenarios_per_s:.6g} 1/s; "
          f"reference p50 {reference_p50:.6g} s, decide_ref.p50 {decide_ref_p50:.6g} ref")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':40s} {fail_ratio:.6g} ({len(failures)}/{attempted})")
    for c in checks:
        print(f"prediction share.{c['stage']} >= {c['predicted_min_share']:.2f}: "
              f"{'held' if c['held'] else 'DID NOT HOLD'} ({c['share']:.3f})")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metric_json,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import coarsekit
    except ImportError as exc:
        print(f"error: cannot import coarsekit from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(coarsekit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: coarsekit was loaded from {coarsekit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
