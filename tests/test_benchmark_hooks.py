"""The traced benchmark wraps names in ``coarsekit.compat`` and
``coarsekit.cli`` from outside; deleting or renaming one breaks it.

The benchmark's own smoke tests (``python3 -m pytest perfbench``) sit
outside this suite's test paths, so this test enters and leaves its
instrumentation once to keep those names in place.
"""

from pathlib import Path

from coarsekit import cli, compat
from coarsekit.channel import KrausChannel
from coarsekit.scenarios import registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_instrumentation_finds_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = (compat.run_all, compat.np, cli.cmd_check)
    with spans.instrument(spans.Tracer()):
        assert compat.run_all is not before[0]
    assert (compat.run_all, compat.np, cli.cmd_check) == before


def test_run_all_constructs_through_the_wrapped_name(monkeypatch):
    # the compat.construct span wraps this name; run_all must call it once,
    # with the SDP outcome it already holds, or the stage drops out of the trace
    calls = []
    real = compat.construct_emergent

    def spy(*args, **kwargs):
        calls.append((*args, *kwargs.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(compat, "construct_emergent", spy)
    report = compat.run_all(registry()["spin-d3"].scenario, compat.CheckConfig(witness_trials=0))
    assert len(calls) == 1
    assert any(arg is report.sdp for arg in calls[0])
    assert report.emergent is not None


def test_check_resolves_registry_names_through_the_wrapped_name(monkeypatch, capsys):
    # the scenarios.generate span wraps cli.registry; a check of a registry
    # name must build its scenario through it, and only that one
    calls = []
    real = cli.registry

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "registry", spy)
    assert cli.main(["check", "spin-d3", "--trials", "0"]) == 0
    assert calls == [("spin-d3",)]


def test_kernel_witness_is_built_inside_the_wrapped_fiber_check(monkeypatch):
    # the compat.fiber span wraps check_fiber_preservation, and the trace's
    # stage coverage counts what run_all does itself against it: a failed
    # check must have built its witness when it returns, and run_all must
    # then make no state of its own
    named = registry()["example1-incompatible"]
    s = compat.Scenario(KrausChannel(named.scenario.cg.kraus), named.scenario.u)
    built, states_after = [], []
    real_check, real_state = compat.check_fiber_preservation, compat.DensityMatrix

    def check(scenario, *args, **kwargs):
        result = real_check(scenario, *args, **kwargs)
        built.append(vars(scenario).get("_kernel_witness"))
        return result

    def state(*args, **kwargs):
        if built:
            states_after.append(args)
        return real_state(*args, **kwargs)

    monkeypatch.setattr(compat, "check_fiber_preservation", check)
    monkeypatch.setattr(compat, "DensityMatrix", state)
    report = compat.run_all(s)
    assert len(built) == 1 and built[0] is not None
    assert report.witness is built[0] and report.witness.source == "kernel"
    assert states_after == []


def test_check_span_survives_the_cached_parser(monkeypatch, capsys):
    # the parser is built once per process; the cli.check span replaces
    # cli.cmd_check on the module, so main must look the handler up by name
    # on every call, not take one bound when the parser was built
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert cli.main(["check", "spin-d3", "--trials", "0"]) == 0
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.main(["check", "spin-d3", "--trials", "0"]) == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.check", "scenarios.generate"} <= names
