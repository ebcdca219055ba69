"""The traced benchmark wraps names in ``coarsekit.compat`` and
``coarsekit.cli`` from outside; deleting or renaming one breaks it.

The benchmark's own smoke tests (``python3 -m pytest perfbench``) sit
outside this suite's test paths, so this test enters and leaves its
instrumentation once to keep those names in place.
"""

from pathlib import Path

from coarsekit import cli, compat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_instrumentation_finds_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = (compat.run_all, compat.np, cli.cmd_check)
    with spans.instrument(spans.Tracer()):
        assert compat.run_all is not before[0]
    assert (compat.run_all, compat.np, cli.cmd_check) == before
