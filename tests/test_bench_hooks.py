"""The benchmark's tracer can still hook the program.

``perfbench/tracing.py`` wraps functions by attribute name on the modules
that look them up (for example ``attntrack.pipeline.train.encode``). A
name that goes missing makes ``install`` raise ``AttributeError`` and
breaks every traced benchmark run, so the contract is checked here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Probes, Tracer

    probes = Probes(Tracer()).install()
    probes.uninstall()
    assert not probes._saved
