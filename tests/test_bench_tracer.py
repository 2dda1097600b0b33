"""The benchmark's tracer must find every name it traces (``perfbench/tracing.py``
raises when one disappears); this keeps a rename from surfacing only in the
slow benchmark suite."""

from pathlib import Path

import sinkeq.cli


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    original = sinkeq.cli.forward_closure
    tracer = Tracer()
    try:
        tracer.install()
        assert sinkeq.cli.forward_closure is not original
    finally:
        tracer.uninstall()
    assert sinkeq.cli.forward_closure is original
