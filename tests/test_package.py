"""The package's public names and the benchmark tracer's bindings resolve."""

import importlib.util
from pathlib import Path

import twistlab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_public_names_resolve():
    missing = [name for name in twistlab.__all__ if not hasattr(twistlab, name)]
    assert missing == []


def test_tracer_installs_and_restores():
    # the tracer wraps package functions by name; a renamed or deleted
    # one would break every traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from twistlab import cones

    member = cones.member
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer._undo and cones.member is not member
    finally:
        tracer.restore()
    assert cones.member is member
