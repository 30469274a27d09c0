import pytest

from twistlab.reports import CheckResult
from twistlab.suites import criterion_checks, run_suite, suite_checks

SUITES = ("products", "wavefront", "calculus", "bridge")


def test_registry_names_unique():
    seen = set()
    for s in SUITES:
        for fn in suite_checks(s):
            assert fn.__name__ not in seen
            seen.add(fn.__name__)
    assert len(seen) >= 30


def test_every_criterion_is_covered():
    for k in range(1, 10):
        assert criterion_checks(k), f"criterion {k} has no checks"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        suite_checks("nope")
    with pytest.raises(KeyError):
        run_suite("nope")


def test_run_suite_bridge_passes():
    rep = run_suite("bridge")
    assert rep.passed
    assert len(rep.checks) == 3
    assert all(isinstance(c, CheckResult) for c in rep.checks)
    assert all(c.seconds >= 0.0 for c in rep.checks)
    # checks run and are reported in declaration order
    assert rep.checks[0].name == "bridge-impulse-at-origin"


def test_run_suite_wavefront_passes():
    rep = run_suite("wavefront")
    assert rep.passed


def test_crash_becomes_failed_check():
    from twistlab.suites import _timed

    def check_boom():
        raise RuntimeError("synthetic crash")

    res = _timed(check_boom)
    assert res.status == "fail"
    assert res.name == "check_boom"
    assert "synthetic crash" in res.detail
    assert res.seconds >= 0.0
