import json

import pytest

from twistlab.reports import CheckResult, VerificationReport


def test_check_result_line_format():
    c = CheckResult("conv-oracle", "pass", measured=1.5e-9, tolerance=1e-6,
                    anchor="conv-def", seconds=0.25)
    line = c.line()
    assert line.startswith("PASS conv-oracle")
    assert "conv-def" in line and "1.5e-09" in line


def test_check_result_status_validation():
    with pytest.raises(ValueError):
        CheckResult("x", "maybe")


def test_report_passed_and_summary():
    ok = CheckResult("a", "pass", seconds=0.1)
    bad = CheckResult("b", "fail", detail="boom", seconds=0.2)
    rep = VerificationReport("demo", (ok, bad))
    assert not rep.passed
    assert rep.seconds == pytest.approx(0.3)
    s = rep.summary()
    assert "FAIL" in s and "demo" in s
    good = VerificationReport("demo", (ok,))
    assert good.passed and "PASS" in good.summary()


def test_report_json_schema():
    c = CheckResult("a", "pass", measured=float("inf"), tolerance=None,
                    anchor="anchor-1", seconds=0.0)
    rep = VerificationReport("demo", (c,))
    doc = json.loads(rep.to_json(timestamp="2024-01-01T00:00:00Z"))
    assert doc["kind"] == "verification_report"
    assert doc["schema_version"] == 1
    assert doc["suite"] == "demo" and doc["passed"] is True
    assert set(doc) == {"schema_version", "kind", "suite", "passed", "checks", "timestamp"}
    assert doc["timestamp"] == "2024-01-01T00:00:00Z"
    entry = doc["checks"][0]
    assert entry["name"] == "a" and entry["status"] == "pass"
    # non-finite measurements are JSON-safe strings
    assert entry["measured"] == "inf"
    # without a timestamp the document is reproducible byte for byte
    assert rep.to_json() == rep.to_json()
    assert "timestamp" not in json.loads(rep.to_json())
