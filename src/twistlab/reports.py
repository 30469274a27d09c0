"""Check results and suite reports for the verification harness."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """One verified property: what was measured, against what bound."""

    name: str
    status: str                 # "pass" | "fail" | "skip"
    measured: float | None = None
    tolerance: float | None = None
    anchor: str = ""            # stable check-family id for traceability
    seconds: float = 0.0
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {self.status!r}")

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[self.status]
        parts = [f"{mark:4s} {self.name}"]
        if self.measured is not None:
            parts.append(f"measured={_fmt(self.measured)}")
        if self.tolerance is not None:
            parts.append(f"tol={_fmt(self.tolerance)}")
        if self.anchor:
            parts.append(f"[{self.anchor}]")
        parts.append(f"({self.seconds:.2f}s)")
        if self.detail and self.status != "pass":
            parts.append(f"-- {self.detail}")
        return "  ".join(parts)


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    if x == 0:
        return "0"
    if isinstance(x, bool):
        return str(x)
    return f"{x:.4g}"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.checks)

    def summary(self) -> str:
        lines = [f"suite {self.suite}: {len(self.checks)} checks, "
                 f"{'PASS' if self.passed else 'FAIL'} ({self.seconds:.1f}s)"]
        lines += ["  " + c.line() for c in self.checks]
        return "\n".join(lines)

    def to_json(self, timestamp: str | None = None) -> str:
        doc = {
            "schema_version": 1,
            "kind": "verification_report",
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "measured": _json_num(c.measured),
                    "tolerance": _json_num(c.tolerance),
                    "anchor": c.anchor,
                    "seconds": round(c.seconds, 4),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }
        if timestamp is not None:
            doc["timestamp"] = timestamp
        return json.dumps(doc, indent=2)


def _json_num(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x
