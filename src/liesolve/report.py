"""Verification report structures shared by the case studies and the CLI.

A report is a flat list of named checks.  Checks that exercise claims known
to be internally inconsistent in the source catalog are marked
``expected_discrepancy``: they are reported honestly (value, threshold,
pass/fail) but do not poison the run verdict, which exists to catch
*unexpected* failures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class CheckEntry:
    name: str
    value: float
    threshold: float
    passed: bool
    expected_discrepancy: bool = False
    notes: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "value": _num(self.value),
            "threshold": _num(self.threshold),
            "passed": bool(self.passed),
            "expected_discrepancy": bool(self.expected_discrepancy),
            "notes": self.notes,
        }


def _num(v):
    if v is None:
        return None
    f = float(v)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return f


@dataclass
class VerificationReport:
    title: str
    checks: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def check(self, name, value, threshold, expected_discrepancy=False, notes=""):
        entry = CheckEntry(
            name,
            float(value),
            float(threshold),
            bool(value <= threshold),
            expected_discrepancy,
            notes,
        )
        self.checks.append(entry)
        return entry

    def record(self, name, passed, notes=""):
        """A pass/fail check with no value or threshold of its own."""
        entry = CheckEntry(name, float("nan"), float("nan"), bool(passed), False, notes)
        self.checks.append(entry)
        return entry

    @property
    def clean(self):
        return all(c.passed or c.expected_discrepancy for c in self.checks)

    @property
    def documented_discrepancies(self):
        return [c for c in self.checks if c.expected_discrepancy and not c.passed]

    def to_dict(self):
        return {
            "title": self.title,
            "clean": self.clean,
            "checks": [c.to_dict() for c in self.checks],
            "payload": {k: _payload(v) for k, v in sorted(self.payload.items())},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self):
        lines = [self.title, "=" * len(self.title)]
        for c in self.checks:
            status = "pass" if c.passed else ("DISCREPANCY" if c.expected_discrepancy else "FAIL")
            lines.append(
                f"[{status:>11}] {c.name}: value {c.value:.6g} vs threshold {c.threshold:.6g}"
            )
            if c.notes:
                lines.append(f"              {c.notes}")
        if self.payload:
            lines.append("")
            lines.append("details:")
            for k, v in sorted(self.payload.items()):
                lines.append(f"  {k} = {_payload(v)}")
        doc = self.documented_discrepancies
        if doc:
            lines.append("")
            lines.append("documented discrepancies (reported, not patched):")
            for c in doc:
                lines.append(f"  - {c.name}: {c.notes or 'see check above'}")
        lines.append("")
        lines.append("verdict: " + ("all checks pass" if self.clean else "unexpected failures present"))
        return "\n".join(lines)


def _payload(v):
    if isinstance(v, float):
        return _num(v)
    if isinstance(v, (list, tuple)):
        return [_payload(x) for x in v]
    if isinstance(v, dict):
        return {k: _payload(x) for k, x in sorted(v.items())}
    return v
