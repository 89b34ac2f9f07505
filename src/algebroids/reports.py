"""Machine-readable check records and verification reports."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    """One named residual check against a tolerance."""

    name: str
    residual: float
    tolerance: float
    probes: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """A non-finite residual fails whatever the tolerance."""
        return math.isfinite(self.residual) and self.residual <= self.tolerance

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "probes": self.probes,
        }
        if self.details:
            record["details"] = self.details
        return record


@dataclass
class Report:
    """Deterministic report for a fixture run; serialization is byte-stable."""

    tool_version: str
    fixture: str
    seed: int
    points: int
    checks: list[CheckRecord] = field(default_factory=list)
    forms: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    def to_dict(self) -> dict:
        body = {
            "tool_version": self.tool_version,
            "fixture": self.fixture,
            "seed": self.seed,
            "points": self.points,
            "passed": self.passed,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }
        if self.forms:
            body["forms"] = self.forms
        return body

    def to_json(self) -> str:
        """Strict JSON (RFC 8259): a non-finite number is written as "inf", "-inf" or "nan"."""
        return json.dumps(_finite_or_text(self.to_dict()), sort_keys=True, indent=2,
                          allow_nan=False)


def _finite_or_text(value):
    """`value` with every non-finite float replaced by its text, at any depth.

    Residuals are not the only floats: dumped form values come from the scalar
    walk, where a product can overflow to inf without raising.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _finite_or_text(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_text(item) for item in value]
    return value
