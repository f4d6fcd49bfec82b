"""Report and check-result containers returned by verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of a single mathematical check.

    ``lhs``/``rhs`` carry the two sides of the verified (in)equality when that
    makes sense for the check; ``details`` holds everything else.
    """

    name: str
    passed: bool
    lhs: float | None = None
    rhs: float | None = None
    tolerance: float | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed

    def summary(self) -> dict:
        out = {"check": self.name, "pass": bool(self.passed)}
        if self.lhs is not None:
            out["lhs"] = float(self.lhs)
        if self.rhs is not None:
            out["rhs"] = float(self.rhs)
        if self.tolerance is not None:
            out["tolerance"] = float(self.tolerance)
        out.update(self.details)
        return out


@dataclass
class ValidationReport:
    """Report-style validation outcome: never raises, lists violations."""

    valid: bool
    issues: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.valid


def series_csv(m_values, columns: list[tuple[str, object]]) -> str:
    """An integer ``m`` column, then each named column as ``.17g``, which reads back exactly."""
    lines = [",".join(["m", *(name for name, _ in columns)])]
    for i, m in enumerate(m_values):
        lines.append(",".join([str(int(m)), *(f"{col[i]:.17g}" for _, col in columns)]))
    return "\n".join(lines) + "\n"
