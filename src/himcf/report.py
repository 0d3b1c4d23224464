"""Check-record plumbing shared by the flow runners and the monitor suite."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckRecord:
    """One named check: worst margin/residual against an explicit tolerance.

    Margins are oriented so that larger is better; pass means
    margin >= -tolerance.  Residuals use worst = |residual| and pass means
    worst <= tolerance; the `residual` flavor flips the comparison.
    """

    name: str
    worst: float
    tolerance: float
    passed: bool
    kind: str = "margin"            # "margin" | "residual"
    t_worst: float | None = None
    theta_worst: float | None = None
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "worst": self.worst,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "kind": self.kind,
            # Kept so the summary format stays fixed; no record is flagged.
            "flagged": False,
        }
        if self.t_worst is not None:
            out["t_worst"] = self.t_worst
        if self.theta_worst is not None:
            out["theta_worst"] = self.theta_worst
        if self.note:
            out["note"] = self.note
        return out


def margin_record(name: str, margin: float, tolerance: float, *,
                  t_worst=None, theta_worst=None, note="") -> CheckRecord:
    return CheckRecord(name=name, worst=margin, tolerance=tolerance,
                       passed=bool(margin >= -tolerance), kind="margin",
                       t_worst=t_worst, theta_worst=theta_worst, note=note)


def residual_record(name: str, residual: float, tolerance: float, *,
                    t_worst=None, theta_worst=None, note="") -> CheckRecord:
    return CheckRecord(name=name, worst=residual, tolerance=tolerance,
                       passed=bool(residual <= tolerance), kind="residual",
                       t_worst=t_worst, theta_worst=theta_worst, note=note)

