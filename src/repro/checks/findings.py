"""Structured results of the static-analysis subsystem.

Both heads of :mod:`repro.checks` — the domain invariant auditor
(:mod:`repro.checks.rules`) and the AST lint (:mod:`repro.checks.astlint`)
— report violations as :class:`Finding` records: a rule identifier, a
severity, the path of the offending object (an audit-target path such as
``E7/task[ε-AA 1/4]/Δ`` or a source location such as
``src/repro/foo.py:12``), and a human-readable explanation.

Findings are plain immutable data so reporters can render them as text or
JSON and exit-code policies can filter them by severity without knowing
which head produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

__all__ = [
    "Severity",
    "Finding",
    "max_severity",
    "parse_severity",
    "sort_findings",
]


class Severity(IntEnum):
    """Ordered severity levels; higher values are worse."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


def parse_severity(label: str) -> Severity:
    """Parse a CLI severity label (case-insensitive) into a :class:`Severity`.

    Raises
    ------
    ValueError
        If the label is not one of ``info``, ``warning``, ``error``.
    """
    try:
        return Severity[label.upper()]
    except KeyError:
        known = ", ".join(s.name.lower() for s in Severity)
        raise ValueError(
            f"unknown severity {label!r}: use one of {known}"
        ) from None


@dataclass(frozen=True)
class Finding:
    """One violation reported by an audit or lint rule.

    Attributes
    ----------
    rule_id:
        The stable identifier of the rule that fired (``AUD00x`` for domain
        audit rules, ``RPR00x`` for AST lint rules).
    severity:
        How bad the violation is; drives the ``--fail-on`` exit policy.
    path:
        Where the violation lives: an audit-target path for live objects,
        or ``file:line`` for source findings.
    message:
        Human-readable explanation of what is wrong and why it matters.
    """

    rule_id: str
    severity: Severity
    path: str
    message: str

    def as_dict(self) -> dict[str, str]:
        """JSON-friendly representation (severity as its lowercase name)."""
        return {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "message": self.message,
        }


def max_severity(findings: Iterable[Finding]) -> Severity:
    """The worst severity among ``findings`` (``INFO`` when empty)."""
    worst = Severity.INFO
    for finding in findings:
        if finding.severity > worst:
            worst = finding.severity
    return worst


def _path_key(path: str) -> tuple[str, int]:
    """Split a ``file:line`` path into a (file, numeric line) sort key.

    Lexicographic sorting of the raw path puts ``foo.py:10`` before
    ``foo.py:9``; the numeric split keeps findings in source order.
    Paths without a line component (audit-target paths) sort by their
    text with line 0.
    """
    base, sep, tail = path.rpartition(":")
    if sep and tail.isdigit():
        return base, int(tail)
    return path, 0


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Order findings by path, line, then rule id — deterministically.

    This is the one ordering every reporter uses, so text output, JSON
    output, and CI diffs are stable across runs (severity breaks ties
    only after location and rule, worst first).
    """
    return sorted(
        findings,
        key=lambda f: (
            *_path_key(f.path),
            f.rule_id,
            -int(f.severity),
            f.message,
        ),
    )
