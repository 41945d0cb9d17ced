"""Lint behaviour around the determinism and purity rules (RPR007–RPR009):
suppressions, errors, and the tier-1 self-analysis gate."""

import textwrap
from pathlib import Path

from repro.checks import lint_paths, lint_source
from repro.checks.findings import Severity

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def analyze(code, module="repro.experiments.fixture"):
    return lint_source(
        textwrap.dedent(code), path="fixture.py", module=module
    )


class TestErrors:
    def test_syntax_error_is_reported_not_raised(self):
        findings = analyze("def broken(:\n    pass\n")
        assert [f.rule_id for f in findings] == ["RPR000"]
        assert findings[0].severity is Severity.ERROR


class TestSuppressions:
    MIX = """
        def bad(items):
            return list(set(items)){suffix}
        """

    def test_flow_finding_fires_unsuppressed(self):
        findings = analyze(self.MIX.format(suffix=""))
        assert [f.rule_id for f in findings] == ["RPR007"]

    def test_norpr_silences_a_flow_finding(self):
        assert analyze(self.MIX.format(suffix="  # norpr: RPR007")) == []

    def test_all_wildcard_silences_too(self):
        assert analyze(self.MIX.format(suffix="  # norpr: all")) == []

    def test_stale_flow_suppression_is_reported(self):
        findings = analyze(
            """
            def fine(x):
                return x + 1  # norpr: RPR007
            """
        )
        assert [f.rule_id for f in findings] == ["RPR000"]
        assert findings[0].severity is Severity.WARNING
        assert "RPR007" in findings[0].message

    def test_docstring_example_is_not_a_suppression(self):
        # ``# norpr:`` quoted in a docstring must neither suppress nor
        # count as a stale suppression — only real comment tokens do.
        assert (
            analyze(
                '''
                def documented(x):
                    """Silence with ``# norpr: RPR007`` on the line."""
                    return x
                '''
            )
            == []
        )


class TestSelfAnalysis:
    def test_src_repro_has_no_flow_errors(self):
        """Tier-1 gate: the library's own source obeys its own rules."""
        findings = lint_paths([str(SRC)])
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        assert errors == [], [f.as_dict() for f in errors]

    def test_checks_package_analyzes_itself_warning_free(self):
        findings = lint_paths([str(SRC / "checks")])
        assert findings == [], [f.as_dict() for f in findings]
