"""Baseline round-trips and the flow_report baseline workflow."""

import json

import pytest

from repro.checks.audit import flow_report
from repro.checks.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    save_baseline,
)
from repro.checks.findings import Finding, Severity

UNORDERED = """\
def bad(items):
    return list(set(items))
"""


def finding(path="src/x.py:12", message="m", rule="RPR006"):
    return Finding(rule, Severity.ERROR, path, message)


class TestFingerprint:
    def test_line_number_is_stripped(self):
        assert fingerprint(finding("src/x.py:12")) == fingerprint(
            finding("src/x.py:99")
        )

    def test_file_rule_and_message_all_matter(self):
        base = fingerprint(finding())
        assert fingerprint(finding(path="src/y.py:12")) != base
        assert fingerprint(finding(message="other")) != base
        assert fingerprint(finding(rule="RPR007")) != base


class TestRoundTrip:
    def test_save_then_load_preserves_fingerprints(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = [finding("a.py:1", "one"), finding("b.py:2", "two")]
        assert save_baseline(path, findings) == 2
        assert load_baseline(path) == {
            fingerprint(f) for f in findings
        }

    def test_file_is_deterministic_and_sorted(self, tmp_path):
        first = str(tmp_path / "one.json")
        second = str(tmp_path / "two.json")
        findings = [finding("b.py:2", "two"), finding("a.py:1", "one")]
        save_baseline(first, findings)
        save_baseline(second, list(reversed(findings)))
        assert (
            (tmp_path / "one.json").read_text()
            == (tmp_path / "two.json").read_text()
        )

    def test_duplicates_collapse(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        assert (
            save_baseline(path, [finding("a.py:1"), finding("a.py:8")])
            == 1
        )

    def test_malformed_file_raises_value_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(str(path))


class TestApply:
    def test_grandfathered_findings_are_split_out(self):
        old, new = finding("a.py:1", "old"), finding("a.py:2", "new")
        kept, suppressed = apply_baseline(
            [old, new], {fingerprint(old)}
        )
        assert kept == [new]
        assert suppressed == 1

    def test_line_moves_stay_baselined(self):
        moved = finding("a.py:41", "old")
        kept, suppressed = apply_baseline(
            [moved], {fingerprint(finding("a.py:7", "old"))}
        )
        assert kept == [] and suppressed == 1


class TestFlowReportWorkflow:
    def test_update_baseline_records_debt_and_reports_clean(
        self, tmp_path
    ):
        source = tmp_path / "module.py"
        source.write_text(UNORDERED)
        baseline = str(tmp_path / "baseline.json")

        recorded = flow_report(
            [str(source)], baseline_path=baseline, update_baseline=True
        )
        assert recorded.is_clean()

        gated = flow_report([str(source)], baseline_path=baseline)
        assert gated.is_clean()
        assert gated.baselined == 1
        assert gated.files_analyzed == 1

    def test_new_findings_still_gate_after_baselining(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(UNORDERED)
        baseline = str(tmp_path / "baseline.json")
        flow_report(
            [str(source)], baseline_path=baseline, update_baseline=True
        )

        source.write_text(
            UNORDERED
            + "\ndef worse(items):\n"
            "    return tuple(frozenset(items))\n"
        )
        gated = flow_report([str(source)], baseline_path=baseline)
        assert not gated.is_clean()
        assert gated.baselined == 1
        assert gated.exit_code(Severity.ERROR) == 1

    def test_missing_baseline_file_means_empty_baseline(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(UNORDERED)
        report = flow_report(
            [str(source)], baseline_path=str(tmp_path / "absent.json")
        )
        assert not report.is_clean()

    def test_malformed_baseline_surfaces_as_a_finding(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("[]")
        report = flow_report(
            [str(source)], baseline_path=str(baseline)
        )
        assert [f.rule_id for f in report.findings] == ["RPR000"]
        assert report.worst is Severity.ERROR
