"""The ``repro check`` CLI subcommand: scopes, formats, exit policy."""

import json
import textwrap

from repro.cli import main

BROKEN_MODULE = textwrap.dedent(
    """
    def corrupt(complex_, facets):
        complex_._facets = facets

    def swallow(step):
        try:
            step()
        except:
            pass
    """
)


class TestAuditScopes:
    def test_single_experiment_exits_zero(self, capsys):
        assert main(["check", "E1"]) == 0
        out = capsys.readouterr().out
        assert "audit[E1]" in out
        assert "clean" in out

    def test_all_experiments_exit_zero(self, capsys):
        assert main(["check", "--all"]) == 0
        out = capsys.readouterr().out
        assert "23 experiments" in out

    def test_bare_check_defaults_to_all(self, capsys):
        assert main(["check"]) == 0
        assert "audit[--all]" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        try:
            main(["check", "E99"])
        except SystemExit as exc:
            assert "unknown experiment" in str(exc)
        else:
            raise AssertionError("expected SystemExit")


class TestLintScope:
    def test_lint_violations_fail(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BROKEN_MODULE)
        assert main(["check", "--lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR004" in out

    def test_fail_on_policy_downgrades(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BROKEN_MODULE)
        # Findings are errors; asking to fail only above error never fires.
        assert (
            main(["check", "--lint", str(tmp_path), "--fail-on", "error"])
            == 1
        )
        capsys.readouterr()
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("X = 1\n")
        assert main(["check", "--lint", str(clean)]) == 0

    def test_missing_path_fails(self, tmp_path, capsys):
        missing = tmp_path / "srcc"
        assert main(["check", "--lint", str(missing)]) == 1
        out = capsys.readouterr().out
        assert "RPR000" in out
        assert "nothing to lint" in out

    def test_path_without_python_files_fails(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no code here\n")
        assert main(["check", "--lint", str(tmp_path)]) == 1
        assert "RPR000" in capsys.readouterr().out

    def test_invalid_fail_on_rejected(self):
        try:
            main(["check", "--fail-on", "fatal"])
        except SystemExit as exc:
            assert "unknown severity" in str(exc)
        else:
            raise AssertionError("expected SystemExit")


class TestJsonFormat:
    def test_json_document_shape(self, capsys):
        assert main(["check", "E4", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is True
        assert document["experiments"] == ["E4"]
        assert document["findings"] == []
        assert document["targets_audited"] > 0

    def test_json_reports_lint_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BROKEN_MODULE)
        assert (
            main(["check", "--lint", str(tmp_path), "--format", "json"])
            == 1
        )
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is False
        assert document["worst_severity"] == "error"
        rules = {finding["rule"] for finding in document["findings"]}
        assert {"RPR001", "RPR004"} <= rules

    def test_combined_lint_and_audit_scope(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("X = 1\n")
        assert (
            main(["check", "E1", "--lint", str(clean)])
            == 0
        )
        out = capsys.readouterr().out
        assert "lint[" in out
        assert "audit[E1]" in out
