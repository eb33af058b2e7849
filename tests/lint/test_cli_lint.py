"""CLI exit-code contract: 0 clean / 1 findings / 2 usage error.

Covers ``repro lint`` (the subcommand), ``python -m repro.lint`` (the
module entry point shares the same ``main``), and the audit of the
other subcommands' exit semantics.
"""

import json

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main
from tests.lint.conftest import FIXTURES


def _lint_args(*extra, root=FIXTURES):
    return ["--root", str(root), "--no-cache", *extra]


class TestLintExitCodes:
    def test_clean_run_exits_0(self, capsys):
        code = lint_main(
            _lint_args(str(FIXTURES / "determinism_ok.py"),
                       "--rules", "REP001")
        )
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_1(self, capsys):
        code = lint_main(
            _lint_args(str(FIXTURES / "determinism_bad.py"),
                       "--rules", "REP001")
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_unknown_rule_exits_2(self, capsys):
        code = lint_main(
            _lint_args(str(FIXTURES / "determinism_bad.py"),
                       "--rules", "REP999")
        )
        assert code == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "broken.json"
        baseline.write_text("{nope")
        code = lint_main(
            _lint_args(str(FIXTURES / "determinism_ok.py"),
                       "--baseline", str(baseline))
        )
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_bad_root_exits_2(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path / "absent")])
        assert code == 2

    def test_json_format_is_machine_readable(self, capsys):
        code = lint_main(
            _lint_args(str(FIXTURES / "determinism_bad.py"),
                       "--rules", "REP001", "--format", "json")
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"REP001": 8}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "REP001", "REP002", "REP003", "REP004", "REP005",
            "REP007", "REP008", "REP009", "REP010",
        ):
            assert rule in out

    def test_sarif_format_is_valid_sarif(self, capsys):
        code = lint_main(
            _lint_args(str(FIXTURES / "rep010_bad"),
                       "--rules", "REP010", "--format", "sarif")
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        results = document["runs"][0]["results"]
        assert {entry["ruleId"] for entry in results} == {"REP010"}

    def test_stats_flag_reports_callgraph_counters(self, capsys):
        code = lint_main(
            _lint_args(str(FIXTURES / "rep010_bad"),
                       "--rules", "REP010", "--format", "json", "--stats")
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats["files"] == stats["callgraph_files"] == 1
        assert stats["callgraph_built"] == 1
        assert stats["callgraph_reused"] == 0

    def test_stats_cache_reuse_between_runs(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        args = [
            "--root", str(FIXTURES), str(FIXTURES / "rep010_bad"),
            "--rules", "REP010", "--format", "json", "--stats",
            "--cache", str(cache),
        ]
        lint_main(args)
        cold = json.loads(capsys.readouterr().out)["stats"]
        assert cold["callgraph_built"] == 1
        lint_main(args)
        warm = json.loads(capsys.readouterr().out)["stats"]
        assert warm["callgraph_built"] == 0
        assert warm["callgraph_reused"] == warm["callgraph_files"] == 1

    def test_stats_line_in_text_output(self, capsys):
        code = lint_main(
            _lint_args(str(FIXTURES / "rep010_bad"),
                       "--rules", "REP010", "--stats")
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "stats: " in out
        assert "callgraph_built=1" in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = _lint_args(
            str(FIXTURES / "determinism_bad.py"),
            "--rules", "REP001", "--baseline", str(baseline),
        )
        assert lint_main(args + ["--write-baseline"]) == 0
        capsys.readouterr()
        # With the grandfather file in place the same run is clean.
        assert lint_main(args) == 0
        assert "8 baselined" in capsys.readouterr().out


class TestReproLintSubcommand:
    def test_same_contract_through_repro_cli(self, capsys):
        code = repro_main(
            ["lint", *_lint_args(str(FIXTURES / "determinism_bad.py"),
                                 "--rules", "REP001")]
        )
        assert code == 1
        assert "REP001" in capsys.readouterr().out

    def test_clean_through_repro_cli(self, capsys):
        code = repro_main(
            ["lint", *_lint_args(str(FIXTURES / "determinism_ok.py"),
                                 "--rules", "REP001")]
        )
        assert code == 0


class TestExitCodeAudit:
    """The other subcommands share the same 0/1/2 semantics."""

    def test_store_gc_negative_age_exits_2(self, tmp_path, capsys):
        code = repro_main([
            "store", "gc", "--cache-dir", str(tmp_path),
            "--tmp-max-age", "-5",
        ])
        assert code == 2
        assert "--tmp-max-age" in capsys.readouterr().err

    def test_store_verify_clean_exits_0(self, tmp_path, capsys):
        code = repro_main(["store", "verify", "--cache-dir", str(tmp_path)])
        assert code == 0

    def test_thrash_unknown_dataset_exits_2(self, capsys):
        code = repro_main(["thrash", "--dataset", "not-a-dataset"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_scenarios_describe_unknown_exits_2(self, capsys):
        code = repro_main(["scenarios", "describe", "not-a-family"])
        assert code == 2
