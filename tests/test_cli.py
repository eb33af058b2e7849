"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.scale == 0.3
        assert args.models == "rgcn"
        assert args.platforms is None
        assert args.jobs == "1"
        assert not hasattr(args, "executor")
        assert args.no_cache is False

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        # Serial by default: on mixed small requests a process pool
        # only adds latency.
        assert args.jobs == "1"
        assert not hasattr(args, "executor")

    def test_evaluate_new_flags(self):
        args = build_parser().parse_args([
            "evaluate", "--platforms", "t4,hihgnn", "--jobs", "4",
            "--no-cache",
        ])
        assert args.platforms == "t4,hihgnn"
        assert args.jobs == "4"
        assert args.no_cache is True

    def test_evaluate_jobs_auto(self):
        args = build_parser().parse_args(["evaluate", "--jobs", "auto"])
        assert args.jobs == "auto"

    @pytest.mark.parametrize("command", ["evaluate", "serve"])
    def test_executor_flag_is_gone(self, command):
        # --jobs alone picks serial or process fan-out.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--executor", "process"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "acm" in out and "dblp" in out and "imdb" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "GDR-HGNN" in out
        assert "na buffer" in out

    def test_restructure(self, capsys):
        assert main([
            "restructure", "--dataset", "imdb", "--scale", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "backbone" in out
        assert "performs" in out

    def test_thrash(self, capsys):
        assert main([
            "thrash", "--dataset", "acm", "--scale", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "NA hit ratio" in out

    def test_thrash_gdr(self, capsys):
        assert main([
            "thrash", "--dataset", "acm", "--scale", "0.05", "--gdr",
        ]) == 0
        assert "with GDR-HGNN" in capsys.readouterr().out

    def test_evaluate_small(self, capsys):
        assert main([
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out and "Fig. 8" in out and "Fig. 9" in out
        assert "GEOMEAN" in out

    def test_evaluate_platform_subset_parallel(self, capsys):
        assert main([
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--platforms", "t4,hihgnn",
            "--jobs", "2", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "hihgnn" in out
        assert "a100" not in out
        assert "hihgnn+gdr" not in out

    def test_evaluate_process_executor_json_identical(self, capsys):
        argv = [
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--platforms", "t4,hihgnn",
            "--no-cache", "--format", "json",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_evaluate_bad_jobs_value(self, capsys):
        assert main([
            "evaluate", "--scale", "0.05", "--datasets", "acm",
            "--jobs", "many", "--no-cache",
        ]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["evaluate", "serve"])
    def test_nonpositive_jobs_rejected(self, capsys, command, jobs):
        assert main([command, "--jobs", jobs, "--no-cache"]) == 2
        assert "error: --jobs must be" in capsys.readouterr().err

    def test_evaluate_store_warm_run(self, capsys, tmp_path):
        argv = [
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--platforms", "t4",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 misses" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 hits, 0 misses" in warm

    def test_evaluate_unknown_dataset(self, capsys):
        assert main([
            "evaluate", "--scale", "0.05", "--datasets", "acme",
            "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown dataset 'acme'" in err

    def test_evaluate_unknown_platform(self, capsys):
        assert main([
            "evaluate", "--scale", "0.05", "--datasets", "acm",
            "--platforms", "h100", "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown platform 'h100'" in err

    def test_platforms_lists_registry(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("t4", "a100", "hihgnn", "hihgnn+gdr"):
            assert name in out

    def test_platforms_verbose_names_adapters(self, capsys):
        assert main(["platforms", "-v"]) == 0
        out = capsys.readouterr().out
        assert "repro.gpu.platform.T4Platform" in out
        assert "repro.frontend.platform.GDRHGNNPlatform" in out

    def test_thrash_unknown_model(self, capsys):
        assert main([
            "thrash", "--dataset", "acm", "--scale", "0.05",
            "--model", "gcn2",
        ]) == 2
        assert "unknown model 'gcn2'" in capsys.readouterr().err


class TestJsonFormat:
    """--format json emits the typed results' dict form on every command."""

    def _json(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_evaluate_json_document(self, capsys):
        doc = self._json(capsys, [
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--platforms", "t4,hihgnn",
            "--no-cache", "--format", "json",
        ])
        assert set(doc) == {"grid", "reports"}
        grid = doc["grid"]
        assert grid["schema_version"] == 1
        assert grid["spec"]["platforms"] == ["t4", "hihgnn"]
        assert [c["platform"] for c in grid["cells"]] == ["t4", "hihgnn"]
        for cell in grid["cells"]:
            assert cell["time_ms"] > 0
            assert cell["dataset"] == "acm"
        reports = doc["reports"]
        assert set(reports) == {
            "speedup", "dram_accesses", "bandwidth_utilization"
        }
        assert reports["speedup"]["geomean"]["t4"] == pytest.approx(1.0)

    def test_evaluate_json_round_trips_through_grid_result(self, capsys):
        from repro.api import GridResult

        doc = self._json(capsys, [
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--platforms", "t4",
            "--no-cache", "--format", "json",
        ])
        grid = GridResult.from_dict(doc["grid"])
        assert grid.to_dict() == doc["grid"]

    def test_evaluate_json_baseline_runs_but_is_not_a_column(self, capsys):
        doc = self._json(capsys, [
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--platforms", "hihgnn",
            "--no-cache", "--format", "json",
        ])
        # T4 was simulated for normalization but the output grid and
        # report columns contain exactly what was requested.
        assert [c["platform"] for c in doc["grid"]["cells"]] == ["hihgnn"]
        assert doc["reports"]["speedup"]["platforms"] == ["hihgnn"]
        assert doc["reports"]["speedup"]["geomean"]["hihgnn"] > 1.0

    def test_evaluate_json_warm_store_byte_identical(self, capsys, tmp_path):
        argv = [
            "evaluate", "--scale", "0.05", "--models", "rgcn",
            "--datasets", "acm", "--platforms", "t4,hihgnn",
            "--cache-dir", str(tmp_path), "--format", "json",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_platforms_json(self, capsys):
        doc = self._json(capsys, ["platforms", "--format", "json"])
        names = [entry["name"] for entry in doc["platforms"]]
        assert names[:4] == ["t4", "a100", "hihgnn", "hihgnn+gdr"]
        assert all("adapter" in entry for entry in doc["platforms"])

    def test_thrash_json(self, capsys):
        doc = self._json(capsys, [
            "thrash", "--dataset", "acm", "--scale", "0.05",
            "--format", "json",
        ])
        assert doc["model"] == "rgcn"
        assert doc["restructured"] is False
        assert 0.0 <= doc["na_hit_ratio"] <= 1.0
        assert doc["histogram"]  # str(times) -> series mapping

    def test_thrash_json_gdr(self, capsys):
        doc = self._json(capsys, [
            "thrash", "--dataset", "acm", "--scale", "0.05", "--gdr",
            "--format", "json",
        ])
        assert doc["restructured"] is True

    def test_datasets_json(self, capsys):
        doc = self._json(capsys, [
            "datasets", "--scale", "0.05", "--format", "json",
        ])
        assert set(doc["edges"]) == {"acm", "imdb", "dblp"}
        assert all(row["vertices"] > 0 for row in doc["rows"])

    def test_restructure_json(self, capsys):
        doc = self._json(capsys, [
            "restructure", "--dataset", "imdb", "--scale", "0.05",
            "--format", "json",
        ])
        assert doc["rows"]
        for row in doc["rows"]:
            assert row["edges"] == sum(row["subgraph_edges"])

    def test_area_json(self, capsys):
        doc = self._json(capsys, ["area", "--format", "json"])
        assert 0 < doc["shares"]["gdr_area_share"] < 0.1
        assert {c["block"] for c in doc["components"]} == {"hihgnn", "gdr"}


class TestScenariosCommand:
    """`repro scenarios list/describe` covers the whole catalog."""

    def _json(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_list_names_every_family(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert len(scenario_names()) >= 6
        for family in scenario_names():
            assert family in out

    def test_list_json(self, capsys):
        from repro.scenarios import scenario_names

        doc = self._json(capsys, ["scenarios", "list", "--format", "json"])
        names = [entry["family"] for entry in doc["scenarios"]]
        assert names == list(scenario_names())
        for entry in doc["scenarios"]:
            assert entry["doc"]
            assert entry["params"]

    def test_describe_table(self, capsys):
        assert main(["scenarios", "describe", "skew:exponent=1.5"]) == 0
        out = capsys.readouterr().out
        assert "canonical: skew:exponent=1.5" in out
        assert "exponent" in out and "num_src" in out

    def test_describe_json_resolves_values(self, capsys):
        doc = self._json(capsys, [
            "scenarios", "describe", "thrash:working_set=96",
            "--format", "json",
        ])
        assert doc["family"] == "thrash"
        assert doc["canonical"] == "thrash:working_set=96"
        values = {p["name"]: p["value"] for p in doc["params"]}
        assert values["working_set"] == 96
        assert values["num_dst"] == 64  # default untouched

    def test_describe_every_builtin(self, capsys):
        from repro.scenarios import scenario_names

        for family in scenario_names():
            doc = self._json(capsys, [
                "scenarios", "describe", family, "--format", "json",
            ])
            assert doc["family"] == family

    def test_describe_unknown_family_errors(self, capsys):
        assert main(["scenarios", "describe", "acme:x=1"]) == 2
        assert "unknown scenario family" in capsys.readouterr().err

    def test_describe_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])


class TestEvaluateScenario:
    """`evaluate --scenario` feeds sweep points into the grid."""

    def test_scenario_only_grid_drops_catalog_default(self, capsys):
        assert main([
            "evaluate", "--scenario", "uniform:num_dst=24,degree=2",
            "--models", "rgcn", "--platforms", "t4", "--scale", "1.0",
            "--no-cache", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["dataset"] for c in doc["grid"]["cells"]] == [
            "uniform:num_dst=24,degree=2"
        ]

    def test_scenarios_combine_with_datasets(self, capsys):
        assert main([
            "evaluate", "--scenario", "thrash:working_set=32,num_dst=4",
            "--datasets", "acm", "--models", "rgcn", "--platforms", "t4",
            "--scale", "0.05", "--no-cache", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["dataset"] for c in doc["grid"]["cells"]] == [
            "acm", "thrash:working_set=32,num_dst=4"
        ]

    def test_repeatable_flag(self, capsys):
        assert main([
            "evaluate",
            "--scenario", "uniform:num_dst=16,degree=2",
            "--scenario", "star:num_leaves=48,num_hubs=2",
            "--models", "rgcn", "--platforms", "t4", "--scale", "1.0",
            "--no-cache", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["dataset"] for c in doc["grid"]["cells"]] == [
            "uniform:num_dst=16,degree=2", "star:num_leaves=48,num_hubs=2"
        ]

    def test_malformed_scenario_errors_cleanly(self, capsys):
        assert main([
            "evaluate", "--scenario", "skew:bogus=1", "--no-cache",
        ]) == 2
        assert "no parameter 'bogus'" in capsys.readouterr().err

    def test_bare_family_via_datasets_flag(self, capsys):
        assert main([
            "evaluate", "--datasets", "uniform", "--models", "rgcn",
            "--platforms", "t4", "--scale", "0.02", "--no-cache",
        ]) == 0
        assert "uniform" in capsys.readouterr().out

    def test_thrash_command_accepts_scenario(self, capsys):
        assert main([
            "thrash", "--dataset", "thrash:working_set=48,num_dst=6",
            "--scale", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "NA hit ratio" in out

    def test_restructure_command_accepts_scenario(self, capsys):
        assert main([
            "restructure", "--dataset", "community:num_src=48,num_dst=48,num_edges=128",
            "--scale", "1.0",
        ]) == 0
        assert "backbone" in capsys.readouterr().out

    def test_restructure_bad_dataset_errors_cleanly(self, capsys):
        assert main(["restructure", "--dataset", "skew:bogus=1"]) == 2
        assert "no parameter 'bogus'" in capsys.readouterr().err
        assert main(["restructure", "--dataset", "acme"]) == 2
        assert "unknown dataset 'acme'" in capsys.readouterr().err


class TestNonFiniteScenarioParams:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_evaluate_rejects_non_finite_scenario(self, capsys, bad):
        assert main([
            "evaluate", "--scenario", f"skew:exponent={bad}", "--no-cache",
        ]) == 2
        assert "finite" in capsys.readouterr().err

    def test_scenarios_describe_rejects_non_finite(self, capsys):
        assert main([
            "scenarios", "describe", "skew:exponent=nan",
        ]) == 2
        assert "finite" in capsys.readouterr().err

    def test_thrash_rejects_non_finite_scenario(self, capsys):
        assert main([
            "thrash", "--dataset", "community:mixing=inf", "--scale", "0.05",
        ]) == 2
        assert "finite" in capsys.readouterr().err


class TestStoreCommand:
    def test_stats_empty_store(self, capsys, tmp_path):
        assert main([
            "store", "stats", "--cache-dir", str(tmp_path / "s"),
        ]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "quarantined" in out

    def test_stats_json_inventory(self, capsys, tmp_path):
        from repro.platforms import ArtifactStore

        store = ArtifactStore(tmp_path / "s")
        store.save(store.key_for("t4", "rgcn", "acm", "d0"), {"x": 1})
        assert main([
            "store", "stats", "--cache-dir", str(tmp_path / "s"),
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["bytes"] > 0
        assert payload["tmp_files"] == 0

    def test_verify_clean_store_exits_zero(self, capsys, tmp_path):
        from repro.platforms import ArtifactStore

        store = ArtifactStore(tmp_path / "s")
        store.save(store.key_for("t4", "rgcn", "acm", "d0"), {"x": 1})
        assert main([
            "store", "verify", "--cache-dir", str(tmp_path / "s"),
        ]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_verify_corrupt_store_exits_one(self, capsys, tmp_path):
        from repro.platforms import ArtifactStore

        store = ArtifactStore(tmp_path / "s")
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, {"x": 1})
        store._path(key).write_bytes(b"bit rot")
        assert main([
            "store", "verify", "--cache-dir", str(tmp_path / "s"),
            "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["quarantined"] == 1
        # The corpse is quarantined: a second verify is clean.
        assert main([
            "store", "verify", "--cache-dir", str(tmp_path / "s"),
        ]) == 0

    def test_gc_sweeps_tmps_and_quarantine(self, capsys, tmp_path):
        from repro.platforms import ArtifactStore

        store = ArtifactStore(tmp_path / "s")
        key = store.key_for("t4", "rgcn", "acm", "d0")
        store.save(key, {"x": 1})
        store._path(key).write_bytes(b"bit rot")
        assert store.load(key) is None  # quarantines
        (store.root / "aa").mkdir(exist_ok=True)
        (store.root / "aa" / "orphan.tmp").write_bytes(b"partial")
        assert main([
            "store", "gc", "--cache-dir", str(tmp_path / "s"),
            "--tmp-max-age", "0", "--purge-quarantine", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"tmp_removed": 1, "quarantine_removed": 1}


class TestFailureIsolation:
    SCENARIOS = [
        "--scenario", "thrash:working_set=48,num_dst=6",
        "--scenario", "uniform:num_dst=24,degree=2",
    ]
    BASE = [
        "evaluate", "--platforms", "t4,hihgnn", "--models", "rgcn",
        "--scale", "1.0", "--no-cache", *SCENARIOS,
    ]

    @pytest.fixture(autouse=True)
    def clean_slate(self):
        from repro.faults import disarm

        disarm()
        yield
        disarm()

    def test_keep_going_reports_and_exits_one(self, capsys):
        from repro.faults import FaultPlan, FaultRule

        with FaultPlan([FaultRule("platform.simulate", match="uniform")]):
            code = main([*self.BASE, "--keep-going"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err
        assert "InjectedFault" in captured.err
        # Degraded tables render "-" for the dead cells.
        assert "| -" in captured.out
        assert "GEOMEAN" in captured.out

    def test_without_keep_going_the_fault_propagates(self):
        from repro.faults import FaultPlan, FaultRule, InjectedFault

        with FaultPlan([FaultRule("platform.simulate", match="uniform")]):
            with pytest.raises(InjectedFault):
                main(self.BASE)

    def test_max_retries_cures_transient_faults(self, capsys):
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan([FaultRule("platform.simulate", times=1)])
        with plan:
            code = main([*self.BASE, "--keep-going", "--max-retries", "2"])
        assert code == 0
        assert plan.fired == 1
        assert "FAILED" not in capsys.readouterr().err

    def test_negative_max_retries_rejected(self, capsys):
        assert main([*self.BASE, "--max-retries", "-1"]) == 2
        assert "max-retries" in capsys.readouterr().err

    def test_keep_going_json_marks_failed_cells(self, capsys):
        from repro.faults import FaultPlan, FaultRule

        with FaultPlan([FaultRule("platform.simulate", match="uniform")]):
            code = main([*self.BASE, "--keep-going", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        statuses = {
            (c["platform"], c["dataset"]): c.get("status", "ok")
            for c in payload["grid"]["cells"]
        }
        assert "failed" in statuses.values() and "ok" in statuses.values()
        for cell in payload["grid"]["cells"]:
            if cell.get("status") == "failed":
                assert cell["failure"]["error_type"].endswith("InjectedFault")

    def test_store_stats_json_key_is_opt_in(self, capsys, tmp_path):
        args = [
            "evaluate", "--platforms", "t4", "--models", "rgcn",
            "--scale", "1.0", *self.SCENARIOS,
            "--cache-dir", str(tmp_path / "s"), "--format", "json",
        ]
        assert main(args) == 0
        assert "store_stats" not in json.loads(capsys.readouterr().out)
        assert main([*args, "--store-stats"]) == 0
        stats = json.loads(capsys.readouterr().out)["store_stats"]
        assert stats["hits"] == 2  # warm rerun served from the store
        assert stats["quarantined"] == 0

    def test_store_stats_table_line(self, capsys, tmp_path):
        assert main([
            "evaluate", "--platforms", "t4", "--models", "rgcn",
            "--scale", "1.0", *self.SCENARIOS,
            "--cache-dir", str(tmp_path / "s"), "--store-stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "artifact store:" in out  # the historical line survives
        assert "store counters:" in out
        assert "puts=2" in out
