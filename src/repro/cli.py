"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``evaluate``  -- run the §5 evaluation grid and print Figures 7/8/9.
  ``--keep-going`` isolates per-cell failures (exit 1 if any cell
  ultimately fails), ``--max-retries`` retries transient errors with
  deterministic backoff, ``--store-stats`` appends live store counters.
- ``store``     -- inspect/maintain the artifact store
  (``stats`` / ``verify`` / ``gc``).
- ``platforms`` -- list the registered execution platforms.
- ``scenarios`` -- list/describe the scenario catalog (parameterized
  workload families usable wherever a dataset name is accepted).
- ``thrash``    -- print Fig. 2 style replacement histograms.
- ``restructure`` -- restructure one dataset's semantic graphs and
  print backbone/subgraph statistics.
- ``datasets``  -- print Table 2 style dataset statistics.
- ``area``      -- print the Fig. 10 area/power breakdown.
- ``serve``     -- run the simulation service: an asyncio HTTP server
  streaming grid-cell results as NDJSON, with in-flight dedupe across
  concurrent clients and graceful drain on SIGTERM (see the README's
  "Simulation service" section).

Every command accepts ``--format {table,json}``. JSON output is the
``to_dict()`` form of the typed result objects in
:mod:`repro.api.results` (schema-versioned, deterministic key order),
so other programs can consume exactly what the library computes.

``evaluate`` is built on :class:`repro.api.session.Session`: it turns
the flags into a declarative :class:`repro.api.spec.ExperimentSpec`,
streams cells over a worker pool (``--platforms``, ``--jobs``) and
persists typed cell results in the on-disk artifact store
(``$REPRO_ARTIFACT_DIR``, disable with ``--no-cache``), so repeated
invocations are warm-cache — a warm ``--format json`` run is
byte-identical to the cold run that filled the store.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main", "build_parser"]


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format: human tables or typed-result JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GDR-HGNN (DAC 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser("evaluate", help="run the evaluation grid")
    evaluate.add_argument("--scale", type=float, default=0.3)
    evaluate.add_argument("--models", default="rgcn",
                          help="comma-separated model list")
    evaluate.add_argument("--datasets", default=None,
                          help="comma-separated catalog datasets and/or "
                               "scenario refs (default: acm,imdb,dblp, "
                               "or only --scenario workloads when given)")
    evaluate.add_argument("--scenario", action="append", default=None,
                          metavar="FAMILY[:K=V,...]",
                          help="add one scenario workload to the grid "
                               "(repeatable); see `repro scenarios list`")
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.add_argument("--platforms", default=None,
                          help="comma-separated platform list "
                               "(default: the four paper platforms)")
    evaluate.add_argument("--jobs", default="1", metavar="N|auto",
                          help="grid worker count (1 = serial, more = "
                               "process pool over shared-memory "
                               "artifacts, 'auto' = CPU count); results "
                               "are bit-identical either way")
    evaluate.add_argument("--no-cache", action="store_true",
                          help="skip the on-disk artifact store")
    evaluate.add_argument("--cache-dir", default=None,
                          help="artifact store directory "
                               "(default: $REPRO_ARTIFACT_DIR or "
                               "~/.cache/repro/artifacts)")
    evaluate.add_argument("--progress", action="store_true",
                          help="stream per-cell progress to stderr as "
                               "results complete")
    evaluate.add_argument("--keep-going", action="store_true",
                          help="isolate per-cell failures: run every cell "
                               "to a terminal outcome, report the "
                               "casualties and exit 1 instead of aborting "
                               "on the first error")
    evaluate.add_argument("--max-retries", type=int, default=0,
                          metavar="N",
                          help="retry transiently failing cells up to N "
                               "extra times (deterministic backoff; "
                               "validation errors never retry)")
    evaluate.add_argument("--store-stats", action="store_true",
                          help="append live artifact-store counters "
                               "(hits/misses/puts/quarantined/evicted) "
                               "to the output")
    _add_format(evaluate)

    store = sub.add_parser(
        "store", help="inspect and maintain the on-disk artifact store"
    )
    store.add_argument("action", choices=("stats", "verify", "gc"),
                       help="stats: entry/byte counts and health "
                            "counters; verify: integrity-check every "
                            "entry (exit 1 if any is corrupt); gc: sweep "
                            "stale temp files (and, optionally, the "
                            "quarantine)")
    store.add_argument("--cache-dir", default=None,
                       help="artifact store directory "
                            "(default: $REPRO_ARTIFACT_DIR or "
                            "~/.cache/repro/artifacts)")
    store.add_argument("--tmp-max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="gc: remove .tmp files older than this "
                            "(default: 1 hour; 0 sweeps all)")
    store.add_argument("--purge-quarantine", action="store_true",
                       help="gc: also delete quarantined entries")
    _add_format(store)

    scenarios = sub.add_parser(
        "scenarios", help="list/describe the scenario catalog"
    )
    scenarios_sub = scenarios.add_subparsers(dest="action", required=True)
    scenarios_list = scenarios_sub.add_parser(
        "list", help="all registered workload families"
    )
    _add_format(scenarios_list)
    scenarios_describe = scenarios_sub.add_parser(
        "describe", help="parameters of one family or reference"
    )
    scenarios_describe.add_argument(
        "ref", metavar="FAMILY[:K=V,...]",
        help="family name or full scenario reference",
    )
    _add_format(scenarios_describe)

    platforms = sub.add_parser(
        "platforms", help="list registered execution platforms"
    )
    platforms.add_argument("-v", "--verbose", action="store_true",
                           help="include the adapter class and module")
    _add_format(platforms)

    thrash = sub.add_parser("thrash", help="Fig. 2 replacement histograms")
    thrash.add_argument("--scale", type=float, default=0.3)
    thrash.add_argument("--model", default="rgcn")
    thrash.add_argument("--dataset", default="dblp")
    thrash.add_argument("--seed", type=int, default=1)
    thrash.add_argument("--gdr", action="store_true",
                        help="profile the restructured execution instead")
    _add_format(thrash)

    restructure = sub.add_parser(
        "restructure", help="restructure one dataset's semantic graphs"
    )
    restructure.add_argument("--dataset", default="imdb")
    restructure.add_argument("--scale", type=float, default=0.3)
    restructure.add_argument("--seed", type=int, default=1)
    restructure.add_argument("--depth", type=int, default=0)
    _add_format(restructure)

    datasets = sub.add_parser("datasets", help="Table 2 statistics")
    datasets.add_argument("--scale", type=float, default=1.0)
    datasets.add_argument("--seed", type=int, default=1)
    _add_format(datasets)

    area = sub.add_parser("area", help="Fig. 10 area/power breakdown")
    _add_format(area)

    serve = sub.add_parser(
        "serve", help="run the simulation service (NDJSON over HTTP)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = ephemeral; the resolved "
                            "port is printed on startup)")
    serve.add_argument("--jobs", default="1", metavar="N|auto",
                       help="grid worker count shared by all clients "
                            "(default: 1 = serial; more = process pool, "
                            "'auto' = CPU count)")
    serve.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk artifact store (no warm "
                            "cells across restarts)")
    serve.add_argument("--cache-dir", default=None,
                       help="artifact store directory "
                            "(default: $REPRO_ARTIFACT_DIR or "
                            "~/.cache/repro/artifacts)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       metavar="N",
                       help="per-client budget of undelivered cells "
                            "(fairness guard; over-budget submissions "
                            "get a typed 429)")

    from repro.lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="check repo-specific invariants (determinism, fault "
             "sites, lifecycles, parity, picklability)",
    )
    add_lint_arguments(lint)
    return parser


def _parse_jobs(text: str) -> int | None:
    """``--jobs`` as a worker count; ``None`` after printing the error."""
    from repro.platforms.runner import resolve_jobs

    try:
        if text.strip().lower() == "auto" or int(text) >= 1:
            return resolve_jobs(text)
    except ValueError:
        pass
    print(
        f"error: --jobs must be an integer >= 1 or 'auto', got {text!r}",
        file=sys.stderr,
    )
    return None


def _emit_json(payload) -> int:
    """Print one deterministic JSON document (typed-result dict form)."""
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    from repro.api import ExperimentSpec, Session
    from repro.api.results import (
        BandwidthReport,
        DramTrafficReport,
        SpeedupReport,
    )
    from repro.analysis.report import ascii_table
    from repro.platforms import ArtifactStore, RetryPolicy

    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return 2
    jobs = _parse_jobs(args.jobs)
    if jobs is None:
        return 2
    requested = (
        tuple(args.platforms.split(","))
        if args.platforms
        else ExperimentSpec().platforms
    )
    # --datasets splits on commas, so scenario refs with parameters go
    # through the repeatable --scenario flag; with only --scenario
    # given the catalog default drops out and the grid is pure sweep.
    datasets: tuple[str, ...] = ()
    if args.datasets is not None:
        datasets = tuple(args.datasets.split(","))
    elif not args.scenario:
        datasets = ("acm", "imdb", "dblp")
    if args.scenario:
        datasets = datasets + tuple(args.scenario)
    try:
        spec = ExperimentSpec(
            platforms=requested,
            datasets=datasets,
            models=tuple(args.models.split(",")),
            seed=args.seed,
            scale=args.scale,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = None if args.no_cache else ArtifactStore(args.cache_dir)
    session = Session(spec, store=store, jobs=jobs)

    progress = None
    if args.progress:
        def progress(done, total, cell):
            print(
                f"[{done}/{total}] {cell.platform} x {cell.model} x "
                f"{cell.dataset}: {cell.time_ms:.3f} ms",
                file=sys.stderr,
            )

    # The paper normalizes to T4 even when plotting a platform subset:
    # run the baseline alongside, but only report requested columns.
    run_spec = spec
    if "t4" not in spec.platforms:
        run_spec = spec.replace(
            platforms=tuple(dict.fromkeys(spec.platforms + ("t4",)))
        )
    retry = (
        RetryPolicy(max_attempts=args.max_retries + 1)
        if args.max_retries
        else None
    )
    on_error = "collect" if args.keep_going else "raise"
    grid_full = session.run(
        run_spec, progress=progress, on_error=on_error, retry=retry
    )
    # Unlink any shared-memory segments the process backend published;
    # everything below is pure report assembly.
    session.close()
    for failed in grid_full.failures:
        failure = failed.failure
        print(
            f"FAILED {failed.platform} x {failed.model} x "
            f"{failed.dataset}: {failure.error_type}: {failure.message} "
            f"(after {failure.attempts} attempt(s))",
            file=sys.stderr,
        )
    exit_code = 0 if grid_full.ok else 1
    grid = (
        grid_full
        if run_spec is spec
        else grid_full.subset(platforms=spec.platforms)
    )
    cells = {cell.key: cell for cell in grid_full.cells}
    try:
        reports = {
            cls.kind: cls.from_cells(
                cells,
                models=spec.models,
                datasets=spec.datasets,
                platforms=spec.platforms,
                baseline=baseline,
                # A fully healthy grid takes the strict path; with
                # --keep-going casualties the tables degrade over the
                # surviving cells instead.
                skip_missing=not grid_full.ok,
            )
            for cls, baseline in (
                (SpeedupReport, "t4"),
                (DramTrafficReport, "t4"),
                (BandwidthReport, None),
            )
        }
    except ValueError as exc:
        # Every cell failed: there is nothing left to tabulate.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    store_stats = session.store_stats() if args.store_stats else None

    if args.format == "json":
        # Without --store-stats the document is a pure function of the
        # spec, so warm reruns are byte-identical to cold ones.
        payload = {
            "grid": grid.to_dict(),
            "reports": {
                kind: report.to_dict()
                for kind, report in reports.items()
            },
        }
        if store_stats is not None:
            payload["store_stats"] = store_stats
        _emit_json(payload)
        return exit_code

    for title, report, fmt in (
        ("Fig. 7: speedup over T4", reports["speedup"], "{:.2f}"),
        ("Fig. 8: DRAM accesses vs T4", reports["dram_accesses"], "{:.4f}"),
        ("Fig. 9: bandwidth utilization",
         reports["bandwidth_utilization"], "{:.3f}"),
    ):
        rows = []
        for model in list(spec.models) + ["GEOMEAN"]:
            datasets = spec.datasets if model != "GEOMEAN" else ("all",)
            for dataset in datasets:
                # Degraded tables render "-" for failed/missing values.
                cell = (
                    report["GEOMEAN"]["all"]
                    if model == "GEOMEAN"
                    else report[model].get(dataset, {})
                )
                rows.append(
                    [model, dataset]
                    + [
                        fmt.format(cell[p]) if p in cell else "-"
                        for p in spec.platforms
                    ]
                )
        print(ascii_table(["model", "dataset"] + list(spec.platforms), rows,
                          title="\n" + title))
    if store is not None:
        print(f"\nartifact store: {store.root} "
              f"({store.stats.hits} hits, {store.stats.misses} misses)")
    if store_stats is not None:
        counters = ", ".join(f"{k}={v}" for k, v in store_stats.items())
        print(f"store counters: {counters}")
    return exit_code


def _cmd_store(args) -> int:
    from repro.platforms import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.action == "stats":
        payload = store.disk_stats()
        if args.format == "json":
            return _emit_json(payload)
        print(f"artifact store: {payload['root']}")
        print(f"entries     : {payload['entries']}")
        print(f"bytes       : {payload['bytes']}")
        print(f"tmp files   : {payload['tmp_files']}")
        print(f"quarantined : {payload['quarantined']}")
        return 0
    if args.action == "verify":
        report = store.verify()
        if args.format == "json":
            _emit_json(report)
        else:
            print(f"checked {report['checked']} entries: "
                  f"{report['ok']} ok, {report['quarantined']} quarantined, "
                  f"{report['evicted']} evicted")
        return 1 if report["quarantined"] else 0
    kwargs = {"purge_quarantine": args.purge_quarantine}
    if args.tmp_max_age is not None:
        if args.tmp_max_age < 0:
            print("error: --tmp-max-age must be >= 0", file=sys.stderr)
            return 2
        kwargs["tmp_max_age_s"] = args.tmp_max_age
    report = store.gc(**kwargs)
    if args.format == "json":
        return _emit_json(report)
    print(f"removed {report['tmp_removed']} stale temp file(s), "
          f"{report['quarantine_removed']} quarantined entries")
    return 0


def _cmd_scenarios(args) -> int:
    from repro.analysis.report import ascii_table
    from repro.scenarios import describe_scenario, scenario_names

    if args.action == "list":
        entries = [describe_scenario(name) for name in scenario_names()]
        if args.format == "json":
            return _emit_json({"scenarios": entries})
        rows = [
            [
                entry["family"],
                ", ".join(
                    f"{p['name']}={p['default']}" for p in entry["params"]
                ),
                entry["doc"],
            ]
            for entry in entries
        ]
        print(ascii_table(
            ["family", "parameters (defaults)", "description"], rows,
            title="Scenario catalog",
        ))
        return 0

    try:
        entry = describe_scenario(args.ref)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        return _emit_json(entry)
    print(f"{entry['family']}: {entry['doc']}")
    print(f"canonical: {entry['canonical']}")
    print(ascii_table(
        ["parameter", "default", "value", "description"],
        [
            [p["name"], p["default"], p["value"], p["doc"]]
            for p in entry["params"]
        ],
        title="Parameters",
    ))
    return 0


def _cmd_platforms(args) -> int:
    from repro.analysis.report import ascii_table
    from repro.platforms import get_platform_class, platform_names

    entries = []
    for name in platform_names():
        cls = get_platform_class(name)
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        entries.append(
            {
                "name": name,
                "description": doc,
                "adapter": f"{cls.__module__}.{cls.__qualname__}",
            }
        )
    if args.format == "json":
        return _emit_json({"platforms": entries})
    rows = []
    for entry in entries:
        row = [entry["name"], entry["description"]]
        if args.verbose:
            row.append(entry["adapter"])
        rows.append(row)
    headers = ["platform", "description"]
    if args.verbose:
        headers.append("adapter")
    print(ascii_table(headers, rows, title="Registered platforms"))
    return 0


def _cmd_thrash(args) -> int:
    from repro.analysis.report import render_histogram
    from repro.analysis.thrashing import thrashing_analysis
    from repro.api import ExperimentSpec
    from repro.scenarios import load_workload
    from repro.restructure.restructure import GraphRestructurer

    try:
        spec = ExperimentSpec(
            platforms=("hihgnn",),
            datasets=(args.dataset,),
            models=(args.model,),
            seed=args.seed,
            scale=args.scale,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        graph = load_workload(args.dataset, seed=args.seed, scale=args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    restructurer = (
        GraphRestructurer(validate=False) if args.gdr else None
    )
    # Same accelerator/model configuration as the evaluate grid's spec,
    # routed through the "hihgnn" platform registry entry.
    profile = thrashing_analysis(
        graph,
        args.model,
        config=spec.accelerator,
        model_config=spec.model_config,
        restructurer=restructurer,
    )
    if args.format == "json":
        return _emit_json(
            profile.as_report(restructured=args.gdr).to_dict()
        )
    label = "with GDR-HGNN" if args.gdr else "HiHGNN baseline"
    print(f"{args.dataset} / {args.model} ({label})")
    print(f"NA hit ratio      : {profile.na_hit_ratio:.1%}")
    print(f"redundant fetches : {profile.redundant_accesses}")
    print("replacement-times histogram (ratio of #vertex):")
    print(render_histogram(profile.histogram, series="vertex_ratio"))
    return 0


def _cmd_restructure(args) -> int:
    from repro.analysis.report import ascii_table
    from repro.api.results import RestructureRelationRow, RestructureReport
    from repro.scenarios import load_workload
    from repro.graph.semantic import build_semantic_graphs
    from repro.restructure.restructure import GraphRestructurer

    try:
        graph = load_workload(args.dataset, seed=args.seed, scale=args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    restructurer = GraphRestructurer(max_depth=args.depth, validate=False)
    rows = []
    for sg in build_semantic_graphs(graph):
        result = restructurer.restructure(sg)
        rows.append(
            RestructureRelationRow(
                relation=str(sg.relation),
                edges=int(sg.num_edges),
                matching=int(result.matching.size),
                backbone=int(result.backbone_size),
                subgraph_edges=tuple(
                    int(sub.num_edges) for sub in result.subgraphs
                ),
                leaves=len(result.leaves()),
            )
        )
    report = RestructureReport(dataset=graph.name, rows=tuple(rows))
    if args.format == "json":
        return _emit_json(report.to_dict())
    print(ascii_table(
        ["relation", "edges", "matching", "backbone",
         "subgraph edges", "leaves"],
        [
            [row.relation, row.edges, row.matching, row.backbone,
             "/".join(str(e) for e in row.subgraph_edges), row.leaves]
            for row in report.rows
        ],
        title=f"Restructuring {graph.name}",
    ))
    return 0


def _cmd_datasets(args) -> int:
    from repro.analysis.report import ascii_table
    from repro.api.results import DatasetStatRow, DatasetStatsReport
    from repro.graph.datasets import DATASET_SPECS, load_dataset

    rows = []
    edges = {}
    for name in sorted(DATASET_SPECS):
        graph = load_dataset(name, seed=args.seed, scale=args.scale)
        for vtype in graph.vertex_types:
            rows.append(
                DatasetStatRow(
                    dataset=name,
                    vertex_type=vtype,
                    vertices=graph.num_vertices(vtype),
                    # 0 = featureless type (real information, kept in
                    # JSON); the table renderer shows it as "-".
                    feature_dim=graph.feature_dim(vtype),
                )
            )
        edges[name] = graph.num_edges()
    report = DatasetStatsReport(rows=tuple(rows), edges=edges)
    if args.format == "json":
        return _emit_json(report.to_dict())
    table_rows = []
    for name in sorted(edges):
        for row in report:
            if row.dataset == name:
                table_rows.append([row.dataset, row.vertex_type,
                                   row.vertices, row.feature_dim or "-"])
        table_rows.append([name, "(edges)", edges[name], "-"])
    print(ascii_table(["dataset", "vertex type", "count", "feat dim"],
                      table_rows, title="Table 2: dataset statistics"))
    return 0


def _cmd_area(args) -> int:
    from repro.analysis.report import ascii_table
    from repro.api.results import AreaReport

    report = AreaReport.from_breakdown()
    if args.format == "json":
        return _emit_json(report.to_dict())
    rows = [[c.block, c.component, f"{c.area_mm2:.3f}", f"{c.power_mw:.1f}"]
            for c in report.components]
    print(ascii_table(["block", "component", "area mm^2", "power mW"],
                      rows, title="Fig. 10: area and power (TSMC 12 nm)"))
    shares = report.shares
    print(f"\nGDR-HGNN: {shares['gdr_area_share']:.2%} of area, "
          f"{shares['gdr_power_share']:.2%} of power "
          "(paper: 2.30% / 0.46%)")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.api import Session
    from repro.platforms import ArtifactStore
    from repro.service import ReproServer, SimulationService

    jobs = _parse_jobs(args.jobs)
    if jobs is None:
        return 2
    if args.max_queue < 1:
        print("error: --max-queue must be >= 1", file=sys.stderr)
        return 2
    store = None if args.no_cache else ArtifactStore(args.cache_dir)
    session = Session(store=store, jobs=jobs)
    service = SimulationService(
        session, max_queue_per_client=args.max_queue
    )
    server = ReproServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        import threading

        ready = threading.Event()
        task = asyncio.ensure_future(server.serve(ready=ready))
        while not ready.is_set():
            await asyncio.sleep(0.01)
        print(
            f"repro service listening on http://{server.host}:{server.port} "
            f"(jobs={jobs}, store={'off' if store is None else store.root}) "
            "-- SIGTERM drains gracefully",
            file=sys.stderr,
        )
        await task

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "store": _cmd_store,
    "lint": _cmd_lint,
    "scenarios": _cmd_scenarios,
    "platforms": _cmd_platforms,
    "thrash": _cmd_thrash,
    "restructure": _cmd_restructure,
    "datasets": _cmd_datasets,
    "area": _cmd_area,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
