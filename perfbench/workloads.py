"""The four benchmark workloads and their correctness gates.

Every workload is a sequence of *rounds*: one fixed unit of work whose
host time is ``wall_s``. A run repeats rounds until ``--seconds`` of
timed work (and enough latency samples) have accumulated, then reports
averages over the rounds. In a traced run, rounds alternate
traced/untraced; per-layer metrics come from the traced rounds, and the
difference of the two round medians is the tracing overhead.

- ``grid_cold``: the paper grid, serial, fresh Session into an empty
  ArtifactStore (one round = one grid).
- ``grid_warm``: the same grid re-read from a store filled at set-up by
  fresh Sessions (one round = ``WARM_PASSES`` passes).
- ``sweep_scaleup``: catalog datasets grown by the ``scale`` scenario
  family on t4/a100/hihgnn, process executor (one round = one grid).
- ``service_mix``: a ``repro serve`` subprocess driven by closed-loop
  client threads over a seeded request sequence (one round = one fresh
  server working through the whole sequence).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

#: Paper values of the fidelity figures (Fig. 7 and Fig. 8 geomeans).
PAPER = {"gdr_vs_a100": 14.6, "gdr_vs_hihgnn": 1.78, "dram_ratio": 0.571}

#: ROADMAP's reproduced table at seed 1, scale 1.0, to its printed
#: precision: (value as printed, decimals).
PIN_SEED1 = {
    "gdr_vs_t4": ("43.1", 1),
    "gdr_vs_hihgnn": ("1.26", 2),
    "gdr_vs_a100": ("8.1", 1),
    "dram_ratio": ("0.755", 3),
}

WARM_PASSES = 50
#: grid_warm latency samples are per-pass means over blocks of this
#: many passes: a 2 ms pass is shorter than the host's scheduling
#: spikes, which would otherwise set the tail alone.
WARM_BLOCK = 10
SWEEP_FACTOR = 3
SERVICE_REQUESTS = 96
SERVICE_MENU = 16
SERVICE_SHAPE_SEED = 0
SERVICE_SCALE = 0.5
SERVICE_POOL = (
    "acm",
    "imdb",
    "dblp",
    "skew:exponent=1.2",
    "community:mixing=0.3",
    "relations:num_relations=4",
)
MIN_LATENCY_SAMPLES = 100
#: Set-up samples per run: one before the first round, one after each
#: of the next rounds.
SETUP_REPEATS = 7


@dataclass
class Round:
    """Measurements of one round (``window`` is its timed section)."""

    window: tuple[float, float]
    ttfc_s: list[float]
    latency_s: list[float]
    attempted: int
    failed: int
    traced: bool = False
    trace: dict | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    service: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


@dataclass
class Context:
    """What every workload needs from the harness."""

    root: Path
    work: Path
    env: dict
    seed: int
    smoke: bool
    code: str
    errors: list[str] = field(default_factory=list)

    def digest_check(self, key: str, digest: str) -> None:
        """Compare a payload digest with the one recorded for this code.

        The first run of a (key, source tree) records the digest; every
        later run, traced or not, must reproduce it byte for byte.
        """
        if self.smoke:
            key = f"smoke-{key}"
        path = self.root / ".perfbench_work" / "digests" / self.code / key
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            if path.read_text() != digest:
                self.errors.append(f"{key}: payload digest differs from an earlier run")
        else:
            path.write_text(digest)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def time_imports(ctx: Context) -> float:
    """Host time of a fresh interpreter importing the package."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.api, repro.platforms.store"],
        env=ctx.env,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def canonical_digest(grid) -> str:
    payload = json.dumps(grid.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def paper_spec(seed: int, smoke: bool):
    from repro.api import ExperimentSpec

    return ExperimentSpec(seed=seed, scale=0.05 if smoke else 1.0)


@dataclass
class Pass:
    """One streamed grid run."""

    grid: object
    start: float
    wall_s: float
    ttfc_s: float
    arrivals_s: list[float]


def grid_pass(session, spec) -> Pass:
    """Stream one grid; time from submission to each cell's arrival."""
    from repro.api.results import GridResult

    cells = {}
    arrivals = []
    start = time.perf_counter()
    for result in session.run_iter(spec, on_error="collect"):
        arrivals.append(time.perf_counter() - start)
        cells[result.key] = result
    wall = time.perf_counter() - start
    grid = GridResult(
        spec=spec, cells=tuple(cells[k] for k in spec.cells() if k in cells)
    )
    return Pass(grid, start, wall, arrivals[0] if arrivals else wall, arrivals)


def grid_failures(ctx: Context, name: str, grid) -> int:
    """Failed or missing cells of one grid (recorded as errors)."""
    failed = sum(1 for cell in grid if not cell.ok)
    missing = grid.spec.grid_size - len(grid)
    if failed or missing:
        ctx.errors.append(f"{name}: {failed} failed and {missing} missing cells")
    return failed + missing


def fidelity(ctx: Context, grid) -> dict[str, float]:
    """|ln(repro/paper)| of the three headline figures, plus the pin."""
    figures = {
        "gdr_vs_t4": grid.geomean_speedup("hihgnn+gdr", baseline="t4"),
        "gdr_vs_hihgnn": grid.geomean_speedup("hihgnn+gdr", baseline="hihgnn"),
        "gdr_vs_a100": grid.geomean_speedup("hihgnn+gdr", baseline="a100"),
        "dram_ratio": grid.dram_traffic("hihgnn").geomean("hihgnn+gdr"),
    }
    print("fidelity: " + ", ".join(f"{k} {v:.4g}" for k, v in figures.items()))
    if ctx.seed == 1 and not ctx.smoke:
        for figure, (printed, decimals) in PIN_SEED1.items():
            got = f"{figures[figure]:.{decimals}f}"
            if got != printed:
                ctx.errors.append(
                    f"fidelity pin: {figure} is {got} at seed 1, ROADMAP has {printed}"
                )
    return {
        f"fidelity.{name}_err": abs(math.log(figures[name] / paper))
        for name, paper in PAPER.items()
    }


def fidelity_probe(ctx: Context) -> dict[str, float]:
    """Fidelity of the paper grid for workloads that do not run it."""
    from repro.api import Session

    spec = paper_spec(ctx.seed, ctx.smoke)
    with Session(spec) as session:
        grid = grid_pass(session, spec).grid
    grid_failures(ctx, "fidelity probe", grid)
    ctx.digest_check(f"paper_grid-{ctx.seed}", canonical_digest(grid))
    return fidelity(ctx, grid)


def pass_round(run_pass: Pass, failed: int, traced: bool, export, rss) -> Round:
    """A round made of one grid pass."""
    return Round(
        window=(run_pass.start, run_pass.start + run_pass.wall_s),
        ttfc_s=[run_pass.ttfc_s],
        latency_s=run_pass.arrivals_s,
        attempted=run_pass.grid.spec.grid_size,
        failed=failed,
        traced=traced,
        trace=export,
        peak_rss_mb=rss,
    )


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS counter (Linux); False if unable."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak RSS since the last reset (Linux), else since process start."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_call(traced: bool, func):
    """Run ``func()`` (under a fresh tracer when ``traced``).

    Returns ``(result, trace export or None, peak RSS in MiB)``; the
    peak covers this call when the platform can reset the counter.
    """
    reset_peak_rss()
    if not traced:
        return func(), None, peak_rss_mb()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        result = func()
    finally:
        restore()
    return result, tracer.export(), peak_rss_mb()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Base: set-up samples, rounds, and post-run checks."""

    #: Rounds a run makes at least (set-up medians need several).
    min_rounds = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.setup_samples: list[float] = []

    def setup(self) -> None:
        """Take one set-up sample: a fresh interpreter's imports + prepare()."""
        self.setup_samples.append(time_imports(self.ctx) + self.prepare())

    def prepare(self) -> float:
        """Workload-specific set-up; returns its host time."""
        return 0.0

    def round(self, traced: bool) -> Round:
        raise NotImplementedError

    def finish(self, rounds: list[Round], trace: bool) -> dict[str, float]:
        """Post-run checks; returns the fidelity metrics."""
        return {} if trace else fidelity_probe(self.ctx)



class GridCold(Workload):
    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.spec = None
        self.first = None
        self.count = 0

    def prepare(self) -> float:
        start = time.perf_counter()
        self.spec = paper_spec(self.ctx.seed, self.ctx.smoke)
        return time.perf_counter() - start

    def round(self, traced: bool) -> Round:
        from repro.api import Session
        from repro.platforms.store import ArtifactStore

        self.count += 1
        path = self.ctx.work / f"cold-{self.count}"

        def run():
            with Session(self.spec, store=ArtifactStore(path)) as session:
                return grid_pass(session, self.spec)

        run_pass, export, rss = traced_call(traced, run)
        shutil.rmtree(path, ignore_errors=True)
        grid = run_pass.grid
        failed = grid_failures(self.ctx, "grid_cold", grid)
        digest = canonical_digest(grid)
        if self.first is None:
            self.first = grid
            self.ctx.digest_check(f"paper_grid-{self.ctx.seed}", digest)
        elif digest != canonical_digest(self.first):
            self.ctx.errors.append("grid_cold: payload differs between rounds")
        return pass_round(run_pass, failed, traced, export, rss)

    def finish(self, rounds, trace):
        return fidelity(self.ctx, self.first)


class GridWarm(Workload):
    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.spec = paper_spec(ctx.seed, ctx.smoke)
        self.store_path = None
        self.fill_digests: list[str] = []
        self.fill_grid = None
        self.passes = 5 if ctx.smoke else WARM_PASSES

    def prepare(self) -> float:
        from repro.api import Session
        from repro.platforms.store import ArtifactStore

        if self.store_path is not None:
            shutil.rmtree(self.store_path, ignore_errors=True)
        self.store_path = self.ctx.work / f"warm-{len(self.fill_digests)}"
        start = time.perf_counter()
        spec = paper_spec(self.ctx.seed, self.ctx.smoke)
        with Session(spec, store=ArtifactStore(self.store_path)) as session:
            grid = session.run(spec, on_error="collect")
        elapsed = time.perf_counter() - start
        grid_failures(self.ctx, "grid_warm fill", grid)
        self.fill_digests.append(canonical_digest(grid))
        self.fill_grid = grid
        return elapsed

    def round(self, traced: bool) -> Round:
        from repro.api import Session
        from repro.platforms.store import ArtifactStore

        store = ArtifactStore(self.store_path)

        def run():
            out = []
            for _ in range(self.passes):
                with Session(self.spec, store=store) as session:
                    out.append(grid_pass(session, self.spec))
            return out

        passes, export, rss = traced_call(traced, run)
        failed = 0
        for run_pass in passes:
            failed += grid_failures(self.ctx, "grid_warm", run_pass.grid)
            if canonical_digest(run_pass.grid) != self.fill_digests[0]:
                self.ctx.errors.append(
                    "grid_warm: warm payload differs from the cold fill"
                )
                break
        start = passes[0].start
        end = passes[-1].start + passes[-1].wall_s
        walls = [p.wall_s for p in passes]
        block = min(WARM_BLOCK, len(walls))
        return Round(
            window=(start, end),
            ttfc_s=[p.ttfc_s for p in passes],
            latency_s=[
                sum(walls[i:i + block]) / block
                for i in range(0, len(walls) - block + 1, block)
            ],
            attempted=self.spec.grid_size * self.passes,
            failed=failed,
            traced=traced,
            trace=export,
            peak_rss_mb=rss,
        )

    def finish(self, rounds, trace):
        if len(set(self.fill_digests)) != 1:
            self.ctx.errors.append("grid_warm: cold fills disagree")
        self.ctx.digest_check(f"paper_grid-{self.ctx.seed}", self.fill_digests[0])
        return {} if trace else fidelity(self.ctx, self.fill_grid)


class SweepScaleup(Workload):
    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.spec = None
        self.digest = None

    def prepare(self) -> float:
        from repro.api import ExperimentSpec

        start = time.perf_counter()
        factor = 1.5 if self.ctx.smoke else SWEEP_FACTOR
        self.spec = ExperimentSpec(
            platforms=("t4", "a100", "hihgnn"),
            datasets=tuple(
                f"scale:base={d},factor={factor}" for d in ("acm", "imdb", "dblp")
            ),
            seed=self.ctx.seed,
            scale=0.05 if self.ctx.smoke else 1.0,
        )
        return time.perf_counter() - start

    def round(self, traced: bool) -> Round:
        from repro.api import Session

        jobs = os.cpu_count() or 1

        def run():
            with Session(self.spec, jobs=jobs, executor="process") as session:
                return grid_pass(session, self.spec)

        run_pass, export, rss = traced_call(traced, run)
        failed = grid_failures(self.ctx, "sweep_scaleup", run_pass.grid)
        digest = canonical_digest(run_pass.grid)
        if self.digest is None:
            self.digest = digest
            self.ctx.digest_check(f"sweep_scaleup-{self.ctx.seed}", digest)
        elif digest != self.digest:
            self.ctx.errors.append("sweep_scaleup: payload differs between rounds")
        return pass_round(run_pass, failed, traced, export, rss)


def service_requests(seed: int, smoke: bool):
    """The request sequence: small, overlapping specs.

    Requests are drawn, with repeats, from a menu of ``SERVICE_MENU``
    specs, so most repeat one served or in flight before: the median
    request is a warm one and p90 a cold one. (Without repeats about
    half the requests are warm, and the median falls in the gap between
    warm and cold latencies, where it jumps from run to run.)

    The seed generates the datasets; the sequence's shape (which
    platform, model and dataset subsets each request asks for) is fixed,
    so every seed gets the same mix of cold, shared and warm cells.
    """
    from repro.api import ExperimentSpec
    from repro.api.spec import DEFAULT_PLATFORMS

    rng = random.Random(SERVICE_SHAPE_SEED)
    models = ("rgcn", "rgat", "simple_hgn")
    menu = [
        ExperimentSpec(
            platforms=tuple(rng.sample(DEFAULT_PLATFORMS, rng.randint(1, 3))),
            models=tuple(rng.sample(models, rng.randint(1, 2))),
            datasets=tuple(rng.sample(SERVICE_POOL, rng.randint(1, 2))),
            seed=seed,
            scale=0.05 if smoke else SERVICE_SCALE,
        )
        for _ in range(3 if smoke else SERVICE_MENU)
    ]
    return [rng.choice(menu) for _ in range(6 if smoke else SERVICE_REQUESTS)]


class ServiceMix(Workload):
    """Closed loop: ``nproc`` clients, each waits for its stream to end."""

    min_rounds = SETUP_REPEATS

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.requests = service_requests(ctx.seed, ctx.smoke)
        self.clients = os.cpu_count() or 1
        #: Per round: request index -> its envelopes (None if it failed).
        self.streams: list[dict[int, list[dict] | None]] = []
        self.count = 0

    def setup(self) -> None:
        pass  # each round starts its own server; that start is the set-up

    def _start(self, traced: bool):
        self.count += 1
        base = self.ctx.work / f"serve-{self.count}"
        base.mkdir(parents=True)
        report, log = base / "report.json", base / "stderr.log"
        command = [
            sys.executable,
            str(Path(__file__).resolve().parent / "serve_launcher.py"),
            str(report),
            *(["--trace"] if traced else []),
            "--", "--port", "0", "--cache-dir", str(base / "store"),
        ]
        start = time.perf_counter()
        with open(log, "wb") as err:
            proc = subprocess.Popen(command, env=self.ctx.env, stderr=err,
                                    stdout=subprocess.DEVNULL)
        deadline = start + 60
        while True:
            text = log.read_text(errors="replace")
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return proc, host, int(port), report, time.perf_counter() - start
            if proc.poll() is not None or time.perf_counter() > deadline:
                stop_process(proc)
                raise RuntimeError(f"repro serve did not start:\n{text}")
            time.sleep(0.01)

    def round(self, traced: bool) -> Round:
        from repro.service import ServiceClient, ServiceClientError

        proc, host, port, report, setup = self._start(traced)
        try:
            results: dict[int, list[dict] | None] = {}
            ttfc, latency = [], []
            lock = threading.Lock()
            order = iter(range(len(self.requests)))

            def client(k: int) -> None:
                conn = ServiceClient(host, port, client_id=f"bench-{k}")
                while True:
                    with lock:
                        index = next(order, None)
                    if index is None:
                        return
                    start = time.perf_counter()
                    first = None
                    try:
                        with conn.run(self.requests[index]) as stream:
                            envelopes = []
                            for envelope in stream:
                                if first is None:
                                    first = time.perf_counter() - start
                                envelopes.append(envelope)
                    except (ServiceClientError, OSError) as exc:
                        envelopes = None
                        with lock:
                            self.ctx.errors.append(f"service request {index}: {exc}")
                    done = time.perf_counter() - start
                    with lock:
                        results[index] = envelopes
                        latency.append(done)
                        ttfc.append(first if first is not None else done)

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(self.clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            stats = ServiceClient(host, port).stats()
        finally:
            stop_process(proc)
        exit_report = json.loads(report.read_text()) if report.exists() else {}
        attempted = sum(spec.grid_size for spec in self.requests)
        failed = sum(
            self._failed_cells(i, results.get(i)) for i in range(len(self.requests))
        )
        if failed:
            self.ctx.errors.append(f"service_mix: {failed} cells failed or missing")
        self.streams.append(results)
        counters = stats["service"]
        service = {
            "submitted": counters["submitted"],
            "executed": counters["executed"],
            "deduped": counters["deduped"],
            "warm": attempted - counters["submitted"] - counters["rejected"],
            "cells": attempted,
        }
        return Round(
            window=(start, end),
            ttfc_s=ttfc,
            latency_s=latency,
            attempted=attempted,
            failed=failed,
            traced=traced,
            trace=exit_report.get("trace"),
            setup_s=setup,
            peak_rss_mb=exit_report.get("peak_rss_mb"),
            service=service,
        )

    def _failed_cells(self, index: int, envelopes: list[dict] | None) -> int:
        size = self.requests[index].grid_size
        if envelopes is None:
            return size
        ok = sum(1 for e in envelopes
                 if e.get("event") == "result" and e["cell"].get("status", "ok") == "ok")
        return size - ok

    def finish(self, rounds, trace):
        """Every stream must match ``Session.run`` on the same spec."""
        from repro.api import Session

        with Session() as session:
            for index, spec in enumerate(self.requests):
                reference = sorted(
                    json.dumps(cell.to_dict(), sort_keys=True)
                    for cell in session.run(spec)
                )
                end = {"event": "end", "ok": True, "cells": spec.grid_size}
                for results in self.streams:
                    envelopes = results.get(index)
                    if envelopes is None:
                        continue  # already counted as failed
                    got = sorted(
                        json.dumps(e["cell"], sort_keys=True)
                        for e in envelopes if e.get("event") == "result"
                    )
                    if got != reference or envelopes[-1:] != [end]:
                        self.ctx.errors.append(
                            f"service request {index}: stream differs from Session.run"
                        )
        return super().finish(rounds, trace)


def stop_process(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then kill; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def stop_helpers() -> None:
    """Stop and reap the resource tracker, if multiprocessing started one.

    The process executor's shared-memory segments start a
    resource-tracker process. Left alone, it outlives this process
    briefly and is reaped by init instead of by us.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


WORKLOADS = {
    "grid_cold": GridCold,
    "grid_warm": GridWarm,
    "sweep_scaleup": SweepScaleup,
    "service_mix": ServiceMix,
}
