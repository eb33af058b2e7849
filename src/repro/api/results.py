"""Typed, schema-versioned result objects.

Every number the evaluation produces flows through the types in this
module instead of anonymous nested dicts:

- :class:`CellResult` — one platform x model x dataset simulation,
  normalized over the GPU and accelerator report vocabularies.
- :class:`GridResult` — an ordered grid of cells plus the spec that
  produced them, with derived per-figure reports and slicing.
- :class:`MetricReport` (:class:`SpeedupReport`,
  :class:`DramTrafficReport`, :class:`BandwidthReport`) — one
  Fig. 7/8/9-style table: per model/dataset/platform values plus the
  per-platform GEOMEAN bar.
- :class:`ThrashingReport` — Fig. 2 replacement statistics.
- :class:`DatasetStatsReport`, :class:`SystemConfigReport`,
  :class:`AreaReport`, :class:`RestructureReport` — the remaining CLI
  surfaces.

Each type serializes with ``to_dict()`` to plain JSON-compatible
values, embeds ``schema_version`` and rebuilds exactly (bit-identical
floats) with ``from_dict()``, so results can be persisted in the
artifact store, emitted by ``--format json`` and consumed by other
programs without re-running a single simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Mapping

from repro.platforms.failures import CellFailure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ExperimentSpec

__all__ = [
    "CellFailure",
    "RESULT_SCHEMA_VERSION",
    "SchemaMismatchError",
    "geomean",
    "CellResult",
    "GridResult",
    "MetricReport",
    "SpeedupReport",
    "DramTrafficReport",
    "BandwidthReport",
    "metric_report_from_dict",
    "ThrashingReport",
    "DatasetStatRow",
    "DatasetStatsReport",
    "SystemConfigReport",
    "AreaComponent",
    "AreaReport",
    "RestructureRelationRow",
    "RestructureReport",
]

#: Version stamp embedded in every serialized result. Bump on any
#: layout change; readers reject (and stores recompute) older payloads.
RESULT_SCHEMA_VERSION = 1

GridKey = tuple[str, str, str]


class SchemaMismatchError(ValueError):
    """A serialized result payload has the wrong shape or version."""


def geomean(values: list[float]) -> float:
    """Geometric mean (the paper's GEOMEAN bars)."""
    if not values:
        raise ValueError("geomean of an empty list")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _require_schema(payload: Any, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise SchemaMismatchError(
            f"{kind} payload must be a dict, got {type(payload).__name__}"
        )
    version = payload.get("schema_version")
    if version != RESULT_SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{kind} schema_version mismatch: payload has {version!r}, "
            f"this library reads {RESULT_SCHEMA_VERSION}"
        )
    return payload


def _opt_float(value: object) -> float | None:
    return None if value is None else float(value)  # type: ignore[arg-type]


def _opt_int(value: object) -> int | None:
    return None if value is None else int(value)  # type: ignore[call-overload]


# ----------------------------------------------------------------------
# Cell
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    """One grid cell, normalized over GPU and accelerator reports.

    GPU-only fields (``na_l2_hit_ratio``, ``kernel_launches``) and
    accelerator-only fields (``na_hit_ratio``, ``total_cycles``,
    ``frontend_cycles``) are ``None`` on the other platform kind; the
    shared core (time, DRAM traffic, bandwidth) is always present.

    ``status`` is ``"ok"`` for a completed simulation and ``"failed"``
    for a cell whose terminal failure was collected
    (``on_error="collect"``); failed cells carry the typed
    :class:`~repro.platforms.failures.CellFailure` in ``failure`` and
    zeros in the numeric core. Failed cells are never persisted to the
    artifact store, and serialization omits the two fields entirely on
    the ``"ok"`` path (payloads of healthy runs are bit-identical to
    pre-failure-aware versions).
    """

    platform: str
    model: str
    dataset: str
    time_ms: float
    dram_accesses: int
    dram_bytes: int
    bandwidth_utilization: float
    na_hit_ratio: float | None = None
    na_l2_hit_ratio: float | None = None
    total_cycles: int | None = None
    frontend_cycles: int | None = None
    kernel_launches: int | None = None
    status: str = "ok"
    failure: CellFailure | None = None

    @property
    def key(self) -> GridKey:
        """The grid coordinate ``(platform, model, dataset)``."""
        return (self.platform, self.model, self.dataset)

    @property
    def ok(self) -> bool:
        """Whether this cell completed (vs. a collected failure)."""
        return self.status == "ok"

    @classmethod
    def from_failure(cls, failure: CellFailure) -> "CellResult":
        """A ``status="failed"`` cell wrapping a typed failure."""
        return cls(
            platform=failure.platform,
            model=failure.model,
            dataset=failure.dataset,
            time_ms=0.0,
            dram_accesses=0,
            dram_bytes=0,
            bandwidth_utilization=0.0,
            status="failed",
            failure=failure,
        )

    def speedup_over(self, baseline: "CellResult") -> float:
        """How much faster this cell ran than ``baseline`` (wall time)."""
        if self.time_ms <= 0:
            return float("inf")
        return baseline.time_ms / self.time_ms

    @classmethod
    def from_report(cls, report: Any) -> "CellResult":
        """Normalize a raw simulator report (either platform kind).

        Values are coerced to built-in ``int``/``float`` so numpy
        scalars never leak into serialized payloads.
        """
        return cls(
            platform=str(report.platform),
            model=str(report.model),
            dataset=str(report.dataset),
            time_ms=float(report.time_ms),
            dram_accesses=int(report.dram_accesses),
            dram_bytes=int(report.dram_bytes),
            bandwidth_utilization=float(report.bandwidth_utilization),
            na_hit_ratio=_opt_float(getattr(report, "na_hit_ratio", None)),
            na_l2_hit_ratio=_opt_float(
                getattr(report, "na_l2_hit_ratio", None)
            ),
            total_cycles=_opt_int(getattr(report, "total_cycles", None)),
            frontend_cycles=_opt_int(
                getattr(report, "frontend_cycles", None)
            ),
            kernel_launches=_opt_int(
                getattr(report, "kernel_launches", None)
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "platform": self.platform,
            "model": self.model,
            "dataset": self.dataset,
            "time_ms": self.time_ms,
            "dram_accesses": self.dram_accesses,
            "dram_bytes": self.dram_bytes,
            "bandwidth_utilization": self.bandwidth_utilization,
            "na_hit_ratio": self.na_hit_ratio,
            "na_l2_hit_ratio": self.na_l2_hit_ratio,
            "total_cycles": self.total_cycles,
            "frontend_cycles": self.frontend_cycles,
            "kernel_launches": self.kernel_launches,
        }
        # Healthy payloads stay bit-identical to pre-failure-aware
        # versions (store entries, JSON goldens); the failure block
        # appears only when there is one.
        if self.status != "ok":
            payload["status"] = self.status
            payload["failure"] = (
                None if self.failure is None else self.failure.to_dict()
            )
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CellResult":
        payload = _require_schema(payload, "CellResult")
        failure = payload.get("failure")
        return cls(
            platform=str(payload["platform"]),
            model=str(payload["model"]),
            dataset=str(payload["dataset"]),
            time_ms=float(payload["time_ms"]),
            dram_accesses=int(payload["dram_accesses"]),
            dram_bytes=int(payload["dram_bytes"]),
            bandwidth_utilization=float(payload["bandwidth_utilization"]),
            na_hit_ratio=_opt_float(payload.get("na_hit_ratio")),
            na_l2_hit_ratio=_opt_float(payload.get("na_l2_hit_ratio")),
            total_cycles=_opt_int(payload.get("total_cycles")),
            frontend_cycles=_opt_int(payload.get("frontend_cycles")),
            kernel_launches=_opt_int(payload.get("kernel_launches")),
            status=str(payload.get("status", "ok")),
            failure=None if failure is None else CellFailure.from_dict(failure),
        )


# ----------------------------------------------------------------------
# Figure 7/8/9-style metric tables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """One metric over the grid: values per cell + per-platform GEOMEAN.

    ``report[model][dataset][platform]`` and
    ``report["GEOMEAN"]["all"][platform]`` keep working for callers of
    the pre-API nested-dict tables.
    """

    kind: ClassVar[str] = "metric"

    baseline: str | None
    platforms: tuple[str, ...]
    models: tuple[str, ...]
    datasets: tuple[str, ...]
    values: dict[str, dict[str, dict[str, float]]]
    geomean_by_platform: dict[str, float]

    @staticmethod
    def _metric(cell: CellResult, baseline: CellResult | None) -> float:
        raise NotImplementedError

    @classmethod
    def from_cells(
        cls,
        cells: Mapping[GridKey, CellResult],
        *,
        models: tuple[str, ...],
        datasets: tuple[str, ...],
        platforms: tuple[str, ...],
        baseline: str | None = None,
        skip_missing: bool = False,
    ) -> "MetricReport":
        """Build the table from a cell map (must contain the baseline).

        With ``skip_missing`` the table degrades gracefully over the
        surviving cells of a partially failed grid: a (model, dataset)
        row with a missing/failed baseline is dropped entirely, a row
        missing some platform keeps the surviving columns, and the
        GEOMEAN bar of each platform aggregates whatever rows it has
        (platforms with no surviving cells get no bar). Without it
        (the default) any missing cell raises, bit-identical to the
        strict historical behavior.
        """

        def lookup(key: GridKey) -> CellResult | None:
            cell = cells.get(key)
            if cell is not None and not cell.ok:
                return None
            return cell

        values: dict[str, dict[str, dict[str, float]]] = {}
        for model in models:
            values[model] = {}
            for dataset in datasets:
                base = None
                if baseline is not None:
                    base = lookup((baseline, model, dataset))
                    if base is None:
                        if skip_missing:
                            continue
                        raise ValueError(
                            f"baseline cell ({baseline!r}, {model!r}, "
                            f"{dataset!r}) missing from the result set"
                        )
                row = {}
                for p in platforms:
                    cell = lookup((p, model, dataset))
                    if cell is None:
                        if skip_missing:
                            continue
                        raise ValueError(
                            f"cell ({p!r}, {model!r}, {dataset!r}) "
                            "missing from the result set"
                        )
                    row[p] = float(cls._metric(cell, base))
                if row:
                    values[model][dataset] = row
        geo = {}
        for p in platforms:
            samples = [
                row[p]
                for per_model in values.values()
                for row in per_model.values()
                if p in row
            ]
            if samples:
                geo[p] = geomean(samples)
        if not geo:
            raise ValueError(
                "no surviving cells to report on: every grid cell "
                "failed or is missing"
            )
        return cls(
            baseline=baseline,
            platforms=tuple(platforms),
            models=tuple(models),
            datasets=tuple(datasets),
            values=values,
            geomean_by_platform=geo,
        )

    def value(self, platform: str, model: str, dataset: str) -> float:
        return self.values[model][dataset][platform]

    def geomean(self, platform: str) -> float:
        """The GEOMEAN bar of one platform."""
        return self.geomean_by_platform[platform]

    def __getitem__(self, key: str) -> dict[str, dict[str, float]]:
        if key == "GEOMEAN":
            return {"all": dict(self.geomean_by_platform)}
        return self.values[key]

    def __iter__(self) -> Iterator[str]:
        yield from self.values
        yield "GEOMEAN"

    def __contains__(self, key: str) -> bool:
        return key == "GEOMEAN" or key in self.values

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": self.kind,
            "baseline": self.baseline,
            "platforms": list(self.platforms),
            "models": list(self.models),
            "datasets": list(self.datasets),
            "values": {
                m: {d: dict(row) for d, row in per_model.items()}
                for m, per_model in self.values.items()
            },
            "geomean": dict(self.geomean_by_platform),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MetricReport":
        payload = _require_schema(payload, cls.__name__)
        if payload.get("kind") != cls.kind:
            raise SchemaMismatchError(
                f"expected kind {cls.kind!r}, got {payload.get('kind')!r}"
            )
        return cls(
            baseline=payload["baseline"],
            platforms=tuple(payload["platforms"]),
            models=tuple(payload["models"]),
            datasets=tuple(payload["datasets"]),
            values={
                m: {
                    d: {p: float(v) for p, v in row.items()}
                    for d, row in per_model.items()
                }
                for m, per_model in payload["values"].items()
            },
            geomean_by_platform={
                p: float(v) for p, v in payload["geomean"].items()
            },
        )


@dataclass(frozen=True)
class SpeedupReport(MetricReport):
    """Fig. 7: wall-time speedup relative to the baseline platform."""

    kind: ClassVar[str] = "speedup"

    @staticmethod
    def _metric(cell: CellResult, baseline: CellResult | None) -> float:
        assert baseline is not None
        return cell.speedup_over(baseline)


@dataclass(frozen=True)
class DramTrafficReport(MetricReport):
    """Fig. 8: DRAM access count normalized to the baseline platform."""

    kind: ClassVar[str] = "dram_accesses"

    @staticmethod
    def _metric(cell: CellResult, baseline: CellResult | None) -> float:
        assert baseline is not None
        return cell.dram_accesses / max(baseline.dram_accesses, 1)


@dataclass(frozen=True)
class BandwidthReport(MetricReport):
    """Fig. 9: achieved fraction of peak DRAM bandwidth (absolute)."""

    kind: ClassVar[str] = "bandwidth_utilization"

    @staticmethod
    def _metric(cell: CellResult, baseline: CellResult | None) -> float:
        return cell.bandwidth_utilization


_METRIC_KINDS: dict[str, type[MetricReport]] = {
    cls.kind: cls
    for cls in (SpeedupReport, DramTrafficReport, BandwidthReport)
}


def metric_report_from_dict(payload: dict[str, Any]) -> MetricReport:
    """Rebuild the right :class:`MetricReport` subclass from a payload."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    try:
        cls = _METRIC_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(_METRIC_KINDS))
        raise SchemaMismatchError(
            f"unknown metric report kind {kind!r}; known: {known}"
        ) from None
    return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Grid
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GridResult:
    """Every cell of one executed spec, in the spec's canonical order."""

    spec: "ExperimentSpec"
    cells: tuple[CellResult, ...]

    @cached_property
    def _by_key(self) -> dict[GridKey, CellResult]:
        return {cell.key: cell for cell in self.cells}

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.cells)

    def cell(self, platform: str, model: str, dataset: str) -> CellResult:
        """The result of one grid coordinate (``KeyError`` if absent)."""
        return self._by_key[(platform, model, dataset)]

    def platform_slice(self, platform: str) -> tuple[CellResult, ...]:
        """All cells of one platform, in grid order."""
        return tuple(c for c in self.cells if c.platform == platform)

    @property
    def failures(self) -> tuple[CellResult, ...]:
        """The failed cells (``status="failed"``), in grid order."""
        return tuple(c for c in self.cells if not c.ok)

    @property
    def ok(self) -> bool:
        """Whether every cell of the grid completed."""
        return all(c.ok for c in self.cells)

    def surviving(self) -> dict[GridKey, CellResult]:
        """The completed cells, keyed by grid coordinate."""
        return {c.key: c for c in self.cells if c.ok}

    def subset(
        self,
        *,
        platforms: tuple[str, ...] | None = None,
        models: tuple[str, ...] | None = None,
        datasets: tuple[str, ...] | None = None,
    ) -> "GridResult":
        """A smaller grid over already-computed cells (no re-running)."""
        spec = self.spec.replace(
            **{
                axis: value
                for axis, value in (
                    ("platforms", platforms),
                    ("models", models),
                    ("datasets", datasets),
                )
                if value is not None
            }
        )
        try:
            cells = tuple(self._by_key[k] for k in spec.cells())
        except KeyError as exc:
            raise ValueError(
                f"cell {exc.args[0]!r} is not part of this grid"
            ) from None
        return GridResult(spec=spec, cells=cells)

    # -- derived figure reports ----------------------------------------

    def _report(
        self, cls: type[MetricReport], baseline: str | None
    ) -> MetricReport:
        if baseline is not None and baseline not in {
            c.platform for c in self.cells
        }:
            raise ValueError(
                f"baseline platform {baseline!r} is not part of this grid; "
                "include it in the spec's platforms"
            )
        # A fully healthy grid takes the strict path (bit-identical to
        # the historical tables); a partially failed one degrades
        # gracefully over the surviving cells.
        return cls.from_cells(
            self._by_key,
            models=self.spec.models,
            datasets=self.spec.datasets,
            platforms=self.spec.platforms,
            baseline=baseline,
            skip_missing=not self.ok,
        )

    def speedup(self, baseline: str = "t4") -> SpeedupReport:
        """Fig. 7: speedup over ``baseline`` + GEOMEAN bars."""
        return self._report(SpeedupReport, baseline)

    def dram_traffic(self, baseline: str = "t4") -> DramTrafficReport:
        """Fig. 8: DRAM accesses normalized to ``baseline``."""
        return self._report(DramTrafficReport, baseline)

    def bandwidth(self) -> BandwidthReport:
        """Fig. 9: DRAM bandwidth utilization."""
        return self._report(BandwidthReport, None)

    def geomean_speedup(
        self, platform: str, *, baseline: str = "t4"
    ) -> float:
        """One platform's GEOMEAN speedup bar over ``baseline``."""
        return self.speedup(baseline).geomean(platform)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GridResult":
        from repro.api.spec import ExperimentSpec

        payload = _require_schema(payload, "GridResult")
        return cls(
            spec=ExperimentSpec.from_dict(payload["spec"]),
            cells=tuple(
                CellResult.from_dict(c) for c in payload["cells"]
            ),
        )


# ----------------------------------------------------------------------
# Thrashing (Fig. 2)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ThrashingReport:
    """Fig. 2 replacement statistics of one (dataset, model) NA run."""

    dataset: str
    model: str
    platform: str
    na_hit_ratio: float
    redundant_accesses: int
    total_na_misses: int
    histogram: dict[int, dict[str, float]]
    restructured: bool = False

    @property
    def redundancy_fraction(self) -> float:
        """Share of NA DRAM fetches that are re-fetches (pure waste)."""
        if self.total_na_misses == 0:
            return 0.0
        return self.redundant_accesses / self.total_na_misses

    def thrashing_vertex_ratio(self) -> float:
        """Percent of fetched vertices replaced at least once."""
        return sum(b["vertex_ratio"] for b in self.histogram.values())

    def thrashing_access_ratio(self) -> float:
        """Percent of DRAM accesses made by replaced vertices."""
        return sum(b["access_ratio"] for b in self.histogram.values())

    @classmethod
    def from_profile(
        cls,
        profile: Any,
        *,
        platform: str = "hihgnn",
        restructured: bool = False,
    ) -> "ThrashingReport":
        """Typed view of an ``analysis.thrashing.ThrashingProfile``."""
        return cls(
            dataset=str(profile.dataset),
            model=str(profile.model),
            platform=platform,
            na_hit_ratio=float(profile.na_hit_ratio),
            redundant_accesses=int(profile.redundant_accesses),
            total_na_misses=int(profile.total_na_misses),
            histogram={
                int(times): {str(k): float(v) for k, v in series.items()}
                for times, series in profile.histogram.items()
            },
            restructured=restructured,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "dataset": self.dataset,
            "model": self.model,
            "platform": self.platform,
            "restructured": self.restructured,
            "na_hit_ratio": self.na_hit_ratio,
            "redundant_accesses": self.redundant_accesses,
            "total_na_misses": self.total_na_misses,
            "histogram": {
                str(times): dict(series)
                for times, series in self.histogram.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ThrashingReport":
        payload = _require_schema(payload, "ThrashingReport")
        return cls(
            dataset=str(payload["dataset"]),
            model=str(payload["model"]),
            platform=str(payload["platform"]),
            restructured=bool(payload.get("restructured", False)),
            na_hit_ratio=float(payload["na_hit_ratio"]),
            redundant_accesses=int(payload["redundant_accesses"]),
            total_na_misses=int(payload["total_na_misses"]),
            histogram={
                int(times): {k: float(v) for k, v in series.items()}
                for times, series in payload["histogram"].items()
            },
        )


# ----------------------------------------------------------------------
# Dataset statistics (Table 2 / ``repro datasets``)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetStatRow:
    """One vertex type of one generated dataset."""

    dataset: str
    vertex_type: str
    vertices: int
    feature_dim: int | None = None
    spec_vertices: int | None = None
    relations: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "dataset": self.dataset,
            "vertex_type": self.vertex_type,
            "vertices": self.vertices,
            "feature_dim": self.feature_dim,
            "spec_vertices": self.spec_vertices,
            "relations": self.relations,
        }


@dataclass(frozen=True)
class DatasetStatsReport:
    """Table 2-style dataset statistics (rows + per-dataset edge counts)."""

    rows: tuple[DatasetStatRow, ...]
    edges: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[DatasetStatRow]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> DatasetStatRow:
        return self.rows[index]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "rows": [row.to_dict() for row in self.rows],
            "edges": dict(self.edges),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DatasetStatsReport":
        payload = _require_schema(payload, "DatasetStatsReport")
        return cls(
            rows=tuple(
                DatasetStatRow(
                    dataset=str(r["dataset"]),
                    vertex_type=str(r["vertex_type"]),
                    vertices=int(r["vertices"]),
                    feature_dim=_opt_int(r.get("feature_dim")),
                    spec_vertices=_opt_int(r.get("spec_vertices")),
                    relations=_opt_int(r.get("relations")),
                )
                for r in payload["rows"]
            ),
            edges={k: int(v) for k, v in payload["edges"].items()},
        )


# ----------------------------------------------------------------------
# Platform configuration (Table 3)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfigReport:
    """Table 3: the accelerator's and the frontend's key parameters."""

    hihgnn: dict[str, float]
    gdr_hgnn: dict[str, float]

    @classmethod
    def from_configs(
        cls, accelerator: Any = None, frontend: Any = None
    ) -> "SystemConfigReport":
        """Build from the two configurations (default configs)."""
        from repro.accelerator.config import HiHGNNConfig
        from repro.frontend.config import GDRConfig

        accel = accelerator or HiHGNNConfig()
        front = frontend or GDRConfig()
        return cls(
            hihgnn={
                "peak_tflops": accel.peak_tflops,
                "clock_ghz": accel.clock_ghz,
                "num_lanes": accel.num_lanes,
                "fp_buffer_mb": accel.fp_buffer_bytes / (1 << 20),
                "na_buffer_mb": accel.na_buffer_bytes / (1 << 20),
                "sf_buffer_mb": accel.sf_buffer_bytes / (1 << 20),
                "att_buffer_mb": accel.att_buffer_bytes / (1 << 20),
                "hbm_gbs": accel.hbm.peak_bytes_per_cycle * accel.clock_ghz,
            },
            gdr_hgnn={
                "fifo_kb": front.fifo_bytes / 1024,
                "matching_buffer_kb": front.matching_buffer_bytes / 1024,
                "candidate_buffer_kb": front.candidate_buffer_bytes / 1024,
                "adj_buffer_kb": front.adj_buffer_bytes / 1024,
            },
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "hihgnn": dict(self.hihgnn),
            "gdr_hgnn": dict(self.gdr_hgnn),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SystemConfigReport":
        payload = _require_schema(payload, "SystemConfigReport")
        return cls(
            hihgnn={k: float(v) for k, v in payload["hihgnn"].items()},
            gdr_hgnn={k: float(v) for k, v in payload["gdr_hgnn"].items()},
        )


# ----------------------------------------------------------------------
# Area / power (Fig. 10)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AreaComponent:
    """One hardware component's area/power entry."""

    block: str
    component: str
    area_mm2: float
    power_mw: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "block": self.block,
            "component": self.component,
            "area_mm2": self.area_mm2,
            "power_mw": self.power_mw,
        }


@dataclass(frozen=True)
class AreaReport:
    """Fig. 10: component breakdown + GDR-HGNN's share of the system."""

    components: tuple[AreaComponent, ...]
    shares: dict[str, float]

    @classmethod
    def from_breakdown(
        cls, accelerator: Any = None, frontend: Any = None
    ) -> "AreaReport":
        """Build from :mod:`repro.energy.breakdown` (default configs)."""
        from repro.energy.breakdown import area_breakdown, figure10_shares

        components = tuple(
            AreaComponent(
                block=str(c.block),
                component=str(c.component),
                area_mm2=float(c.area_mm2),
                power_mw=float(c.power_mw),
            )
            for c in area_breakdown(accelerator, frontend)
        )
        shares = {
            k: float(v)
            for k, v in figure10_shares(accelerator, frontend).items()
        }
        return cls(components=components, shares=shares)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "components": [c.to_dict() for c in self.components],
            "shares": dict(self.shares),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AreaReport":
        payload = _require_schema(payload, "AreaReport")
        return cls(
            components=tuple(
                AreaComponent(
                    block=str(c["block"]),
                    component=str(c["component"]),
                    area_mm2=float(c["area_mm2"]),
                    power_mw=float(c["power_mw"]),
                )
                for c in payload["components"]
            ),
            shares={k: float(v) for k, v in payload["shares"].items()},
        )


# ----------------------------------------------------------------------
# Restructuring (``repro restructure``)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RestructureRelationRow:
    """Decoupling/recoupling statistics of one semantic graph."""

    relation: str
    edges: int
    matching: int
    backbone: int
    subgraph_edges: tuple[int, ...]
    leaves: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "relation": self.relation,
            "edges": self.edges,
            "matching": self.matching,
            "backbone": self.backbone,
            "subgraph_edges": list(self.subgraph_edges),
            "leaves": self.leaves,
        }


@dataclass(frozen=True)
class RestructureReport:
    """Restructuring statistics of one dataset's semantic graphs."""

    dataset: str
    rows: tuple[RestructureRelationRow, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "dataset": self.dataset,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RestructureReport":
        payload = _require_schema(payload, "RestructureReport")
        return cls(
            dataset=str(payload["dataset"]),
            rows=tuple(
                RestructureRelationRow(
                    relation=str(r["relation"]),
                    edges=int(r["edges"]),
                    matching=int(r["matching"]),
                    backbone=int(r["backbone"]),
                    subgraph_edges=tuple(
                        int(e) for e in r["subgraph_edges"]
                    ),
                    leaves=int(r["leaves"]),
                )
                for r in payload["rows"]
            ),
        )
