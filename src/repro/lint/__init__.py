"""repro.lint — AST-based invariant checker for this repository.

The general linters (ruff in CI) catch general problems; this package
enforces the *repo-specific* contracts that earlier PRs established
and that no off-the-shelf tool knows about:

========  ==========================================================
REP001    seeds flow from explicit parameters; no ambient entropy
REP002    durable I/O in platform modules is fault-injectable
REP003    OS resource acquisitions reach release on all paths
REP004    functions with a ``naive=`` parameter are test-referenced
REP005    process-pool entrypoints and arguments are picklable
REP007    project-wide lock acquisition order stays acyclic
REP008    asyncio loop state only touched from the loop thread
REP009    no blocking call in or *reachable* from service coroutines
REP010    cross-context instance state accessed under a common lock
========  ==========================================================

(``REP000`` is reserved for lint-infrastructure findings: malformed
waivers, unparseable files.)

REP001–REP005 are single-module rules; REP007–REP010 are
*interprocedural*: the engine's index pass parses every file first,
then a project call graph (:mod:`repro.lint.callgraph`) built from
per-function flow summaries (:mod:`repro.lint.flow`) answers
reachability, held-lock and execution-context questions across
module boundaries. The graph's per-file summaries are cached in
``.repro-lint-cache.json`` next to the test-reference index.

Rules are plugin classes registered with :func:`register_check` —
the same pattern as ``@register_platform`` / ``@register_scenario``.
Run via ``python -m repro.lint`` or ``repro lint``; suppress a single
deliberate violation inline with ``# repro: lint-ok[RULE] why``, or
grandfather findings in ``lint-baseline.json``.
"""

from __future__ import annotations

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.context import ModuleContext, ProjectContext
from repro.lint.engine import LintResult, lint_paths
from repro.lint.findings import Finding
from repro.lint.registry import (
    Checker,
    all_checks,
    check_ids,
    get_check,
    register_check,
)
from repro.lint.waivers import Waiver, parse_waivers

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "ModuleContext",
    "ProjectContext",
    "Waiver",
    "all_checks",
    "check_ids",
    "get_check",
    "lint_paths",
    "load_baseline",
    "parse_waivers",
    "register_check",
    "write_baseline",
]
