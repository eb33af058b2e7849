"""REP007 — project-wide lock-order consistency.

Two threads acquiring the same two locks in opposite orders is the
classic deadlock: thread A holds the shard flock and wants the stats
lock while thread B holds the stats lock and wants the shard flock,
and the grid hangs with no stack trace worth reading. The repo's
protection is a *global acquisition order* — every path that holds
lock X while taking lock Y establishes the edge X→Y, and the edge set
over the whole project must stay acyclic.

This checker builds that lock-acquisition-order graph from the
interprocedural flow summaries: each acquisition site contributes one
edge per lock held at that site, where "held" includes locks inherited
from *any* caller path (``_count`` acquiring the stats lock while a
quarantining caller still holds the shard flock contributes
shard→stats even though no single function shows both). Two findings:

* a **cycle** in the order graph — reported once per strongly
  connected component, at a representative acquisition site inside
  the cycle;
* a **double-acquire** of a non-reentrant lock (``threading.Lock``,
  ``asyncio.Lock``, ``fcntl.flock`` regions, provider-method locks) —
  self-deadlock the moment the path executes. ``RLock`` and
  ``Condition`` (RLock-backed by default) are exempt.

Waive when the analysis cannot see the discipline that makes an order
safe (e.g. a lock ordered by sorted key ranges), naming it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding
from repro.lint.flow import NON_REENTRANT_KINDS
from repro.lint.registry import Checker, register_check

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import ModuleContext, ProjectContext

__all__ = ["LockOrderCheck"]


def _short(token: str) -> str:
    """Human form of a lock token: the last two dotted components."""
    parts = token.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else token


def _project_findings(project: "ProjectContext") -> list[tuple[str, int, int, str, str]]:
    """(relpath, line, col, symbol, message) for every REP007 hit."""
    graph = project.graph
    hits: list[tuple[str, int, int, str, str]] = []

    for tokens, owner, site in graph.lock_cycles():
        summary = graph.functions[owner][0]
        symbol = owner.split(":", 1)[1]
        cycle = " -> ".join(_short(token) for token in tokens)
        hits.append(
            (
                summary.relpath,
                site.line,
                site.col,
                symbol,
                f"lock-order cycle: {cycle} — these locks are taken in "
                "conflicting orders on different call paths",
            )
        )

    for name in sorted(graph.functions):
        summary, info = graph.functions[name]
        symbol = name.split(":", 1)[1]
        for acquire in info.acquires:
            if acquire.kind not in NON_REENTRANT_KINDS:
                continue
            if acquire.token in graph.effective_held_any(name, acquire.held):
                hits.append(
                    (
                        summary.relpath,
                        acquire.line,
                        acquire.col,
                        symbol,
                        f"double-acquire of non-reentrant lock "
                        f"{_short(acquire.token)} — some call path already "
                        "holds it here",
                    )
                )
    return hits


@register_check
class LockOrderCheck(Checker):
    rule = "REP007"
    title = "consistent project-wide lock acquisition order"
    hint = (
        "acquire locks in one global order everywhere (document it at "
        "the lock's definition); never re-take a non-reentrant lock on "
        "a path that already holds it"
    )

    def run(
        self, module: "ModuleContext", project: "ProjectContext"
    ) -> Iterator[Finding]:
        hits = project.memo("rep007", lambda: _project_findings(project))
        for relpath, line, col, symbol, message in hits:
            if relpath != module.relpath:
                continue
            yield Finding(
                path=relpath,
                line=line,
                col=col,
                rule=self.rule,
                message=message,
                symbol=symbol,
                hint=self.hint,
            )
