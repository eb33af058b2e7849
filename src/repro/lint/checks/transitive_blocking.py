"""REP009 — no blocking call on, or *reachable* from, a service coroutine.

One blocking call on the event loop stalls *every* connected client:
the health endpoint stops answering, streams stop flushing, and the
drain watcher never runs. The repo's idiom is to push blocking work
(store peeks, registry submission, anything that touches a lock or
the disk) through ``loop.run_in_executor`` and keep coroutines to
parsing, routing and ``await``-able writes.

The rule is scoped to ``repro/service/`` modules (the only asyncio
surface in the repo). It reports two shapes:

- *direct*: an ``async def`` calls ``time.sleep`` or another
  known-blocking primitive itself. Direct detection needs no call
  edges, so it still works when the run sees a single file or the
  graph is cold.
- *laundered*: the coroutine calls an innocent-looking sync helper,
  and the helper (or a helper's helper two modules away) sleeps,
  opens a file, shells out or takes an ``fcntl.flock``. For every
  ``async def`` in the service layer, every non-awaited call edge is
  followed through sync project functions until a known-blocking
  call appears, and the finding is reported at the *coroutine's*
  call site with the full chain in the message (``_handle ->
  _load_manifest -> json_read: blocking call open``).

Awaited calls are exempt everywhere; pushing the helper through
``loop.run_in_executor`` both fixes the bug and silences the rule,
because an executor submission is a reference, not a call edge.
False positives (a call the checker cannot see is actually cheap)
carry a ``# repro: lint-ok[REP009]`` waiver naming why.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Checker, register_check

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.context import ModuleContext, ProjectContext
    from repro.lint.flow import CallSite

__all__ = ["TransitiveBlockingCheck"]

#: Alias-resolved call targets that block the calling thread,
#: including the lock syscalls a helper must never take on the loop's
#: behalf.
_BLOCKING_CALLS = {
    "time.sleep",
    "open",
    "io.open",
    "os.system",
    "os.popen",
    "os.waitpid",
    "socket.socket",
    "socket.create_connection",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "select.select",
    "urllib.request.urlopen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "fcntl.flock",
    "fcntl.lockf",
}

#: Blocking libraries flagged by prefix (any attribute of them).
_BLOCKING_PREFIXES = ("requests.",)

#: Method names that are blocking regardless of receiver type — the
#: ``pathlib.Path`` convenience I/O surface. Receiver types are not
#: resolvable statically, so the names themselves are the contract.
_BLOCKING_METHODS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
}


def _blocking_reason(callee: str, site: "CallSite") -> str | None:
    """Classify a summarized call target as blocking, or ``None``."""
    if site.awaited:
        return None
    if callee in _BLOCKING_CALLS:
        return callee
    for prefix in _BLOCKING_PREFIXES:
        if callee.startswith(prefix):
            return callee
    method = callee.rsplit(".", 1)[-1]
    if "." in callee and method in _BLOCKING_METHODS:
        return f".{method}()"
    return None


def _in_service(relpath: str) -> bool:
    return "service" in relpath.split("/")


def _project_findings(project: "ProjectContext") -> list[tuple[str, int, int, str, str]]:
    graph = project.graph
    closure = graph.blocking_closure(_blocking_reason)
    hits: list[tuple[str, int, int, str, str]] = []
    for name in sorted(graph.functions):
        summary, info = graph.functions[name]
        if not info.is_async or not _in_service(summary.relpath):
            continue
        symbol = name.split(":", 1)[1]
        # Direct blocking calls (works graph-cold).
        for site in info.calls:
            reason = _blocking_reason(site.callee, site)
            if reason is not None:
                hits.append(
                    (
                        summary.relpath,
                        site.line,
                        site.col,
                        symbol,
                        f"blocking call {reason} inside async def "
                        f"{symbol.rsplit('.', 1)[-1]}() stalls the event "
                        "loop",
                    )
                )
        # Transitive: a non-awaited edge into a sync function whose
        # closure reaches a blocking call.
        for callee, site in graph.edges().get(name, ()):  # resolved edges
            if site.awaited or graph.functions[callee][1].is_async:
                continue
            verdict = closure.get(callee)
            if verdict is None:
                continue
            reason, chain = verdict
            pretty_chain = " -> ".join(
                part.split(":", 1)[1].rsplit(".", 1)[-1] for part in chain
            )
            hits.append(
                (
                    summary.relpath,
                    site.line,
                    site.col,
                    symbol,
                    f"blocking call {reason} reachable from async def "
                    f"{symbol.rsplit('.', 1)[-1]}() via {pretty_chain} — "
                    "the helper blocks the event loop",
                )
            )
    return hits


@register_check
class TransitiveBlockingCheck(Checker):
    rule = "REP009"
    title = "no blocking call reachable from a service coroutine"
    hint = (
        "push the sync helper through loop.run_in_executor (the "
        "executor boundary ends the reachability walk), or await an "
        "async equivalent"
    )

    def run(
        self, module: "ModuleContext", project: "ProjectContext"
    ) -> Iterator[Finding]:
        if not _in_service(module.relpath):
            return
        hits = project.memo("rep009", lambda: _project_findings(project))
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
