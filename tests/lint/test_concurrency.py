"""Fire/silent proof for the interprocedural concurrency rules.

Same discipline as ``test_checks.py``: every rule pins its exact
finding count on the ``*_bad`` fixture and silence on the ``*_ok``
twin. The REP009 class additionally pins the graceful degradation to
direct-only detection when the run sees a single file and the cache is
disabled.
"""

from tests.lint.conftest import lint_fixture


def _rules(result):
    return sorted({f.rule for f in result.findings})


class TestLockOrder:
    def test_fires_on_cycle_and_double_acquires(self):
        result = lint_fixture("rep007_bad", rules=["REP007"])
        assert _rules(result) == ["REP007"]
        assert len(result.findings) == 3
        messages = "\n".join(f.message for f in result.findings)
        assert "lock-order cycle: Worker._a -> Worker._b" in messages
        assert messages.count("double-acquire") == 2
        symbols = {f.symbol for f in result.findings}
        assert symbols == {"Worker.ab", "Worker.twice", "Worker._again"}

    def test_interprocedural_double_acquire_is_seen(self):
        result = lint_fixture("rep007_bad", rules=["REP007"])
        by_symbol = {f.symbol: f for f in result.findings}
        # _again itself only takes _b once; the deadlock needs the
        # caller's held set — direct-only analysis cannot see it.
        assert "Worker._b" in by_symbol["Worker._again"].message

    def test_silent_on_consistent_order_and_rlock(self):
        result = lint_fixture("rep007_ok", rules=["REP007"])
        assert result.findings == []


class TestLoopAffinity:
    def test_fires_on_thread_context_asyncio_mutation(self):
        result = lint_fixture("rep008_bad", rules=["REP008"])
        assert _rules(result) == ["REP008"]
        assert len(result.findings) == 3
        messages = "\n".join(f.message for f in result.findings)
        assert "put_nowait() on asyncio.Queue" in messages
        assert "set() on asyncio.Event" in messages
        assert "call_soon()" in messages
        assert all(f.symbol == "Bridge._worker" for f in result.findings)

    def test_silent_on_call_soon_threadsafe_bridge(self):
        result = lint_fixture("rep008_ok", rules=["REP008"])
        assert result.findings == []


class TestTransitiveBlocking:
    def test_fires_direct_and_transitive(self):
        result = lint_fixture("rep009_bad", rules=["REP009"])
        assert _rules(result) == ["REP009"]
        assert len(result.findings) == 3
        messages = "\n".join(f.message for f in result.findings)
        assert "time.sleep inside async def handle()" in messages
        assert "open reachable from async def handle() via _load_manifest" in messages
        assert (
            "time.sleep reachable from async def handle() via slow_transform"
            in messages
        )

    def test_direct_detection_survives_single_file_no_cache(self):
        # One file, cache disabled (lint_fixture never passes a cache
        # path): the cross-module helper is unresolvable, but the
        # direct call and the same-file helper still report.
        result = lint_fixture(
            "rep009_bad/service/pipeline.py", rules=["REP009"]
        )
        messages = "\n".join(f.message for f in result.findings)
        assert "time.sleep inside async def handle()" in messages
        assert "via _load_manifest" in messages
        assert "slow_transform" not in messages
        assert len(result.findings) == 2

    def test_silent_on_executor_idiom(self):
        result = lint_fixture("rep009_ok", rules=["REP009"])
        assert result.findings == []


class TestSharedState:
    def test_fires_on_unlocked_writes_and_compound_reads(self):
        result = lint_fixture("rep010_bad", rules=["REP010"])
        assert _rules(result) == ["REP010"]
        assert len(result.findings) == 3
        by_symbol = {f.symbol: f for f in result.findings}
        assert set(by_symbol) == {"Cache.put", "Cache.reset", "Cache.snapshot"}
        # The guard is inferred from the sites that do lock.
        assert "outside Cache._lock" in by_symbol["Cache.put"].message
        assert "Cache._log" in by_symbol["Cache.put"].message
        assert "Cache._entries" in by_symbol["Cache.snapshot"].message

    def test_contexts_are_named_in_the_message(self):
        result = lint_fixture("rep010_bad", rules=["REP010"])
        assert all("(main,worker)" in f.message for f in result.findings)

    def test_silent_when_lock_held_and_atomic_reads_free(self):
        # peek()/has() read single keys without the lock — exempt.
        result = lint_fixture("rep010_ok", rules=["REP010"])
        assert result.findings == []
