"""Fire-on-violation / silent-on-compliant proof for every rule.

Each rule gets both directions: its ``*_bad`` fixture must produce the
expected findings and its ``*_ok`` fixture must produce none. A
checker that never fires and a checker that cries wolf are equally
useless — the pairs pin both failure modes.
"""

from tests.lint.conftest import FIXTURES, lint_fixture


def _rules(result):
    return sorted({f.rule for f in result.findings})


class TestDeterminism:
    def test_fires_on_every_entropy_source(self):
        result = lint_fixture("determinism_bad.py", rules=["REP001"])
        assert _rules(result) == ["REP001"]
        messages = "\n".join(f.message for f in result.findings)
        assert "numpy.random.default_rng() without a seed" in messages
        assert "numpy.random.rand" in messages
        assert "random.seed" in messages
        assert "random.random" in messages
        assert "time.time" in messages
        assert "os.urandom" in messages
        assert "uuid.uuid4" in messages
        assert "secrets.token_hex" in messages
        assert len(result.findings) == 8

    def test_silent_on_compliant(self):
        result = lint_fixture("determinism_ok.py", rules=["REP001"])
        assert result.findings == []
        # The deliberate secrets call is waived, not missed.
        assert len(result.waived) == 1

    def test_findings_carry_location_and_symbol(self):
        result = lint_fixture("determinism_bad.py", rules=["REP001"])
        by_symbol = {f.symbol: f for f in result.findings}
        assert "wall_clock_key" in by_symbol
        finding = by_symbol["wall_clock_key"]
        assert finding.path == "determinism_bad.py"
        assert finding.line > 0
        assert "thread an explicit seed" in finding.hint


class TestFaultSites:
    def test_fires_on_raw_io_in_platform_module(self):
        result = lint_fixture(
            "rep002_bad/platforms/store.py", rules=["REP002"]
        )
        assert _rules(result) == ["REP002"]
        names = "\n".join(f.message for f in result.findings)
        assert "tempfile.mkstemp" in names
        assert "os.replace" in names
        assert "os.fsync" in names
        assert "read_bytes" in names

    def test_silent_when_function_has_inject_site(self):
        result = lint_fixture(
            "rep002_ok/platforms/store.py", rules=["REP002"]
        )
        assert result.findings == []
        assert len(result.waived) == 1  # the scrub waiver

    def test_out_of_scope_files_ignored(self):
        result = lint_fixture(
            "rep002_ok/elsewhere/tool.py", rules=["REP002"]
        )
        assert result.findings == []
        assert result.waived == []


class TestLifecycle:
    def test_fires_on_leaky_acquisitions(self):
        result = lint_fixture("lifecycle_bad.py", rules=["REP003"])
        assert _rules(result) == ["REP003"]
        symbols = {f.symbol for f in result.findings}
        assert symbols == {
            "leaky_segment",
            "leaky_fd",
            "leaky_tempfile",
            "lock_without_finally",
            "leaky_mmap",
        }

    def test_silent_on_release_idioms(self):
        result = lint_fixture("lifecycle_ok.py", rules=["REP003"])
        assert result.findings == []


class TestParity:
    def test_fires_only_on_untested_naive(self):
        proj = FIXTURES / "parity_proj"
        result = lint_fixture(
            "parity_proj/src/kernels.py",
            rules=["REP004"],
            tests_root=proj / "tests",
        )
        assert [f.symbol for f in result.findings] == ["untested_kernel"]
        assert "naive=" in result.findings[0].message

    def test_missing_tests_tree_flags_everything(self):
        result = lint_fixture(
            "parity_proj/src/kernels.py", rules=["REP004"]
        )
        symbols = {f.symbol for f in result.findings}
        assert symbols == {"tested_kernel", "untested_kernel", "TestedOp.__init__"}


class TestAsyncBlocking:
    def test_fires_on_blocking_calls_in_async_defs(self):
        result = lint_fixture(
            "rep006_bad/service/streamy.py", rules=["REP009"]
        )
        assert _rules(result) == ["REP009"]
        messages = "\n".join(f.message for f in result.findings)
        assert "time.sleep" in messages
        assert "open" in messages
        assert ".read_text()" in messages
        assert "subprocess.run" in messages
        assert "requests.get" in messages
        assert "socket.create_connection" in messages
        assert len(result.findings) == 6
        # The sync helper at the bottom stays unflagged.
        assert "sync_helper_is_fine" not in {
            f.symbol for f in result.findings
        }

    def test_silent_on_executor_idiom(self):
        result = lint_fixture(
            "rep006_ok/service/streamy.py", rules=["REP009"]
        )
        assert result.findings == []

    def test_out_of_scope_files_ignored(self):
        result = lint_fixture(
            "rep006_ok/elsewhere/tool.py", rules=["REP009"]
        )
        assert result.findings == []


class TestPicklability:
    def test_fires_on_unpicklable_shapes(self):
        result = lint_fixture("picklability_bad.py", rules=["REP005"])
        assert _rules(result) == ["REP005"]
        messages = "\n".join(f.message for f in result.findings)
        assert "lambda" in messages
        assert "self.run_cell" in messages
        assert "bare self" in messages
        assert "'lock'" in messages
        assert "'work'" in messages
        assert "initializer" in messages
        assert "'handle'" in messages
        assert len(result.findings) == 7

    def test_silent_on_module_level_convention(self):
        result = lint_fixture("picklability_ok.py", rules=["REP005"])
        assert result.findings == []
