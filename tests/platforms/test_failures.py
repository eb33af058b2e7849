"""Failure taxonomy, retry policy, and per-cell isolation in the runner."""

import pytest

from repro.faults import FaultPlan, FaultRule, InjectedFault, disarm
from repro.faults.errors import InjectedIOError
from repro.platforms import ArtifactBuildError, CellFailure, GridRunner, RetryPolicy


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    yield
    disarm()


TINY = "uniform:num_dst=16,degree=2"
TINY2 = "thrash:working_set=32,num_dst=4"


def tiny_runner() -> GridRunner:
    return GridRunner(seed=5, scale=1.0)


def fan_out(runner, datasets, on_error="raise"):
    """Warm and fan out ``t4/rgcn`` over ``datasets``, as Session does."""
    runner.warm_artifacts(datasets, errors=on_error)
    cells = [("t4", "rgcn", dataset) for dataset in datasets]
    return dict(runner.run_cells(cells, on_error=on_error))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)

    def test_taxonomy(self):
        transient = RetryPolicy.is_transient
        assert transient(InjectedFault("s", None))
        assert transient(InjectedIOError("s", None))
        assert transient(OSError("disk"))
        assert transient(TimeoutError())
        assert not transient(ValueError("bad config"))
        assert not transient(TypeError())
        assert not transient(KeyError("k"))
        assert not transient(AssertionError())

    def test_permanent_wins_over_transient_base(self):
        class Weird(OSError, ValueError):
            pass

        assert not RetryPolicy.is_transient(Weird())

    def test_build_error_classified_by_cause(self):
        transient = ArtifactBuildError("acm", OSError("flaky"))
        transient.__cause__ = OSError("flaky")
        permanent = ArtifactBuildError("acm", ValueError("no such dataset"))
        permanent.__cause__ = ValueError("no such dataset")
        assert RetryPolicy.is_transient(transient)
        assert not RetryPolicy.is_transient(permanent)

    def test_should_retry_honors_budget(self):
        policy = RetryPolicy(max_attempts=3)
        exc = InjectedFault("s", None)
        assert policy.should_retry(exc, 1)
        assert policy.should_retry(exc, 2)
        assert not policy.should_retry(exc, 3)
        assert not policy.should_retry(ValueError(), 1)

    def test_delay_zero_base_never_sleeps(self):
        assert RetryPolicy(max_attempts=3).delay_s(1) == 0.0

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_delay_s=0.1,
            backoff_factor=2.0,
            max_delay_s=0.4,
            jitter=0.1,
        )
        delays = [
            policy.delay_s(a, seed=7, token="t4|rgcn|acm") for a in (1, 2, 3, 4)
        ]
        assert delays == [
            policy.delay_s(a, seed=7, token="t4|rgcn|acm") for a in (1, 2, 3, 4)
        ]
        for attempt, delay in enumerate(delays, start=1):
            base = min(0.1 * 2.0 ** (attempt - 1), 0.4)
            assert base <= delay <= base * 1.1
        # Distinct cells draw distinct jitter: no thundering herd.
        assert policy.delay_s(1, seed=7, token="a") != policy.delay_s(
            1, seed=7, token="b"
        )


class TestCellFailure:
    def test_from_exception_captures_everything(self):
        try:
            raise InjectedFault("platform.simulate", ("t4", "rgcn", "acm"))
        except InjectedFault as exc:
            failure = CellFailure.from_exception(
                ("t4", "rgcn", "acm"), exc, attempts=2, elapsed_s=0.5
            )
        assert failure.key == ("t4", "rgcn", "acm")
        assert failure.error_type == "repro.faults.errors.InjectedFault"
        assert "platform.simulate" in failure.message
        assert "InjectedFault" in failure.traceback
        assert failure.attempts == 2
        assert failure.elapsed_s == 0.5

    def test_builtin_errors_keep_short_names(self):
        failure = CellFailure.from_exception(
            ("t4", "rgcn", "acm"), ValueError("bad")
        )
        assert failure.error_type == "ValueError"

    def test_dict_round_trip(self):
        failure = CellFailure.from_exception(
            ("t4", "rgcn", "acm"), OSError("disk"), attempts=3, elapsed_s=1.25
        )
        assert CellFailure.from_dict(failure.to_dict()) == failure


class TestRunCellIsolation:
    def test_collect_returns_typed_failure(self):
        runner = tiny_runner()
        with FaultPlan([FaultRule("platform.simulate")]):
            outcome = runner.run_cell(
                "t4", "rgcn", TINY, on_error="collect"
            )
        assert isinstance(outcome, CellFailure)
        assert outcome.key == ("t4", "rgcn", TINY)
        assert outcome.attempts == 1
        assert outcome.elapsed_s >= 0.0

    def test_raise_mode_raises(self):
        runner = tiny_runner()
        with FaultPlan([FaultRule("platform.simulate")]):
            with pytest.raises(InjectedFault):
                runner.run_cell("t4", "rgcn", TINY)

    def test_retry_cures_a_budgeted_fault(self):
        runner = tiny_runner()
        plan = FaultPlan([FaultRule("platform.simulate", times=1)])
        with plan:
            report = runner.run_cell(
                "t4", "rgcn", TINY, retry=RetryPolicy(max_attempts=2)
            )
        assert plan.fired == 1
        assert report is not None and not isinstance(report, CellFailure)

    def test_exhausted_retries_record_attempt_count(self):
        runner = tiny_runner()
        with FaultPlan([FaultRule("platform.simulate")]):
            outcome = runner.run_cell(
                "t4",
                "rgcn",
                TINY,
                retry=RetryPolicy(max_attempts=3),
                on_error="collect",
            )
        assert isinstance(outcome, CellFailure)
        assert outcome.attempts == 3

    def test_permanent_errors_never_retry(self):
        runner = tiny_runner()
        outcome = runner.run_cell(
            "t4",
            "rgcn",
            "no-such-dataset",
            retry=RetryPolicy(max_attempts=5),
            on_error="collect",
        )
        assert isinstance(outcome, CellFailure)
        assert outcome.error_type == "ValueError"
        assert outcome.attempts == 1  # a generous retry budget is unused

    def test_failures_are_not_memoized(self):
        runner = tiny_runner()
        with FaultPlan([FaultRule("platform.simulate", times=1)]):
            outcome = runner.run_cell("t4", "rgcn", TINY, on_error="collect")
        assert isinstance(outcome, CellFailure)
        report = runner.run_cell("t4", "rgcn", TINY)  # fresh, fault-free
        assert not isinstance(report, CellFailure)
        assert ("t4", "rgcn", TINY) in runner.results

    def test_unknown_platform_is_a_config_error_even_in_collect(self):
        runner = tiny_runner()
        with pytest.raises(ValueError, match="platform"):
            runner.run_cell("warp-drive", "rgcn", TINY, on_error="collect")

    def test_on_error_validated(self):
        runner = tiny_runner()
        with pytest.raises(ValueError, match="on_error"):
            runner.run_cell("t4", "rgcn", TINY, on_error="ignore")
        with pytest.raises(ValueError, match="on_error"):
            next(runner.run_cells([("t4", "rgcn", TINY)], on_error="ignore"))
        with pytest.raises(ValueError, match="errors"):
            runner.warm_artifacts([TINY], errors="ignore")


class TestWarmArtifacts:
    def test_raise_mode_names_the_dataset_serial(self):
        runner = tiny_runner()
        with pytest.raises(ArtifactBuildError, match="no-such-dataset"):
            runner.warm_artifacts([TINY, "no-such-dataset"])
        assert TINY in runner._artifacts  # the good one still built

    def test_raise_mode_names_the_dataset_parallel(self):
        """The historical bug: a pooled build surfaced an anonymous
        worker exception instead of naming the offending dataset."""
        runner = tiny_runner()
        with pytest.raises(ArtifactBuildError) as excinfo:
            runner.warm_artifacts(
                [TINY, "no-such-dataset", TINY2], jobs=3
            )
        assert excinfo.value.dataset == "no-such-dataset"
        assert "no-such-dataset" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_first_failure_in_dataset_order_wins(self):
        runner = tiny_runner()
        with pytest.raises(ArtifactBuildError) as excinfo:
            runner.warm_artifacts(["bad-a", TINY, "bad-b"], jobs=3)
        assert excinfo.value.dataset == "bad-a"

    def test_collect_mode_returns_failure_map(self):
        runner = tiny_runner()
        failures = runner.warm_artifacts(
            [TINY, "no-such-dataset"], errors="collect"
        )
        assert set(failures) == {"no-such-dataset"}
        assert isinstance(failures["no-such-dataset"], ValueError)


class TestRunCellsIsolation:
    def test_one_bad_dataset_costs_only_its_cells(self):
        runner = tiny_runner()
        grid = fan_out(runner, (TINY, "no-such-dataset"), on_error="collect")
        assert len(grid) == 2
        good = grid[("t4", "rgcn", TINY)]
        bad = grid[("t4", "rgcn", "no-such-dataset")]
        assert not isinstance(good, CellFailure)
        assert isinstance(bad, CellFailure)
        assert bad.error_type == "ValueError"

    def test_injected_faults_isolate_per_cell(self):
        runner = tiny_runner()
        plan = FaultPlan(
            [FaultRule("platform.simulate", match=TINY2)]
        )
        with plan:
            grid = fan_out(runner, (TINY, TINY2), on_error="collect")
        assert not isinstance(grid[("t4", "rgcn", TINY)], CellFailure)
        assert isinstance(grid[("t4", "rgcn", TINY2)], CellFailure)
        assert plan.fired_at("platform.simulate") >= 1

    def test_raise_mode_still_fails_fast(self):
        runner = tiny_runner()
        with FaultPlan([FaultRule("platform.simulate")]):
            with pytest.raises(InjectedFault):
                fan_out(runner, (TINY,))
