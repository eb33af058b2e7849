"""Fault-injection framework: rules, arming, deterministic schedules."""

import multiprocessing
import pickle

import pytest

from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    InjectedIOError,
    InjectedLatency,
    active_plan,
    arm,
    disarm,
    inject,
    inject_bytes,
)
from repro.faults.plan import EXIT_STATUS


@pytest.fixture(autouse=True)
def clean_slate():
    """No test may leak an armed plan into the next one."""
    disarm()
    yield
    disarm()


class TestFaultRule:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule("store.load", action="explode")

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule("store.load", rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultRule("store.load", rate=-0.1)

    def test_rejects_negative_budget_and_latency(self):
        with pytest.raises(ValueError, match="times"):
            FaultRule("store.load", times=-1)
        with pytest.raises(ValueError, match="latency_s"):
            FaultRule("store.load", action="latency", latency_s=-0.5)

    def test_site_pattern_is_fnmatch(self):
        rule = FaultRule("store.*")
        assert rule.applies("store.load", None)
        assert rule.applies("store.save.bytes", None)
        assert not rule.applies("platform.simulate", None)

    def test_match_filters_on_key_text(self):
        rule = FaultRule("platform.simulate", match="acm")
        assert rule.applies("platform.simulate", ("t4", "rgcn", "acm"))
        assert not rule.applies("platform.simulate", ("t4", "rgcn", "imdb"))


class TestArming:
    def test_inject_is_a_noop_without_a_plan(self):
        assert active_plan() is None
        inject("store.load", key="k")  # must not raise
        assert inject_bytes("store.load.bytes", b"data", key="k") == b"data"

    def test_context_manager_arms_and_disarms(self):
        plan = FaultPlan()
        with plan:
            assert active_plan() is plan
        assert active_plan() is None

    def test_second_plan_cannot_shadow_the_first(self):
        with FaultPlan():
            with pytest.raises(RuntimeError, match="already armed"):
                arm(FaultPlan())

    def test_disarm_checks_ownership(self):
        plan = arm(FaultPlan())
        with pytest.raises(RuntimeError, match="not armed"):
            disarm(FaultPlan())
        disarm(plan)
        disarm()  # idempotent

    def test_rearming_same_plan_is_fine(self):
        plan = arm(FaultPlan())
        assert arm(plan) is plan
        disarm(plan)


class TestSchedule:
    def test_error_and_io_error_actions(self):
        with FaultPlan([FaultRule("a.site", action="error", times=1)]):
            with pytest.raises(InjectedFault):
                inject("a.site")
        with FaultPlan([FaultRule("a.site", action="io-error", times=1)]) as plan:
            with pytest.raises(InjectedIOError) as excinfo:
                inject("a.site", key="k1")
            assert isinstance(excinfo.value, OSError)
            assert plan.fired == 1

    def test_budget_is_respected(self):
        plan = FaultPlan([FaultRule("s", times=2)])
        with plan:
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    inject("s")
            inject("s")  # budget exhausted: clean
            inject("s")
        assert plan.fired == 2

    def test_rate_schedule_is_deterministic(self):
        def fired_calls(seed):
            plan = FaultPlan([FaultRule("s", rate=0.5)], seed=seed)
            hits = []
            with plan:
                for n in range(64):
                    try:
                        inject("s", key="k")
                    except InjectedFault:
                        hits.append(n)
            return hits

        first = fired_calls(seed=11)
        assert fired_calls(seed=11) == first
        assert 0 < len(first) < 64  # rate=0.5 really is partial
        assert fired_calls(seed=12) != first

    def test_per_key_counters_are_independent(self):
        """A key's schedule never depends on other keys' call counts."""

        def schedule(interleaved):
            plan = FaultPlan([FaultRule("s", rate=0.4)], seed=3)
            hits = []
            with plan:
                for n in range(32):
                    if interleaved:
                        try:
                            inject("s", key="other")
                        except InjectedFault:
                            pass
                    try:
                        inject("s", key="mine")
                    except InjectedFault:
                        hits.append(n)
            return hits

        assert schedule(interleaved=False) == schedule(interleaved=True)

    def test_log_records_and_reset_replays(self):
        plan = FaultPlan([FaultRule("s", times=1)], seed=5)
        with plan:
            with pytest.raises(InjectedFault):
                inject("s", key="k")
            inject("s", key="k")
        entry = plan.log[0]
        assert (entry.site, entry.action, entry.call_index) == ("s", "error", 0)
        assert plan.fired_at("s") == 1
        plan.reset()
        assert plan.fired == 0
        with plan:
            with pytest.raises(InjectedFault):  # schedule replays
                inject("s", key="k")


class TestByteCorruption:
    def test_corruption_is_deterministic(self):
        data = bytes(range(64))

        def corrupt(seed):
            plan = FaultPlan([FaultRule("b", action="corrupt")], seed=seed)
            with plan:
                return inject_bytes("b", data, key="k")

        first = corrupt(seed=9)
        assert first != data
        assert corrupt(seed=9) == first

    def test_alternates_bitflip_and_truncation(self):
        data = bytes(range(64))
        plan = FaultPlan([FaultRule("b", action="corrupt")])
        with plan:
            flipped = inject_bytes("b", data, key="k")
            torn = inject_bytes("b", data, key="k")
        assert len(flipped) == len(data)
        assert sum(a != b for a, b in zip(flipped, data)) == 1
        assert len(torn) < len(data)
        assert data.startswith(torn)

    def test_empty_payload_passes_through(self):
        with FaultPlan([FaultRule("b", action="corrupt")]):
            assert inject_bytes("b", b"", key="k") == b""

    def test_corrupt_rules_never_fire_at_error_sites(self):
        """inject() consults error/latency rules only; corrupt rules
        stay reserved for the byte hooks."""
        plan = FaultPlan([FaultRule("s", action="corrupt")])
        with plan:
            inject("s", key="k")  # must not raise
        assert plan.fired == 0


def _inject_exit() -> None:
    arm(FaultPlan([FaultRule("s", action="exit")]))
    inject("s", key="k")


class TestExitAction:
    def test_raises_in_the_main_process(self):
        """Never kills the caller: outside a worker it is an error."""
        plan = FaultPlan([FaultRule("s", action="exit", times=1)])
        with plan:
            with pytest.raises(InjectedFault) as excinfo:
                inject("s", key="k")
        assert type(excinfo.value) is InjectedFault
        assert plan.fired_at("s") == 1

    def test_ends_a_worker_process(self):
        process = multiprocessing.get_context("fork").Process(
            target=_inject_exit
        )
        process.start()
        process.join(timeout=60)
        assert process.exitcode == EXIT_STATUS


class TestPickling:
    """Injected faults cross the process-pool boundary unchanged."""

    @pytest.mark.parametrize(
        "error", [InjectedFault, InjectedIOError, InjectedLatency]
    )
    @pytest.mark.parametrize("key", [None, ("t4", "rgcn", "acm")])
    def test_round_trip(self, error, key):
        original = error("platform.simulate", key)
        copy = pickle.loads(pickle.dumps(original))
        assert type(copy) is error
        assert str(copy) == str(original)
        assert (copy.site, copy.key) == ("platform.simulate", key)

    def test_custom_message_survives(self):
        copy = pickle.loads(pickle.dumps(InjectedFault("s", "k", "boom")))
        assert (str(copy), copy.site, copy.key) == ("boom", "s", "k")
