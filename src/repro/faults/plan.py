"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a process-wide schedule of failures: a list of
:class:`FaultRule` entries, each naming an injection *site* (a string
like ``"store.load"``), an action (raise an error, sleep, corrupt
bytes, end a pool worker), a firing rate and an optional firing
budget. Library code consults the plan through two cheap hooks:

- :func:`inject` — may raise :class:`~repro.faults.errors.InjectedFault`,
  sleep or end a pool worker; a no-op when no plan is armed (one
  global ``None`` check).
- :func:`inject_bytes` — may return a deterministically corrupted copy
  of a byte payload (for write/read corruption sites).

Determinism: whether the *n*-th call of a given ``(site, key)`` pair
fires is a pure function of ``(plan seed, rule, site, key, n)`` — a
SHA-256 draw, no global RNG state — so a fault schedule replays
bit-identically across runs and processes. Per-key call counters make
the schedule independent of how calls for *different* keys interleave
across threads.

Sites instrumented by the library:

========================  ====================================================
site                      where
========================  ====================================================
``store.load``            :meth:`ArtifactStore.load` entry (I/O error → miss)
``store.load.bytes``      bytes read back from disk (corruption → quarantine)
``store.save``            :meth:`ArtifactStore.save` entry (I/O error raised)
``store.save.bytes``      payload bytes before write (checksum catches it)
``workload.build``        :meth:`GridRunner.graph` / artifact construction
``platform.simulate``     :meth:`GridRunner.run_cell` simulation body
``shm.publish``           :meth:`ArtifactSegment.create` before the segment
                          is allocated (I/O error → publish fails)
``shm.attach``            :class:`AttachedSegment` attach in the worker
                          (I/O error → cell fails, isolation applies)
``service.accept``        :class:`ReproServer` request handling after the
                          request parses (error → typed 500, connection
                          closes, server stays up)
``service.stream``        before each NDJSON line of a ``/run`` stream
                          (error → stream aborts mid-flight, the client's
                          tickets detach, other clients are unaffected)
========================  ====================================================
"""

from __future__ import annotations

import fnmatch
import hashlib
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field

from repro.faults.errors import InjectedFault, InjectedIOError

__all__ = [
    "FaultRule",
    "FaultPlan",
    "Injection",
    "inject",
    "inject_bytes",
    "arm",
    "disarm",
    "active_plan",
]

_ACTIONS = ("error", "io-error", "latency", "corrupt", "exit")

#: Exit status of a worker ended by an ``"exit"`` rule.
EXIT_STATUS = 70


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule.

    Attributes:
        site: injection site, matched with :func:`fnmatch.fnmatch`
            (``"store.*"`` hits every store site).
        action: ``"error"`` raises :class:`InjectedFault`,
            ``"io-error"`` raises :class:`InjectedIOError`,
            ``"latency"`` sleeps ``latency_s``, ``"corrupt"`` mutates
            bytes at ``inject_bytes`` sites (ignored elsewhere).
            ``"exit"`` ends a process-pool worker (any process
            :mod:`multiprocessing` started) on the spot with
            ``os._exit`` (no cleanup, no exception — a real worker
            death); in the main process, which must never die of a
            fault plan, it raises :class:`InjectedFault` instead.
        rate: per-call firing probability in ``[0, 1]`` (drawn
            deterministically from the plan seed).
        times: total firing budget of this rule (``None`` = unlimited).
            ``times=1`` models a fault one retry cures.
        match: only fire when ``str(key)`` contains this substring.
        latency_s: sleep duration for ``"latency"`` rules.
    """

    site: str
    action: str = "error"
    rate: float = 1.0
    times: int | None = None
    match: str | None = None
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {_ACTIONS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")

    def applies(self, site: str, key: object) -> bool:
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        return self.match is None or self.match in str(key)


@dataclass(frozen=True)
class Injection:
    """One fired injection (recorded in :attr:`FaultPlan.log`)."""

    site: str
    key: object
    action: str
    rule_index: int
    call_index: int


def _draw(seed: int, rule_index: int, site: str, key: object, n: int) -> float:
    """Uniform [0, 1) draw, a pure function of its arguments."""
    token = f"{seed}|{rule_index}|{site}|{key!r}|{n}".encode()
    raw = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
    return raw / float(1 << 64)


@dataclass
class FaultPlan:
    """A reproducible process-wide schedule of injected failures.

    Use as a context manager to arm it::

        plan = FaultPlan([FaultRule("platform.simulate", times=1)], seed=7)
        with plan:
            session.run(spec, on_error="collect")
        assert plan.fired  # the schedule really hit

    Thread-safe: per-``(site, key)`` call counters are kept under a
    lock, and firing decisions depend only on the counter value, never
    on cross-key interleaving.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    log: list[Injection] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        self._lock = threading.Lock()
        self._calls: dict[tuple[str, str], int] = {}
        self._fired: dict[int, int] = {}

    # -- bookkeeping ---------------------------------------------------

    @property
    def fired(self) -> int:
        """Total number of injections performed so far."""
        with self._lock:
            return len(self.log)

    def fired_at(self, site: str) -> int:
        """How many injections hit one site."""
        with self._lock:
            return sum(1 for entry in self.log if entry.site == site)

    def reset(self) -> None:
        """Forget all counters and the log (replays the schedule)."""
        with self._lock:
            self.log.clear()
            self._calls.clear()
            self._fired.clear()

    def _select(
        self, site: str, key: object, *, actions: tuple[str, ...]
    ) -> "FaultRule | None":
        """The first rule that fires for this call, or None (locked)."""
        with self._lock:
            counter_key = (site, repr(key))
            n = self._calls.get(counter_key, 0)
            self._calls[counter_key] = n + 1
            for index, rule in enumerate(self.rules):
                if rule.action not in actions or not rule.applies(site, key):
                    continue
                budget = self._fired.get(index, 0)
                if rule.times is not None and budget >= rule.times:
                    continue
                if rule.rate < 1.0 and _draw(
                    self.seed, index, site, key, n
                ) >= rule.rate:
                    continue
                self._fired[index] = budget + 1
                entry = Injection(site, key, rule.action, index, n)
                self.log.append(entry)
                return rule
        return None

    # -- the two hook entry points -------------------------------------

    def perform(self, site: str, key: object) -> None:
        """Apply the first matching error/latency/exit rule, if any fires."""
        rule = self._select(
            site, key, actions=("error", "io-error", "latency", "exit")
        )
        if rule is None:
            return
        if rule.action == "latency":
            time.sleep(rule.latency_s)
            return
        if rule.action == "io-error":
            raise InjectedIOError(site, key)
        if rule.action == "exit" and multiprocessing.parent_process():
            os._exit(EXIT_STATUS)
        raise InjectedFault(site, key)

    def perform_bytes(self, site: str, data: bytes, key: object) -> bytes:
        """Apply the first matching ``corrupt`` rule to a byte payload.

        Corruption is deterministic: one byte (position drawn from the
        plan seed) is XOR-flipped, and the payload is truncated at
        that point on every second firing — covering both bit-rot and
        torn-write shapes.
        """
        rule = self._select(site, key, actions=("corrupt",))
        if rule is None or not data:
            return data
        entry = self.log[-1]
        position = int(
            _draw(self.seed, entry.rule_index, site, key, entry.call_index)
            * len(data)
        ) % len(data)
        if entry.call_index % 2:
            return data[:position]  # torn write / short read
        mutated = bytearray(data)
        mutated[position] ^= 0xFF
        return bytes(mutated)

    # -- arming --------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        arm(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        disarm(self)


#: The armed plan. Read without a lock on every inject() call: arming
#: is rare, reads are hot, and a stale read only shifts *when* the
#: plan takes effect by one call.
_active: FaultPlan | None = None
_arm_lock = threading.Lock()


def active_plan() -> FaultPlan | None:
    """The currently armed plan, or ``None``."""
    return _active


def arm(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide fault schedule (one at a time)."""
    global _active
    with _arm_lock:
        if _active is not None and _active is not plan:
            raise RuntimeError(
                "a FaultPlan is already armed; disarm it first"
            )
        _active = plan
    return plan


def disarm(plan: FaultPlan | None = None) -> None:
    """Remove the armed plan (idempotent).

    Passing the plan asserts you are disarming the one you armed.
    """
    global _active
    with _arm_lock:
        if plan is not None and _active is not None and _active is not plan:
            raise RuntimeError("disarm() called with a plan that is not armed")
        _active = None


def inject(site: str, *, key: object = None) -> None:
    """Fault-injection hook: free when no plan is armed.

    May raise :class:`InjectedFault`/:class:`InjectedIOError`, sleep or
    (``"exit"``, in a pool worker only) end the process, according to
    the armed plan's matching rules.
    """
    plan = _active
    if plan is None:
        return
    plan.perform(site, key)


def inject_bytes(site: str, data: bytes, *, key: object = None) -> bytes:
    """Byte-corruption hook: returns ``data`` unchanged without a plan."""
    plan = _active
    if plan is None:
        return data
    return plan.perform_bytes(site, data, key)
