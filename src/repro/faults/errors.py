"""The injected-fault exception taxonomy.

Injected faults model *transient* infrastructure failures — the kind a
retry can cure (a flaky disk read, a briefly unavailable store shard,
a worker killed mid-simulation). They are deliberately distinct from
validation errors (``ValueError`` and friends), which are permanent:
retrying a misspelled dataset name can never succeed. Retry policies
(:class:`repro.platforms.failures.RetryPolicy`) encode exactly this
split — injected faults and OS-level I/O errors are retryable, value
errors never are.
"""

from __future__ import annotations

__all__ = ["InjectedFault", "InjectedIOError", "InjectedLatency"]


class InjectedFault(RuntimeError):
    """A deterministic failure raised by an armed :class:`FaultPlan`.

    Carries the injection ``site`` (e.g. ``"platform.simulate"``) and
    the ``key`` the library passed to :func:`repro.faults.inject`, so
    failure reports name exactly which operation was hit.
    """

    def __init__(
        self, site: str, key: object = None, message: str | None = None
    ) -> None:
        self.site = site
        self.key = key
        if message is None:
            message = f"injected fault at {site!r}"
            if key is not None:
                message += f" (key={key!r})"
        super().__init__(message)

    def __reduce__(
        self,
    ) -> tuple[type["InjectedFault"], tuple[str, object, str]]:
        # Rebuild from the constructor's own arguments: the default
        # (type, args) reduction would pass the formatted message as
        # ``site`` and wrap it a second time in the pool's parent.
        return (type(self), (self.site, self.key, str(self)))


class InjectedIOError(InjectedFault, OSError):
    """An injected I/O failure (store read/write, artifact spill).

    Inherits :class:`OSError` so code with genuine OS-error handling
    (e.g. the store's read-error path) treats it like the real thing.
    """


class InjectedLatency(InjectedFault):
    """Marker for latency injections that exceeded a site's deadline.

    Latency injections normally just ``sleep`` and return; this type
    exists so sites that enforce deadlines can convert a too-long
    injected stall into a typed, retryable failure.
    """
