"""Typed per-cell failures and the retry policy that governs them.

The runner's error taxonomy:

- **Transient** failures (injected faults, OS-level I/O errors,
  timeouts) may be retried under a :class:`RetryPolicy` — exponential
  backoff with jitter derived deterministically from the run seed and
  the cell key, so two identical runs retry on identical schedules.
- **Permanent** failures (``ValueError``/``TypeError``/``KeyError``
  from validation, assertion errors) are never retried: re-running a
  misconfigured cell cannot change the outcome.
- Whatever remains after the last attempt is captured as a
  :class:`CellFailure` — cell key, exception class, message, full
  traceback string, attempt count and elapsed time — and surfaces as
  data (``on_error="collect"``) or re-raises (``on_error="raise"``).
"""

from __future__ import annotations

import hashlib
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any

from repro.faults.errors import InjectedFault

__all__ = ["CellFailure", "RetryPolicy", "ArtifactBuildError"]

GridKey = tuple[str, str, str]

#: Exception classes a retry can plausibly cure.
TRANSIENT_EXCEPTIONS: tuple[type[BaseException], ...] = (
    InjectedFault,
    OSError,
    TimeoutError,
    ConnectionError,
)

#: Exception classes that are permanent by contract — validation and
#: programming errors — even when they also match a transient base.
PERMANENT_EXCEPTIONS: tuple[type[BaseException], ...] = (
    ValueError,
    TypeError,
    KeyError,
    AssertionError,
    NotImplementedError,
)


class ArtifactBuildError(RuntimeError):
    """Building one dataset's graph or topology artifacts failed.

    Raised in raise mode by :meth:`GridRunner.warm_artifacts` and by
    :meth:`GridRunner.run_cell` (whose cell builds its dataset on a
    serial run), so a failing build names the offending
    dataset/scenario ref instead of surfacing an anonymous exception.
    The original exception is chained as ``__cause__`` (and consulted
    for transience classification).
    """

    def __init__(self, dataset: str, cause: BaseException):
        self.dataset = dataset
        super().__init__(
            f"building artifacts for dataset {dataset!r} failed: "
            f"{type(cause).__name__}: {cause}"
        )


@dataclass(frozen=True)
class CellFailure:
    """One grid cell's terminal failure, as data.

    ``error_type`` is the exception's qualified class name,
    ``traceback`` the full formatted traceback string, ``attempts``
    how many times the cell ran (1 = no retries), ``elapsed_s`` the
    wall time spent across all attempts.
    """

    platform: str
    model: str
    dataset: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    elapsed_s: float

    @property
    def key(self) -> GridKey:
        return (self.platform, self.model, self.dataset)

    @classmethod
    def from_exception(
        cls,
        key: GridKey,
        exc: BaseException,
        *,
        attempts: int = 1,
        elapsed_s: float = 0.0,
    ) -> "CellFailure":
        tp = type(exc)
        name = tp.__name__
        if tp.__module__ not in ("builtins", "__main__"):
            name = f"{tp.__module__}.{tp.__qualname__}"
        return cls(
            platform=key[0],
            model=key[1],
            dataset=key[2],
            error_type=name,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(tp, exc, exc.__traceback__)
            ),
            attempts=int(attempts),
            elapsed_s=float(elapsed_s),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "platform": self.platform,
            "model": self.model,
            "dataset": self.dataset,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CellFailure":
        return cls(
            platform=str(payload["platform"]),
            model=str(payload["model"]),
            dataset=str(payload["dataset"]),
            error_type=str(payload["error_type"]),
            message=str(payload["message"]),
            traceback=str(payload.get("traceback", "")),
            attempts=int(payload.get("attempts", 1)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) transient cell failures are retried.

    Attributes:
        max_attempts: total tries per cell (1 = no retries).
        base_delay_s: backoff before the first retry; each further
            retry multiplies it by ``backoff_factor`` up to
            ``max_delay_s``.
        backoff_factor: exponential growth factor.
        max_delay_s: backoff ceiling.
        jitter: fractional jitter added to each delay; the jitter
            value is a pure function of ``(seed, cell key, attempt)``
            so retry schedules are reproducible, never synchronized
            across cells.
    """

    max_attempts: int = 1
    base_delay_s: float = 0.0
    backoff_factor: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("retry delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        """Whether a retry could plausibly cure ``exc``.

        Permanent classes win over transient bases (an ``OSError``
        subclass that is also a ``ValueError`` is permanent), and a
        wrapped :class:`ArtifactBuildError` is classified by its
        cause.
        """
        if isinstance(exc, ArtifactBuildError) and exc.__cause__ is not None:
            return RetryPolicy.is_transient(exc.__cause__)
        if isinstance(exc, PERMANENT_EXCEPTIONS):
            return False
        return isinstance(exc, TRANSIENT_EXCEPTIONS)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be retried."""
        return attempt < self.max_attempts and self.is_transient(exc)

    def delay_s(self, attempt: int, *, seed: int = 0, token: str = "") -> float:
        """Backoff before retrying after attempt ``attempt`` (1-based).

        Deterministic: the jitter draw hashes ``(seed, token,
        attempt)``, so a rerun with the same seed sleeps the same
        schedule and distinct cells never thundering-herd in sync.
        """
        if self.base_delay_s == 0.0:
            return 0.0
        delay = min(
            self.base_delay_s * self.backoff_factor ** (attempt - 1),
            self.max_delay_s,
        )
        raw = int.from_bytes(
            hashlib.sha256(f"{seed}|{token}|{attempt}".encode()).digest()[:8],
            "big",
        )
        return delay * (1.0 + self.jitter * (raw / float(1 << 64)))
