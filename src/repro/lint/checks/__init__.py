"""Built-in repo-invariant checkers.

Importing this package registers every built-in rule (the modules
self-register via :func:`repro.lint.register_check` at import time,
exactly like the platform and scenario registries).
"""

from __future__ import annotations

from repro.lint.checks import (  # noqa: F401  (registration side effect)
    determinism,
    fault_sites,
    lifecycle,
    lock_order,
    loop_affinity,
    parity,
    picklability,
    shared_state,
    transitive_blocking,
)

__all__ = [
    "determinism",
    "fault_sites",
    "lifecycle",
    "lock_order",
    "loop_affinity",
    "parity",
    "picklability",
    "shared_state",
    "transitive_blocking",
]
