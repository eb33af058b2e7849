"""Extensible execution platforms for the evaluation grid.

This package decouples *what* the evaluation runs (platforms named in
a registry) from *how* it runs (a parallel grid runner, plus the
persistent artifact store that :class:`~repro.api.Session` keeps):

- :mod:`repro.platforms.base` -- the :class:`Platform` protocol
  (``prepare`` / ``simulate``) and the shared-topology artifact type.
- :mod:`repro.platforms.registry` -- ``@register_platform("name")``
  and lookup helpers. The four paper platforms register from the
  layers owning their simulators.
- :mod:`repro.platforms.runner` -- :class:`GridRunner`, the
  ``concurrent.futures`` executor of platform x model x dataset cells.
- :mod:`repro.platforms.store` -- :class:`ArtifactStore`,
  content-addressed on-disk report caching keyed by platform, model,
  dataset, configuration digest and code version.
"""

from repro.platforms.base import DatasetArtifacts, Platform, PlatformContext
from repro.platforms.failures import (
    ArtifactBuildError,
    CellFailure,
    RetryPolicy,
)
from repro.platforms.registry import (
    create_platform,
    get_platform_class,
    platform_names,
    register_platform,
    unregister_platform,
)
from repro.platforms.runner import GridRunner
from repro.platforms.store import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    StoreStats,
    config_digest,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "Platform",
    "PlatformContext",
    "DatasetArtifacts",
    "ArtifactBuildError",
    "CellFailure",
    "RetryPolicy",
    "register_platform",
    "unregister_platform",
    "create_platform",
    "get_platform_class",
    "platform_names",
    "GridRunner",
    "ArtifactStore",
    "StoreStats",
    "config_digest",
]
