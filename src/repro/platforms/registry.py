"""Decorator-based platform registry.

Adding a platform to the whole evaluation stack (suite, CLI,
benchmarks, artifact store) is one decorator on one class::

    from repro.platforms import Platform, register_platform

    @register_platform("a100-2x")
    class DoubledA100(GPUPlatform):
        gpu_config = dataclasses.replace(A100, mem_bw_gbps=3110.0)

The four paper platforms register themselves from the layers that own
their simulators (:mod:`repro.gpu.platform`,
:mod:`repro.accelerator.platform`, :mod:`repro.frontend.platform`);
those modules are imported lazily on first lookup so importing
:mod:`repro.platforms` stays cheap.
"""

from __future__ import annotations

from repro.platforms.base import Platform, PlatformContext

__all__ = [
    "register_platform",
    "unregister_platform",
    "get_platform_class",
    "create_platform",
    "platform_names",
]

_REGISTRY: dict[str, type[Platform]] = {}
_builtins_loaded = False

#: Adapter modules of the paper platforms; their own register_platform
#: calls must not recurse into _ensure_builtins mid-import.
_BUILTIN_MODULES = (
    "repro.gpu.platform",  # registers t4, a100
    "repro.accelerator.platform",  # registers hihgnn
    "repro.frontend.platform",  # registers hihgnn+gdr
)


def _ensure_builtins() -> None:
    """Import the adapter modules of the four paper platforms once."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    import importlib

    # The flag is only set once all three imports succeed, so a failure
    # surfaces again on the next lookup instead of leaving a silently
    # partial registry.
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Whoever imported an adapter first, the builtins come first and in
    # _BUILTIN_MODULES order, which fixes the report-column order; the
    # sort is stable, so t4 stays ahead of a100 and user platforms
    # (registered only once the builtins are loaded) keep theirs.
    rank = {module: i for i, module in enumerate(_BUILTIN_MODULES)}
    ordered = sorted(
        _REGISTRY.items(),
        key=lambda item: rank.get(item[1].__module__, len(rank)),
    )
    _REGISTRY.clear()
    _REGISTRY.update(ordered)
    _builtins_loaded = True


def register_platform(name: str):
    """Class decorator registering a :class:`Platform` subclass."""

    def decorator(cls: type[Platform]) -> type[Platform]:
        # Load the builtin entries first so registering over a builtin
        # name collides here, at the user's decorator, rather than
        # poisoning the registry for every later lookup. Builtin
        # adapters skip this (they register during that very load).
        if cls.__module__ not in _BUILTIN_MODULES:
            _ensure_builtins()
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(
                f"platform {name!r} is already registered "
                f"(by {_REGISTRY[key].__qualname__})"
            )
        if not (isinstance(cls, type) and issubclass(cls, Platform)):
            raise TypeError(
                f"@register_platform({name!r}) needs a Platform subclass, "
                f"got {cls!r}"
            )
        cls.name = key
        _REGISTRY[key] = cls
        return cls

    return decorator


def unregister_platform(name: str) -> None:
    """Remove a registered platform (experiment/test cleanup)."""
    _REGISTRY.pop(name.lower(), None)


def platform_names() -> tuple[str, ...]:
    """All registered platform names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def get_platform_class(name: str) -> type[Platform]:
    """Look up a platform class; raises ``ValueError`` when unknown."""
    _ensure_builtins()
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ValueError(f"unknown platform {name!r}; known: {known}") from None


def create_platform(
    name: str, context: PlatformContext | None = None
) -> Platform:
    """Instantiate a registered platform with the given configuration."""
    return get_platform_class(name)(context)
