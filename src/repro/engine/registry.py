"""String-keyed backend registry for the engine facade.

Every index implementation in the repository registers itself here as a
:class:`BackendSpec`.  The spec names the backend, declares its capabilities
(so the facade can reject unsupported queries with a uniform error), and
provides two callables the engine and the persistence layer dispatch through:

* ``factory(trajectories, config)`` builds a fresh
  :class:`~repro.engine.backends.EngineBackend` from raw edge trajectories;
* ``loader(directory, meta, config, alphabet, mmap)`` restores one from the
  state a previous :meth:`~repro.engine.backends.EngineBackend.save_state`
  call wrote to disk.

Third-party backends can join the registry with :func:`register_backend`; the
CLI, the comparison harness and the contract test suite all enumerate
:func:`available_backends` instead of hard-coding variant lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from ..exceptions import ConstructionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .backends import EngineBackend
    from .config import EngineConfig

BackendFactory = Callable[[Sequence[Sequence[Hashable]], "EngineConfig"], "EngineBackend"]
#: ``loader(directory, meta, config, alphabet, mmap=False)`` — restores a backend.
BackendLoader = Callable[..., "EngineBackend"]


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry describing one index backend.

    Attributes
    ----------
    name:
        Canonical registry key (lower-case, e.g. ``"icb-huff"``).
    display_name:
        Human-readable name used in tables and CLI output (``"ICB-Huff"``).
    factory, loader:
        Build / reload callables dispatched by the engine and persistence
        layers (see the module docstring).
    description:
        One-line summary shown by ``repro-cinct compare`` documentation.
    aliases:
        Extra accepted spellings (matched case-insensitively).
    supports_locate, supports_extract, supports_growth:
        Capability flags: whether the backend can report occurrence positions
        (and therefore answer strict-path queries), extract sub-paths by BWT
        row, and grow via :meth:`~repro.engine.TrajectoryEngine.add_batch`.
    """

    name: str
    display_name: str
    factory: BackendFactory
    loader: BackendLoader
    description: str = ""
    aliases: tuple[str, ...] = ()
    supports_locate: bool = True
    supports_extract: bool = True
    supports_growth: bool = False


_REGISTRY: dict[str, BackendSpec] = {}
_ALIASES: dict[str, str] = {}


def _normalise(name: str) -> str:
    return str(name).strip().lower()


def register_backend(spec: BackendSpec, replace: bool = False) -> BackendSpec:
    """Add a backend to the registry (``replace=True`` to override an entry)."""
    key = _normalise(spec.name)
    if not key:
        raise ConstructionError("a backend spec needs a non-empty name")
    if not replace and (key in _REGISTRY or key in _ALIASES):
        raise ConstructionError(f"backend {spec.name!r} is already registered")
    _REGISTRY[key] = spec
    for alias in (spec.display_name, *spec.aliases):
        alias_key = _normalise(alias)
        if alias_key != key:
            existing = _ALIASES.get(alias_key)
            if not replace and existing is not None and existing != key:
                raise ConstructionError(
                    f"alias {alias!r} already points at backend {existing!r}"
                )
            _ALIASES[alias_key] = key
    return spec


def backend_spec(name: str) -> BackendSpec:
    """Look up a backend by key, display name or alias (case-insensitive)."""
    key = _normalise(name)
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConstructionError(
            f"unknown index backend: {name!r} (available: {', '.join(available_backends())})"
        ) from None


def available_backends() -> list[str]:
    """Canonical keys of every registered backend, sorted alphabetically.

    The order is deterministic regardless of import/registration order, so
    CLI output, parametrized test IDs and anything else that enumerates the
    registry is stable across runs and processes.
    """
    return sorted(_REGISTRY)


def backend_specs() -> list[BackendSpec]:
    """Every registered spec, in :func:`available_backends` order."""
    return [_REGISTRY[key] for key in available_backends()]


__all__ = [
    "BackendSpec",
    "register_backend",
    "backend_spec",
    "available_backends",
    "backend_specs",
]
