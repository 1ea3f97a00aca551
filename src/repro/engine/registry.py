"""String-keyed backend table for the engine facade.

The engine serves two backends, each described by a :class:`BackendSpec`:
``cinct`` (the paper's index, monolithic) and ``partitioned-cinct`` (CiNCT
partitions grown as an LSM).  A spec names the backend, declares what it can
do (so the facade can reject unsupported queries with a uniform error), and
provides the two callables the engine and the persistence layer dispatch
through:

* ``factory(trajectories, config)`` builds a fresh
  :class:`~repro.engine.backends.EngineBackend` from raw edge trajectories;
* ``loader(directory, meta, config, alphabet, mmap)`` restores one from the
  state a previous :meth:`~repro.engine.backends.EngineBackend.save_state`
  call wrote to disk.

The CLI and the contract test suites enumerate :func:`available_backends`
instead of hard-coding the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from ..exceptions import ConstructionError
from .backends import CiNCTBackend, PartitionedBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backends import EngineBackend
    from .config import EngineConfig

BackendFactory = Callable[[Sequence[Sequence[Hashable]], "EngineConfig"], "EngineBackend"]
#: ``loader(directory, meta, config, alphabet, mmap=False)`` — restores a backend.
BackendLoader = Callable[..., "EngineBackend"]


@dataclass(frozen=True)
class BackendSpec:
    """Table entry describing one index backend.

    Attributes
    ----------
    name:
        Canonical key (lower-case, e.g. ``"partitioned-cinct"``).
    display_name:
        Human-readable name used in CLI output (``"CiNCT-Part"``).
    factory, loader:
        Build / reload callables dispatched by the engine and persistence
        layers (see the module docstring).
    aliases:
        Extra accepted spellings (matched case-insensitively).
    supports_extract, supports_growth:
        Capability flags: whether the backend can extract sub-paths by BWT
        row, and grow via :meth:`~repro.engine.TrajectoryEngine.add_batch`.
    """

    name: str
    display_name: str
    factory: BackendFactory
    loader: BackendLoader
    aliases: tuple[str, ...] = ()
    supports_extract: bool = True
    supports_growth: bool = False


_SPECS = (
    BackendSpec(
        name="cinct",
        display_name="CiNCT",
        factory=CiNCTBackend.build,
        loader=CiNCTBackend.load,
    ),
    BackendSpec(
        name="partitioned-cinct",
        display_name="CiNCT-Part",
        factory=PartitionedBackend.build,
        loader=PartitionedBackend.load,
        aliases=("partitioned",),
        supports_extract=False,
        supports_growth=True,
    ),
)


def _normalise(name: str) -> str:
    return str(name).strip().lower()


_BY_NAME = {
    _normalise(spelling): spec
    for spec in _SPECS
    for spelling in (spec.name, spec.display_name, *spec.aliases)
}


def backend_spec(name: str) -> BackendSpec:
    """Look up a backend by key, display name or alias (case-insensitive)."""
    try:
        return _BY_NAME[_normalise(name)]
    except KeyError:
        raise ConstructionError(
            f"unknown index backend: {name!r} (available: {', '.join(available_backends())})"
        ) from None


def available_backends() -> list[str]:
    """Canonical keys of both backends, in a fixed (alphabetical) order."""
    return [spec.name for spec in _SPECS]


__all__ = [
    "BackendSpec",
    "backend_spec",
    "available_backends",
]
