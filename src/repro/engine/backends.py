"""Backend adapters: one protocol over every index implementation.

Each adapter wraps one of the repository's index structures — CiNCT, the
partitioned CiNCT, the Table-II FM-index baselines, the linear-scan baseline —
behind the uniform :class:`EngineBackend` surface the
:class:`~repro.engine.TrajectoryEngine` facade drives:

* symbol-level ``count`` / ``contains`` / ``count_many`` (the facade encodes
  raw edge paths before calling in);
* ``locate_matches`` resolving every occurrence to travel-order coordinates
  via the shared :func:`~repro.queries.strict_path.resolve_text_positions`;
* Algorithm-4 ``extract`` where a suffix structure exists;
* ``save_state`` / ``load`` hooks dispatched by the universal persistence
  layer in :mod:`repro.io.index_io`.

The query surface doubles as the execution surface of the staged query
pipeline: :class:`EngineBackend` structurally satisfies the
:class:`~repro.engine.executor.PlanExecutor` protocol, so every adapter here
(and any third-party one) executes canonical query plans without extra code.

Importing this module populates the backend registry.
"""

from __future__ import annotations

import abc
from functools import partial
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from ..core.cinct import CiNCT
from ..core.partitioned import Partition, PartitionedCiNCT, _TierIntervalView
from ..exceptions import EMPTY_INDEX_MESSAGE, ConstructionError, DatasetError, QueryError
from ..fmindex.base import FMIndexBase
from ..fmindex.linear_scan import LinearScanIndex
from ..fmindex.variants import available_baselines, build_baseline
from ..queries.strict_path import resolve_text_positions
from ..strings.alphabet import Alphabet
from ..strings.bwt import BWTResult, burrows_wheeler_transform
from ..strings.trajectory_string import TrajectoryString, build_trajectory_string
from .config import EngineConfig
from .registry import BackendSpec, register_backend

#: ``(trajectory_id, start_edge_index, end_edge_index)`` in travel order.
RawMatch = tuple[int, int, int]


def _cinct_kwargs(config: EngineConfig) -> dict[str, object]:
    """The :class:`~repro.core.cinct.CiNCT` keyword arguments a config selects."""
    return {"labeling_strategy": config.labeling_strategy, "sa_sample_rate": config.sa_sample_rate}


class EngineBackend(abc.ABC):
    """Uniform adapter surface every registered backend implements.

    Capability flags live on the :class:`~repro.engine.registry.BackendSpec`
    (the single source of truth the facade and tests consult); adapters
    enforce them by raising :class:`~repro.exceptions.QueryError` from the
    default implementations below.
    """

    spec_name: str = ""

    #: True when the backend's search paths accept an ``interval_cache``
    #: (the engine's epoch-invalidated suffix-range cache) and can resume
    #: backward search from cached pattern-prefix intervals.  The executor
    #: only threads the cache through when this is set, so backends without
    #: suffix ranges (linear scan) are never handed one.
    supports_interval_sharing: bool = False

    # ------------------------------------------------------------------ #
    # identity and bookkeeping
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def alphabet(self) -> Alphabet:
        """Alphabet mapping raw edge IDs to the symbols this backend indexes."""

    @property
    @abc.abstractmethod
    def length(self) -> int:
        """Total indexed trajectory-string length (including separators)."""

    @property
    @abc.abstractmethod
    def n_trajectories(self) -> int:
        """Number of indexed trajectories."""

    @property
    def sigma(self) -> int:
        """Alphabet size."""
        return self.alphabet.sigma

    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Total index size in bits."""

    # ------------------------------------------------------------------ #
    # queries (symbol level; the facade encodes and validates paths)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def count(self, pattern: Sequence[int]) -> int:
        """Occurrences of an encoded pattern."""

    @abc.abstractmethod
    def count_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]:
        """Batched :meth:`count` (vectorized where the backend supports it).

        ``interval_cache`` is only ever passed when
        :attr:`supports_interval_sharing` is true; backends without suffix
        ranges are free to ignore it.
        """

    def contains(self, pattern: Sequence[int], interval_cache=None) -> bool:
        """True when the encoded pattern occurs at least once."""
        return self.count(pattern) > 0

    def locate_matches(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[RawMatch]:
        """Resolve every occurrence to travel-order trajectory coordinates."""
        raise QueryError(
            f"locate is not supported by the {self.spec_name!r} backend"
        )

    def extract(self, row: int, length: int) -> list[int]:
        """Algorithm-4 extraction by BWT row (symbol output)."""
        raise QueryError(
            f"extract is not supported by the {self.spec_name!r} backend"
        )

    def extract_many(self, rows: Sequence[int], length: int) -> list[list[int]]:
        """Batched :meth:`extract`."""
        raise QueryError(
            f"extract is not supported by the {self.spec_name!r} backend"
        )

    def add_batch(self, trajectories: Sequence[Sequence[Hashable]]) -> None:
        """Index newly arrived trajectories (growth-capable backends only)."""
        raise ConstructionError(
            f"the {self.spec_name!r} backend is immutable once built; "
            "use the 'partitioned-cinct' backend for growing collections"
        )

    @property
    def n_partitions(self) -> int:
        """Number of independent partitions (1 for monolithic backends)."""
        return 1

    def consolidate(self) -> None:
        """Merge all partitions into one (growth-capable backends only)."""
        raise ConstructionError(
            f"the {self.spec_name!r} backend is monolithic and cannot be "
            "consolidated; use the 'partitioned-cinct' backend for growing "
            "collections"
        )

    def set_growth_listener(self, listener: Callable[[], None] | None) -> None:
        """Register a callback fired when the backend grows *asynchronously*.

        Only backends with background compaction ever call it; the default is
        a no-op so the engine can register unconditionally.
        """

    def ingest_stats(self) -> dict[str, object] | None:
        """Tail/compaction observability counters (None for static backends)."""
        return None

    def wait_for_compaction(self, timeout: float | None = None) -> bool:
        """Block until any in-flight background compaction finishes."""
        return True

    # ------------------------------------------------------------------ #
    # persistence hooks (dispatched through the registry)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def save_state(self, directory: Path) -> dict[str, object]:
        """Write backend arrays under ``directory``; return JSON-safe metadata."""


# --------------------------------------------------------------------------- #
# single-trajectory-string backends
# --------------------------------------------------------------------------- #
class _SingleStringBackend(EngineBackend):
    """Shared plumbing for backends indexing one concatenated string.

    Locate resolves text positions through the trajectory layout (the
    offset and length of every stored trajectory); the string itself is
    whatever the subclass keeps.
    """

    def __init__(
        self, alphabet: Alphabet, trajectory_offsets: np.ndarray, trajectory_lengths: np.ndarray
    ):
        self._alphabet = alphabet
        self._trajectory_offsets = trajectory_offsets
        self._trajectory_lengths = trajectory_lengths

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def n_trajectories(self) -> int:
        return len(self._trajectory_lengths)

    @abc.abstractmethod
    def _occurrence_positions(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[int]:
        """Start positions (in the stored text) of the reversed pattern."""

    def locate_matches(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[RawMatch]:
        return sorted(
            resolve_text_positions(
                self._trajectory_offsets,
                self._trajectory_lengths,
                self._occurrence_positions(pattern, interval_cache),
                len(pattern),
            )
        )


class _StoredStringBackend(_SingleStringBackend):
    """A backend that keeps its trajectory string (FM baselines, linear scan)."""

    def __init__(self, trajectory_string: TrajectoryString):
        super().__init__(
            trajectory_string.alphabet,
            np.asarray(trajectory_string.trajectory_offsets, dtype=np.int64),
            np.asarray(trajectory_string.trajectory_lengths, dtype=np.int64),
        )
        self._trajectory_string = trajectory_string

    @property
    def trajectory_string(self) -> TrajectoryString:
        """The indexed trajectory string (alphabet, offsets, lengths)."""
        return self._trajectory_string

    @property
    def length(self) -> int:
        return self._trajectory_string.length

    def _string_meta(self) -> dict[str, object]:
        return {
            "trajectory_lengths": [int(v) for v in self._trajectory_string.trajectory_lengths],
            "trajectory_offsets": [int(v) for v in self._trajectory_string.trajectory_offsets],
        }

    @staticmethod
    def _string_from_meta(
        text: np.ndarray, alphabet: Alphabet, meta: dict[str, object]
    ) -> TrajectoryString:
        # asanyarray keeps an np.memmap as a memmap (zero-copy loads);
        # asarray would flatten it into an anonymous view.
        return TrajectoryString(
            text=np.asanyarray(text, dtype=np.int64),
            alphabet=alphabet,
            trajectory_lengths=[int(v) for v in meta["trajectory_lengths"]],  # type: ignore[union-attr]
            trajectory_offsets=[int(v) for v in meta["trajectory_offsets"]],  # type: ignore[union-attr]
        )


class _BWTBackend(_SingleStringBackend):
    """Shared query plumbing for BWT-based backends (CiNCT and the FM baselines)."""

    supports_interval_sharing = True
    _index: CiNCT | FMIndexBase

    @property
    def index(self) -> CiNCT | FMIndexBase:
        """The wrapped index structure."""
        return self._index

    def count(self, pattern: Sequence[int]) -> int:
        return self._index.count(pattern)

    def count_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]:
        return self._index.count_many(patterns, interval_cache=interval_cache)

    def contains(self, pattern: Sequence[int], interval_cache=None) -> bool:
        return self._index.contains(pattern, interval_cache=interval_cache)

    def extract(self, row: int, length: int) -> list[int]:
        return self._index.extract(row, length)

    def extract_many(self, rows: Sequence[int], length: int) -> list[list[int]]:
        return self._index.extract_many(rows, length)

    def size_in_bits(self) -> int:
        return self._index.size_in_bits()

    @staticmethod
    def _build_artefacts(
        trajectories: Sequence[Sequence[Hashable]],
    ) -> tuple[TrajectoryString, BWTResult]:
        trajectory_string = build_trajectory_string(trajectories)
        bwt_result = burrows_wheeler_transform(
            trajectory_string.text, sigma=trajectory_string.sigma
        )
        return trajectory_string, bwt_result


class CiNCTBackend(_BWTBackend):
    """The paper's compressed index (RML + PseudoRank over an HWT).

    It holds one :class:`~repro.core.partitioned.Partition`, saved as one
    archive of the arrays its queries read; a load builds nothing.
    """

    spec_name = "cinct"
    ARCHIVE = "cinct.npz"

    def __init__(self, alphabet: Alphabet, partition: Partition):
        super().__init__(
            alphabet, partition.trajectory_offsets, partition.trajectory_lengths
        )
        self._partition = partition
        self._index = partition.index

    @classmethod
    def build(
        cls, trajectories: Sequence[Sequence[Hashable]], config: EngineConfig
    ) -> "CiNCTBackend":
        """Construct the backend from raw trajectories."""
        trajectory_string, bwt_result = cls._build_artefacts(trajectories)
        partition = Partition.from_bwt(
            trajectory_string, bwt_result, block_size=config.block_size, **_cinct_kwargs(config)
        )
        return cls(trajectory_string.alphabet, partition)

    @classmethod
    def load(
        cls,
        directory: Path,
        meta: dict[str, object],
        config: EngineConfig,
        alphabet: Alphabet,
        mmap: bool = False,
    ) -> "CiNCTBackend":
        """Restore the backend from its archive (``mmap=True`` maps it read-only)."""
        from ..io.npzutil import load_npz_arrays

        arrays = load_npz_arrays(directory / cls.ARCHIVE, mmap_mode="r" if mmap else None)
        return cls(alphabet, Partition.from_arrays(arrays))

    @property
    def length(self) -> int:
        return self._index.length

    @property
    def trajectory_string(self) -> TrajectoryString:
        """The indexed trajectory string, decoded from the index on each call."""
        return self._partition.trajectory_string(self._alphabet)

    def _occurrence_positions(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[int]:
        found = self._index.suffix_range(pattern, interval_cache=interval_cache)
        if found is None:
            return []
        return self._partition.occurrence_positions(*found)

    def save_state(self, directory: Path) -> dict[str, object]:
        np.savez(directory / self.ARCHIVE, **self._partition.arrays())
        return {}


class FMBaselineBackend(_StoredStringBackend, _BWTBackend):
    """Any Table-II FM-index baseline (UFMI, ICB-WM, ICB-Huff, FM-GMR, FM-AP-HYB).

    It keeps the BWT artefacts (text, BWT, full suffix array) in ``bwt.npz``
    and rebuilds the baseline from them on load.
    """

    def __init__(
        self,
        trajectory_string: TrajectoryString,
        bwt_result: BWTResult,
        index: FMIndexBase,
        variant: str,
    ):
        super().__init__(trajectory_string)
        self._bwt_result = bwt_result
        self._index = index
        self.spec_name = variant.lower()
        self.variant = variant

    @property
    def bwt_result(self) -> BWTResult:
        """The BWT artefacts the index was built from (kept for persistence)."""
        return self._bwt_result

    @classmethod
    def build(
        cls,
        trajectories: Sequence[Sequence[Hashable]],
        config: EngineConfig,
        variant: str = "UFMI",
    ) -> "FMBaselineBackend":
        """Construct the named baseline from raw trajectories."""
        trajectory_string, bwt_result = cls._build_artefacts(trajectories)
        index = build_baseline(variant, bwt_result, block_size=config.block_size)
        return cls(trajectory_string, bwt_result, index, variant)

    @classmethod
    def load(
        cls,
        directory: Path,
        meta: dict[str, object],
        config: EngineConfig,
        alphabet: Alphabet,
        variant: str = "UFMI",
        mmap: bool = False,
    ) -> "FMBaselineBackend":
        """Rebuild the named baseline from persisted state."""
        from ..io.index_io import load_bwt_result

        bwt_result = load_bwt_result(
            directory / "bwt.npz", mmap_mode="r" if mmap else None
        )
        trajectory_string = cls._string_from_meta(bwt_result.text, alphabet, meta)
        index = build_baseline(variant, bwt_result, block_size=config.block_size)
        return cls(trajectory_string, bwt_result, index, variant)

    def _occurrence_positions(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[int]:
        found = self._index.suffix_range(pattern, interval_cache=interval_cache)
        if found is None:
            return []
        sp, ep = found
        return [int(v) for v in self._bwt_result.suffix_array[sp:ep]]

    def save_state(self, directory: Path) -> dict[str, object]:
        from ..io.index_io import save_bwt_result

        save_bwt_result(self._bwt_result, directory / "bwt.npz")
        return self._string_meta()


class LinearScanBackend(_StoredStringBackend):
    """Boyer–Moore–Horspool scanning of the uncompressed trajectory string."""

    spec_name = "linear-scan"

    def __init__(self, trajectory_string: TrajectoryString):
        super().__init__(trajectory_string)
        self._index = LinearScanIndex(
            trajectory_string.text, sigma=trajectory_string.sigma
        )

    @classmethod
    def build(
        cls, trajectories: Sequence[Sequence[Hashable]], config: EngineConfig
    ) -> "LinearScanBackend":
        """Construct the scanner from raw trajectories (no BWT needed)."""
        return cls(build_trajectory_string(trajectories))

    @classmethod
    def load(
        cls,
        directory: Path,
        meta: dict[str, object],
        config: EngineConfig,
        alphabet: Alphabet,
        mmap: bool = False,
    ) -> "LinearScanBackend":
        """Rebuild the scanner from the persisted raw text.

        ``mmap=True`` scans directly over a read-only map of the stored
        text — the whole point of a no-index baseline served cold.
        """
        from ..io.npzutil import load_npz_arrays

        path = directory / "text.npz"
        if not path.exists():
            raise DatasetError(f"linear-scan text archive not found: {path}")
        text = load_npz_arrays(path, mmap_mode="r" if mmap else None)["text"]
        if text.dtype != np.int64:
            text = text.astype(np.int64)
        return cls(cls._string_from_meta(text, alphabet, meta))

    @property
    def index(self) -> LinearScanIndex:
        """The wrapped scanner."""
        return self._index

    def count(self, pattern: Sequence[int]) -> int:
        return self._index.count(pattern)

    def count_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]:
        # No suffix structure, so there are no intervals to share or cache.
        return self._index.count_many(patterns)

    def contains(self, pattern: Sequence[int], interval_cache=None) -> bool:
        return self._index.contains(pattern)

    def size_in_bits(self) -> int:
        return self._index.size_in_bits()

    def _occurrence_positions(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[int]:
        return self._index.occurrences(pattern)

    def save_state(self, directory: Path) -> dict[str, object]:
        # Uncompressed so load(..., mmap=True) can map the text in place.
        np.savez(directory / "text.npz", text=self._trajectory_string.text)
        return self._string_meta()


# --------------------------------------------------------------------------- #
# partitioned backend
# --------------------------------------------------------------------------- #
class PartitionedBackend(EngineBackend):
    """Growing collection of CiNCT partitions over a shared alphabet."""

    spec_name = "partitioned-cinct"
    supports_interval_sharing = True

    def __init__(self, partitioned: PartitionedCiNCT):
        self._partitioned = partitioned

    @classmethod
    def build(
        cls, trajectories: Sequence[Sequence[Hashable]], config: EngineConfig
    ) -> "PartitionedBackend":
        """Construct the backend; an empty trajectory list starts an empty fleet."""
        partitioned = PartitionedCiNCT(
            block_size=config.block_size,
            max_partitions=config.max_partitions,
            tail_max_symbols=config.tail_max_symbols,
            tail_max_trajectories=config.tail_max_trajectories,
            compaction=config.compaction,
            **_cinct_kwargs(config),
        )
        trajectories = list(trajectories)
        if trajectories:
            partitioned.add_batch(trajectories)
        return cls(partitioned)

    @classmethod
    def load(
        cls,
        directory: Path,
        meta: dict[str, object],
        config: EngineConfig,
        alphabet: Alphabet,
        mmap: bool = False,
    ) -> "PartitionedBackend":
        """Restore every partition from its archive and the tail from ``tail.npz``.

        Partition archives are restored like the ``cinct`` backend's, with no
        construction step; ``mmap=True`` maps them read-only.  Growth after
        the load builds *new* partitions from new in-memory arrays and never
        writes through the mapped pages (they would raise if it tried).
        """
        from ..io.npzutil import load_npz_arrays

        partitions: list[Partition] = []
        for entry in meta.get("partitions", []):  # type: ignore[union-attr]
            archive_path = directory / str(entry["archive"])
            arrays = load_npz_arrays(archive_path, mmap_mode="r" if mmap else None)
            partitions.append(
                Partition.from_arrays(arrays, int(entry["first_trajectory_id"]))
            )
        partitioned = PartitionedCiNCT.from_parts(
            alphabet,
            partitions,
            block_size=config.block_size,
            max_partitions=config.max_partitions,
            tail_max_symbols=config.tail_max_symbols,
            tail_max_trajectories=config.tail_max_trajectories,
            compaction=config.compaction,
            **_cinct_kwargs(config),
        )
        tail_meta = meta.get("tail")
        if tail_meta is not None:
            tail_path = directory / str(tail_meta["archive"])  # type: ignore[index]
            if not tail_path.exists():
                raise DatasetError(f"tail archive not found: {tail_path}")
            # The tail is mutable (appends land in it after the load), so it
            # is always fully deserialised — never mmapped.
            arrays = load_npz_arrays(tail_path)
            partitioned.restore_tail(
                np.asarray(arrays["text"], dtype=np.int64),
                [int(v) for v in arrays["lengths"]],
                int(tail_meta["first_trajectory_id"]),  # type: ignore[index]
            )
        return cls(partitioned)

    @property
    def partitioned(self) -> PartitionedCiNCT:
        """The wrapped partitioned index."""
        return self._partitioned

    @property
    def alphabet(self) -> Alphabet:
        return self._partitioned.alphabet

    @property
    def length(self) -> int:
        return self._partitioned.total_symbols()

    @property
    def n_trajectories(self) -> int:
        return self._partitioned.n_trajectories

    def size_in_bits(self) -> int:
        return self._partitioned.size_in_bits()

    def count(self, pattern: Sequence[int]) -> int:
        return self._partitioned.count_encoded(pattern)

    def count_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]:
        # One pattern trie fans across compressed partitions ∪ tail, with the
        # interval cache shared through tier-scoped key views.
        return self._partitioned.count_encoded_many(
            patterns, interval_cache=interval_cache
        )

    def contains(self, pattern: Sequence[int], interval_cache=None) -> bool:
        # Any-partition short-circuit: stops at the first partition that
        # reports a match instead of counting across all of them.  The
        # short-circuit walk does not consult the interval cache (tier order
        # would make hit bookkeeping ambiguous); the cache still serves the
        # count twin sharing path above it.
        return self._partitioned.contains_encoded(pattern)

    def locate_matches(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[RawMatch]:
        snap = self._partitioned.snapshot()
        if snap.empty:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        pattern = [int(s) for s in pattern]
        largest = max(pattern, default=-1)
        share = interval_cache is not None and getattr(interval_cache, "enabled", True)
        matches: list[RawMatch] = []
        for tier, partition in enumerate(snap.partitions):
            index = partition.index
            if largest >= index.sigma:
                continue
            view = _TierIntervalView(interval_cache, tier) if share else None
            found = index.suffix_range(pattern, interval_cache=view)
            if found is None:
                continue
            for local_index, start, end in resolve_text_positions(
                partition.trajectory_offsets,
                partition.trajectory_lengths,
                partition.occurrence_positions(*found),
                len(pattern),
            ):
                matches.append((partition.first_trajectory_id + local_index, start, end))
        tail = snap.tail
        if tail is not None and largest < tail.scanner.sigma:
            # The uncompressed tier scans instead of backward-searching; the
            # resolved coordinates are identical to what the same trajectories
            # would yield once sealed into a partition.
            for local_index, start, end in resolve_text_positions(
                np.asarray(tail.trajectory_string.trajectory_offsets),
                np.asarray(tail.trajectory_string.trajectory_lengths),
                tail.scanner.occurrences(pattern),
                len(pattern),
            ):
                matches.append((tail.first_trajectory_id + local_index, start, end))
        matches.sort()
        return matches

    def add_batch(self, trajectories: Sequence[Sequence[Hashable]]) -> None:
        self._partitioned.add_batch(trajectories)

    @property
    def n_partitions(self) -> int:
        return self._partitioned.n_partitions

    def consolidate(self) -> None:
        self._partitioned.consolidate()

    def set_growth_listener(self, listener: Callable[[], None] | None) -> None:
        self._partitioned.set_growth_listener(listener)

    def ingest_stats(self) -> dict[str, object] | None:
        return self._partitioned.ingest_stats()

    def wait_for_compaction(self, timeout: float | None = None) -> bool:
        return self._partitioned.wait_for_compaction(timeout)

    def save_state(self, directory: Path) -> dict[str, object]:
        # One snapshot drives the whole save: a background compaction swap
        # mid-save cannot produce a manifest that mixes pre- and post-swap
        # tiers (the pre-swap view is itself complete and consistent).
        snap = self._partitioned.snapshot()
        entries: list[dict[str, object]] = []
        for k, partition in enumerate(snap.partitions):
            archive = f"partition_{k}.npz"
            np.savez(directory / archive, **partition.arrays())
            entries.append(
                {"archive": archive, "first_trajectory_id": int(partition.first_trajectory_id)}
            )
        meta: dict[str, object] = {"partitions": entries}
        tail = snap.tail
        if tail is not None:
            archive = "tail.npz"
            # Uncompressed npz, like the linear-scan backend's text artefact.
            np.savez(
                directory / archive,
                text=tail.trajectory_string.text[:-1],
                lengths=np.asarray(
                    tail.trajectory_string.trajectory_lengths, dtype=np.int64
                ),
            )
            meta["tail"] = {
                "archive": archive,
                "first_trajectory_id": int(tail.first_trajectory_id),
            }
        return meta


# --------------------------------------------------------------------------- #
# registry population
# --------------------------------------------------------------------------- #
register_backend(
    BackendSpec(
        name="cinct",
        display_name="CiNCT",
        factory=CiNCTBackend.build,
        loader=CiNCTBackend.load,
        description="RML-labelled BWT in a Huffman wavelet tree over RRR (the paper)",
    )
)
register_backend(
    BackendSpec(
        name="partitioned-cinct",
        display_name="CiNCT-Part",
        factory=PartitionedBackend.build,
        loader=PartitionedBackend.load,
        description="immutable CiNCT partitions over a shared alphabet (growing fleets)",
        aliases=("partitioned",),
        supports_extract=False,
        supports_growth=True,
    )
)

_BASELINE_DESCRIPTIONS = {
    "UFMI": "wavelet matrix over the BWT with plain bitmaps",
    "ICB-WM": "wavelet matrix over the BWT with RRR bitmaps",
    "ICB-Huff": "Huffman wavelet tree over the BWT with RRR bitmaps",
    "FM-GMR": "per-symbol position lists (largest but fast)",
    "FM-AP-HYB": "alphabet-partitioned nested wavelet matrices",
}
for _variant in available_baselines():
    register_backend(
        BackendSpec(
            name=_variant.lower(),
            display_name=_variant,
            factory=partial(FMBaselineBackend.build, variant=_variant),
            loader=partial(FMBaselineBackend.load, variant=_variant),
            description=_BASELINE_DESCRIPTIONS.get(_variant, ""),
        )
    )

register_backend(
    BackendSpec(
        name="linear-scan",
        display_name="LinearScan",
        factory=LinearScanBackend.build,
        loader=LinearScanBackend.load,
        description="Boyer–Moore–Horspool over the raw 32-bit string (no index)",
        aliases=("linearscan", "scan"),
        supports_extract=False,
    )
)
