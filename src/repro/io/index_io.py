"""Persistence of BWT artefacts, CiNCT indexes, and whole engines.

Building a CiNCT index has one super-linear step — suffix-array construction —
followed by a chain of strictly linear steps (ET-graph, RML, labelling,
wavelet-tree packing; Section VI-G of the paper).  The persistence layer
therefore stores

* the BWT artefacts (text, BWT, suffix array, counts, ``C[]``) as a compressed
  ``.npz`` archive, and
* the index parameters plus the alphabet as a JSON sidecar,

and reloading rebuilds the succinct structures in linear time from those
arrays, never re-sorting suffixes.  This mirrors how the reference C++
implementation persists the ``sdsl`` structures while remaining a plain,
inspection-friendly on-disk format.

Two generations of index persistence live here:

* :func:`save_index` / :func:`load_index` — the universal layer: they
  round-trip a whole :class:`~repro.engine.TrajectoryEngine` for *any*
  registered backend by dispatching through the backend registry
  (``engine.json`` + a compressed ``timestamps.npz`` written by the
  :class:`~repro.temporal.TimestampStore` + backend-specific archives);
* :func:`save_cinct` / :func:`load_cinct` — the original CiNCT-only format
  (``index.json`` + ``bwt.npz``), kept as a compatibility shim for existing
  callers and previously saved directories.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Hashable

import numpy as np

from ..core.cinct import CiNCT
from ..exceptions import (
    ConstructionError,
    DatasetError,
    IndexCorruptionError,
    ReproError,
)
from ..reliability import faults
from ..strings.alphabet import Alphabet
from ..strings.bwt import BWTResult
from ..strings.trajectory_string import TrajectoryString
from .npzutil import ensure_npz_suffix, load_npz_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.config import EngineConfig
    from ..engine.engine import EngineShard, TrajectoryEngine

_FORMAT_VERSION = 1
#: version 1 embedded raw timestamp lists in ``engine.json``; version 2 moved
#: them to a compressed ``timestamps.npz`` artefact; version 3 adds the
#: engine's growth ``epoch`` (the result-cache invalidation counter bumped by
#: ``add_batch``/``consolidate``); version 4 adds the sharded fleet layout —
#: a top-level shard manifest (``"shards"`` key) whose entries name per-shard
#: subdirectories, each holding an ordinary single-engine document; version 5
#: adds crash safety and integrity: saves stage into a ``.tmp-<pid>`` sibling
#: directory promoted wholesale via rename, and ``engine.json`` carries a
#: ``"manifest"`` of per-artefact SHA-256 checksums and byte sizes that
#: :func:`load_index` verifies, raising
#: :class:`~repro.exceptions.IndexCorruptionError` naming any torn artefact.
#: All five versions load; v1–v4 documents load without checksum
#: verification and come back at their recorded (or zero) epoch.
_ENGINE_FORMAT_VERSION = 5
_SUPPORTED_ENGINE_VERSIONS = frozenset({1, 2, 3, 4, 5})
_TIMESTAMP_ARCHIVE = "timestamps.npz"
_ENGINE_DOCUMENT = "engine.json"

#: Exceptions a torn/truncated ``.npz`` (or json) artefact can raise when
#: parsed; the persistence layer normalizes every one of them into
#: :class:`IndexCorruptionError` naming the artefact.
_ARTEFACT_PARSE_ERRORS = (
    zipfile.BadZipFile,
    OSError,
    EOFError,
    KeyError,
    ValueError,
)


# --------------------------------------------------------------------------- #
# BWT artefacts
# --------------------------------------------------------------------------- #
def save_bwt_result(bwt_result: BWTResult, path: str | Path) -> Path:
    """Save the arrays of a :class:`BWTResult` as an ``.npz`` archive.

    The archive is written **uncompressed** (``ZIP_STORED`` members), so
    :func:`load_bwt_result` can memory-map the array payloads straight out
    of the file (``mmap_mode="r"``) instead of decompressing and copying
    them — the layout behind ``load_index(..., mmap=True)``.  Integer
    trajectory symbols compress poorly anyway, and the save-time manifest
    checksums the file bytes either way.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        format_version=np.asarray([_FORMAT_VERSION], dtype=np.int64),
        text=bwt_result.text,
        bwt=bwt_result.bwt,
        suffix_array=bwt_result.suffix_array,
        counts=bwt_result.counts,
        c_array=bwt_result.c_array,
    )
    return ensure_npz_suffix(path)


def _as_int64(array: np.ndarray) -> np.ndarray:
    """int64 view of a loaded archive member, copying only on dtype mismatch.

    Memory-mapped members must pass through untouched (an ``astype`` copy
    would silently materialise the window and drop page sharing); archives
    written on a platform with a different default integer width still get
    the converting copy.
    """
    if array.dtype == np.int64:
        return array
    return array.astype(np.int64)


def load_bwt_result(path: str | Path, mmap_mode: str | None = None) -> BWTResult:
    """Load a :class:`BWTResult` previously written by :func:`save_bwt_result`.

    With ``mmap_mode="r"`` the arrays come back as read-only ``np.memmap``
    windows into the archive (for uncompressed members; compressed legacy
    archives fall back to a full parse), so reloading costs header parsing
    and the index pages are shared across processes mapping the same file.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"BWT archive not found: {path}")
    try:
        archive = load_npz_arrays(path, mmap_mode=mmap_mode)
        version = int(archive["format_version"][0])
        if version != _FORMAT_VERSION:
            raise ConstructionError(
                f"unsupported BWT archive version {version} (expected {_FORMAT_VERSION})"
            )
        return BWTResult(
            text=_as_int64(archive["text"]),
            bwt=_as_int64(archive["bwt"]),
            suffix_array=_as_int64(archive["suffix_array"]),
            counts=_as_int64(archive["counts"]),
            c_array=_as_int64(archive["c_array"]),
        )
    except _ARTEFACT_PARSE_ERRORS as error:
        # A torn/truncated archive surfaces as BadZipFile / KeyError /
        # ValueError depending on where the bytes were cut; normalize all of
        # them into the one canonical corruption error naming the artefact.
        raise IndexCorruptionError(
            f"index artefact {path.name!r} is corrupt or truncated "
            f"({type(error).__name__}: {error}) at {path}"
        ) from error


# --------------------------------------------------------------------------- #
# CiNCT indexes
# --------------------------------------------------------------------------- #
@dataclass
class SavedIndex:
    """A reloaded CiNCT index together with its query-encoding alphabet."""

    index: CiNCT
    alphabet: Alphabet | None

    def encode_pattern(self, path: list[Hashable]) -> list[int]:
        """Encode a query path using the persisted alphabet."""
        if self.alphabet is None:
            raise ConstructionError("this index was saved without an alphabet")
        return self.alphabet.encode_path(path)


def _edge_to_json(edge: Hashable) -> object:
    if isinstance(edge, tuple):
        return [_edge_to_json(item) for item in edge]
    return edge


def _edge_from_json(value: object) -> Hashable:
    if isinstance(value, list):
        return tuple(_edge_from_json(item) for item in value)
    return value  # type: ignore[return-value]


def _alphabet_to_json(alphabet: Alphabet) -> list[object]:
    return [_edge_to_json(alphabet.decode(symbol)) for symbol in range(2, alphabet.sigma)]


def _alphabet_from_json(edges: list[object]) -> Alphabet:
    return Alphabet(_edge_from_json(edge) for edge in edges)


def save_cinct(
    index: CiNCT,
    bwt_result: BWTResult,
    directory: str | Path,
    trajectory_string: TrajectoryString | None = None,
) -> Path:
    """Persist a CiNCT index (BWT artefacts + parameters + optional alphabet).

    .. deprecated::
        This is the original CiNCT-only format, kept as a compatibility shim.
        New code should persist through :meth:`repro.engine.TrajectoryEngine.save`
        (:func:`save_index`), which handles every registered backend.

    Parameters
    ----------
    index:
        The built index (provides the construction parameters to persist).
    bwt_result:
        The BWT artefacts the index was built from.
    directory:
        Target directory; created if missing.  Two files are written:
        ``bwt.npz`` and ``index.json``.
    trajectory_string:
        When given, its alphabet is persisted too so reloaded indexes can
        encode query paths expressed as original road-segment IDs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_bwt_result(bwt_result, directory / "bwt.npz")
    metadata: dict[str, object] = {
        "format_version": _FORMAT_VERSION,
        "block_size": index.block_size,
        "labeling_strategy": index.labeling_strategy,
        "bitvector_backend": index.bitvector_backend,
        "sa_sample_rate": index._sa_sample_rate,
        "length": index.length,
        "sigma": index.sigma,
    }
    if trajectory_string is not None:
        metadata["alphabet"] = _alphabet_to_json(trajectory_string.alphabet)
    with (directory / "index.json").open("w", encoding="utf-8") as handle:
        json.dump(metadata, handle, indent=2)
    return directory


def load_cinct(directory: str | Path) -> SavedIndex:
    """Reload a CiNCT index persisted by :func:`save_cinct`.

    The succinct structures are rebuilt in linear time from the stored BWT;
    the suffix array is *not* recomputed.
    """
    directory = Path(directory)
    metadata_path = directory / "index.json"
    if not metadata_path.exists():
        raise DatasetError(f"index metadata not found: {metadata_path}")
    with metadata_path.open("r", encoding="utf-8") as handle:
        metadata = json.load(handle)
    version = int(metadata.get("format_version", -1))
    if version != _FORMAT_VERSION:
        raise ConstructionError(
            f"unsupported index format version {version} (expected {_FORMAT_VERSION})"
        )
    bwt_result = load_bwt_result(directory / "bwt.npz")
    if bwt_result.length != int(metadata["length"]) or bwt_result.sigma != int(metadata["sigma"]):
        raise ConstructionError(
            "index metadata does not match the stored BWT "
            f"(length {metadata['length']} vs {bwt_result.length}, "
            f"sigma {metadata['sigma']} vs {bwt_result.sigma})"
        )
    index = CiNCT(
        bwt_result,
        block_size=int(metadata["block_size"]),
        labeling_strategy=metadata["labeling_strategy"],
        bitvector_backend=metadata["bitvector_backend"],
        sa_sample_rate=metadata["sa_sample_rate"],
    )
    alphabet = None
    if "alphabet" in metadata:
        alphabet = _alphabet_from_json(metadata["alphabet"])
    return SavedIndex(index=index, alphabet=alphabet)


# --------------------------------------------------------------------------- #
# universal engine persistence (registry-dispatched, crash-safe)
# --------------------------------------------------------------------------- #
def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_of(directory: Path, files: list[Path]) -> dict[str, dict[str, object]]:
    """Per-artefact integrity records, keyed by path relative to the index."""
    manifest: dict[str, dict[str, object]] = {}
    for path in sorted(files):
        manifest[path.relative_to(directory).as_posix()] = {
            "sha256": _sha256_of(path),
            "bytes": path.stat().st_size,
        }
    return manifest


def _verify_manifest(directory: Path, manifest: dict) -> None:
    """Check every manifest entry; raise naming the first torn artefact."""
    for name, entry in manifest.items():
        path = directory / name
        if not path.exists():
            raise IndexCorruptionError(
                f"index artefact {name!r} is missing from {directory}"
            )
        expected_bytes = int(entry["bytes"])
        actual_bytes = path.stat().st_size
        if actual_bytes != expected_bytes:
            raise IndexCorruptionError(
                f"index artefact {name!r} is truncated or padded "
                f"(expected {expected_bytes} bytes, found {actual_bytes}) "
                f"at {directory}"
            )
        if _sha256_of(path) != str(entry["sha256"]):
            raise IndexCorruptionError(
                f"index artefact {name!r} failed SHA-256 verification "
                f"at {directory}"
            )


def save_index(engine: "TrajectoryEngine", directory: str | Path) -> Path:
    """Persist a :class:`~repro.engine.TrajectoryEngine` of *any* backend.

    The engine-level state (config, backend name, alphabet) lands in
    ``engine.json``; per-trajectory timestamps go to a compressed
    ``timestamps.npz`` written by the
    :class:`~repro.temporal.TimestampStore` (never as raw JSON arrays); the
    backend writes its own archives via
    :meth:`~repro.engine.backends.EngineBackend.save_state` and returns the
    metadata needed to reload them.  :func:`load_index` dispatches back
    through the registry, so any backend registered with
    :func:`repro.engine.register_backend` round-trips without touching this
    module.

    Saves are **crash-safe**: everything is written into a
    ``<name>.tmp-<pid>`` sibling directory first and promoted into place by
    directory rename only once complete, so a crash at any artefact-write
    boundary leaves a previously saved index bit-identically loadable.  The
    promote replaces the target directory *wholesale* — artefacts from an
    earlier save with a different layout (more shards, more partitions)
    cannot linger.  ``engine.json`` carries a ``"manifest"`` of per-artefact
    SHA-256 checksums and byte sizes (format v5) that :func:`load_index`
    verifies.

    A one-shard engine persists in this *flat layout*.  An engine with more
    shards persists in the *fleet layout*: a top-level shard manifest
    (``engine.json`` with a ``"shards"`` list and the global alphabet) plus
    one flat ``shard_NN`` subdirectory per populated shard, each itself a
    loadable one-shard index; the fleet manifest checksums each shard's
    ``engine.json``, whose own manifest covers that shard's artefacts.
    """
    directory = Path(directory)
    if not directory.name:  # e.g. Path(".") — rename needs a real leaf name
        directory = directory.resolve()
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.parent / f"{directory.name}.tmp-{os.getpid()}"
    if staging.exists():  # a stale staging dir from a crashed previous save
        shutil.rmtree(staging)
    try:
        if engine.num_shards == 1:
            _write_shard(engine.shards[0], engine.config, staging, stage_prefix="")
        else:
            _write_sharded(engine, staging)
        _promote(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return directory


def _promote(staging: Path, directory: Path) -> None:
    """Atomically swap the fully written staging directory into place.

    ``os.replace`` cannot overwrite a non-empty directory, so an existing
    index is renamed aside first and removed after the swap; every artefact
    write happened inside ``staging``, so no crash point here can tear the
    index itself (the narrow rename-aside window can at worst leave the new
    index under the retired name, never a half-written mixture).
    """
    if directory.exists():
        retired = directory.parent / f"{directory.name}.tmp-{os.getpid()}-old"
        if retired.exists():
            shutil.rmtree(retired)
        os.rename(directory, retired)
        os.rename(staging, directory)
        shutil.rmtree(retired)
    else:
        os.rename(staging, directory)


def _write_shard(
    shard: "EngineShard", config: "EngineConfig", directory: Path, stage_prefix: str
) -> None:
    """Write one shard in the flat layout (artefacts, then ``engine.json``).

    ``stage_prefix`` namespaces the crash-injection stages
    (:func:`repro.reliability.faults.maybe_crash_save`) so tests can target
    a boundary inside a specific shard (``"shard_01/backend"``).
    """
    from ..engine.registry import backend_spec

    directory.mkdir(parents=True, exist_ok=True)
    backend_meta = shard.backend.save_state(directory)
    faults.maybe_crash_save(f"{stage_prefix}backend")
    # Uncompressed so load_index(..., mmap=True) can map the payload arrays.
    shard.timestamp_store.save(directory / _TIMESTAMP_ARCHIVE, compress=False)
    faults.maybe_crash_save(f"{stage_prefix}timestamps")
    artefacts = [path for path in directory.rglob("*") if path.is_file()]
    document: dict[str, object] = {
        "format_version": _ENGINE_FORMAT_VERSION,
        "backend": backend_spec(config.backend).name,
        "config": config.as_dict(),
        "alphabet": _alphabet_to_json(shard.alphabet),
        "timestamps_file": _TIMESTAMP_ARCHIVE,
        "epoch": int(shard.epoch),
        "backend_meta": backend_meta,
        "manifest": _manifest_of(directory, artefacts),
    }
    with (directory / _ENGINE_DOCUMENT).open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    faults.maybe_crash_save(f"{stage_prefix}document")


def _write_sharded(engine: "TrajectoryEngine", directory: Path) -> None:
    """Write the fleet layout: fleet manifest + per-shard subdirectories."""
    directory.mkdir(parents=True, exist_ok=True)
    shard_dirs: list[str | None] = []
    shard_documents: list[Path] = []
    for shard_id, shard in enumerate(engine.shards):
        if shard is None:
            shard_dirs.append(None)  # a shard the router never populated
            continue
        name = f"shard_{shard_id:02d}"
        _write_shard(shard, shard.config, directory / name, stage_prefix=f"{name}/")
        shard_dirs.append(name)
        shard_documents.append(directory / name / _ENGINE_DOCUMENT)
    document: dict[str, object] = {
        "format_version": _ENGINE_FORMAT_VERSION,
        "backend": engine.backend_name,
        "config": engine.config.as_dict(),
        "alphabet": _alphabet_to_json(engine.alphabet),
        "num_shards": engine.num_shards,
        "shards": shard_dirs,
        # Chain of trust: the fleet document checksums each shard's
        # engine.json; the shard documents' own manifests cover their
        # artefacts, so every file is hashed exactly once.
        "manifest": _manifest_of(directory, shard_documents),
    }
    with (directory / _ENGINE_DOCUMENT).open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    faults.maybe_crash_save("document")


def load_index(directory: str | Path, *, mmap: bool = False) -> "TrajectoryEngine":
    """Reload an engine persisted by :func:`save_index` (any backend).

    Every engine document generation loads: version 4+ shard manifests come
    back as a multi-shard :class:`~repro.engine.TrajectoryEngine` (each shard
    subdirectory reloaded as one flat shard), v1–v3 documents (and v4
    documents without a shard list) as a one-shard engine — version 2 reads
    the compressed ``timestamps.npz`` artefact, version 1 (legacy) the raw
    timestamp lists embedded in ``engine.json``.  Version-5 documents carry
    an artefact ``manifest`` that is verified (existence, byte size,
    SHA-256) before anything is parsed; any mismatch, missing artefact or
    torn archive raises :class:`~repro.exceptions.IndexCorruptionError`
    naming the offending file.  Older documents load unchecksummed and
    upgrade to v5 on the next :func:`save_index`.  Directories written by
    the legacy :func:`save_cinct` are detected and rejected with a pointer
    to :func:`load_cinct`.

    ``mmap=True`` loads the large immutable arrays (BWT artefacts, the raw
    linear-scan text, the timestamp payloads) as read-only ``np.memmap``
    windows into their archives instead of decompress-and-copy parses: the
    succinct structures still rebuild in linear time, but the backing arrays
    fault in lazily from the page cache and are **shared** between every
    process mapping the same files — N shard workers hold one physical copy
    of the index.  Growth after an mmap load is copy-on-grow: new batches
    build new in-memory arrays, the mapped pages are never written (they are
    read-only — an accidental write raises), and the on-disk archives stay
    byte-identical until the next :func:`save_index`.  Archives written
    before the uncompressed layout load with ``mmap=True`` too, falling back
    to a full parse member by member.  Checksum verification is unchanged —
    the manifest hashes file bytes, which the page cache makes cheap.
    """
    from ..engine.engine import TrajectoryEngine

    directory = Path(directory)
    document = _read_document(directory)
    if "shards" in document:
        return _load_sharded(directory, document, mmap=mmap)
    shard = _load_shard(directory, document, mmap=mmap)
    return TrajectoryEngine([shard], shard.config)


def _read_document(directory: Path) -> dict:
    """Parse and verify one ``engine.json`` (version check, artefact manifest)."""
    document_path = directory / _ENGINE_DOCUMENT
    if not document_path.exists():
        if (directory / "index.json").exists():
            raise DatasetError(
                f"{directory} holds a legacy CiNCT-only index; load it with "
                "repro.load_cinct instead"
            )
        raise DatasetError(f"engine metadata not found: {document_path}")
    try:
        with document_path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise IndexCorruptionError(
            f"index artefact {_ENGINE_DOCUMENT!r} is corrupt or truncated "
            f"({type(error).__name__}: {error}) at {document_path}"
        ) from error
    version = int(document.get("format_version", -1))
    if version not in _SUPPORTED_ENGINE_VERSIONS:
        raise ConstructionError(
            f"unsupported engine format version {version} "
            f"(expected one of {sorted(_SUPPORTED_ENGINE_VERSIONS)})"
        )
    if version >= 5 and "manifest" in document:
        _verify_manifest(directory, document["manifest"])
    return document


def _load_shard(directory: Path, document: dict, *, mmap: bool = False) -> "EngineShard":
    """Reassemble one shard from a flat-layout document."""
    from ..engine.config import EngineConfig
    from ..engine.engine import EngineShard
    from ..engine.registry import backend_spec
    from ..temporal.store import TimestampStore

    config = EngineConfig.from_dict(document["config"])
    spec = backend_spec(document["backend"])
    alphabet = _alphabet_from_json(document["alphabet"])
    try:
        if mmap:
            # Only pass the kwarg when asked for: third-party loaders
            # registered before the mmap layer keep working for plain loads.
            backend = spec.loader(
                directory, document.get("backend_meta", {}), config, alphabet,
                mmap=True,
            )
        else:
            backend = spec.loader(
                directory, document.get("backend_meta", {}), config, alphabet
            )
    except ReproError:
        raise
    except _ARTEFACT_PARSE_ERRORS as error:
        raise IndexCorruptionError(
            f"backend {document['backend']!r} artefacts are corrupt or "
            f"incomplete ({type(error).__name__}: {error}) at {directory}"
        ) from error
    if "timestamps_file" in document:
        timestamps_path = directory / str(document["timestamps_file"])
        if not timestamps_path.exists():
            raise IndexCorruptionError(
                f"index artefact {timestamps_path.name!r} is missing "
                f"from {directory}"
            )
        try:
            store = TimestampStore.load(
                timestamps_path, mmap_mode="r" if mmap else None
            )
        except ReproError:
            raise
        except _ARTEFACT_PARSE_ERRORS as error:
            raise IndexCorruptionError(
                f"index artefact {timestamps_path.name!r} is corrupt or "
                f"truncated ({type(error).__name__}: {error}) at {timestamps_path}"
            ) from error
    else:
        # Legacy version-1 documents embed raw per-trajectory lists.
        store = TimestampStore(
            list(times) if times is not None else None
            for times in document.get("timestamps", [])
        )
    # Version-1/2 documents predate growth epochs; they resume at epoch 0.
    epoch = int(document.get("epoch", 0))
    return EngineShard(backend, config, store, epoch=epoch)


def _load_sharded(
    directory: Path, document: dict, *, mmap: bool = False
) -> "TrajectoryEngine":
    """Reassemble a multi-shard engine from a format-v4/v5 shard manifest."""
    from ..engine.config import EngineConfig
    from ..engine.engine import EngineShard, TrajectoryEngine

    config = EngineConfig.from_dict(document["config"])
    alphabet = _alphabet_from_json(document["alphabet"])
    shard_dirs = document["shards"]
    if int(document.get("num_shards", len(shard_dirs))) != len(shard_dirs):
        raise ConstructionError(
            "corrupt shard manifest: num_shards does not match the shard list"
        )
    shards: list[EngineShard | None] = []
    for entry in shard_dirs:
        if entry is None:
            shards.append(None)
            continue
        shard_dir = directory / str(entry)
        if not (shard_dir / _ENGINE_DOCUMENT).exists():
            raise IndexCorruptionError(
                f"shard directory {entry!r} is missing or incomplete "
                f"(no {_ENGINE_DOCUMENT}) at {directory}"
            )
        shard_document = _read_document(shard_dir)
        if "shards" in shard_document:
            raise ConstructionError(
                f"shard directory {entry!r} does not hold a single-shard engine"
            )
        shards.append(_load_shard(shard_dir, shard_document, mmap=mmap))
    return TrajectoryEngine(shards, config, alphabet)
