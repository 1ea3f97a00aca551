"""Persistence of whole engines, and of the FM baselines' BWT artefacts.

:func:`save_index` / :func:`load_index` round-trip a
:class:`~repro.engine.TrajectoryEngine` of any registered backend by
dispatching through the backend registry: ``engine.json`` (format 6: the
config, the alphabet and a SHA-256 manifest), a ``timestamps.npz`` written by
the :class:`~repro.temporal.TimestampStore` and the backend's own archives.
A CiNCT archive is the compressed index itself (the arrays its queries read,
:meth:`repro.core.cinct.CiNCT.arrays`), so a load reads or maps it and builds
nothing, the way sdsl persists succinct structures.  The FM baselines keep
the BWT artefacts (text, BWT, suffix array, counts, ``C[]``) written by
:func:`save_bwt_result` and rebuild from them.  An index written in an older
format is rejected with one canonical error: rebuild it from its
trajectories.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Hashable

import numpy as np

from ..exceptions import (
    ConstructionError,
    DatasetError,
    IndexCorruptionError,
    ReproError,
    unsupported_format_message,
)
from ..reliability import faults
from ..strings.alphabet import Alphabet
from ..strings.bwt import BWTResult
from .npzutil import ensure_npz_suffix, load_npz_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..engine.config import EngineConfig
    from ..engine.engine import EngineShard, TrajectoryEngine

#: Version of the ``bwt.npz`` archives of the FM baselines.
_FORMAT_VERSION = 1
#: Format 6: a CiNCT index (or partition) is saved as the arrays its queries
#: read, and a load builds nothing.  Saves stage into a ``.tmp-<pid>``
#: sibling directory promoted wholesale via rename, and ``engine.json``
#: carries a ``"manifest"`` of per-artefact SHA-256 checksums and byte sizes
#: that :func:`load_index` verifies.  Only this format loads.
_ENGINE_FORMAT_VERSION = 6
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


def load_bwt_result(path: str | Path, mmap_mode: str | None = None) -> BWTResult:
    """Load a :class:`BWTResult` previously written by :func:`save_bwt_result`.

    With ``mmap_mode="r"`` the arrays come back as read-only ``np.memmap``
    windows into the archive (for uncompressed members; compressed
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
        fields = ("text", "bwt", "suffix_array", "counts", "c_array")
        return BWTResult(**{name: archive[name] for name in fields})
    except _ARTEFACT_PARSE_ERRORS as error:
        # A torn/truncated archive surfaces as BadZipFile / KeyError /
        # ValueError depending on where the bytes were cut; normalize all of
        # them into the one canonical corruption error naming the artefact.
        raise IndexCorruptionError(
            f"index artefact {path.name!r} is corrupt or truncated "
            f"({type(error).__name__}: {error}) at {path}"
        ) from error


# --------------------------------------------------------------------------- #
# universal engine persistence (registry-dispatched, crash-safe)
# --------------------------------------------------------------------------- #
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
    SHA-256 checksums and byte sizes that :func:`load_index` verifies.

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

    A document with a ``"shards"`` list comes back as a multi-shard
    :class:`~repro.engine.TrajectoryEngine`, any other as a one-shard
    engine.  The artefact ``manifest`` is verified (existence, byte size,
    SHA-256) before anything is parsed: a mismatch, missing artefact or torn
    archive raises :class:`~repro.exceptions.IndexCorruptionError` naming
    the file.  Any other format version, or a directory of the retired
    CiNCT-only layout (``index.json``), raises the canonical
    :func:`~repro.exceptions.unsupported_format_message` error: rebuild that
    index from its trajectories.

    A CiNCT archive is restored without any construction step.  With
    ``mmap=True`` the archives' arrays are read-only ``np.memmap`` windows
    (uncompressed members; others are parsed): their pages fault in lazily
    and are **shared** by every process mapping the same files.  Growth
    after an mmap load builds new in-memory arrays and never writes the
    mapped pages (a write raises), so the archives stay byte-identical until
    the next :func:`save_index`.
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
        legacy = directory / "index.json"
        if legacy.exists():
            document_path = legacy
        else:
            raise DatasetError(f"engine metadata not found: {document_path}")
    try:
        with document_path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise IndexCorruptionError(
            f"index artefact {document_path.name!r} is corrupt or truncated "
            f"({type(error).__name__}: {error}) at {document_path}"
        ) from error
    version = document.get("format_version") if isinstance(document, dict) else None
    if version != _ENGINE_FORMAT_VERSION:
        raise ConstructionError(unsupported_format_message(version, _ENGINE_FORMAT_VERSION))
    if not isinstance(document.get("manifest"), dict):
        raise IndexCorruptionError(
            f"index artefact {_ENGINE_DOCUMENT!r} has no artefact manifest at {directory}"
        )
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
        backend = spec.loader(directory, document["backend_meta"], config, alphabet, mmap=mmap)
    except ReproError:
        raise
    except _ARTEFACT_PARSE_ERRORS as error:
        raise IndexCorruptionError(
            f"backend {document['backend']!r} artefacts are corrupt or "
            f"incomplete ({type(error).__name__}: {error}) at {directory}"
        ) from error
    timestamps_path = directory / str(document["timestamps_file"])
    try:
        store = TimestampStore.load(timestamps_path, mmap_mode="r" if mmap else None)
    except ReproError:
        raise
    except _ARTEFACT_PARSE_ERRORS as error:
        raise IndexCorruptionError(
            f"index artefact {timestamps_path.name!r} is corrupt or "
            f"truncated ({type(error).__name__}: {error}) at {timestamps_path}"
        ) from error
    return EngineShard(backend, config, store, epoch=int(document["epoch"]))


def _load_sharded(
    directory: Path, document: dict, *, mmap: bool = False
) -> "TrajectoryEngine":
    """Reassemble a multi-shard engine from a fleet document's shard list."""
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
