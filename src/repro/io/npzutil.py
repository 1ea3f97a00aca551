"""Tiny helpers shared by the ``.npz``-writing persistence paths.

Besides suffix normalisation this module owns :func:`load_npz_arrays`, the
zero-copy ``.npz`` reader behind ``load_index(..., mmap=True)``: an ``.npz``
archive is a ZIP container of ``.npy`` members, and when a member is stored
**uncompressed** (``ZIP_STORED`` — what plain ``np.savez`` writes) its array
data sits contiguously in the archive file at a computable offset, so the
reader can hand back an ``np.memmap`` window into the archive instead of
decompressing and copying the payload.  Loading an index then costs parsing a
few hundred header bytes per array; the array pages fault in lazily from the
OS page cache and are **shared** between every process that maps the same
archive — N shard workers hold one physical copy of the index.

Compressed members (``np.savez_compressed`` — every archive written before
the mmap-able layout, and the default for human-facing exports where size
matters) fall back to the ordinary decompress-and-copy parse, so old saves
load with ``mmap=True`` transparently, just without the sharing.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np


def ensure_npz_suffix(path: Path) -> Path:
    """Normalise a path to the name ``np.savez`` actually wrote.

    ``np.savez``/``np.savez_compressed`` append ``.npz`` when the target has a
    different suffix; callers returning the written path must mirror that.
    """
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _member_data_offset(handle, info: zipfile.ZipInfo) -> int:
    """Absolute file offset of a stored member's ``.npy`` bytes.

    ``info.header_offset`` points at the member's *local file header*, whose
    length is 30 fixed bytes plus the filename and extra fields actually
    written there (the central directory's copies can differ, so the local
    header is read directly).
    """
    handle.seek(info.header_offset)
    local_header = handle.read(30)
    if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
        raise ValueError(f"corrupt zip local header for member {info.filename!r}")
    name_length = int.from_bytes(local_header[26:28], "little")
    extra_length = int.from_bytes(local_header[28:30], "little")
    return info.header_offset + 30 + name_length + extra_length


def load_npz_arrays(
    path: str | Path, mmap_mode: str | None = None
) -> dict[str, np.ndarray]:
    """Load every array of an ``.npz`` archive, memory-mapping when possible.

    With ``mmap_mode=None`` this is ``np.load`` materialised into a plain
    dict.  With a mode (``"r"`` for the read-only sharing the persistence
    layer uses), the file is mapped once and each uncompressed member comes
    back as an ``np.memmap`` window into that map, its ``.npy`` header read
    straight from the file; compressed members and object-dtype members fall
    back to a full parse.  Read-only maps raise on any write attempt, which
    is exactly the guard the copy-on-grow tests rely on.
    """
    path = Path(path)
    if mmap_mode is None:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    arrays: dict[str, np.ndarray] = {}
    whole: np.memmap | None = None
    with zipfile.ZipFile(path) as archive, path.open("rb") as handle:
        for info in archive.infolist():
            name = info.filename
            key = name[:-4] if name.endswith(".npy") else name
            dtype = None
            if info.compress_type == zipfile.ZIP_STORED:
                handle.seek(_member_data_offset(handle, info))
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            if dtype is None or dtype.hasobject:
                # Compressed, object-dtype or an .npy generation this
                # reader does not know: a full parse.
                with archive.open(info) as member:
                    arrays[key] = np.lib.format.read_array(member)
                continue
            count = int(np.prod(shape))
            if count == 0:
                # Zero-byte payloads cannot be mapped; an empty array is
                # indistinguishable from one anyway.
                arrays[key] = np.empty(shape, dtype=dtype)
                continue
            if whole is None:
                whole = np.memmap(path, dtype=np.uint8, mode=mmap_mode)
            start = handle.tell()
            window = whole[start : start + count * dtype.itemsize].view(dtype)
            arrays[key] = window.reshape(shape, order="F" if fortran else "C")
    return arrays
