"""Single-file container for named NumPy arrays, opened via ``np.memmap``.

This is the physical layer of the columnar store: one file holds a JSON
header describing a set of named, typed, CRC32-checksummed arrays,
followed by their raw little-endian buffers at 64-byte-aligned offsets.
Writers produce the file atomically (tmp + fsync + rename + directory
fsync, the same protocol as checkpoints); readers map the whole file
once with ``numpy.memmap`` and expose zero-copy views, so opening a
multi-gigabyte container costs page-table setup, not I/O — pages fault
in lazily as kernels touch them.

The header's own checksum is always verified, so a truncated or
overwritten file is rejected before any view is handed out; array
checksums are verified on request (``verify=True``), which reads every
byte once.  An engine restore always verifies: it decodes every array
anyway, and a damaged body must fail the checkpoint, not decode into
wrong records.

Format (all integers little-endian inside array buffers; the framing
is big-endian to match the WAL/checkpoint framing):

========  ==========================================================
bytes     content
========  ==========================================================
0..8      magic ``b"repocol1"``
8..16     ``>II`` header frame: JSON byte length, CRC32 of the JSON
16..      header JSON: ``{"meta": ..., "arrays": [{name, dtype,
          shape, offset, nbytes, crc32}, ...]}``
...       zero padding to the first 64-byte boundary
...       array buffers, each starting on a 64-byte boundary
========  ==========================================================
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"repocol1"
_FRAME = struct.Struct(">II")  # header byte length, CRC32 of the header
_ALIGN = 64

#: dtypes a container may hold — fixed-width, endian-explicit scalars.
SUPPORTED_DTYPES = frozenset(
    np.dtype(d).str
    for d in (
        "<i1", "<i2", "<i4", "<i8",
        "<u1", "<u2", "<u4", "<u8",
        "<f4", "<f8", "|b1", "|u1", "|i1",
    )
)


class ArrayFileError(ValueError):
    """An array container is structurally invalid or fails a checksum."""


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _pad(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _crc32(array: np.ndarray) -> int:
    """CRC32 of a C-contiguous array's bytes, read in place (no copy)."""
    return zlib.crc32(array) & 0xFFFFFFFF


def array_file_chunks(
    arrays: dict[str, np.ndarray], meta: dict | None = None
) -> list:
    """Encode *arrays* (with JSON-able *meta*) as the container's bytes.

    Returns the buffers to write in order: the framed header, then each
    array body behind its zero padding.  Bodies are the (little-endian,
    C-contiguous) arrays themselves, not copies.  The value stored is
    exactly the value read back (lossless round-trip).
    """
    prepared: list[tuple[str, np.ndarray]] = []
    for name, array in arrays.items():
        if not isinstance(name, str) or not name:
            raise ArrayFileError(f"array name must be a non-empty str: {name!r}")
        array = np.ascontiguousarray(array)
        if array.dtype.byteorder == ">":
            array = array.astype(array.dtype.newbyteorder("<"))
        if array.dtype.str not in SUPPORTED_DTYPES:
            raise ArrayFileError(
                f"array {name!r} has unsupported dtype {array.dtype.str!r}"
            )
        prepared.append((name, array))

    # Lay out offsets: the header length feeds back into the first
    # offset, so compute with a fixed-point pass (offsets are zero-padded
    # decimal of constant width, making the header size stable).
    entries = []
    for name, array in prepared:
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": 0,
                "nbytes": int(array.nbytes),
                "crc32": _crc32(array),
            }
        )
    header = {"meta": meta or {}, "arrays": entries}

    def _encode() -> bytes:
        return json.dumps(header, separators=(",", ":")).encode("utf-8")

    # Two passes reach a fixed point: offsets only grow if the header
    # grows, and a second pass with final offsets has a final size.
    for _ in range(8):
        blob = _encode()
        cursor = _pad(len(MAGIC) + _FRAME.size + len(blob))
        changed = False
        for entry in entries:
            if entry["offset"] != cursor:
                entry["offset"] = cursor
                changed = True
            cursor = _pad(cursor + entry["nbytes"])
        if not changed:
            break
    else:  # pragma: no cover - offsets stabilise in <= 2 passes
        raise ArrayFileError("array layout did not stabilise")

    blob = _encode()
    head = MAGIC + _FRAME.pack(len(blob), zlib.crc32(blob) & 0xFFFFFFFF) + blob
    chunks: list = [head]
    written = len(head)
    for entry, (_name, array) in zip(entries, prepared):
        chunks.append(b"\x00" * (entry["offset"] - written))
        chunks.append(array)
        written = entry["offset"] + entry["nbytes"]
    return chunks


def write_arrays(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
    *,
    fsync: bool = True,
) -> Path:
    """Atomically write *arrays* (with JSON-able *meta*) to *path*
    (see :func:`array_file_chunks`)."""
    path = Path(path)
    chunks = array_file_chunks(arrays, meta)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path.parent)
    return path


class MappedArrays:
    """Read-only view of an array container, backed by one ``np.memmap``.

    Views returned by :meth:`array` (and the :attr:`arrays` mapping) are
    zero-copy slices of the mapping — immutable (``writeable=False``)
    and valid for the lifetime of this object.  The underlying mapping
    stays alive as long as any view references it (NumPy keeps the base
    alive), so dropping the container while a view is in flight is safe.
    """

    def __init__(self, path: str | Path, *, verify: bool = False):
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                magic = handle.read(len(MAGIC))
                if magic != MAGIC:
                    raise ArrayFileError(
                        f"{self.path.name}: bad magic {magic!r}"
                    )
                frame = handle.read(_FRAME.size)
                if len(frame) != _FRAME.size:
                    raise ArrayFileError(
                        f"{self.path.name}: truncated header frame"
                    )
                length, crc = _FRAME.unpack(frame)
                blob = handle.read(length)
        except OSError as exc:
            raise ArrayFileError(f"cannot open {self.path}: {exc}") from exc
        if len(blob) != length or zlib.crc32(blob) & 0xFFFFFFFF != crc:
            raise ArrayFileError(
                f"{self.path.name}: header checksum mismatch"
            )
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArrayFileError(
                f"{self.path.name}: header is not valid JSON"
            ) from exc
        self.meta: dict = header.get("meta", {})
        file_size = self.path.stat().st_size
        self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        self._views: dict[str, np.ndarray] = {}
        for entry in header.get("arrays", []):
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            if dtype.str not in SUPPORTED_DTYPES:
                raise ArrayFileError(
                    f"{self.path.name}: array {name!r} has unsupported "
                    f"dtype {entry['dtype']!r}"
                )
            offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
            shape = tuple(int(s) for s in entry["shape"])
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if expected != nbytes or offset < 0 or offset + nbytes > file_size:
                raise ArrayFileError(
                    f"{self.path.name}: array {name!r} extent is "
                    f"inconsistent with the file"
                )
            view = self._mm[offset : offset + nbytes].view(dtype).reshape(shape)
            view.flags.writeable = False
            if verify:
                if _crc32(view) != int(entry["crc32"]):
                    raise ArrayFileError(
                        f"{self.path.name}: array {name!r} checksum mismatch"
                    )
            self._views[name] = view

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Name → mapped view, in header order."""
        return dict(self._views)

    def array(self, name: str) -> np.ndarray:
        try:
            return self._views[name]
        except KeyError:
            raise ArrayFileError(
                f"{self.path.name}: no array named {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)


def read_header_meta(path: str | Path) -> dict:
    """Validate a container's framing and return its ``meta`` (cheap:
    reads the header only, never the array bodies)."""
    return MappedArrays(path).meta
