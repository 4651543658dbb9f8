"""Serialisable postings: blocking-key → member-id lists as flat arrays.

The incremental engine's blocking-key index (``key → [record ids]`` in
insertion order) is the one piece of state the v1 checkpoint format
deliberately re-derived from the records at restore (calling
``blocking_keys`` once per record — a Python-level pass over the whole
corpus).  The columnar sidecar persists it instead: keys are encoded
into a tagged byte pool, member lists into one CSR pair, and restore
rebuilds the index with zero predicate calls.

Keys are arbitrary hashables produced by user predicates, so encoding
is best-effort: the tagged codec covers ``str``/``int``/``float``/
``bool``/``None`` and (nested) tuples of those — everything the
library predicates emit.  Anything else raises
:class:`KeyEncodingError`; the engine then simply omits the postings
section and restore falls back to the v1 re-derivation.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from collections.abc import Hashable, Mapping

import numpy as np

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")
_S, _I, _T, _N, _TRUE, _FALSE, _F = b"sitnTFf"


class KeyEncodingError(TypeError):
    """A blocking key's type is outside the tagged codec's domain."""


def encode_key(key: Hashable) -> bytes:
    """Encode one blocking key; decodes back to an equal object."""
    out = bytearray()
    _encode_into(key, out)
    return bytes(out)


def _encode_into(obj, out: bytearray) -> None:
    if obj is None:
        out += b"n"
    elif isinstance(obj, bool):
        out += b"T" if obj else b"F"
    elif isinstance(obj, int):
        text = str(obj).encode("ascii")
        out += b"i" + _LEN.pack(len(text)) + text
    elif isinstance(obj, float):
        out += b"f" + _F64.pack(obj)
    elif isinstance(obj, str):
        text = obj.encode("utf-8")
        out += b"s" + _LEN.pack(len(text)) + text
    elif isinstance(obj, tuple):
        out += b"t" + _LEN.pack(len(obj))
        for item in obj:
            _encode_into(item, out)
    else:
        raise KeyEncodingError(
            f"blocking key of type {type(obj).__name__} is not encodable"
        )


def decode_key(blob: bytes) -> Hashable:
    """Inverse of :func:`encode_key`."""
    value, pos = _decode_from(blob, 0)
    if pos != len(blob):
        raise ValueError(f"trailing bytes after key at offset {pos}")
    return value


def _decode_from(blob: bytes, pos: int):
    # Tags compare as ints (``blob[pos]``), strings and tuples first:
    # they are what the library predicates emit.
    tag = blob[pos]
    pos += 1
    if tag == _S or tag == _I:
        (length,) = _LEN.unpack_from(blob, pos)
        pos += _LEN.size
        raw = blob[pos : pos + length]
        pos += length
        if tag == _I:
            return int(raw.decode("ascii")), pos
        return raw.decode("utf-8"), pos
    if tag == _T:
        (count,) = _LEN.unpack_from(blob, pos)
        pos += _LEN.size
        items = []
        for _ in range(count):
            item, pos = _decode_from(blob, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _N:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _F:
        return _F64.unpack_from(blob, pos)[0], pos + _F64.size
    raise ValueError(f"unknown key tag {bytes([tag])!r} at offset {pos - 1}")


def postings_to_arrays(
    key_members: Mapping[Hashable, list[int]], prefix: str = "keys."
) -> dict[str, np.ndarray]:
    """Flatten a key index into ``{blob, offsets, indptr, members}``.

    Raises :class:`KeyEncodingError` when any key is outside the codec's
    domain (the caller degrades to not persisting the index).
    """
    blobs: list[bytes] = []
    key_offsets = [0]
    indptr = [0]
    members: list[int] = []
    total = 0
    for key, ids in key_members.items():
        encoded = encode_key(key)
        blobs.append(encoded)
        total += len(encoded)
        key_offsets.append(total)
        members.extend(ids)
        indptr.append(len(members))
    return {
        f"{prefix}blob": np.frombuffer(b"".join(blobs), dtype=np.uint8),
        f"{prefix}offsets": np.asarray(key_offsets, dtype=np.int64),
        f"{prefix}indptr": np.asarray(indptr, dtype=np.int64),
        f"{prefix}members": np.asarray(members, dtype=np.int64),
    }


def postings_from_arrays(
    arrays, prefix: str = "keys."
) -> defaultdict[Hashable, list[int]]:
    """Inverse of :func:`postings_to_arrays`: rebuild the live index.

    Insertion order of keys and of the ids inside each list round-trips
    exactly — the engine's audit checks per-key id monotonicity and the
    verification path slices lists by recency, both order-sensitive.
    """
    blob = np.asarray(arrays[f"{prefix}blob"], dtype=np.uint8).tobytes()
    # One bulk conversion per array: indexing a mapped array per key
    # would cost a NumPy scalar read each.
    offsets = arrays[f"{prefix}offsets"].tolist()
    indptr = arrays[f"{prefix}indptr"].tolist()
    members = arrays[f"{prefix}members"].tolist()
    index: defaultdict[Hashable, list[int]] = defaultdict(list)
    for slot in range(len(offsets) - 1):
        key = decode_key(blob[offsets[slot] : offsets[slot + 1]])
        index[key] = members[indptr[slot] : indptr[slot + 1]]
    return index
