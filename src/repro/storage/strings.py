"""Dictionary-encoded string storage: one UTF-8 blob + int64 offsets.

A :class:`StringPool` keeps every distinct string as a slice of a
single (possibly mapped) byte blob: ``pool[i]`` decodes one string,
:meth:`StringPool.decode_all` decodes every string once, which is how
a checkpoint restore gets one ``str`` per distinct field value.  This
extends the intent of :class:`repro.similarity.encoding.TokenDictionary`
(string → small int at ingest) with the inverse direction served from
disk.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


class StringPool(Sequence):
    """An immutable, index-addressed pool of UTF-8 strings.

    ``pool[i]`` decodes string *i* from the blob; building the reverse
    ``str → id`` map (:meth:`index`) is deferred until someone actually
    needs to encode, so a cold start pays nothing for it.
    """

    __slots__ = ("_blob", "_offsets", "_index")

    def __init__(self, blob: np.ndarray, offsets: np.ndarray):
        self._blob = np.asarray(blob, dtype=np.uint8)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        if self._offsets.ndim != 1 or len(self._offsets) == 0:
            raise ValueError("offsets must be a non-empty 1-d int64 array")
        self._index: dict[str, int] | None = None

    @classmethod
    def build(cls, strings: Iterable[str]) -> "StringPool":
        """Encode *strings* (in order) into a fresh in-memory pool."""
        chunks: list[bytes] = []
        offsets = [0]
        total = 0
        for text in strings:
            encoded = text.encode("utf-8")
            chunks.append(encoded)
            total += len(encoded)
            offsets.append(total)
        blob = np.frombuffer(b"".join(chunks), dtype=np.uint8)
        return cls(blob, np.asarray(offsets, dtype=np.int64))

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i: int) -> str:
        start, end = self._offsets[i], self._offsets[i + 1]
        return self._blob[start:end].tobytes().decode("utf-8")

    def __iter__(self):
        return iter(self.decode_all())

    def decode_all(self) -> list[str]:
        """Every string in order, each decoded once from one bulk read
        of the blob."""
        blob = self._blob.tobytes()
        offsets = self._offsets.tolist()
        return [
            blob[start:end].decode("utf-8")
            for start, end in zip(offsets, offsets[1:])
        ]

    def index(self) -> dict[str, int]:
        """The reverse map (str → id), built on first use and cached."""
        if self._index is None:
            self._index = {text: i for i, text in enumerate(self)}
        return self._index

    def to_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        """The pool's physical arrays, named ``<prefix>blob``/``offsets``."""
        return {f"{prefix}blob": self._blob, f"{prefix}offsets": self._offsets}

    @classmethod
    def from_arrays(cls, arrays, prefix: str) -> "StringPool":
        """Rebuild a pool from :meth:`to_arrays` output (mapped or not)."""
        return cls(arrays[f"{prefix}blob"], arrays[f"{prefix}offsets"])
