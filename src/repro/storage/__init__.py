"""Columnar engine checkpoints: the array sidecar and its parts.

Every :class:`~repro.core.incremental.IncrementalTopK` checkpoint keeps
its bulk state in one ``columnar-<entries>.col`` array container next
to a small JSON checkpoint file.  The layers:

- :mod:`~repro.storage.layout` — the physical array container
  (named, checksummed NumPy buffers in one file, opened via
  ``np.memmap``).
- :mod:`~repro.storage.strings` — dictionary-encoded string pools.
- :mod:`~repro.storage.columnar` — records as CSR field columns,
  decoded back into a record list in one bulk pass.
- :mod:`~repro.storage.postings` — blocking-key postings as flat
  arrays with a tagged key codec.
- :mod:`~repro.storage.engine_state` — the sidecar schema and its
  vectorised closure validation.

See ``docs/storage.md`` for the layout and how checkpoint sidecars
interact with WAL pruning.
"""

from .columnar import RecordColumns
from .engine_state import (
    EngineStateColumns,
    build_sidecar_arrays,
    open_sidecar,
    resolve_roots,
)
from .layout import ArrayFileError, MappedArrays, read_header_meta, write_arrays
from .postings import (
    KeyEncodingError,
    decode_key,
    encode_key,
    postings_from_arrays,
    postings_to_arrays,
)
from .strings import StringPool

__all__ = [
    "ArrayFileError",
    "EngineStateColumns",
    "KeyEncodingError",
    "MappedArrays",
    "RecordColumns",
    "StringPool",
    "build_sidecar_arrays",
    "decode_key",
    "encode_key",
    "open_sidecar",
    "postings_from_arrays",
    "postings_to_arrays",
    "read_header_meta",
    "resolve_roots",
    "write_arrays",
]
