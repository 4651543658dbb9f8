"""CSV round-tripping for labeled datasets.

`python -m repro generate` writes synthetic corpora with a
``gold_entity`` column; this module reads such files (or any labeled
CSV in the same shape) back into a :class:`SyntheticDataset`, so
external data can flow through the validation, training and experiment
machinery unchanged.
"""

from __future__ import annotations

import csv
import math

from ..core.records import RecordStore
from .base import SyntheticDataset

WEIGHT_COLUMN = "weight"
LABEL_COLUMN = "gold_entity"


def save_dataset(dataset: SyntheticDataset, path: str) -> None:
    """Write *dataset* to *path* as CSV with weight and gold columns."""
    field_names = list(dataset.store[0].fields)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*field_names, WEIGHT_COLUMN, LABEL_COLUMN])
        for record, label in zip(dataset.store, dataset.labels):
            writer.writerow(
                [*(record[f] for f in field_names), record.weight, label]
            )


def load_dataset(path: str) -> SyntheticDataset:
    """Read a labeled CSV (as written by :func:`save_dataset` or the CLI
    ``generate`` command) back into a :class:`SyntheticDataset`.

    Requires a ``gold_entity`` column; ``weight`` is optional (defaults
    to 1.0).  Entity labels may be arbitrary strings — they are
    re-encoded densely.
    """
    rows: list[dict[str, str]] = []
    weights: list[float] = []
    raw_labels: list[str] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or LABEL_COLUMN not in reader.fieldnames:
            raise ValueError(
                f"{path} lacks the required {LABEL_COLUMN!r} column "
                f"(columns: {reader.fieldnames})"
            )
        has_weight = WEIGHT_COLUMN in reader.fieldnames
        for row in reader:
            raw_labels.append(row.pop(LABEL_COLUMN))
            if has_weight:
                raw_weight = row.pop(WEIGHT_COLUMN)
                try:
                    weight = float(raw_weight)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"malformed weight {raw_weight!r} "
                        f"(row {len(rows) + 1} of {path})"
                    ) from None
                if not math.isfinite(weight):
                    # nan/inf weights silently poison every weight sum,
                    # bound, and comparison downstream — reject up front.
                    raise ValueError(
                        f"non-finite weight {raw_weight!r} "
                        f"(row {len(rows) + 1} of {path}); weights must "
                        f"be finite numbers"
                    )
                weights.append(weight)
            else:
                weights.append(1.0)
            rows.append({k: (v or "") for k, v in row.items()})
    if not rows:
        raise ValueError(f"{path} contains no data rows")

    encoding: dict[str, int] = {}
    labels = []
    for raw in raw_labels:
        if raw not in encoding:
            encoding[raw] = len(encoding)
        labels.append(encoding[raw])
    store = RecordStore.from_rows(rows, weights=weights)
    return SyntheticDataset(store=store, labels=labels)
