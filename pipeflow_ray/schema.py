"""Schema model.

The reference's data model is a dynamic, case-insensitive per-row dict
(``PipeFlow/DataRow.cs:9-16``, ``StringComparer.OrdinalIgnoreCase`` at
``DataRow.cs:14``) with no table-level schema: writers infer the column set
from the first row (``PipeFlow/CsvWriter.cs:71-72``). We replace that with a
fixed, declared ``pyarrow.Schema`` per dataset: column names are canonicalized
ONCE at ingest (a single normalization pass stands in for case-insensitive
lookup), and every operator thereafter sees exact names. Writers fail fast on
schema mismatch instead of silently dropping columns.
"""

from __future__ import annotations

import pyarrow as pa

# Authoritative flagship input shape (BASELINE.json input_hint): a Parquet
# table of multi-turn conversation / agent transcripts.
TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),  # nullable: only set on role == "tool" rows
        pa.field("ts", pa.timestamp("us")),
    ]
)


def canonicalize_columns(table: pa.Table, rename: dict[str, str] | None = None) -> pa.Table:
    """Normalize column names (strip + case-insensitive match against *rename*).

    Stands in for the reference's per-lookup case-insensitivity
    (``PipeFlow/DataRow.cs:30-36``): we pay the normalization once per batch at
    ingest instead of per cell access.
    """
    lower_map = {k.lower(): v for k, v in (rename or {}).items()}
    new_names = []
    for name in table.column_names:
        stripped = name.strip()
        new_names.append(lower_map.get(stripped.lower(), stripped))
    if new_names != table.column_names:
        table = table.rename_columns(new_names)
    return table
