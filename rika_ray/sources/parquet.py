"""Metadata-clean parquet reads.

Pandas-written parquet (the driver's testdata tables) carries a ``pandas``
schema-metadata blob whose nested dict makes the ``pa.Schema`` unhashable.
Every downstream block concat/unify then falls off Ray's fast
hash-deduplication path and logs "Failed to hash the schemas (for
deduplication)" once per worker — cosmetic, but it also means every unify
pays the slow structural comparison. Stripping the metadata once at the
read gives every block in the pipeline a hashable schema.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def read_parquet_clean(path, *, columns: list[str] | None = None, **kwargs):
    """``ray.data.read_parquet`` with file-level metadata stripped from the
    schema (see module docstring). Falls back to a plain read when the
    schema can't be probed up front (directory inputs, missing columns)."""
    schema = None
    try:
        probe = path[0] if isinstance(path, (list, tuple)) else path
        schema = pq.read_schema(probe).remove_metadata()
    except Exception:
        schema = None
    if schema is not None and columns is not None:
        try:
            # read_parquet applies the column projection inside the scan;
            # the explicit schema must describe the PROJECTED batches
            schema = pa.schema([schema.field(c) for c in columns])
        except KeyError:
            schema = None
    if schema is not None:
        kwargs["schema"] = schema
    return ray.data.read_parquet(path, columns=columns, **kwargs)
