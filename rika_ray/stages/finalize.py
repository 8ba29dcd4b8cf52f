"""Finalization: truncation, metadata enrichment + key sort, provenance
columns (operators M8-M11, M13, SURVEY.md §2.2).

Reference semantics recreated:

- content truncation by **characters**, not bytes; ``-1`` = unlimited,
  ``0`` = suppress text; truncated output is a strict prefix of the full
  output (``/root/reference/lib/rika/parser.rb:28``,
  ``lib/rika/cli/rika_command.rb:233-237``; char-counted proof
  ``spec/rika/parser_spec.rb:164-166``; prefix property
  ``spec/integration/document_processing_spec.rb:88-105``).
- metadata enrichment: inject ``rika:language`` and ``rika:data-source``
  (``lib/rika/parser.rb:31-32``) plus the full ``Content-Type``.
- metadata key sort, case-insensitive, on by default, toggleable
  (``lib/rika/parser.rb:34``; default ``lib/rika/cli/args_parser.rb:21``).
- input-type classification file/http from the data-source string
  (``lib/rika/parser.rb:59-71``).

Stateless batch function, the last stage of the fused kernel; truncation
is a vectorized ``pc.utf8_slice_codepoints`` call.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from rika_ray.schema import EXTRACTED_SCHEMA, METADATA_TYPE


def finalize_batch(
    batch: pa.Table,
    *,
    max_content_length: int = -1,
    key_sort: bool = True,
) -> pa.Table:
    n = len(batch)
    urls = batch["url"].to_pylist()
    languages = batch["language"].to_pylist()
    ctypes = batch["content_type"].to_pylist()
    err_t = batch["error_type"].to_pylist()
    meta_col = batch["metadata"].to_pylist()

    # --- truncation (vectorized, char-counted) ---
    content = batch["content"]
    if max_content_length == 0:
        content = pa.array(
            ["" if err is None else None for err in err_t], pa.large_string()
        )
    elif max_content_length > 0:
        # slices by Unicode codepoints — rika counts characters, not bytes
        # ('Stopping' = 8 chars, spec/rika/parser_spec.rb:164-166)
        content = pc.utf8_slice_codeunits(content, 0, max_content_length)

    # --- metadata enrichment + key sort ---
    meta_out: list[list | None] = [None] * n
    for i in range(n):
        if err_t[i] is not None:
            continue
        pairs = {p["key"]: p["value"] for p in (meta_col[i] or [])}
        if ctypes[i] is not None:
            pairs["Content-Type"] = ctypes[i]
        pairs["rika:language"] = languages[i] or ""
        pairs["rika:data-source"] = urls[i]
        keys = (
            sorted(pairs, key=lambda s: (s.lower(), s)) if key_sort else pairs
        )
        meta_out[i] = [{"key": k, "value": pairs[k]} for k in keys]

    # --- provenance ---
    is_http = pc.match_substring_regex(batch["url"], r"^https?://")
    input_type = pc.if_else(is_http, "http", "file")

    cols = {
        "url": batch["url"],
        "warc_ts": batch["warc_ts"],
        "content": content,
        "content_type": batch["content_type"],
        "media_type": batch["media_type"],
        "charset": batch["charset"],
        "language": batch["language"],
        "input_type": input_type,
        "data_source": batch["url"],
        "metadata": pa.array(meta_out, METADATA_TYPE),
        "spans": batch["spans"],
        "error_type": batch["error_type"],
        "error_message": batch["error_message"],
    }
    arrays = [
        pa.array(c) if not isinstance(c, (pa.Array, pa.ChunkedArray)) else c
        for c in cols.values()
    ]
    out = pa.table(dict(zip(cols.keys(), arrays)))
    return out.cast(EXTRACTED_SCHEMA)

