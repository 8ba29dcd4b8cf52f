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
    urls = batch["url"].to_pylist()
    languages = batch["language"].to_pylist()
    ctypes = batch["content_type"].to_pylist()
    err_t = batch["error_type"].to_pylist()

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

    metadata = _enriched_metadata(
        batch["metadata"].combine_chunks(), ctypes, languages, urls, err_t,
        key_sort,
    )

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
        "metadata": metadata,
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


def _enriched_metadata(
    meta: pa.LargeListArray,
    ctypes: list,
    languages: list,
    urls: list,
    err_t: list,
    key_sort: bool,
) -> pa.LargeListArray:
    """The metadata column with ``Content-Type``, ``rika:language`` and
    ``rika:data-source`` injected (an injected key replaces the
    extractor's value and keeps its place), key-sorted case-insensitively
    when ``key_sort``; null on error rows. Reads the flattened key/value
    children and the offsets, never a per-row dict."""
    offsets = meta.offsets.to_pylist()  # into the unsliced children
    base = offsets[0]
    entries = meta.values.slice(base, offsets[-1] - base)
    keys = entries.field("key").to_pylist()
    values = entries.field("value").to_pylist()
    valid = meta.is_valid().to_pylist() if meta.null_count else None
    out_keys: list[str] = []
    out_values: list[str | None] = []
    out_offsets = [0]
    for i, err in enumerate(err_t):
        if err is None:
            lo, hi = offsets[i] - base, offsets[i + 1] - base
            if valid is not None and not valid[i]:
                lo = hi  # a null list: no extractor keys
            pairs = dict(zip(keys[lo:hi], values[lo:hi]))
            if ctypes[i] is not None:
                pairs["Content-Type"] = ctypes[i]
            pairs["rika:language"] = languages[i] or ""
            pairs["rika:data-source"] = urls[i]
            order = sorted(pairs, key=lambda s: (s.lower(), s)) if key_sort else pairs
            out_keys.extend(order)
            out_values.extend(map(pairs.__getitem__, order))
        out_offsets.append(len(out_keys))
    entries = pa.StructArray.from_arrays(
        [pa.array(out_keys, pa.string()), pa.array(out_values, pa.string())],
        fields=list(METADATA_TYPE.value_type),
    )
    return pa.LargeListArray.from_arrays(
        pa.array(out_offsets, pa.int64()), entries, type=METADATA_TYPE,
        mask=pa.array([err is not None for err in err_t]),
    )
