"""Composed training-data curation pipeline (the task brief's flagship
composition): quality filter → exact dedup → per-domain cap, end to end as
ONE streaming Dataset program.

Each stage is the already-oracled operator re-expressed over a flowing
Dataset instead of a fresh read — demonstrating that the engine's
operators compose without materializing between stages:

1. **Quality filter** — token count ≥ ``min_words`` (Arrow C++ tokenize,
   same normative tokenizer as ``text_analysis``).
2. **Exact dedup** — the 128-bit content key of
   ``dedup.dedup_exact_survivors`` (``dedup.content_key``); the smallest
   doc_id per key survives with its source, as the first row per key of
   ``relational.first_per_key`` — no join back to the metadata.
3. **Per-domain cap** — at most ``per_source_cap`` docs per source
   (CCNet/Gopher-style quota), the same ``first_per_key`` as
   ``relational.domain_cap_sample``.

Scale notes: text is dropped right after hashing (stages 2 and 3 move
(doc_id, source, 16-byte key) rows); both stages shuffle on the bounded
partition key of ``pipelines.aggregate`` (mix64(key) % P), so a hot text
or domain costs one partition sort, never an unbounded group.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from rika_ray.functions.text import tokenize_arrow
from rika_ray.pipelines.dedup import CONTENT_KEY, content_key
from rika_ray.pipelines.relational import first_per_key
from rika_ray.sources.parquet import read_parquet_clean


def curated_docs(
    sf_dir: str,
    min_words: int = 50,
    per_source_cap: int = 20,
) -> ray.data.Dataset:
    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )

    # stage 1+2a fused in one scan: quality-filter the batch, then key the
    # survivors' text and DROP it — downstream moves 16-byte keys + source
    def _filter_key(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_arrow(batch["text"])
        n_words = pc.list_value_length(toks)
        batch = batch.filter(
            pc.greater_equal(n_words, pa.scalar(min_words, pa.int32()))
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                **content_key(batch["text"]),
            }
        )

    keyed = docs.map_batches(_filter_key, batch_format="pyarrow", batch_size=2048)
    survivors = first_per_key(keyed, CONTENT_KEY, "doc_id", 1).select_columns(
        ["doc_id", "source"]
    )
    return first_per_key(survivors, ["source"], "doc_id", per_source_cap).sort(
        "doc_id"
    )
