"""The checked-in golden content-hash table must track the corpus
generator: a CORPUS_VERSION bump without re-running
tools/gen_golden_hashes.py would silently fail the driver's
extract_content_hashes oracle row — fail HERE instead, with the fix in
the message."""

from __future__ import annotations

import pathlib
import sys

import pyarrow.parquet as pq

from rika_ray.corpus import CORPUS_VERSION

# the golden generators live in tools/
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

STALE_MSG = (
    "golden_content_hashes_sf0.01.parquet is stale — regenerate with "
    "`python tools/gen_golden_hashes.py` and commit the result"
)


def test_golden_hash_table_matches_current_corpus():
    from gen_golden_hashes import OUT, golden_table

    checked_in = pq.read_table(OUT)
    meta = checked_in.schema.metadata or {}
    assert meta.get(b"corpus_version") == str(CORPUS_VERSION).encode(), STALE_MSG

    fresh = golden_table()
    assert checked_in.num_rows == fresh.num_rows, STALE_MSG
    assert checked_in.schema.names == fresh.schema.names, STALE_MSG
    for col in fresh.schema.names:
        assert (
            checked_in.column(col).to_pylist() == fresh.column(col).to_pylist()
        ), f"{STALE_MSG} (column {col!r} differs)"


def test_golden_lang_table_matches_current_detector():
    """The lang_id golden is a detector-regression pin: recompute the full
    table (500 docs, vectorized — cheap) and require equality, plus the
    recorded input md5 to match the driver's documents table."""
    from gen_golden_lang import OUT as LANG_OUT
    from gen_golden_lang import docs_md5, golden_table as lang_golden

    checked_in = pq.read_table(LANG_OUT)
    meta = checked_in.schema.metadata or {}
    stale = (
        "golden_lang_id_sf0.01.parquet is stale — regenerate with "
        "`python tools/gen_golden_lang.py` and commit the result"
    )
    assert meta.get(b"docs_md5") == docs_md5().encode(), stale
    fresh = lang_golden()
    assert checked_in.column("doc_id").to_pylist() == fresh.column("doc_id").to_pylist(), stale
    assert (
        checked_in.column("language").to_pylist()
        == fresh.column("language").to_pylist()
    ), stale


def test_golden_rolling_table_matches_the_engine():
    """The rolling-fingerprint golden is recomputed from the definition in
    plain Python (tools/gen_golden_rolling.py); the engine's vectorized
    kernel must give the same value for every document, and the recorded
    input md5 must match the driver's documents table."""
    from gen_golden_lang import DOCS, docs_md5
    from gen_golden_rolling import OUT as ROLLING_OUT

    from rika_ray.functions.text import rolling_fingerprint

    checked_in = pq.read_table(ROLLING_OUT)
    stale = (
        "golden_rolling_fingerprint_sf0.01.parquet is stale — regenerate "
        "with `python tools/gen_golden_rolling.py` and commit the result"
    )
    meta = checked_in.schema.metadata or {}
    assert meta.get(b"docs_md5") == docs_md5().encode(), stale
    docs = pq.read_table(DOCS, columns=["doc_id", "text"]).sort_by("doc_id")
    assert checked_in.column("doc_id").to_pylist() == docs["doc_id"].to_pylist(), stale
    engine = [rolling_fingerprint(t) for t in docs["text"].to_pylist()]
    assert checked_in.column("fingerprint").to_pylist() == engine


def test_golden_hash_table_is_sorted_and_plausible():
    from gen_golden_hashes import OUT

    t = pq.read_table(OUT)
    rows = list(
        zip(t.column("url").to_pylist(), t.column("content_md5").to_pylist())
    )
    assert rows == sorted(rows)
    non_empty = [h for _, h in rows if h]
    assert len(non_empty) > 0.8 * len(rows)  # most rows extract cleanly
    assert all(len(h) == 32 for h in non_empty)
