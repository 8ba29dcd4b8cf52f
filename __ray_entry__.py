"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline over a deterministic
synthetic web_pages corpus (scaled per sf dir); ``queries()`` exposes one
callable per implemented operator from SURVEY.md §2 plus the
training-data-pipeline operators (dedup / similarity / text analysis);
``oracle_sql()`` gives the exact DuckDB equivalent for every
SQL-expressible entry (identical column names; non-SQL-expressible ops are
rows-only by omission).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in rika_ray) calls ``ray.init`` / ``ray.shutdown``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_SMOKE_SF_DIR = "/root/testdata/sf0.001"

# extraction corpus scale per driver sf dir (rows ≈ 18×n + fixed families)
_CORPUS_SCALE = {"sf0.001": 3, "sf0.01": 10, "sf0.1": 40}


def _corpus_path(sf_dir: str) -> str:
    """Deterministic synthetic web_pages corpus cached under /tmp, scaled to
    match the driver's sf tier (the extraction pipeline's input shape is
    fixed by BASELINE.json input_hint, not by the TPC-H tables)."""
    from rika_ray.corpus import CORPUS_VERSION, write_corpus

    name = os.path.basename(os.path.normpath(sf_dir))
    n = _CORPUS_SCALE.get(name, 3)
    out_dir = f"/tmp/rika_ray_corpus/v{CORPUS_VERSION}-{name}-n{n}"
    marker = os.path.join(out_dir, "web_pages.parquet")
    if not os.path.exists(marker):
        # atomic publish: build in a scratch dir, rename into place so a
        # concurrent reader never sees a half-written corpus
        tmp_dir = f"{out_dir}.tmp-{os.getpid()}"
        write_corpus(tmp_dir, n_per_family=n, seed=42)
        try:
            os.replace(tmp_dir, out_dir)
        except OSError:
            import shutil

            shutil.rmtree(tmp_dir, ignore_errors=True)  # lost the race
    return out_dir


def _extract_ds(sf_dir: str):
    from rika_ray.pipelines.extraction import (
        ExtractionConfig,
        build_extraction_pipeline,
        read_web_pages,
    )

    corpus = _corpus_path(sf_dir)
    ds = read_web_pages(f"{corpus}/web_pages.parquet")
    return build_extraction_pipeline(ds, ExtractionConfig())


def entry() -> Any:
    """Flagship pipeline on sf0.001: web_pages → sniff → extract → lang →
    finalize. Returns the extracted Dataset (scalar columns only — nested
    spans/metadata are exercised by the pytest goldens)."""
    ds = _extract_ds(_SMOKE_SF_DIR)
    return ds.select_columns(
        ["url", "content", "content_type", "media_type", "charset",
         "language", "input_type", "data_source", "error_type"]
    )


def _q_extract_full(sf_dir: str):
    return _extract_ds(sf_dir).select_columns(
        ["url", "content", "content_type", "media_type", "charset",
         "language", "error_type"]
    ).sort("url")


_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rika_ray", "data")
_GOLDEN_HASHES = os.path.join(_DATA, "golden_content_hashes_sf0.01.parquet")
_GOLDEN_LANG = os.path.join(_DATA, "golden_lang_id_sf0.01.parquet")
_GOLDEN_ROLLING = os.path.join(_DATA, "golden_rolling_fingerprint_sf0.01.parquet")


def _q_extract_content_hashes(sf_dir: str):
    """Byte-identity invariant for the flagship pipeline as a DRIVER-visible
    oracle row: md5 of every extracted content string ("" for error rows),
    compared against a CHECKED-IN golden table derived from the corpus
    generator's ground truth (tools/gen_golden_hashes.py) — so a silent
    extraction regression breaks hash_match instead of only pytest."""
    import hashlib

    import pyarrow as pa

    def _md5(batch: pa.Table) -> pa.Table:
        # "" (not null) for error rows — null strings crash Ray's sort
        hashes = [
            hashlib.md5(c.encode("utf-8")).hexdigest() if c is not None else ""
            for c in batch["content"].to_pylist()
        ]
        return pa.table(
            {
                "url": batch["url"],
                "content_md5": pa.array(hashes, pa.string()),
            }
        )

    return (
        _extract_ds(sf_dir)
        .select_columns(["url", "content"])
        .map_batches(_md5, batch_format="pyarrow")
        .sort(["url", "content_md5"])
    )


def _q_extract_media_tally(sf_dir: str):
    from rika_ray.pipelines.extraction import media_type_tally

    return media_type_tally(_extract_ds(sf_dir))


def _q_extract_error_tally(sf_dir: str):
    from rika_ray.pipelines.extraction import error_tally

    return error_tally(_extract_ds(sf_dir))


def _q_image_features_decoded(sf_dir: str):
    """Channel means of the image decodes — every raster format
    (PNG/BMP/GIF/TIFF/JPEG/PSD/ICO/lossless WebP) — vs generator-computed
    ground truth in the golden table: pins the whole decode → resize →
    feature path at the driver level. Rows a codec refuses (header-only
    PSD/ICO, VP8X-only WebP) are error rows and carry no ground truth."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rika_ray.pipelines.extraction import read_web_pages
    from rika_ray.pipelines.multimodal import image_feature_pipeline

    corpus = _corpus_path(sf_dir)
    ds = read_web_pages(f"{corpus}/web_pages.parquet")

    def _means(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_null(batch["error"]))
        emb = batch["embedding"].combine_chunks()
        # feature vector layout: [mean_r, mean_g, mean_b, hist...] —
        # flat-buffer slices, no per-row as_py()
        flat = emb.values.to_numpy(zero_copy_only=False)
        offs = emb.offsets.to_numpy(zero_copy_only=False)
        starts = offs[:-1]
        return pa.table(
            {
                "url": batch["url"],
                "format": batch["format"],
                "mean_r": pa.array(flat[starts].astype("float64")),
                "mean_g": pa.array(flat[starts + 1].astype("float64")),
                "mean_b": pa.array(flat[starts + 2].astype("float64")),
            }
        )

    return (
        image_feature_pipeline(ds, target_size=(16, 16))
        .map_batches(_means, batch_format="pyarrow")
        .sort("url")
    )


def _q_audio_features_decoded(sf_dir: str):
    """Frame count + mean frame energy of the REAL-codec audio decodes
    (RIFF/WAVE PCM, native FLAC with Rice/fixed/LPC subframes) vs
    generator-computed ground truth in the golden table — the audio twin
    of ``image_features_decoded``. Formats without a decoder (MP3/Vorbis)
    are error rows and are excluded here."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rika_ray.pipelines.extraction import read_web_pages
    from rika_ray.pipelines.multimodal import audio_frame_pipeline

    corpus = _corpus_path(sf_dir)
    ds = read_web_pages(f"{corpus}/web_pages.parquet")

    def _real_only(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch["format"],
            value_set=pa.array(
                ["audio/vnd.wave", "audio/x-flac"], pa.string()
            ),
        )
        batch = batch.filter(pc.fill_null(keep, False))
        return batch.select(["url", "format", "n_frames", "mean_energy"])

    return (
        audio_frame_pipeline(ds)
        .map_batches(_real_only, batch_format="pyarrow")
        .sort("url")
    )


def _q_video_features_decoded(sf_dir: str):
    """Sampled-frame count + mean per-frame channel means of the video
    decodes (Motion-JPEG AVI: per-frame baseline JPEG) vs generator
    ground truth — the video twin of the image/audio decode oracles.
    Containers without a decoder (MP4) are error rows, which
    ``video_means`` drops."""
    from rika_ray.pipelines.extraction import read_web_pages
    from rika_ray.pipelines.multimodal import video_frame_pipeline, video_means

    corpus = _corpus_path(sf_dir)
    return (
        video_frame_pipeline(read_web_pages(f"{corpus}/web_pages.parquet"))
        .map_batches(video_means, batch_format="pyarrow")
        .sort("url")
    )


def _q_warc_media_tally(sf_dir: str):
    """Common-Crawl-native ingest: corpus pages round-tripped through a
    .warc.gz file (per-record gzip members, ISO 28500 framing) → read_warc
    → extraction → media tally, oracled against the golden table's
    generator ground truth (rows with an empty payload never become WARC
    records — the ``in_warc`` filter)."""
    import pyarrow.parquet as pq

    from rika_ray import docgen
    from rika_ray.pipelines.extraction import (
        ExtractionConfig,
        build_extraction_pipeline,
        media_type_tally,
    )
    from rika_ray.sources.warc import read_warc

    corpus = _corpus_path(sf_dir)
    warc_path = os.path.join(corpus, "segment-00000.warc.gz")
    if not os.path.exists(warc_path):
        web = pq.read_table(f"{corpus}/web_pages.parquet")
        recs = [
            (
                r["url"],
                r["warc_ts"].strftime("%Y-%m-%dT%H:%M:%SZ"),
                r["html"],
                "application/octet-stream",
            )
            for r in web.to_pylist()
            if r["html"]
        ]
        tmp = f"{warc_path}.tmp-{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(docgen.build_warc(recs, gzip_members=True))
        os.replace(tmp, warc_path)
    out = build_extraction_pipeline(read_warc([warc_path]), ExtractionConfig())
    return media_type_tally(out)


def _q_curated_docs(sf_dir: str):
    from rika_ray.pipelines.curation import curated_docs

    return curated_docs(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    from rika_ray.pipelines import dedup, relational, similarity, text_analysis

    return {
        # --- multimodal decode vs generator ground truth (SQL-oracled) ---
        "image_features_decoded": _q_image_features_decoded,
        "audio_features_decoded": _q_audio_features_decoded,
        "video_features_decoded": _q_video_features_decoded,
        # --- extraction pipeline (rows-only: full nested output) ---
        "extract_full": _q_extract_full,
        # --- extraction invariants vs checked-in goldens (SQL-oracled):
        # byte-identity per url, sniffer-dispatch + error-taxonomy tallies,
        # WARC round-trip tally ---
        "extract_content_hashes": _q_extract_content_hashes,
        "extract_media_tally": _q_extract_media_tally,
        "extract_error_tally": _q_extract_error_tally,
        "warc_media_tally": _q_warc_media_tally,
        # --- relational operators (SQL-oracled) ---
        "source_tally": relational.source_tally,
        "lang_claim_tally": relational.lang_claim_tally,
        "top_words": relational.top_words,
        "docs_filter_project": relational.docs_filter_project,
        "lineitem_filter_project": relational.lineitem_filter_project,
        "pricing_summary": relational.pricing_summary,
        "orders_priority_tally": relational.orders_priority_tally,
        "orders_per_segment": relational.orders_per_segment,
        "customers_per_region": relational.customers_per_region,
        "supplier_revenue_by_nation": relational.supplier_revenue_by_nation,
        "top_parts_by_quantity": relational.top_parts_by_quantity,
        "shipping_priority": relational.shipping_priority,
        "returned_items": relational.returned_items,
        "customers_without_urgent_orders": relational.customers_without_urgent_orders,
        "orders_value_class_tally": relational.orders_value_class_tally,
        "part_type_stats": relational.part_type_stats,
        "events_distinct_users": relational.events_distinct_users,
        "events_hourly": relational.events_hourly,
        "events_sliding": relational.events_sliding,
        "top_parts_per_brand": relational.top_parts_per_brand,
        "user_sessions": relational.user_sessions,
        "purchase_last_click": relational.purchase_last_click,
        "dedup_exact": relational.dedup_exact,
        "distinct_langs": relational.distinct_langs,
        "domain_cap_sample": relational.domain_cap_sample,
        # --- text analysis ---
        "doc_token_counts": text_analysis.doc_token_counts,
        "doc_fingerprints_md5": text_analysis.doc_fingerprints_md5,
        "doc_fingerprints_rolling": text_analysis.doc_fingerprints_rolling,
        "quality_scores": text_analysis.quality_scores,
        "quality_filter": text_analysis.quality_filter,
        "lang_id": text_analysis.lang_id,
        # --- composed curation pipeline (quality → dedup → domain cap) ---
        "curated_docs": _q_curated_docs,
        # --- dedup ---
        "dedup_exact_hashed": dedup.dedup_exact_survivors,
        "minhash_pair_set": dedup.minhash_pair_set,
        "neardup_clusters": dedup.neardup_clusters,
        "verify_jaccard_pairs": dedup.verify_jaccard_pairs,
        # oracle_features: MD5 feature hashes so the DuckDB oracle can
        # recompute the exact signatures; production default is the
        # vectorized feature hash (same pair geometry, planted-test-pinned)
        "simhash_neardup_pairs": lambda sf_dir: dedup.simhash_neardup_pairs(
            sf_dir, oracle_features=True
        ),
        "embedding_neardup_pairs": dedup.embedding_neardup_pairs,
        "embedding_neardup_exact": dedup.embedding_neardup_exact,
        # --- similarity search ---
        "ann_topk_bruteforce": similarity.ann_topk_bruteforce,
        "ann_topk_lsh": similarity.ann_topk_lsh,
        "ann_topk_ivf": similarity.ann_topk_ivf,
    }


_TOKENIZE_SQL = "list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '')"

# 3-word shingle set per doc, mirroring the engine's short-doc fallback
# (rika_ray/pipelines/dedup.py shingles_arrow: fewer than K tokens → the
# single shingle of all its tokens joined by a space, empty text → ""):
# without the CASE, tok[i+2] indexes out of range, the NULL shingle is
# stripped by list_distinct, and a short doc silently gets NO signature
# row while the engine assigns one.
_SHINGLES_SQL = (
    "sh AS (SELECT doc_id, CASE WHEN len(tok) < 3 "
    "THEN [array_to_string(tok, ' ')] "
    "ELSE list_distinct([tok[i] || ' ' || tok[i+1] || ' ' || tok[i+2] "
    "FOR i IN range(1, len(tok) - 1)]) END AS shingles FROM tok)"
)


def oracle_sql() -> dict[str, str]:
    return {
        # the oracle side of the byte-identity invariant is the CHECKED-IN
        # golden table (ground truth from the corpus generator, not from a
        # pipeline run) — valid at the driver's oracle tier (sf0.01)
        "extract_content_hashes": (
            f"SELECT url, content_md5 FROM read_parquet('{_GOLDEN_HASHES}') "
            "ORDER BY url, content_md5"
        ),
        # the tally oracles GROUP BY the golden table's generator-derived
        # media_type / error_type ground truth; NULLS FIRST matches the
        # engine's null-sentinel ("\x00<null>") sort position
        "extract_media_tally": (
            "SELECT media_type, COUNT(*) AS \"count()\" FROM "
            f"read_parquet('{_GOLDEN_HASHES}') "
            "GROUP BY media_type ORDER BY media_type NULLS FIRST"
        ),
        "extract_error_tally": (
            "SELECT error_type, COUNT(*) AS \"count()\" FROM "
            f"read_parquet('{_GOLDEN_HASHES}') "
            "GROUP BY error_type ORDER BY error_type NULLS FIRST"
        ),
        "warc_media_tally": (
            "SELECT media_type, COUNT(*) AS \"count()\" FROM "
            f"read_parquet('{_GOLDEN_HASHES}') WHERE in_warc "
            "GROUP BY media_type ORDER BY media_type NULLS FIRST"
        ),
        "image_features_decoded": (
            "SELECT url, media_type AS format, "
            "img_mean_r AS mean_r, img_mean_g AS mean_g, "
            "img_mean_b AS mean_b "
            f"FROM read_parquet('{_GOLDEN_HASHES}') "
            "WHERE img_mean_r IS NOT NULL ORDER BY url"
        ),
        "audio_features_decoded": (
            "SELECT url, media_type AS format, "
            "audio_n_frames::INTEGER AS n_frames, audio_energy AS mean_energy "
            f"FROM read_parquet('{_GOLDEN_HASHES}') "
            "WHERE audio_n_frames IS NOT NULL ORDER BY url"
        ),
        "video_features_decoded": (
            "SELECT url, vid_n_sampled::INTEGER AS n_sampled, "
            "vid_mean_r AS mean_r, vid_mean_g AS mean_g, "
            "vid_mean_b AS mean_b "
            f"FROM read_parquet('{_GOLDEN_HASHES}') "
            "WHERE vid_n_sampled IS NOT NULL ORDER BY url"
        ),
        # detector-regression pin: the engine's frozen lang-ID output over
        # the driver's documents table (tools/gen_golden_lang.py)
        "lang_id": (
            f"SELECT doc_id, language FROM read_parquet('{_GOLDEN_LANG}') "
            "ORDER BY doc_id"
        ),
        # the rolling fingerprint is not SQL-expressible: the golden is
        # recomputed from its definition in plain Python integers over the
        # driver's documents table (tools/gen_golden_rolling.py)
        "doc_fingerprints_rolling": (
            "SELECT doc_id, fingerprint FROM "
            f"read_parquet('{_GOLDEN_ROLLING}') ORDER BY doc_id"
        ),
        "source_tally": (
            "SELECT source, COUNT(*) AS n FROM documents "
            "GROUP BY source ORDER BY source"
        ),
        "lang_claim_tally": (
            "SELECT lang, COUNT(*) AS n FROM documents "
            "GROUP BY lang ORDER BY lang"
        ),
        "top_words": (
            f"SELECT word, COUNT(*) AS cnt FROM ("
            f"SELECT unnest({_TOKENIZE_SQL}) AS word FROM documents) t "
            f"GROUP BY word ORDER BY cnt DESC, word LIMIT 5"
        ),
        "docs_filter_project": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE n_chars > 300 ORDER BY doc_id"
        ),
        "lineitem_filter_project": (
            "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem "
            "WHERE l_quantity > 45.0 ORDER BY l_orderkey, l_linenumber"
        ),
        "pricing_summary": (
            "SELECT l_returnflag, l_linestatus, "
            "SUM(l_quantity) AS sum_qty, "
            "ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price, "
            "COUNT(*) AS count_order "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus"
        ),
        "orders_priority_tally": (
            "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority"
        ),
        "orders_per_segment": (
            "SELECT c_mktsegment, COUNT(*) AS n FROM orders "
            "JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_mktsegment ORDER BY c_mktsegment"
        ),
        "customers_per_region": (
            "SELECT r_name, COUNT(*) AS n FROM customer "
            "JOIN nation ON c_nationkey = n_nationkey "
            "JOIN region ON n_regionkey = r_regionkey "
            "GROUP BY r_name ORDER BY r_name"
        ),
        "domain_cap_sample": (
            "SELECT doc_id, source FROM ("
            "SELECT doc_id, source, ROW_NUMBER() OVER ("
            "PARTITION BY source ORDER BY doc_id) AS rn FROM documents) "
            "WHERE rn <= 20 ORDER BY doc_id"
        ),
        "supplier_revenue_by_nation": (
            "SELECT n_name, "
            "ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue "
            "FROM lineitem "
            "JOIN supplier ON l_suppkey = s_suppkey "
            "JOIN nation ON s_nationkey = n_nationkey "
            "GROUP BY n_name ORDER BY n_name"
        ),
        "top_parts_by_quantity": (
            "SELECT l_partkey, SUM(l_quantity) AS qty FROM lineitem "
            "GROUP BY l_partkey ORDER BY qty DESC, l_partkey LIMIT 10"
        ),
        "shipping_priority": (
            "SELECT l_orderkey, "
            "ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue, "
            "o_orderdate "
            "FROM customer "
            "JOIN orders ON c_custkey = o_custkey "
            "JOIN lineitem ON l_orderkey = o_orderkey "
            "WHERE c_mktsegment = 'BUILDING' "
            "AND o_orderdate < TIMESTAMP '1998-01-01' "
            "AND l_shipdate > TIMESTAMP '1998-01-01' "
            "GROUP BY l_orderkey, o_orderdate "
            "ORDER BY revenue DESC, l_orderkey LIMIT 10"
        ),
        "customers_without_urgent_orders": (
            "SELECT c_custkey, c_name FROM customer "
            "WHERE NOT EXISTS (SELECT 1 FROM orders "
            "WHERE o_custkey = c_custkey AND o_orderpriority = '1-URGENT') "
            "ORDER BY c_custkey"
        ),
        "returned_items": (
            "SELECT c_custkey, c_name, "
            "ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue "
            "FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey "
            "WHERE l_returnflag = 'R' "
            "GROUP BY c_custkey, c_name "
            "ORDER BY revenue DESC, c_custkey LIMIT 20"
        ),
        "orders_value_class_tally": (
            "SELECT o_orderpriority, "
            "SUM(CASE WHEN o_totalprice > 150000.0 THEN 1 ELSE 0 END)::BIGINT AS n_high, "
            "SUM(CASE WHEN o_totalprice <= 150000.0 THEN 1 ELSE 0 END)::BIGINT AS n_low "
            "FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority"
        ),
        "part_type_stats": (
            "SELECT p_type, COUNT(*) AS n, "
            "ROUND(SUM(p_retailprice) / COUNT(*), 2) AS avg_price, "
            # BIGINT casts: the engine emits int64; DuckDB MIN/MAX keep the
            # column's int32 — same values, but uniform widths keep the
            # driver's hash comparison out of dtype territory
            "MIN(p_size)::BIGINT AS min_size, MAX(p_size)::BIGINT AS max_size "
            "FROM part GROUP BY p_type ORDER BY p_type"
        ),
        "events_distinct_users": (
            "SELECT event_type, COUNT(DISTINCT user_id) AS n_users "
            "FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "events_hourly": (
            "SELECT date_trunc('hour', ts) AS window_start, event_type, "
            "COUNT(*) AS n, "
            # integer-cents stabilization (see relational.events_hourly):
            # exact integer + one IEEE division = bit-identical across
            # engines regardless of float summation order
            "CAST(ROUND(SUM(value) * 100, 0) AS BIGINT) / 100.0 AS sum_value "
            "FROM events GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "top_parts_per_brand": (
            # per-group top-k = the ROW_NUMBER window the engine computes
            # with an in-batch combiner + per-brand ranking
            "SELECT p_brand, p_partkey, p_retailprice, rank FROM ("
            "SELECT p_brand, p_partkey, p_retailprice, "
            "ROW_NUMBER() OVER (PARTITION BY p_brand "
            "ORDER BY p_retailprice DESC, p_partkey) AS rank FROM part) "
            "WHERE rank <= 3 ORDER BY p_brand, rank"
        ),
        "events_sliding": (
            # 3-hour window stepping hourly: an hour bucket h contributes
            # to windows h, h-1h, h-2h — same mapping the engine explodes
            "WITH h AS (SELECT date_trunc('hour', ts) AS hour, "
            "COUNT(*) AS n FROM events GROUP BY 1), "
            "x AS (SELECT unnest([hour, hour - INTERVAL 1 HOUR, "
            "hour - INTERVAL 2 HOUR]) AS window_start, n FROM h) "
            "SELECT window_start, SUM(n)::BIGINT AS n_events FROM x "
            "GROUP BY window_start ORDER BY window_start"
        ),
        "user_sessions": (
            "SELECT user_id, MIN(ts) AS session_start, COUNT(*) AS n, "
            "ROUND(SUM(value), 2) AS sum_value FROM ("
            "  SELECT *, SUM(is_new) OVER ("
            "    PARTITION BY user_id ORDER BY ts "
            "    ROWS UNBOUNDED PRECEDING) AS session_id FROM ("
            "    SELECT *, CASE WHEN ts - LAG(ts) OVER ("
            "      PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE "
            "      OR LAG(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL "
            "      THEN 1 ELSE 0 END AS is_new FROM events) t1) t2 "
            "GROUP BY user_id, session_id "
            "ORDER BY user_id, session_start"
        ),
        "purchase_last_click": (
            "SELECT p.event_id, "
            "(SELECT MAX(c.ts) FROM events c WHERE c.user_id = p.user_id "
            " AND c.event_type = 'click' AND c.ts <= p.ts) AS last_click_ts "
            "FROM events p WHERE p.event_type = 'purchase' "
            "ORDER BY p.event_id"
        ),
        "dedup_exact": (
            "SELECT MIN(doc_id) AS doc_id FROM documents "
            "GROUP BY text ORDER BY doc_id"
        ),
        "dedup_exact_hashed": (
            "SELECT MIN(doc_id) AS doc_id FROM documents "
            "GROUP BY text ORDER BY doc_id"
        ),
        "distinct_langs": (
            "SELECT DISTINCT lang FROM documents ORDER BY lang"
        ),
        "doc_token_counts": (
            f"SELECT doc_id, len({_TOKENIZE_SQL}) AS n_words "
            f"FROM documents ORDER BY doc_id"
        ),
        "doc_fingerprints_md5": (
            "SELECT doc_id, md5(text) AS fp FROM documents ORDER BY doc_id"
        ),
        "quality_filter": (
            f"SELECT doc_id, n_words FROM ("
            f"SELECT doc_id, len({_TOKENIZE_SQL}) AS n_words FROM documents) t "
            f"WHERE n_words >= 50 ORDER BY doc_id"
        ),
        "quality_scores": (
            # raw float64 divisions of integer counts on BOTH sides (no
            # rounding) → bit-identical values; corpus is ASCII so the
            # [A-Za-z] class equals Python's Unicode isalpha here
            f"SELECT doc_id, length(text) AS n_chars, len(tok) AS n_words, "
            f"CASE WHEN len(tok)=0 THEN 0.0 ELSE "
            f"len(list_filter(tok, x -> list_contains(["
            f"'the','a','an','and','or','of','to','in','is','are','was',"
            f"'were','be','been','it','this','that','for','with','as','on',"
            f"'at','by','from','not','but'], x)))::DOUBLE / len(tok) END "
            f"AS stopword_ratio, "
            f"CASE WHEN length(text)=0 THEN 0.0 ELSE (length(text) - "
            f"length(regexp_replace(text, "
            f"'[]!\"#$%&''()*+,./:;<=>?@[\\\\^_`{{|}}~-]', '', 'g')))::DOUBLE "
            f"/ length(text) END AS punct_ratio, "
            f"CASE WHEN length(text)=0 THEN 0.0 ELSE "
            f"length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::DOUBLE "
            f"/ length(text) END AS alpha_ratio, "
            f"CASE WHEN len(tok)=0 THEN 0.0 ELSE "
            f"list_sum(list_transform(tok, x -> length(x)))::DOUBLE / "
            f"len(tok) END AS mean_word_len "
            f"FROM (SELECT doc_id, text, {_TOKENIZE_SQL} AS tok "
            f"FROM documents) t ORDER BY doc_id"
        ),
        "curated_docs": (
            # composed pipeline: quality filter (>=50 words) → exact dedup
            # (min doc_id per text) → per-source cap of 20 (lowest doc_ids)
            f"WITH q AS (SELECT doc_id, source, text FROM documents "
            f"WHERE len({_TOKENIZE_SQL}) >= 50), "
            f"d AS (SELECT MIN(doc_id) AS doc_id FROM q GROUP BY text), "
            f"j AS (SELECT q.doc_id, q.source FROM q JOIN d USING(doc_id)), "
            f"r AS (SELECT doc_id, source, ROW_NUMBER() OVER ("
            f"PARTITION BY source ORDER BY doc_id) AS rn FROM j) "
            f"SELECT doc_id, source FROM r WHERE rn <= 20 ORDER BY doc_id"
        ),
        "minhash_pair_set": (
            # ground truth for the LSH pair SET: exact 3-word-shingle
            # Jaccard ≥ 0.5 over all pairs (recall/precision margins in
            # the minhash_pair_set docstring)
            f"WITH tok AS (SELECT doc_id, {_TOKENIZE_SQL} AS tok "
            f"FROM documents), "
            f"{_SHINGLES_SQL}, "
            f"ex AS (SELECT doc_id, unnest(shingles) AS s FROM sh), "
            f"sizes AS (SELECT doc_id, len(shingles) AS n FROM sh), "
            f"inter AS (SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) "
            f"AS c FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < "
            f"b.doc_id GROUP BY 1, 2) "
            f"SELECT da AS doc_a, db AS doc_b "
            f"FROM inter JOIN sizes sa ON sa.doc_id = da "
            f"JOIN sizes sb ON sb.doc_id = db "
            f"WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5 "
            f"ORDER BY doc_a, doc_b"
        ),
        "simhash_neardup_pairs": (
            # full independent recomputation of the operator: MD5 shingle
            # feature hashes (md5_number_lower == digest bytes 8:16 LE,
            # matching the engine's hashlib.md5 slice), 64 bit-votes per
            # doc, packed signature, brute-force bit_count(xor) ≤ 3 over
            # all pairs — the engine's 4×16 banding is pigeonhole-complete
            # for hamming ≤ 3, so its set must equal this one exactly
            f"WITH tok AS (SELECT doc_id, {_TOKENIZE_SQL} AS tok "
            f"FROM documents), "
            f"{_SHINGLES_SQL}, "
            f"ex AS (SELECT doc_id, md5_number_lower(unnest(shingles)) "
            f"AS h FROM sh), "
            f"bits AS (SELECT doc_id, b, SUM(CASE WHEN (h >> b) & 1 = 1 "
            f"THEN 1 ELSE -1 END) AS vote FROM ex, "
            f"(SELECT unnest(range(64)) AS b) GROUP BY doc_id, b), "
            f"sig AS (SELECT doc_id, SUM(CASE WHEN vote > 0 THEN "
            f"(1::UBIGINT << b) ELSE 0 END)::UBIGINT AS s FROM bits "
            f"GROUP BY doc_id) "
            f"SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            f"bit_count(xor(a.s, b.s))::BIGINT AS hamming "
            f"FROM sig a JOIN sig b ON a.doc_id < b.doc_id "
            f"WHERE bit_count(xor(a.s, b.s)) <= 3 "
            f"ORDER BY doc_a, doc_b"
        ),
        "neardup_clusters": (
            # connected components over the exact-Jaccard pair set (the
            # engine's LSH pair set is oracled equal via minhash_pair_set):
            # cluster_id = smallest doc_id reachable through pair edges
            f"WITH RECURSIVE tok AS (SELECT doc_id, {_TOKENIZE_SQL} AS tok "
            f"FROM documents), "
            f"{_SHINGLES_SQL}, "
            f"ex AS (SELECT doc_id, unnest(shingles) AS s FROM sh), "
            f"sizes AS (SELECT doc_id, len(shingles) AS n FROM sh), "
            f"inter AS (SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) "
            f"AS c FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < "
            f"b.doc_id GROUP BY 1, 2), "
            f"pairs AS (SELECT da AS doc_a, db AS doc_b "
            f"FROM inter JOIN sizes sa ON sa.doc_id = da "
            f"JOIN sizes sb ON sb.doc_id = db "
            f"WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5), "
            f"edges AS (SELECT doc_a AS s, doc_b AS t FROM pairs "
            f"UNION SELECT doc_b, doc_a FROM pairs), "
            f"reach(node, root) AS (SELECT s, s FROM edges "
            f"UNION SELECT e.t, r.root FROM reach r "
            f"JOIN edges e ON e.s = r.node) "
            f"SELECT node AS doc_id, MIN(root) AS cluster_id FROM reach "
            f"GROUP BY node ORDER BY doc_id"
        ),
        "verify_jaccard_pairs": (
            # exact 3-word-shingle Jaccard over ALL pairs ≥ 0.5 — the
            # engine's MinHash-LSH candidate recall is ≈1 here (every true
            # pair in the corpus has j ≥ 0.8; 16 bands × 4 rows misses a
            # j=0.8 pair with p≈2e-4), and values are raw integer-count
            # divisions, bit-identical across engines
            f"WITH tok AS (SELECT doc_id, {_TOKENIZE_SQL} AS tok "
            f"FROM documents), "
            f"{_SHINGLES_SQL}, "
            f"ex AS (SELECT doc_id, unnest(shingles) AS s FROM sh), "
            f"sizes AS (SELECT doc_id, len(shingles) AS n FROM sh), "
            f"inter AS (SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) "
            f"AS c FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < "
            f"b.doc_id GROUP BY 1, 2) "
            f"SELECT da AS doc_a, db AS doc_b, "
            f"c::DOUBLE / (sa.n + sb.n - c) AS jaccard "
            f"FROM inter JOIN sizes sa ON sa.doc_id = da "
            f"JOIN sizes sb ON sb.doc_id = db "
            f"WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5 "
            f"ORDER BY doc_a, doc_b"
        ),
        # embedding_neardup_pairs (LSH, threshold 0.9) carries no SQL
        # oracle: its correct result on this testdata is 0 rows, and Ray's
        # to_pandas() on a 0-row dataset drops column names, which would
        # fail a schema compare spuriously. Its 0-row correctness is
        # instead confirmed by (a) the exact variant's oracle below and
        # (b) tests/test_dedup_planted.py::test_lsh_matches_exact_neardups.
        "embedding_neardup_exact": (
            # id pairs only: cosine VALUES are float-impl-dependent across
            # engines, membership at 0.5 is not (wide margin in the data)
            "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.5 "
            "ORDER BY vec_a, vec_b"
        ),
        "ann_topk_bruteforce": (
            "SELECT query_id, vec_id FROM ("
            "  SELECT q.vec_id AS query_id, e.vec_id AS vec_id,"
            "         ROW_NUMBER() OVER ("
            "           PARTITION BY q.vec_id"
            "           ORDER BY list_cosine_similarity(e.embedding, q.embedding)"
            "                    DESC, e.vec_id) AS rn"
            "  FROM embeddings e CROSS JOIN"
            "       (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 4) q"
            ") WHERE rn <= 10 ORDER BY query_id, vec_id"
        ),
    }
