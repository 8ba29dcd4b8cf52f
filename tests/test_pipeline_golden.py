"""End-to-end golden test: full extraction pipeline over the synthetic
corpus, verified against the analytically-computed expected_extractions
table — the scale reinterpretation of rika's golden RSpec fixtures
(SURVEY.md §5.2 layer 2). The per-row invariant is **byte-identical
extracted content per url**."""

from __future__ import annotations

import pyarrow as pa
import pytest

from rika_ray.pipelines.extraction import (
    ExtractionConfig,
    build_extraction_pipeline,
    error_tally,
    media_type_tally,
    read_web_pages,
)
from rika_ray.schema import EXTRACTED_SCHEMA


@pytest.fixture(scope="module")
def extracted(ray_session, corpus_dir):
    import ray

    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    out = build_extraction_pipeline(ds, ExtractionConfig())
    tables = ray.get(out.to_arrow_refs())
    return pa.concat_tables([t for t in tables if len(t)])


def _load_expected(corpus_dir):
    import pyarrow.parquet as pq

    return pq.read_table(f"{corpus_dir}/expected_extractions.parquet")


def _index_by_position(tbl: pa.Table) -> list[dict]:
    return tbl.to_pylist()


def test_schema(extracted):
    got = set(extracted.column_names)
    assert got == set(EXTRACTED_SCHEMA.names)


def test_byte_identical_content_per_url(extracted, corpus_dir):
    expected = _load_expected(corpus_dir).to_pylist()
    got_rows = extracted.to_pylist()
    # dup urls exist: compare as sorted multisets keyed by (url, content)
    assert len(got_rows) == len(expected)
    got_by_url: dict[str, list[dict]] = {}
    for r in got_rows:
        got_by_url.setdefault(r["url"], []).append(r)
    mismatches = []
    for e in expected:
        g = got_by_url[e["url"]][0]
        if g["content"] != e["content"]:
            mismatches.append(
                (e["url"], repr(e["content"])[:80], repr(g["content"])[:80])
            )
    assert not mismatches, mismatches[:5]


def test_content_type_charset_language(extracted, corpus_dir):
    expected = _load_expected(corpus_dir).to_pylist()
    got = {r["url"]: r for r in extracted.to_pylist()}
    for e in expected:
        g = got[e["url"]]
        assert g["content_type"] == e["content_type"], e["url"]
        assert g["media_type"] == e["media_type"], e["url"]
        assert g["charset"] == e["charset"], e["url"]
        assert g["language"] == e["language"], (e["url"], g["language"])


def test_metadata_golden(extracted, corpus_dir):
    expected = _load_expected(corpus_dir).to_pylist()
    got = {r["url"]: r for r in extracted.to_pylist()}
    for e in expected:
        g = got[e["url"]]
        assert g["metadata"] == e["metadata"], (e["url"], g["metadata"], e["metadata"])


def test_error_rows_and_continuation(extracted, corpus_dir):
    expected = _load_expected(corpus_dir).to_pylist()
    got = {r["url"]: r for r in extracted.to_pylist()}
    n_err = 0
    for e in expected:
        g = got[e["url"]]
        assert g["error_type"] == e["error_type"], (e["url"], g["error_type"])
        if e["error_type"] is not None:
            n_err += 1
            assert g["content"] is None
            assert g["error_message"] is not None
    # 2 empty + 4 corrupt-pdf + 1 corrupt-gzip + 1 corrupt-zip +
    # 1 encrypted-pdf — run completed
    assert n_err == 10


def test_provenance_columns(extracted):
    for r in extracted.to_pylist():
        assert r["input_type"] == "http"  # all fixture urls are https
        assert r["data_source"] == r["url"]


def test_tallies(ray_session, corpus_dir):
    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    out = build_extraction_pipeline(ds, ExtractionConfig())
    err = {r["error_type"]: r["count()"] for r in error_tally(out).take_all()}
    assert err.get("empty_file") == 2
    assert err.get("parse_error") == 7
    assert err.get("encrypted_document") == 1
    mt = media_type_tally(out).to_pandas()
    assert (mt["media_type"].dropna().sort_values().tolist()
            == sorted(mt["media_type"].dropna().tolist()))


def test_truncation_is_char_prefix(ray_session, corpus_dir):
    """M11: truncated output is a strict prefix of full output, counted in
    characters (document_processing_spec.rb:88-105; parser_spec.rb:164-166)."""
    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    full = {
        r["url"]: r["content"]
        for r in build_extraction_pipeline(ds, ExtractionConfig())
        .select_columns(["url", "content"]).take_all()
    }
    for n in (8, 50):
        trunc = {
            r["url"]: r["content"]
            for r in build_extraction_pipeline(
                read_web_pages(f"{corpus_dir}/web_pages.parquet"),
                ExtractionConfig(max_content_length=n),
            ).select_columns(["url", "content"]).take_all()
        }
        for url, c in trunc.items():
            if c is None:
                assert full[url] is None
                continue
            assert len(c) <= n
            assert full[url].startswith(c), url


def test_truncation_zero_suppresses(ray_session, corpus_dir):
    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    rows = (
        build_extraction_pipeline(ds, ExtractionConfig(max_content_length=0))
        .select_columns(["url", "content", "error_type"]).take_all()
    )
    for r in rows:
        if r["error_type"] is None:
            assert r["content"] == ""
        else:
            assert r["content"] is None


def test_pipeline_equals_kernel(extracted, corpus_dir):
    """The pipeline's rows equal ``FusedExtractStage`` applied Ray-free to
    the whole web_pages table in one call. The pipeline runs the kernel in
    batches of ``ExtractionConfig().batch_size``, so this checks that a
    row's result does not depend on the batch it lands in."""
    import pyarrow.parquet as pq

    from rika_ray.pipelines.extraction import (
        EXTRACTION_INPUT_COLUMNS,
        FusedExtractStage,
    )

    pages = pq.read_table(
        f"{corpus_dir}/web_pages.parquet",
        columns=list(EXTRACTION_INPUT_COLUMNS),
    )
    whole = FusedExtractStage()(pages)
    assert whole.schema == extracted.schema

    def _key(r):
        return (r["url"], repr(r))

    assert sorted(extracted.to_pylist(), key=_key) == sorted(
        whole.to_pylist(), key=_key
    )


def test_custom_detector_injection(ray_session, corpus_dir):
    """§2.9 hook: a user detector replaces the magic-byte sniffer
    (Rika.parse detector: analogue) — with an all-opaque detector every
    non-error row extracts as empty binary. The detector is a closure so
    cloudpickle ships it by value (test modules aren't importable from Ray
    workers — a module-level function here crash-loops the actor pool)."""
    from rika_ray.pipelines.extraction import ExtractionConfig, build_extraction_pipeline

    def _octet_detector(payload: bytes):
        return "application/octet-stream"

    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    rows = build_extraction_pipeline(
        ds, ExtractionConfig(detector=_octet_detector)
    ).select_columns(["url", "content", "media_type", "error_type"]).take_all()
    for r in rows:
        if r["error_type"] is None:
            assert r["media_type"] == "application/octet-stream"
            assert r["content"] == ""
        else:
            assert r["error_type"] == "empty_file"  # no parse errors now


def test_mega_doc_routing_parity(ray_session, corpus_dir):
    """route_mega_docs (block-isolation skew routing) must produce the same
    rows as the plain layout."""
    from rika_ray.pipelines.extraction import ExtractionConfig, build_extraction_pipeline

    def _run(**kw):
        ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
        rows = build_extraction_pipeline(ds, ExtractionConfig(**kw)).select_columns(
            ["url", "content", "media_type", "language", "error_type"]
        ).take_all()
        return sorted(rows, key=lambda r: (r["url"], r["content"] or ""))

    assert _run(route_mega_docs=True, mega_doc_bytes=1 << 20) == _run()


def test_mega_doc_block_isolation(ray_session, corpus_dir):
    """The routing mechanism itself: with the block cap at the mega
    threshold and whole-block batches, every batch containing a
    mega-document holds exactly one mega-document, and its small riders
    total at most the cap (bounded head-of-line blocking). The probe
    mirrors the routed extract stage's input shape (same context cap,
    batch_size=None, fusion broken)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    threshold = 1 << 20
    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    ds.context.target_max_block_size = threshold

    def _probe(batch: pa.Table) -> pa.Table:
        sizes = pc.binary_length(batch["html"])
        n_mega = pc.sum(
            pc.cast(pc.greater(sizes, threshold), pa.int64())
        ).as_py() or 0
        rider_bytes = pc.sum(
            pc.if_else(pc.greater(sizes, threshold), 0, sizes)
        ).as_py() or 0
        return pa.table(
            {"n_mega": [n_mega], "rider_bytes": [rider_bytes]}
        )

    stats = ds.map_batches(
        _probe, batch_format="pyarrow", batch_size=None, num_cpus=0.99
    ).take_all()
    mega_batches = [s for s in stats if s["n_mega"] > 0]
    assert mega_batches, "corpus must contain mega docs for this test"
    for s in mega_batches:
        assert s["n_mega"] == 1
        assert s["rider_bytes"] <= threshold
