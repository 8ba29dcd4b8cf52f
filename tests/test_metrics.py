"""A4 metrics: per-stage breakdown from Ray's structured stats."""

from __future__ import annotations


def test_extraction_metrics(ray_session, corpus_dir, tmp_path):
    from rika_ray.pipelines.extraction import (
        ExtractionConfig, build_extraction_pipeline, read_web_pages)
    from rika_ray.state.metrics import extraction_metrics

    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    out = build_extraction_pipeline(ds, ExtractionConfig())
    out.write_parquet(str(tmp_path / "mx"))  # stats populate on execution
    m = extraction_metrics(out)
    assert m["docs"] is not None and m["docs"] > 0
    assert any("fused_extract" in s["operator"] for s in m["stages"])
    for s in m["stages"]:
        assert s["wall_s"] >= 0


def test_extraction_metrics_fused_plan(ray_session, split_corpus_dir, tmp_path):
    """With one file per CPU the read, the kernel and the write fuse into
    one operator, whose output is write results, not documents: ``docs``
    is what the write wrote."""
    import pyarrow.parquet as pq

    from rika_ray.pipelines.extraction import (
        ExtractionConfig, build_extraction_pipeline, read_web_pages)
    from rika_ray.state.metrics import extraction_metrics

    ds = read_web_pages(split_corpus_dir)
    out = build_extraction_pipeline(ds, ExtractionConfig())
    out.write_parquet(str(tmp_path / "mx"))
    m = extraction_metrics(out)
    assert [s["operator"] for s in m["stages"]] == [
        "ReadParquet->MapBatches(fused_extract)->Write"
    ]
    # one extracted row per input document
    assert m["docs"] == pq.read_table(split_corpus_dir, columns=["url"]).num_rows
