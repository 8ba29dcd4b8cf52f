"""Per-layer measurements for the traced run (``--trace 1``).

Every traced run, whatever its workload, sends the seed's inputs through
each layer's public entry point, so that it reports every per-layer metric:

* extraction pipeline, on the ``extract_mixed`` corpus: the Parquet read
  (``read_web_pages``, materialised), a read -> write pass with no stage,
  the ``write_parquet`` of materialised output, a full pass with Ray's
  operator stats, and the remainder of the pass outside the kernels;
* the kernels, Ray-free, at the pipeline's batch size: sniff, extract (and
  extract split by the ``stages`` module that handles each media type),
  lang, finalize - which is also the single-threaded baseline of the job;
* ``shortcuts.parse``'s path, on one loose file per family: planning,
  execution, and the fused kernel on the same document;
* the kernels on the ``extract_hostile`` corpus, one document at a time in
  a fresh process: the slowest document, the worst ms per KB, the peak RSS,
  and a count per typed error;
* the relational queries that use no join and no actor pool: one pass over
  seeded tables, a time per query.

The parse and relational probes stand in for two workloads that were
dropped as unsteady (README, "Workloads"); their outputs are checked like
the workloads' outputs, against the generator's expectations and DuckDB.
Spans are recorded from here, around the calls into each layer.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import statistics
import time
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from layerbench import checks, inputs, workloads
from layerbench.harness import deadline, peak_rss_mb

PROBE_DEADLINE_S = 120
PARSE_PROBE_FILES = 10

# The relational list: queries with no join and no actor pool, which
# finish on one CPU. Each reads one table.
QUERIES = (
    "pricing_summary",
    "top_parts_by_quantity",
    "events_hourly",
    "events_sliding",
    "events_distinct_users",
    "user_sessions",
    "purchase_last_click",
    "dedup_exact",
    "domain_cap_sample",
    "top_words",
    "doc_token_counts",
    "doc_fingerprints_md5",
)
# one grouped aggregate and one window query load the shuffle and sort
# code into the worker before the timed pass
WARMUP_QUERIES = ("pricing_summary", "user_sessions")

STAGES = ("sniff", "extract", "lang", "finalize")
MODULES = (
    "textual",
    "html_extract",
    "pdf_extract",
    "office",
    "archive",
    "email_msg",
    "epub",
    "rtf",
    "image_meta",
    "audio_meta",
    "other",
)
# the typed errors the extraction stages emit (rika_ray.schema.ERROR_TYPES
# also lists ingest errors, which file and Parquet inputs cannot raise here)
ERRORS = ("empty_file", "parse_error", "encrypted_document")


def _module_table() -> dict[str, str]:
    from rika_ray.stages import sniff as s

    modules = {
        "html_extract": {s.HTML},
        "pdf_extract": {s.PDF},
        "office": {
            s.DOCX, s.XLSX, s.PPTX, s.OLE2, s.VSDX,
            *(f"application/vnd.oasis.opendocument.{kind}"
              for kind in ("text", "spreadsheet", "presentation", "graphics")),
        },
        "archive": {
            s.ZIP, s.TAR, s.GZIP, s.BZIP2, s.XZ, s.ZSTD, s.SEVENZ, s.RAR,
        },
        "email_msg": {s.EML, s.MBOX},
        "epub": {s.EPUB},
        "rtf": {s.RTF},
        "image_meta": {
            s.JPEG, s.PNG, s.GIF, s.TIFF, s.BMP, s.WEBP, s.PSD, s.ICO,
        },
        "audio_meta": {s.MP3, s.WAV, s.FLAC, s.OGG, s.MP4, s.AVI},
        "textual": {
            s.PLAIN, s.XML, s.CSV, s.TSV, s.JSON, s.NDJSON, s.MARKDOWN,
            s.SVG, s.RSS, s.ATOM, s.ICAL, s.VCARD, s.CSS, s.JS,
        },
    }
    return {t: module for module, types in modules.items() for t in types}


# sniffed media type -> the rika_ray.stages module that extracts it
MODULE_OF = _module_table()


def _sum_stat(stat: dict | None) -> float:
    return float((stat or {}).get("sum", 0.0))


def _pipeline_layers(seed: int, tracer, out_dir: str) -> tuple[dict, list[str]]:
    from rika_ray.pipelines.extraction import (
        ExtractionConfig,
        build_extraction_pipeline,
        read_web_pages,
    )

    d = inputs.mixed_dir(seed)
    src = os.path.join(d, "web_pages.parquet")
    dst = os.path.join(out_dir, "layers")
    m: dict = {}
    with deadline("layer probe: extraction pipeline", PROBE_DEADLINE_S):
        with tracer.span("sources.read") as sp:
            read_web_pages(src).materialize()
        m["sources.read_s"] = sp["end"] - sp["start"]
        shutil.rmtree(dst, ignore_errors=True)
        with tracer.span("pipeline.empty_pass") as sp:
            read_web_pages(src).write_parquet(dst)
        m["pipeline.empty_pass_s"] = sp["end"] - sp["start"]
        extracted = build_extraction_pipeline(
            read_web_pages(src), ExtractionConfig()
        ).materialize()
        shutil.rmtree(dst, ignore_errors=True)
        with tracer.span("pipeline.write") as sp:
            extracted.write_parquet(dst)
        m["pipeline.write_s"] = sp["end"] - sp["start"]
        del extracted
        shutil.rmtree(dst, ignore_errors=True)
        with tracer.span("pipeline.pass") as sp:
            ds = build_extraction_pipeline(read_web_pages(src), ExtractionConfig())
            ds.write_parquet(dst)
        m["pipeline.pass_s"] = sp["end"] - sp["start"]
    # Ray's structured per-operator stats of the pass (private API)
    summary = ds._write_ds._get_stats_summary()
    ops = summary.operators_stats
    sp["operators"] = [
        {
            "name": op.operator_name,
            "wall_s": _sum_stat(op.wall_time),
            "udf_s": _sum_stat(op.udf_time),
            "cpu_s": _sum_stat(op.cpu_time),
        }
        for op in ops
    ]
    m["ray.wall_s"] = sum(o["wall_s"] for o in sp["operators"])
    m["ray.udf_s"] = sum(o["udf_s"] for o in sp["operators"])
    m["ray.cpu_s"] = sum(o["cpu_s"] for o in sp["operators"])
    expected = pq.read_table(os.path.join(d, "expected.parquet")).to_pylist()
    problems = checks.compare_extractions(
        pq.read_table(dst, columns=workloads.OUTPUT_FIELDS).to_pylist(), expected
    )
    shutil.rmtree(dst, ignore_errors=True)
    return m, [f"layered pass: {p}" for p in problems]


def _kernel_layers(seed: int, tracer) -> dict:
    from rika_ray.pipelines.extraction import (
        EXTRACTION_INPUT_COLUMNS,
        ExtractionConfig,
    )
    from rika_ray.stages.extract import ExtractStage
    from rika_ray.stages.finalize import finalize_batch
    from rika_ray.stages.lang import LangDetectStage
    from rika_ray.stages.sniff import detect_content_type

    table = pq.read_table(
        os.path.join(inputs.mixed_dir(seed), "web_pages.parquet"),
        columns=list(EXTRACTION_INPUT_COLUMNS),
    )
    batch_size = ExtractionConfig().batch_size
    extract, lang = ExtractStage(), LangDetectStage()
    sniffed = []
    with deadline("layer probe: kernels", PROBE_DEADLINE_S):
        with tracer.span("kernel") as kernel:
            for off in range(0, table.num_rows, batch_size):
                b = table.slice(off, batch_size)
                with tracer.span("sniff"):
                    b = detect_content_type(b)
                sniffed.append(b)
                with tracer.span("extract"):
                    b = extract(b)
                with tracer.span("lang"):
                    b = lang(b)
                with tracer.span("finalize"):
                    finalize_batch(b, max_content_length=-1, key_sort=True)
        # the extract stage again, each batch split by handling module
        with tracer.span("extract.by_module"):
            for b in sniffed:
                mods = pa.array(
                    [MODULE_OF.get(t, "other") for t in b["media_type"].to_pylist()]
                )
                for module in MODULES:
                    part = b.filter(pc.equal(mods, module))
                    if part.num_rows:
                        with tracer.span(f"extract.{module}"):
                            extract(part)
    m = {f"{s}.self_s": tracer.self_time(s) for s in STAGES}
    m["kernel.docs_per_s"] = table.num_rows / (kernel["end"] - kernel["start"])
    m.update(
        {f"extract.{mod}.self_s": tracer.self_time(f"extract.{mod}") for mod in MODULES}
    )
    return m


def _parse_layers(seed: int, tracer) -> tuple[dict, list[str]]:
    from rika_ray.pipelines.extraction import (
        ExtractionConfig,
        FusedExtractStage,
        build_extraction_pipeline,
    )
    from rika_ray.schema import WEB_PAGES_SCHEMA
    from rika_ray.shortcuts import parse
    from rika_ray.sources.ingest import read_files_as_web_pages

    d = inputs.files_dir(seed)
    expected = pq.read_table(os.path.join(d, "expected.parquet")).to_pylist()
    expected = expected[:PARSE_PROBE_FILES]
    paths = [os.path.join(d, "files", e["file"]) for e in expected]
    # the plan reports the file path as url: map it back to the generator's
    url_of = {p: e["url"] for p, e in zip(paths, expected)}
    kernel = FusedExtractStage()
    plan, execute, kern, rows = [], [], [], []
    with deadline("layer probe: parse", PROBE_DEADLINE_S):
        parse(paths[0])  # warm the path, untimed
        for path in paths:
            with tracer.span("parse", file=os.path.basename(path)):
                with tracer.span("parse.plan") as sp:
                    ds = build_extraction_pipeline(
                        read_files_as_web_pages([path]), ExtractionConfig()
                    )
                plan.append(sp["end"] - sp["start"])
                with tracer.span("parse.execute") as sp:
                    out = ds.take_all()
                execute.append(sp["end"] - sp["start"])
            rows += [
                {**{k: r[k] for k in workloads.OUTPUT_FIELDS},
                 "url": url_of.get(r["url"], r["url"])}
                for r in out
            ]
            with open(path, "rb") as f:
                page = pa.Table.from_pylist(
                    [{"url": path, "warc_ts": None, "html": f.read(), "text": None, "lang": None}],
                    schema=WEB_PAGES_SCHEMA,
                )
            with tracer.span("parse.kernel") as sp:
                kernel(page)
            kern.append(sp["end"] - sp["start"])
    m = {
        "parse.plan_ms": statistics.median(plan) * 1e3,
        "parse.execute_ms": statistics.median(execute) * 1e3,
        "parse.kernel_ms": statistics.median(kern) * 1e3,
    }
    problems = checks.compare_extractions(rows, expected)
    return m, [f"parse probe: {p}" for p in problems]


def _hostile_kernel(path: str, conn) -> None:
    """Child process: the fused kernel on one document at a time."""
    from rika_ray.pipelines.extraction import FusedExtractStage

    table = pq.read_table(path)
    kernel = FusedExtractStage()
    worst_ms = worst_ms_per_kb = 0.0
    errors: Counter = Counter()
    for i in range(table.num_rows):
        row = table.slice(i, 1)
        t0 = time.perf_counter()
        out = kernel(row)
        ms = (time.perf_counter() - t0) * 1e3
        kb = max(len(row["html"][0].as_py() or b""), 1024) / 1024
        worst_ms = max(worst_ms, ms)
        worst_ms_per_kb = max(worst_ms_per_kb, ms / kb)
        errors[out["error_type"][0].as_py()] += 1
    conn.send((worst_ms, worst_ms_per_kb, dict(errors), peak_rss_mb(os.getpid())))
    conn.close()


def _hostile_layers(seed: int, tracer) -> dict:
    src = os.path.join(inputs.hostile_dir(seed), "web_pages.parquet")
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    with deadline("layer probe: hostile kernels", PROBE_DEADLINE_S):
        with tracer.span("hostile.kernel"):
            proc = ctx.Process(target=_hostile_kernel, args=(src, send))
            proc.start()
            send.close()
            worst_ms, worst_ms_per_kb, errors, rss = recv.recv()
            proc.join()
    m = {
        "extract.max_doc_ms": worst_ms,
        "extract.max_ms_per_kb": worst_ms_per_kb,
        "extract.peak_rss_mb": rss,
    }
    m.update({f"errors.{e}": float(errors.get(e, 0)) for e in ERRORS})
    return m


def _relational_layers(seed: int, tracer) -> tuple[dict, list[str]]:
    import __ray_entry__

    tables = inputs.tables_dir(seed)
    warm = inputs.tables_warmup_dir(seed)
    queries = __ray_entry__.queries()
    m, frames = {}, {}
    with deadline("layer probe: relational", PROBE_DEADLINE_S):
        for name in WARMUP_QUERIES:
            queries[name](warm).to_pandas()
        for name in QUERIES:
            with tracer.span(f"relational.{name}") as sp:
                frames[name] = queries[name](tables).to_pandas()
            m[f"relational.{name}_s"] = sp["end"] - sp["start"]
    with deadline("relational oracle check", PROBE_DEADLINE_S):
        oracle = checks.oracle_frames(tables, list(QUERIES))
    problems = [
        f"relational probe: {name}: {p}"
        for name, got in frames.items()
        for p in checks.compare_frames(got, oracle[name])
    ]
    return m, problems


def measure_all(seed: int, tracer, out_dir: str) -> tuple[dict, list[str]]:
    m, problems = _pipeline_layers(seed, tracer, out_dir)
    m.update(_kernel_layers(seed, tracer))
    kernel_s = sum(m[f"{s}.self_s"] for s in STAGES)
    m["pipeline.overhead_s"] = m["pipeline.pass_s"] - kernel_s
    m["pipeline.remainder_s"] = (
        m["pipeline.overhead_s"] - m["sources.read_s"] - m["pipeline.write_s"]
    )
    for probe in (_parse_layers, _relational_layers):
        more, more_problems = probe(seed, tracer)
        m.update(more)
        problems += more_problems
    m.update(_hostile_layers(seed, tracer))
    units = {"per_s": "docs/s", "per_kb": "ms/KB", "_ms": "ms", "_mb": "MB", "_s": "s"}
    out = {}
    for name, value in m.items():
        unit = next((u for suf, u in units.items() if name.endswith(suf)), "count")
        out[name] = (value, unit)
    return out, problems
