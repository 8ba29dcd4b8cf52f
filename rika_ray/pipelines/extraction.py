"""The flagship extraction pipeline (SURVEY.md §3.4 lifecycle).

web_pages Dataset
  → map_batches(fused_extract)  [sniff → extract → lang → finalize]

One kernel, one layout: every batch runs the four logical stages in
process (M1 sniff, M2-M8 router, T1 lang, M8-M11/M13 finalize). The stages
stay separate classes and functions, testable on their own.
``shortcuts.parse`` calls the same kernel on a one-row table, without Ray.

One physical form at every cluster size: stateless tasks, which hold no
standing reservation. Each worker process builds the kernel once per
config (``kernel``) and reuses it for every batch it is given, as rika
bootstraps Tika once per JVM; the plan carries only the config scalars.

One task per input file: ``read_web_pages`` asks for one read block per
file (more only when the files are fewer than the cluster's CPUs), and
the kernel is mapped over whole blocks, so Ray fuses the read, the kernel
and a following write into one operator,
``ReadParquet->MapBatches(fused_extract)->Write``. Rows then never cross
the object store: each task reads its file, extracts it and writes it.
The price is memory per task: the write holds a task's whole output
(Ray 2.49's ``ParquetDatasink.write`` lists its blocks before writing), so
a task's peak follows one input file's extracted output, not one batch.
Inputs should come in files sized for one worker's heap. Where the files
are fewer than the CPUs, Ray splits their blocks to cover the CPUs, and
the read then runs unfused.

Scale design notes (§4):
- The extraction path is shuffle-free (embarrassingly parallel); wide ops
  (error tallies, dedup) happen downstream on the much smaller extracted
  table.
- One kernel call per read block. Ray's Parquet reader bounds the block:
  at most one row group (1,024 rows in every file the corpus writers
  make) and about ``target_max_block_size / 10`` (12.8 MiB) of estimated
  row bytes, so the kernel's fixed cost per call (array set-up in sniff,
  batch charset detection, lang scoring, finalize) is paid once per
  block. The stages bound their own transients, whatever the block:
  sniff reads 2 + 4 KiB windows, charset detection 8 KiB heads, lang
  scores 128 texts per chunk, and a container expands one row at a time.
  ``route_mega_docs`` additionally isolates mega-documents into their own
  blocks on the SAME single scan (dynamic block splitting capped at
  ``mega_doc_bytes``) so one 100 MB page cannot stall a block of small
  ones (BASELINE.json: "explicit repartitioning to break skew from
  mega-documents").
- The raw ``html`` payload is dropped inside the extract stage, so the
  kernel's output carries only extracted data.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from rika_ray.pipelines.aggregate import partitioned_aggregate
from rika_ray.stages.extract import ExtractStage
from rika_ray.stages.finalize import finalize_batch
from rika_ray.stages.lang import LangDetectStage
from rika_ray.stages.sniff import detect_content_type


@dataclass
class ExtractionConfig:
    max_content_length: int = -1  # chars; -1 unlimited, 0 suppress (M11)
    key_sort: bool = True  # metadata key sort (M10)
    # most rows per kernel call: Ray hands the task whole read blocks
    # (one row group, 1,024 rows in the corpus writers' files, so one
    # call each) and ``fused_extract`` slices only larger ones; a
    # row-count batch size in ``map_batches`` would stop the read fusing
    # into the kernel
    batch_size: int = 1024
    # Skew isolation for mega-documents, on the SAME single scan: the
    # dataset chain's target block size is capped at ``mega_doc_bytes``
    # (scoped via ``ds.context`` — never the process-global DataContext)
    # so Ray's dynamic block splitting finalizes a mega document into its
    # own block the moment it lands (carrying at most ``mega_doc_bytes``
    # of small riders), and that block is one task's input. No fork, no
    # second corpus scan, no union — the cost is one object-store hop
    # (read fusion must be broken so block building runs between read and
    # kernel).
    route_mega_docs: bool = False
    mega_doc_bytes: int = 4 * 1024 * 1024
    # §2.9 user-extension hook: callable bytes->media_type replacing the
    # built-in magic-byte sniffer (Rika.parse detector: analogue). Must be
    # a picklable top-level callable (ships to workers).
    detector: object | None = None


class FusedExtractStage:
    """sniff + extract + lang + finalize on one batch, in process. Each
    row's result depends only on that row, not on its batch."""

    def __init__(
        self,
        max_content_length: int = -1,
        key_sort: bool = True,
        detector=None,
    ):
        self._extract = ExtractStage()
        self._lang = LangDetectStage()
        self._max_len = max_content_length
        self._key_sort = key_sort
        self._detector = detector

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = detect_content_type(batch, detector=self._detector)
        batch = self._extract(batch)
        batch = self._lang(batch)
        return finalize_batch(
            batch, max_content_length=self._max_len, key_sort=self._key_sort
        )


@functools.lru_cache(maxsize=8)
def kernel(max_content_length: int, key_sort: bool, detector) -> FusedExtractStage:
    """This process's kernel for one config, built on first use."""
    return FusedExtractStage(max_content_length, key_sort, detector)


def fused_extract(
    block: pa.Table,
    *,
    batch_size: int,
    max_content_length: int,
    key_sort: bool,
    detector,
) -> Iterator[pa.Table]:
    """The pipeline's task: this worker's cached kernel on one block, in
    slices of at most ``batch_size`` rows (one slice for a block of one
    corpus row group)."""
    run = kernel(max_content_length, key_sort, detector)
    for off in range(0, block.num_rows, batch_size):
        yield run(block.slice(off, batch_size))


# the only input columns the extraction pipeline consumes — everything else
# (e.g. a prior run's text/lang columns) is pruned AT THE READ so it never
# leaves storage. At 100 TB an unpruned read of a populated prior-extraction
# column roughly doubles scan + object-store traffic on the hottest pipeline
# (round-3 verdict item 3).
EXTRACTION_INPUT_COLUMNS = ("url", "warc_ts", "html")


def read_web_pages(path, **kwargs) -> ray.data.Dataset:
    """Source S1: the web_pages Parquet table (a file, a directory or a
    list of files), pruned at the read to the columns the extraction
    pipeline consumes. Pass ``columns=None`` to read everything, or a list
    to prune differently.

    One read block per input file, or one per cluster CPU when the files
    are fewer: Ray then splits no block once the files cover the CPUs, and
    the read fuses into the kernel task (module docstring). An explicit
    ``override_num_blocks`` wins."""
    import pyarrow.dataset as pads

    from rika_ray.pool import cluster_cpus
    from rika_ray.sources.parquet import read_parquet_clean

    # one listing (hidden ``.``/``_`` files skipped, as Ray skips them);
    # the file list also gives the schema probe its first file
    files = pads.dataset(path, format="parquet").files
    kwargs.setdefault("columns", list(EXTRACTION_INPUT_COLUMNS))
    kwargs.setdefault("override_num_blocks", max(len(files), cluster_cpus()))
    return read_parquet_clean(files, **kwargs)


def build_extraction_pipeline(
    ds: ray.data.Dataset, cfg: ExtractionConfig | None = None
) -> ray.data.Dataset:
    """Compose the full extraction pipeline over a web_pages Dataset.

    Returns a lazy Dataset with the EXTRACTED_SCHEMA; consume with
    write_parquet / iter_batches / aggregates — never materialized here.
    """
    cfg = cfg or ExtractionConfig()
    # whole blocks: a row-count batch size would set a minimum bundle
    # size, which stops Ray fusing the read into the kernel
    kwargs = dict(batch_format="pyarrow", batch_size=None)
    if cfg.route_mega_docs:
        # Cap THIS dataset chain's block size at the mega threshold:
        # dynamic block splitting then finalizes any block the moment it
        # exceeds the cap, so a mega document gets its own block with at
        # most cap-bytes of small riders. Scoped to ds.context (the plan's
        # context copy) — the process-global DataContext is untouched.
        ds.context.target_max_block_size = cfg.mega_doc_bytes
        # a non-default num_cpus so the read does NOT fuse into the
        # kernel — with fusion the kernel would see raw reader output
        # before block building ever runs
        kwargs["num_cpus"] = 0.99
    return ds.map_batches(
        fused_extract,
        fn_kwargs={
            "batch_size": cfg.batch_size,
            "max_content_length": cfg.max_content_length,
            "key_sort": cfg.key_sort,
            "detector": cfg.detector,
        },
        **kwargs,
    )


_NULL_KEY = "\x00<null>"


def _sort_nulls_first(ds: ray.data.Dataset, key: str) -> ray.data.Dataset:
    """``ds.sort(key)`` with null keys first. Ray's sort compares None with
    str and fails, so it sorts while nulls carry a sentinel that sorts
    before every string."""

    def _swap(batch: pa.Table, old, new) -> pa.Table:
        col = batch[key]
        match = pc.is_null(col) if old is None else pc.equal(col, old)
        return batch.set_column(
            batch.schema.get_field_index(key),
            key,
            pc.if_else(match, pa.scalar(new, pa.string()), col),
        )

    return (
        ds.map_batches(_swap, fn_args=(None, _NULL_KEY), batch_format="pyarrow")
        .sort(key)
        .map_batches(_swap, fn_args=(_NULL_KEY, None), batch_format="pyarrow")
    )


def error_tally(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """A1: per-error-type counts (drives job exit status, §2.8; reference
    accumulates bad_targets and exits 1 iff any,
    ``lib/rika/cli/rika_command.rb:94-123``)."""
    counts = partitioned_aggregate(
        extracted.select_columns(["error_type"]),
        ["error_type"],
        [(None, "count", "count()")],
    )
    return _sort_nulls_first(counts, "error_type")


def media_type_tally(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """A2: content-type distribution sorted by type (the README's flagship
    machine-readable example, ``/root/reference/README.md:233-249``)."""
    counts = partitioned_aggregate(
        extracted.select_columns(["media_type"]),
        ["media_type"],
        [(None, "count", "count()")],
    )
    return _sort_nulls_first(counts, "media_type")
