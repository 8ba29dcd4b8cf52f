"""Per-partition checkpointing with lineage + extraction-rate metrics
(SURVEY.md §4.2 "Checkpoint / resume"; BASELINE.json "checkpoints
per-partition with lineage and extraction-rate metrics so a 10^12-document
run resumes").

Layout::

    out_dir/
      part-00000/...parquet        # one directory per input partition
      part-00001/...
      _manifest/
        part-00000.json            # atomic commit marker + lineage/metrics

A partition = one input shard (parquet file). Each partition is processed
as its own Dataset execution using the full cluster, written to a temp dir
and renamed (atomic on POSIX), then its manifest entry is committed (tmp →
rename). On restart, partitions with a committed manifest entry are skipped
— the resume check is a metadata lookup, not a row-level anti-join, so it
costs O(partitions), never O(rows).

Manifest entry lineage + metrics::

    {"partition_id", "input_files", "docs", "input_bytes", "wall_s",
     "docs_per_sec", "content_hash", "engine_version"}

``content_hash`` is an order-independent 64-bit hash over (url, content)
pairs — two runs that produce the same rows in any order commit the same
hash, which is what the determinism / resume tests assert.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np
import pandas as pd
import pyarrow as pa

import rika_ray
from rika_ray.pipelines.extraction import (
    ExtractionConfig,
    build_extraction_pipeline,
    read_web_pages,
)


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _part_name(i: int) -> str:
    return f"part-{i:05d}"


def completed_partitions(out_dir: str) -> dict[int, dict]:
    """partition_id → manifest entry for every committed partition."""
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return {}
    out = {}
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                entry = json.load(f)
            out[entry["partition_id"]] = entry
    return out


def _content_hash_batch(batch: pa.Table) -> pa.Table:
    """Order-independent partial hash: sum of per-row hash(url||content)."""
    urls = batch["url"].to_pylist()
    contents = batch["content"].to_pylist()
    rows = np.asarray(
        [f"{u}\x00{c if c is not None else '<null>'}" for u, c in zip(urls, contents)],
        dtype=object,
    )
    # categorize=False: the default categorize path truncates strings at
    # NUL bytes — with the url\x00content layout that would hash ONLY the
    # url and miss content changes entirely
    h = pd.util.hash_array(rows, categorize=False)
    partial = np.uint64(0)
    for v in h:
        partial = partial + v  # wrapping uint64 sum: order-independent
    return pa.table({"partial_hash": pa.array([int(partial)], pa.uint64()),
                     "n": pa.array([len(batch)], pa.int64())})


def _process_partition(
    pid: int, in_file: str, out_dir: str, cfg: ExtractionConfig
) -> dict:
    """Run one shard end-to-end (read → extract → write → hash) and commit
    its manifest entry atomically. Every path it touches is derived from
    ``pid``, so concurrent calls for distinct partitions never collide."""
    part = _part_name(pid)
    final_dir = os.path.join(out_dir, part)
    tmp_dir = os.path.join(out_dir, f".tmp-{part}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(final_dir, ignore_errors=True)

    t0 = time.perf_counter()
    ds = read_web_pages(in_file)
    extracted = build_extraction_pipeline(ds, cfg)
    extracted.write_parquet(tmp_dir)
    wall = time.perf_counter() - t0

    # lineage metrics from the written partition (cheap re-read of two
    # columns, not the whole output)
    import ray.data

    hashed = (
        ray.data.read_parquet(tmp_dir, columns=["url", "content"])
        .map_batches(_content_hash_batch, batch_format="pyarrow")
        .take_all()
    )
    content_hash = 0
    n_docs = 0
    for r in hashed:
        content_hash = (content_hash + r["partial_hash"]) % (1 << 64)
        n_docs += r["n"]

    os.replace(tmp_dir, final_dir)  # atomic publish of the data
    entry = {
        "partition_id": pid,
        "part": part,
        "input_files": [in_file],
        "docs": n_docs,
        "input_bytes": os.path.getsize(in_file),
        "wall_s": round(wall, 3),
        "docs_per_sec": round(n_docs / wall, 1) if wall else None,
        "content_hash": content_hash,
        "engine_version": rika_ray.__version__,
    }
    mpath = os.path.join(_manifest_dir(out_dir), f"{part}.json")
    tmp_mpath = mpath + ".tmp"
    with open(tmp_mpath, "w") as f:
        json.dump(entry, f)
    os.replace(tmp_mpath, mpath)  # atomic commit marker
    return entry


def run_partitioned_extraction(
    input_files: list[str],
    out_dir: str,
    cfg: ExtractionConfig | None = None,
    fail_after: int | None = None,
    max_in_flight: int | None = None,
) -> dict:
    """Extract every input shard, checkpointing per partition; skips
    partitions already committed by a previous (possibly killed) run.

    ``fail_after``: test hook — abort the run after N newly-processed
    partitions (simulates a mid-job crash). Forces serial execution so
    "after N" is exact.

    ``max_in_flight``: bounded partition pipelining — up to K partitions
    execute as concurrent Dataset runs (each from its own driver thread,
    all sharing the cluster's task slots), and each commits its manifest
    the moment it completes. This fills the cluster through each
    partition's start-up, ragged tail and content-hash pass, which a
    serial loop would idle through, while keeping resume granularity and
    the atomic per-partition commit identical to the serial path.
    Default: min(4, pending partitions); pass 1 to force the serial loop.

    Returns a summary: partitions done/skipped, docs, docs_per_sec.
    """
    cfg = cfg or ExtractionConfig()
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = completed_partitions(out_dir)
    orphans = [p for p in done if p >= len(input_files)]
    if orphans:
        raise RuntimeError(
            f"checkpoint manifest has committed partitions {sorted(orphans)} "
            f"beyond the current {len(input_files)}-shard input list — the "
            f"shard list shrank since the interrupted run"
        )
    processed = skipped = 0
    total_docs = sum(e["docs"] for e in done.values())
    t_run0 = time.perf_counter()

    pending: list[tuple[int, str]] = []
    for pid, in_file in enumerate(sorted(input_files)):
        if pid in done:
            # Resume identity: a committed manifest entry only covers this
            # pid if it was produced from the SAME input file. If the shard
            # list changed between runs (file added/removed/renamed), the
            # sort-index → file mapping shifts and silently skipping would
            # leave shards unprocessed while reporting success — fail loudly
            # instead and make the caller restart into a fresh out_dir (or
            # clear the stale manifest).
            committed = done[pid].get("input_files")
            if committed != [in_file]:
                raise RuntimeError(
                    f"checkpoint manifest mismatch for {_part_name(pid)}: "
                    f"committed from {committed}, current input is "
                    f"[{in_file!r}] — the input shard list changed since the "
                    f"interrupted run; resume would mis-map partitions"
                )
            skipped += 1
            continue
        pending.append((pid, in_file))

    if fail_after is not None:
        k = 1  # exact "commit N then crash" semantics need ordered commits
    elif max_in_flight is not None:
        k = max(1, max_in_flight)
    else:
        k = min(4, len(pending)) or 1

    if k == 1:
        for pid, in_file in pending:
            entry = _process_partition(pid, in_file, out_dir, cfg)
            processed += 1
            total_docs += entry["docs"]
            if fail_after is not None and processed >= fail_after:
                raise RuntimeError(
                    f"injected failure after {processed} partitions (test hook)"
                )
    elif pending:
        first_err: BaseException | None = None
        with ThreadPoolExecutor(max_workers=k) as ex:
            futures = {
                ex.submit(_process_partition, pid, in_file, out_dir, cfg)
                for pid, in_file in pending
            }
            # Drain as they complete: a failed partition doesn't abandon the
            # ones already in flight — they finish and commit, so the resume
            # after the raise repeats only genuinely unfinished shards.
            while futures:
                done_set, futures = wait(futures, return_when=FIRST_COMPLETED)
                for fut in done_set:
                    try:
                        entry = fut.result()
                    except BaseException as e:  # noqa: BLE001 — re-raised below
                        first_err = first_err or e
                        continue
                    processed += 1
                    total_docs += entry["docs"]
        if first_err is not None:
            raise first_err

    wall_run = time.perf_counter() - t_run0
    return {
        "partitions": len(input_files),
        "processed": processed,
        "skipped": skipped,
        "docs": total_docs,
        "wall_s": round(wall_run, 3),
        "docs_per_sec": round(total_docs / wall_run, 1) if wall_run > 0 else None,
        "max_in_flight": k,
    }


def tallies_from_checkpoint(out_dir: str):
    """Downstream wide ops over a checkpointed run: read ONLY committed
    partitions and aggregate. This is what "resumes mid-shuffle" means at
    partition granularity (SURVEY.md §4.2): the extraction never reruns;
    tallies/sorts re-execute over the durable partition outputs, so a
    restart after a crash repeats only the cheap aggregate."""
    import ray.data

    from rika_ray.pipelines.extraction import error_tally, media_type_tally

    import glob as _glob

    files: list[str] = []
    for e in completed_partitions(out_dir).values():
        files.extend(
            sorted(_glob.glob(os.path.join(out_dir, e["part"], "*.parquet")))
        )
    if not files:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    ds = ray.data.read_parquet(files, columns=["media_type", "error_type"])
    return {
        "error_tally": error_tally(ds).take_all(),
        "media_type_tally": media_type_tally(ds).take_all(),
    }


def combined_content_hash(out_dir: str) -> int:
    """Order-independent hash over every committed partition — the
    whole-run identity used by resume/determinism tests."""
    total = 0
    for entry in completed_partitions(out_dir).values():
        total = (total + entry["content_hash"]) % (1 << 64)
    return total
