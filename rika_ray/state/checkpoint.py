"""Per-partition checkpointing with lineage + extraction-rate metrics
(SURVEY.md §4.2 "Checkpoint / resume"; BASELINE.json "checkpoints
per-partition with lineage and extraction-rate metrics so a 10^12-document
run resumes").

Layout::

    out_dir/
      part-00000/data.parquet      # one directory per input shard
      part-00001/...
      _manifest/
        part-00000.json            # atomic commit marker + lineage/metrics

A partition = one input shard (Parquet file), numbered by its place in the
sorted shard list. A run is ONE Dataset execution over the pending shards,
``ReadParquet->MapBatches(_extract_shard)->Write``, one fused task per
shard: it reads the shard, runs the pipeline's kernel, and
``_PartitionSink.write`` streams the rows into ``.tmp-part-NNNNN/``, hashes
them as it writes and commits the partition itself (tmp dir → rename, then
manifest tmp → rename; atomic on POSIX). A partition is durable the moment
its task ends, so a failed run keeps every partition that finished. On
restart, partitions with a committed manifest entry are skipped — a
metadata lookup costing O(partitions), never O(rows). A zero-row shard
is never read: the driver commits it before the job, from its Parquet
footer's row count, and the job's read counts only shards with rows.

Ray's scheduler hands out the shards one per CPU: with fewer pending
shards than CPUs the other CPUs idle, so inputs should come as at least as
many shards as CPUs (as a 10^12-document run does). Ray's write operator
holds a task's blocks until the sink returns, so a task's memory follows
its shard's extracted output.

Manifest entry lineage + metrics::

    {"partition_id", "input_files", "docs", "input_bytes", "wall_s",
     "docs_per_sec", "content_hash", "engine_version"}

``wall_s`` is the task's read + extract + write + hash time.
``content_hash`` is an order-independent 64-bit hash over (url, content)
pairs — two runs that produce the same rows in any order commit the same
hash, which is what the determinism / resume tests assert.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import shutil
import time
from collections.abc import Iterable, Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Datasink

import rika_ray
from rika_ray.pipelines.extraction import (
    ExtractionConfig, fused_extract, read_web_pages)
from rika_ray.schema import EXTRACTED_SCHEMA

# the partition id each extracted row carries from the kernel to the sink
_PID = "__partition_id"


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _part_name(i: int) -> str:
    return f"part-{i:05d}"


def _tmp_dir(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f".tmp-{_part_name(pid)}")


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


def _content_hash(rows: pa.Table) -> int:
    """Order-independent partial hash: the wrapping uint64 sum of each
    row's hash of ``url\\x00content`` (a null content as ``<null>``)."""
    keys = pc.binary_join_element_wise(
        rows["url"].cast(pa.large_string()),
        pc.fill_null(rows["content"].cast(pa.large_string()), "<null>"),
        pa.scalar("\x00", pa.large_string()),
    )
    # categorize=False: the default categorize path truncates strings at
    # NUL bytes — with the url\x00content layout that would hash ONLY the
    # url and miss content changes entirely
    h = pd.util.hash_array(keys.to_numpy(zero_copy_only=False), categorize=False)
    return int(h.sum(dtype=np.uint64))  # an array sum wraps without a warning


def _commit(out_dir: str, pid: int, in_file: str, docs: int,
            content_hash: int, wall: float) -> dict:
    """Publish ``.tmp-part-NNNNN/`` as ``part-NNNNN/``, then its manifest
    entry; every path derives from ``pid``, so distinct commits never collide."""
    part = _part_name(pid)
    final_dir = os.path.join(out_dir, part)
    shutil.rmtree(final_dir, ignore_errors=True)  # a killed run's leftover
    os.replace(_tmp_dir(out_dir, pid), final_dir)  # atomic publish of the data
    entry = {
        "partition_id": pid,
        "part": part,
        "input_files": [in_file],
        "docs": docs,
        "input_bytes": os.path.getsize(in_file),
        "wall_s": round(wall, 3),
        "docs_per_sec": round(docs / wall, 1) if wall else None,
        "content_hash": content_hash,
        "engine_version": rika_ray.__version__,
    }
    mpath = os.path.join(_manifest_dir(out_dir), f"{part}.json")
    tmp_mpath = mpath + ".tmp"
    with open(tmp_mpath, "w") as f:
        json.dump(entry, f)
    os.replace(tmp_mpath, mpath)  # atomic commit marker
    return entry


def _extract_shard(block: pa.Table, *, pids: dict[str, int],
                   **kernel_kwargs) -> Iterator[pa.Table]:
    """The pipeline's kernel on a block read with ``include_paths=True``:
    ``fused_extract`` runs on the block without its ``path`` column, and
    each output row is tagged with its input row's partition id (the
    kernel returns one row per input row, in order)."""
    tags = pa.array([pids[p] for p in block["path"].to_pylist()], pa.int32())
    off = 0
    for out in fused_extract(block.drop_columns(["path"]), **kernel_kwargs):
        yield out.append_column(_PID, tags.slice(off, out.num_rows))
        off += out.num_rows


class _PartitionSink(Datasink):
    """Writes, hashes and commits one partition per write task."""

    def __init__(self, out_dir: str, shards: dict[int, str]):
        self._out_dir = out_dir
        self._shards = shards  # pid → input file

    def write(self, blocks: Iterable[pa.Table], ctx) -> dict | None:
        t0 = time.perf_counter()  # the blocks are read and extracted lazily
        blocks = (b for b in blocks if b.num_rows)
        first = next(blocks, None)
        if first is None:
            return None  # nothing of a shard reached this task
        pid = first[_PID][0].as_py()
        tmp_dir = _tmp_dir(self._out_dir, pid)
        shutil.rmtree(tmp_dir, ignore_errors=True)  # a retried task's rows
        os.makedirs(tmp_dir)
        docs = content_hash = 0
        with pq.ParquetWriter(f"{tmp_dir}/data.parquet", EXTRACTED_SCHEMA) as writer:
            for block in itertools.chain([first], blocks):
                if (ids := pc.unique(block[_PID]).to_pylist()) != [pid]:
                    raise RuntimeError(f"one write task saw partitions {pid} and {ids}")
                rows = block.drop_columns([_PID])
                writer.write_table(rows)
                docs += rows.num_rows
                content_hash = (content_hash + _content_hash(rows)) % (1 << 64)
        return _commit(self._out_dir, pid, self._shards[pid], docs,
                       content_hash, time.perf_counter() - t0)


def run_partitioned_extraction(
    input_files: list[str],
    out_dir: str,
    cfg: ExtractionConfig | None = None,
) -> dict:
    """Extract every input shard, checkpointing per partition; skips
    partitions already committed by a previous (possibly killed) run. The
    pending shards run as one Dataset execution whose task per shard commits
    its own partition (module docstring). Returns a summary: partitions
    processed/skipped, docs, docs_per_sec."""
    cfg = cfg or ExtractionConfig()
    if cfg.route_mega_docs:
        raise ValueError("route_mega_docs would split a shard across tasks; "
                         "a checkpointed run commits each shard from one task")
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = completed_partitions(out_dir)
    orphans = [p for p in done if p >= len(input_files)]
    if orphans:
        raise RuntimeError(
            f"checkpoint manifest has committed partitions {sorted(orphans)} "
            f"beyond the current {len(input_files)}-shard input list — the "
            f"shard list shrank since the interrupted run"
        )
    t_run0 = time.perf_counter()

    pending: dict[int, str] = {}
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
            continue
        pending[pid] = in_file

    # a zero-row shard commits from its footer: a read of it would hand its
    # task one empty block without columns
    to_read: dict[int, str] = {}
    for pid, in_file in pending.items():
        if pq.read_metadata(in_file).num_rows:
            to_read[pid] = in_file
        else:
            os.makedirs(_tmp_dir(out_dir, pid), exist_ok=True)
            _commit(out_dir, pid, in_file, 0, 0, 0.0)

    if to_read:
        files = list(to_read.values())
        read_web_pages(
            files, override_num_blocks=len(files), include_paths=True
        ).map_batches(
            _extract_shard,
            fn_kwargs=dict(
                pids={f: pid for pid, f in to_read.items()},
                batch_size=cfg.batch_size, max_content_length=cfg.max_content_length,
                key_sort=cfg.key_sort, detector=cfg.detector,
            ),
            batch_format="pyarrow",
            batch_size=None,  # whole blocks, so the read fuses into the task
        ).write_datasink(_PartitionSink(out_dir, to_read))
        missing = sorted(to_read.keys() - completed_partitions(out_dir).keys())
        if missing:
            raise RuntimeError(f"{[_part_name(p) for p in missing]} not committed")

    total_docs = sum(e["docs"] for e in completed_partitions(out_dir).values())
    wall_run = time.perf_counter() - t_run0
    return {
        "partitions": len(input_files),
        "processed": len(pending),
        "skipped": len(input_files) - len(pending),
        "docs": total_docs,
        "wall_s": round(wall_run, 3),
        "docs_per_sec": round(total_docs / wall_run, 1) if wall_run > 0 else None,
    }


def tallies_from_checkpoint(out_dir: str):
    """Downstream wide ops over a checkpointed run: read ONLY committed
    partitions and aggregate. This is what "resumes mid-shuffle" means at
    partition granularity (SURVEY.md §4.2): the extraction never reruns;
    tallies/sorts re-execute over the durable partition outputs, so a
    restart after a crash repeats only the cheap aggregate."""
    import ray.data

    from rika_ray.pipelines.extraction import error_tally, media_type_tally

    files = [f for e in completed_partitions(out_dir).values()
             for f in sorted(glob.glob(os.path.join(out_dir, e["part"], "*.parquet")))]
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
