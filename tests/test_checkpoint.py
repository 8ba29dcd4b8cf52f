"""Resume tests (SURVEY.md §5.2 layer 5): a run that stops after some
partitions, then a restart; the output must equal a single run's and only
the missing partitions recompute. A run is one Dataset execution whose
task per shard commits its own partition."""

from __future__ import annotations

import os
import shutil
import struct
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rika_ray.state.checkpoint import (
    _content_hash,
    combined_content_hash,
    completed_partitions,
    run_partitioned_extraction,
)


def _sorted_rows(tbl: pa.Table) -> list[dict]:
    return sorted(tbl.to_pylist(), key=lambda r: (r["url"], repr(r)))


def test_full_run_then_resume_noop(ray_session, sharded_input, tmp_path):
    out = str(tmp_path / "out")
    summary = run_partitioned_extraction(sharded_input, out)
    assert summary["processed"] == 3 and summary["skipped"] == 0
    assert len(completed_partitions(out)) == 3
    h1 = combined_content_hash(out)

    # second run: everything skipped, nothing rewritten
    summary2 = run_partitioned_extraction(sharded_input, out)
    assert summary2["processed"] == 0 and summary2["skipped"] == 3
    assert combined_content_hash(out) == h1


def test_prefix_run_then_resume_equals_single_run(
    sharded_input, sharded_hash, tmp_path
):
    out = str(tmp_path / "prefix")
    run_partitioned_extraction(sharded_input[:1], out)
    summary = run_partitioned_extraction(sharded_input, out)
    assert summary["skipped"] == 1 and summary["processed"] == 2
    assert combined_content_hash(out) == sharded_hash


def test_crash_resume_equals_single_run(sharded_input, sharded_hash, tmp_path):
    """A run with one corrupt shard raises; every partition it committed
    is complete, and once the shard is restored the resume finishes the
    rest and equals an uninterrupted run."""
    shards = []
    for f in sharded_input:
        shards.append(str(tmp_path / os.path.basename(f)))
        shutil.copy(f, shards[-1])
    # garbage over the data pages, the footer intact: the plan builds and
    # the shard's own task fails on its read, while the others run
    raw = bytearray(open(shards[1], "rb").read())
    data_end = len(raw) - 8 - struct.unpack("<i", raw[-8:-4])[0]
    raw[4:data_end] = (b"garbage!" * len(raw))[: data_end - 4]
    with open(shards[1], "wb") as fh:
        fh.write(raw)

    out = str(tmp_path / "crashed")
    with pytest.raises(Exception):
        run_partitioned_extraction(shards, out)
    committed = completed_partitions(out)
    assert 1 not in committed
    for entry in committed.values():
        rows = pq.read_table(os.path.join(out, entry["part"])).num_rows
        assert entry["docs"] == rows > 0

    shutil.copy(sharded_input[1], shards[1])
    summary = run_partitioned_extraction(shards, out)
    assert summary["skipped"] == len(committed)
    assert summary["processed"] == 3 - len(committed)
    assert combined_content_hash(out) == sharded_hash


def test_one_fused_task_per_pending_shard(
    ray_session, sharded_input, tmp_path, monkeypatch
):
    """A run is one Dataset execution, one fused read→kernel→write task per
    pending shard (no re-read for the hash), and each partition holds the
    kernel's rows for its shard."""
    import ray.data

    from rika_ray.pipelines.extraction import (
        EXTRACTION_INPUT_COLUMNS,
        FusedExtractStage,
    )

    written = []
    write_datasink = ray.data.Dataset.write_datasink

    def _capture(ds, *args, **kwargs):
        written.append(ds)
        return write_datasink(ds, *args, **kwargs)

    out = str(tmp_path / "plan")
    run_partitioned_extraction(sharded_input[:1], out)
    monkeypatch.setattr(ray.data.Dataset, "write_datasink", _capture)
    summary = run_partitioned_extraction(sharded_input, out)
    assert summary["processed"] == 2

    (ds,) = written
    ops = ds._write_ds._get_stats_summary().operators_stats
    assert [op.operator_name for op in ops] == [
        "ReadParquet->MapBatches(_extract_shard)->Write"
    ]
    assert ops[0].task_rows["count"] == 2

    kernel = FusedExtractStage()
    for pid, entry in completed_partitions(out).items():
        assert entry["input_files"] == [sharded_input[pid]]
        pages = pq.read_table(
            sharded_input[pid], columns=list(EXTRACTION_INPUT_COLUMNS)
        )
        got = pq.read_table(os.path.join(out, entry["part"]))
        assert _sorted_rows(got) == _sorted_rows(kernel(pages)), pid


def test_zero_row_shard_commits(
    ray_session, sharded_input, sharded_hash, tmp_path, monkeypatch
):
    """A shard with no rows is committed from its footer, as an empty
    partition, and never read, so Ray sees no block without columns; the
    other shards give the same hash as without it, and a rerun is a no-op."""
    import logging

    from rika_ray.state import checkpoint
    from rika_ray.state.checkpoint import tallies_from_checkpoint

    reads = []

    def read_web_pages(files, **kwargs):
        reads.append((list(files), kwargs["override_num_blocks"]))
        return real_read(files, **kwargs)

    real_read = checkpoint.read_web_pages
    monkeypatch.setattr(checkpoint, "read_web_pages", read_web_pages)

    empty = str(tmp_path / "shard-empty.parquet")
    pq.write_table(pq.read_table(sharded_input[0]).slice(0, 0), empty)
    shards = [*sharded_input, empty]
    out = str(tmp_path / "out")

    class Records(logging.Handler):
        def __init__(self):
            super().__init__()
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    records = Records()
    ray_log = logging.getLogger("ray.data")
    ray_log.addHandler(records)
    try:
        summary = run_partitioned_extraction(shards, out)
    finally:
        ray_log.removeHandler(records)
    assert not [m for m in records.messages if "different schema" in m]
    assert reads == [(sorted(sharded_input), len(sharded_input))]
    assert summary["processed"] == 4
    entries = completed_partitions(out)
    (zero,) = [e for e in entries.values() if e["input_files"] == [empty]]
    assert zero["docs"] == 0 and zero["content_hash"] == 0
    assert os.path.isdir(os.path.join(out, zero["part"]))
    assert summary["docs"] == sum(e["docs"] for e in entries.values()) > 0
    assert combined_content_hash(out) == sharded_hash
    assert tallies_from_checkpoint(out)["error_tally"]

    again = run_partitioned_extraction(shards, out)
    assert again["processed"] == 0 and again["skipped"] == 4


def test_content_hash_is_the_wrapping_per_row_sum():
    """One array reduction, the same definition as a per-row sum of
    ``hash(url\\x00content)`` mod 2**64, and no overflow warning."""
    n = 200
    contents = [None if i % 7 == 0 else f"text {i}\x00tail" * (i % 3)
                for i in range(n)]
    table = pa.table({
        "url": pa.array([f"https://example.com/{i}" for i in range(n)]),
        "content": pa.array(contents, pa.large_string()),
    })
    row_hashes = pd.util.hash_array(
        np.asarray(
            [f"{u}\x00{c if c is not None else '<null>'}"
             for u, c in zip(table["url"].to_pylist(), contents)],
            dtype=object,
        ),
        categorize=False,
    )
    want = sum(int(h) for h in row_hashes) % (1 << 64)
    assert want != sum(int(h) for h in row_hashes)  # the sum does wrap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _content_hash(table) == want


def test_manifest_lineage_fields(ray_session, sharded_input, tmp_path):
    out = str(tmp_path / "lineage")
    run_partitioned_extraction(sharded_input, out)
    for entry in completed_partitions(out).values():
        assert entry["docs"] > 0
        assert entry["input_files"] and os.path.exists(entry["input_files"][0])
        assert entry["docs_per_sec"] > 0
        assert isinstance(entry["content_hash"], int)
        assert entry["engine_version"]


def test_tallies_over_committed_partitions(ray_session, sharded_input, tmp_path):
    """Wide ops after a partial run only read durable partition outputs —
    the partition-granular "resume mid-shuffle" semantics."""
    from rika_ray.state.checkpoint import tallies_from_checkpoint

    out = str(tmp_path / "tally")
    run_partitioned_extraction(sharded_input[:2], out)
    partial = tallies_from_checkpoint(out)  # 2 committed partitions
    partial_total = sum(r["count()"] for r in partial["error_tally"])

    run_partitioned_extraction(sharded_input, out)  # resume
    full = tallies_from_checkpoint(out)
    full_total = sum(r["count()"] for r in full["error_tally"])
    assert full_total > partial_total
    media = {r["media_type"] for r in full["media_type_tally"]}
    assert "text/html" in media and "application/pdf" in media


def test_resume_rejects_changed_shard_list(ray_session, sharded_input, tmp_path):
    """A resume whose sorted-shard→partition mapping shifted must fail
    loudly, never silently skip the wrong inputs (manifest lineage is the
    identity, not the sort index)."""
    out = str(tmp_path / "drift")
    run_partitioned_extraction(sharded_input[:1], out)

    base = os.path.dirname(sharded_input[0])
    # rename shard 0 so it sorts AFTER the others: pid 0 now maps to a
    # different file than the committed manifest entry records
    renamed = os.path.join(base, "z-shard-0.parquet")
    shutil.copy(sharded_input[0], renamed)
    drifted = [renamed] + sharded_input[1:]
    try:
        with pytest.raises(RuntimeError, match="manifest mismatch"):
            run_partitioned_extraction(drifted, out)
        # shrunk shard list → orphan committed partitions → loud failure
        run_partitioned_extraction(sharded_input, out)  # heal: finish normally
        with pytest.raises(RuntimeError, match="shard list shrank"):
            run_partitioned_extraction(sharded_input[:1], out)
    finally:
        os.remove(renamed)
