"""Cluster-size regressions for the plans that used to hold actor pools.

Every pipeline that used to hold an auxiliary actor pool or one of Ray's
hash shuffles must finish on a 1- and a 2-CPU cluster. Pools with
``num_cpus=0.5`` floors reserved the whole of a tiny cluster, so the read
tasks never scheduled, and the aggregator actors of Ray's hash joins
waited for a CPU forever: both hang silently (no output, no error). Every
auxiliary stage is now a plain task and every exchange a sort on the
bounded partition key (``pipelines.aggregate``).

The extraction kernel's actor pool at 4+ CPUs stalled back-to-back jobs
(1.3 s to 18.9 s each where tasks held under 1 s); the kernel is now a
plain task at every size, and ten jobs in a row at 4 CPUs must each
finish within a deadline with the kernel's own rows.

Runs in a subprocess because the session fixture pins ``num_cpus=4``
(and, for the 4-CPU case, so that the first job meets fresh workers).
Each pipeline has its own deadline; its rows
must equal DuckDB's over the same tables, or those of the 4-CPU session
where the query has no oracle over the testdata tables. The small cluster
also runs a checkpointed extraction, whose combined content hash must
equal the 4-CPU session's.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pandas as pd
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SF_DIR = "/root/testdata/sf0.001"

PIPELINES = [
    # relational: broadcast lookups, joins, per-group top-k
    "orders_per_segment",
    "customers_per_region",
    "supplier_revenue_by_nation",
    "shipping_priority",
    "returned_items",
    "customers_without_urgent_orders",
    "top_parts_per_brand",
    # text analysis
    "quality_scores",
    "lang_id",
    # dedup
    "minhash_pair_set",
    "verify_jaccard_pairs",
    "neardup_clusters",
    "simhash_neardup_pairs",
    "embedding_neardup_pairs",
    "embedding_neardup_exact",
    # similarity
    "ann_topk_bruteforce",
    "ann_topk_lsh",
    "ann_topk_ivf",
    # multimodal
    "image_features_decoded",
    "audio_features_decoded",
    "video_features_decoded",
]
# a healthy pipeline finishes in a few seconds at sf0.001 on one CPU; a
# starved one never does
DEADLINE_S = 120

_SCRIPT = """
import signal, sys
import ray
num_cpus, sf_dir, out_dir, deadline, shards = sys.argv[1:6]
ray.init(address="local", num_cpus=int(num_cpus), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__
from rika_ray.state.checkpoint import (
    combined_content_hash, run_partitioned_extraction)

def _late(signum, frame):
    raise TimeoutError(f"{name}: no result within {deadline} s")

signal.signal(signal.SIGALRM, _late)
queries = __ray_entry__.queries()
for name in sys.argv[6:]:
    signal.alarm(int(deadline))
    ds = queries[name](sf_dir)
    rows = ds.to_pandas()
    if rows.empty:  # Ray's to_pandas drops the columns of an empty result
        rows = ds.schema().base_schema.empty_table().to_pandas()
    signal.alarm(0)
    rows.to_parquet(f"{out_dir}/{name}.parquet")
    print("done", name, len(rows), flush=True)
name = "checkpointed extraction"
print(name, file=sys.stderr, flush=True)
signal.alarm(int(deadline))
run_partitioned_extraction(shards.split(","), f"{out_dir}/checkpoint")
signal.alarm(0)
print("checkpoint", combined_content_hash(f"{out_dir}/checkpoint"), flush=True)
ray.shutdown()
"""


def _canon(frame: pd.DataFrame) -> pd.DataFrame:
    """Columns by name; rows as the query ordered them."""
    return frame[sorted(frame.columns)].reset_index(drop=True)


def _has_table_oracle(sql: str | None) -> bool:
    # the other oracles read goldens made for the sf0.01 inputs
    return sql is not None and "read_parquet(" not in sql


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_pipelines_finish_on_a_small_cluster(
    ray_session, sharded_input, sharded_hash, tmp_path, num_cpus
):
    import duckdb

    import __ray_entry__

    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(num_cpus), SF_DIR, str(tmp_path),
         str(DEADLINE_S), ",".join(sharded_input), *PIPELINES],
        capture_output=True,
        text=True,
        timeout=DEADLINE_S * 4 + 30 * len(PIPELINES),
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]
    # a checkpointed run is one Dataset job, which never waits on another
    checkpoint_log = proc.stderr.split("checkpointed extraction\n")[-1]
    assert "does not have any available CPUs" not in checkpoint_log
    assert f"checkpoint {sharded_hash}\n" in proc.stdout

    oracles = __ray_entry__.oracle_sql()
    queries = __ray_entry__.queries()
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    for name in PIPELINES:
        got = _canon(pd.read_parquet(tmp_path / f"{name}.parquet"))
        if _has_table_oracle(oracles.get(name)):
            exp = con.execute(oracles[name]).df()
        else:
            ds = queries[name](SF_DIR)
            exp = ds.to_pandas()
            if exp.empty:
                exp = ds.schema().base_schema.empty_table().to_pandas()
        exp = _canon(exp)
        assert list(got.columns) == list(exp.columns), name
        pd.testing.assert_frame_equal(
            got, exp, check_dtype=False, check_exact=True, obj=name
        )


# healthy back-to-back extraction jobs over the smoke corpus take under a
# second each at 4 CPUs (the first a few, while workers start); over the
# 2,818 documents of layerbench's extract_mixed the actor pool's second
# job took 17-19 s
EXTRACT_JOBS = 10
EXTRACT_DEADLINE_S = 15

_EXTRACT_SCRIPT = """
import signal, sys, time
import ray
num_cpus, corpus_dir, out_dir, deadline, jobs = sys.argv[1:6]
ray.init(address="local", num_cpus=int(num_cpus), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from rika_ray.pipelines.extraction import (
    ExtractionConfig, build_extraction_pipeline, read_web_pages)

def _late(signum, frame):
    raise TimeoutError(f"job {job}: not done within {deadline} s")

signal.signal(signal.SIGALRM, _late)
for job in range(int(jobs)):
    signal.alarm(int(deadline))
    t0 = time.perf_counter()
    ds = read_web_pages(f"{corpus_dir}/web_pages.parquet")
    build_extraction_pipeline(ds, ExtractionConfig()).write_parquet(
        f"{out_dir}/job{job}")
    signal.alarm(0)
    print("done", job, round(time.perf_counter() - t0, 3), flush=True)
ray.shutdown()
"""


def test_back_to_back_extraction_jobs_at_4_cpus(ray_session, corpus_dir, tmp_path):
    import pyarrow.parquet as pq

    from rika_ray.pipelines.extraction import (
        EXTRACTION_INPUT_COLUMNS,
        FusedExtractStage,
    )

    proc = subprocess.run(
        [sys.executable, "-c", _EXTRACT_SCRIPT, "4", corpus_dir, str(tmp_path),
         str(EXTRACT_DEADLINE_S), str(EXTRACT_JOBS)],
        capture_output=True,
        text=True,
        timeout=EXTRACT_DEADLINE_S * EXTRACT_JOBS + 60,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]
    assert proc.stdout.count("done ") == EXTRACT_JOBS, proc.stdout

    pages = pq.read_table(
        f"{corpus_dir}/web_pages.parquet", columns=list(EXTRACTION_INPUT_COLUMNS)
    )

    def _rows(tbl):
        return sorted(tbl.to_pylist(), key=lambda r: (r["url"], repr(r)))

    want = _rows(FusedExtractStage()(pages))
    for job in range(EXTRACT_JOBS):
        assert _rows(pq.read_table(tmp_path / f"job{job}")) == want, job


def test_the_plan_builds_no_kernel_in_the_driver(ray_session, corpus_dir, monkeypatch):
    """Each worker builds its own kernel; the plan carries only the config,
    not a driver-built kernel pickled into every task."""
    from rika_ray.pipelines import extraction

    built = []
    init = extraction.FusedExtractStage.__init__

    def _counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(extraction.FusedExtractStage, "__init__", _counting_init)
    ds = extraction.build_extraction_pipeline(
        extraction.read_web_pages(f"{corpus_dir}/web_pages.parquet"),
        extraction.ExtractionConfig(),
    )
    assert built == []
    assert ds.count() > 0
    assert built == []
