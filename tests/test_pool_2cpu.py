"""Small-cluster regression: every pipeline that used to hold an auxiliary
actor pool or one of Ray's hash shuffles must finish on a 1- and a 2-CPU
cluster. Pools with ``num_cpus=0.5`` floors reserved the whole of a tiny
cluster, so the read tasks never scheduled, and the aggregator actors of
Ray's hash joins waited for a CPU forever: both hang silently (no output,
no error). Every auxiliary stage is now a plain task and every exchange
a sort on the bounded partition key (``pipelines.aggregate``).

Runs in a subprocess because the session fixture pins ``num_cpus=4``.
Each pipeline has its own deadline; its rows must equal DuckDB's over the
same tables, or those of the 4-CPU session where the query has no oracle
over the testdata tables.
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
    "minhash_lsh_pairs",
    "verify_jaccard_pairs",
    "neardup_clusters",
    "simhash_signatures",
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
num_cpus, sf_dir, out_dir, deadline = sys.argv[1:5]
ray.init(address="local", num_cpus=int(num_cpus), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__

def _late(signum, frame):
    raise TimeoutError(f"{name}: no result within {deadline} s")

signal.signal(signal.SIGALRM, _late)
queries = __ray_entry__.queries()
for name in sys.argv[5:]:
    signal.alarm(int(deadline))
    ds = queries[name](sf_dir)
    rows = ds.to_pandas()
    if rows.empty:  # Ray's to_pandas drops the columns of an empty result
        rows = ds.schema().base_schema.empty_table().to_pandas()
    signal.alarm(0)
    rows.to_parquet(f"{out_dir}/{name}.parquet")
    print("done", name, len(rows), flush=True)
ray.shutdown()
"""


def _canon(frame: pd.DataFrame) -> pd.DataFrame:
    """Columns by name; rows as the query ordered them."""
    return frame[sorted(frame.columns)].reset_index(drop=True)


def _has_table_oracle(sql: str | None) -> bool:
    # the other oracles read goldens made for the sf0.01 inputs
    return sql is not None and "read_parquet(" not in sql


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_pipelines_finish_on_a_small_cluster(ray_session, tmp_path, num_cpus):
    import duckdb

    import __ray_entry__

    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(num_cpus), SF_DIR, str(tmp_path),
         str(DEADLINE_S), *PIPELINES],
        capture_output=True,
        text=True,
        timeout=DEADLINE_S * 4 + 30 * len(PIPELINES),
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]

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
