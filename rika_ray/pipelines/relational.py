"""Relational operators over the driver testdata tables (SURVEY.md §2.5/2.6
A1-A3, O2-O6, M12-M14 analogues) — each with an exact DuckDB-SQL oracle in
``__ray_entry__.oracle_sql``.

Scale notes baked into every implementation:
- reads prune columns (``read_parquet(columns=[...])``),
- every grouped aggregate, tally and per-key window runs on the one
  bounded-partition operator of ``pipelines.aggregate``: an Arrow partial
  per block, one shuffle on ``mix64(key) % P`` with P set by the cluster,
  then one vectorized Arrow combine per block of whole partitions, so the
  shuffle's cost does not follow the key cardinality (Ray's own
  ``groupby(key)`` made ``top_parts_by_quantity`` over 150k lineitem rows
  and 5k part keys take ~1.9 s at 1 CPU; here it takes ~0.35 s),
- small-side joins broadcast: the small side becomes a dict that the
  plain per-batch lookup task closes over, instead of an all-to-all
  shuffle join,
- joins of two large sides run on ``aggregate.partitioned_join``: both
  sides shuffled together on the same bounded partition key, one Arrow
  hash join per block.

No stage holds a standing reservation: every map is a plain task, so the
plans run on any cluster down to one CPU.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from rika_ray.functions.text import tokenize_arrow
from rika_ray.pipelines.aggregate import (
    partitioned_aggregate,
    partitioned_join,
    partitioned_map,
)


def _rp(sf_dir: str, table: str, columns: list[str] | None = None):
    from rika_ray.sources.parquet import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------
# Tallies (A1/A2 analogues: low-cardinality groupby)
# ---------------------------------------------------------------------------

_COUNT_STAR = (None, "count", "n")  # COUNT(*) AS n


def source_tally(sf_dir: str) -> ray.data.Dataset:
    """Documents per source — the content-type-tally shape of
    /root/reference/README.md:233-249 over the documents table."""
    return partitioned_aggregate(
        _rp(sf_dir, "documents", ["source"]), ["source"], [_COUNT_STAR]
    ).sort("source")


def lang_claim_tally(sf_dir: str) -> ray.data.Dataset:
    return partitioned_aggregate(
        _rp(sf_dir, "documents", ["lang"]), ["lang"], [_COUNT_STAR]
    ).sort("lang")


# ---------------------------------------------------------------------------
# Top-k words (A3, the top-words example of the reference README)
# ---------------------------------------------------------------------------


def top_words(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    def _words(batch: pa.Table) -> pa.Table:
        # tokenize → flatten in Arrow C++: one row per non-empty token
        toks, _ = tokenize_arrow(batch["text"])
        flat = pc.list_flatten(toks)
        return pa.table({"word": flat.filter(pc.not_equal(flat, ""))})

    words = _rp(sf_dir, "documents", ["text"]).map_batches(
        _words, batch_format="pyarrow", batch_size=1024
    )
    return partitioned_aggregate(
        words, ["word"], [(None, "count", "cnt")], top=("cnt", k)
    )


# ---------------------------------------------------------------------------
# Projection / filter (M12, M14)
# ---------------------------------------------------------------------------


def docs_filter_project(sf_dir: str, min_chars: int = 300) -> ray.data.Dataset:
    # final sort: Ray's streaming executor does NOT preserve input order
    # (preserve_order defaults off), so an orderless filter's row order is
    # task-completion luck — observed reordered at 32 CPUs. Every oracle'd
    # query must end in an explicit total order.
    return (
        _rp(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .filter(expr=f"n_chars > {min_chars}")
        .select_columns(["doc_id", "lang", "n_chars"])
        .sort("doc_id")
    )


def lineitem_filter_project(sf_dir: str, min_qty: float = 45.0) -> ray.data.Dataset:
    return (
        _rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
        .filter(expr=f"l_quantity > {min_qty}")
        .sort(["l_orderkey", "l_linenumber"])
    )


# ---------------------------------------------------------------------------
# Grouped aggregate flagship (TPC-H Q1 shape over lineitem)
# ---------------------------------------------------------------------------


def _disc_price(batch: pa.Table) -> pa.Array:
    """``l_extendedprice * (1 - l_discount)``, the revenue of a line."""
    return pc.multiply(
        batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
    )


def pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """Pricing summary per (returnflag, linestatus): the canonical wide
    aggregate. Derived column computed vectorized per batch; doubles rounded
    to 2dp in both engines so the value-hash is stable across summation
    order."""

    def _priced(batch: pa.Table) -> pa.Table:
        return batch.append_column("disc_price", _disc_price(batch))

    lines = _rp(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity",
         "l_extendedprice", "l_discount"],
    ).map_batches(_priced, batch_format="pyarrow", batch_size=65536)
    ds = partitioned_aggregate(
        lines,
        ["l_returnflag", "l_linestatus"],
        [
            ("l_quantity", "sum", "sum_qty"),
            ("disc_price", "sum", "sum_disc_price"),
            ("l_quantity", "count", "count_order"),
        ],
    )

    def _round(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": batch["sum_qty"],
                "sum_disc_price": pc.round(batch["sum_disc_price"], 2),
                "count_order": batch["count_order"],
            }
        )

    return ds.map_batches(_round, batch_format="pyarrow").sort(
        ["l_returnflag", "l_linestatus"]
    )


def orders_priority_tally(sf_dir: str) -> ray.data.Dataset:
    return partitioned_aggregate(
        _rp(sf_dir, "orders", ["o_orderpriority"]), ["o_orderpriority"], [_COUNT_STAR]
    ).sort("o_orderpriority")


# ---------------------------------------------------------------------------
# Broadcast joins (§2.4): the small side is a dict the per-batch task
# closes over (Ray ships a map's function once) — no shuffle of the big
# side.
# ---------------------------------------------------------------------------


def orders_per_segment(sf_dir: str) -> ray.data.Dataset:
    """orders ⨝ customer (broadcast) → count per market segment."""
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    segment_of = dict(zip(cust["c_custkey"], cust["c_mktsegment"]))

    def _segments(batch: pd.DataFrame) -> pd.DataFrame:
        # inner join: an order without a customer drops out
        seg = batch["o_custkey"].map(segment_of).dropna()
        return pd.DataFrame({"c_mktsegment": seg})

    segments = _rp(sf_dir, "orders", ["o_custkey"]).map_batches(
        _segments, batch_format="pandas", batch_size=65536
    )
    return partitioned_aggregate(segments, ["c_mktsegment"], [_COUNT_STAR]).sort(
        "c_mktsegment"
    )


def supplier_revenue_by_nation(sf_dir: str) -> ray.data.Dataset:
    """lineitem ⨝ supplier ⨝ nation → revenue per nation name.

    Scale shape: the two small sides (supplier keys → nation name) are
    composed driver-side into ONE broadcast dict the lookup task closes
    over; each lineitem batch is looked up, and the partial sums per batch mean
    the shuffle moves ~25 (nation, partial) rows per batch, never lineitem
    rows. Partitioning assumption: the supplier→nation map fits worker
    memory (supplier is ~1/600 of lineitem rows and 2 ints wide; beyond
    that, swap the broadcast for a key-bucketed shuffle join). Doubles are
    rounded to 2dp in both engines (same rationale as pricing_summary)."""
    supp = _rp(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    nation = _rp(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nation_names = dict(zip(nation["n_nationkey"], nation["n_name"]))
    supp_to_nation = {
        int(k): nation_names[v]
        for k, v in zip(supp["s_suppkey"], supp["s_nationkey"])
    }

    def _nation_revenue(batch: pd.DataFrame) -> pd.DataFrame:
        revenue = batch["l_extendedprice"].to_numpy() * (
            1.0 - batch["l_discount"].to_numpy()
        )
        nname = batch["l_suppkey"].map(supp_to_nation)
        # inner join: a line without a supplier drops out
        return pd.DataFrame({"n_name": nname, "revenue": revenue}).dropna(
            subset=["n_name"]
        )

    lines = _rp(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(_nation_revenue, batch_format="pandas", batch_size=65536)
    ds = partitioned_aggregate(lines, ["n_name"], [("revenue", "sum", "revenue")])

    def _round(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch["n_name"],
                "revenue": pc.round(batch["revenue"], 2),
            }
        )

    return ds.map_batches(_round, batch_format="pyarrow").sort("n_name")


def top_parts_by_quantity(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Top-k parts by total shipped quantity: a HIGH-cardinality groupby
    (one group per partkey), then the top-k taken with a deterministic
    (qty DESC, partkey ASC) tie-break — the heavy-groupby + topk pattern
    (A3/O3 over a wide key space). Each partition keeps its own k best, so
    the final sort merges at most P × k rows."""
    return partitioned_aggregate(
        _rp(sf_dir, "lineitem", ["l_partkey", "l_quantity"]),
        ["l_partkey"],
        [("l_quantity", "sum", "qty")],
        top=("qty", k),
    )


def top_parts_per_brand(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """Per-GROUP top-k (the windowed-ranking operator class: SQL
    ``ROW_NUMBER() OVER (PARTITION BY brand ORDER BY price DESC, key)``):
    for every brand, its k highest-priced parts with their rank.

    Scale shape: an in-batch COMBINER keeps only each batch's local
    per-brand top-k (a batch can never contribute more than k rows per
    brand to the global answer), so the shuffle moves ≤ k × brands ×
    blocks rows instead of the part table; one vectorized pass per
    partition (``partitioned_map``) then ranks every brand in it at once.
    Ties broken by p_partkey ASC → fully deterministic."""

    def _top_k(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["p_brand", "p_retailprice", "p_partkey"],
            ascending=[True, False, True],
        )
        return df.groupby("p_brand", sort=False, dropna=False).head(k)

    def _ranked(part: pd.DataFrame) -> pd.DataFrame:
        top = _top_k(part)
        rank = top.groupby("p_brand", sort=False, dropna=False).cumcount() + 1
        return top.assign(rank=rank.astype("int64"))

    parts = _rp(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"])
    return partitioned_map(
        parts.map_batches(_top_k, batch_format="pandas", batch_size=65536),
        ["p_brand"],
        _ranked,
    ).sort(["p_brand", "rank"])


def customers_per_region(sf_dir: str) -> ray.data.Dataset:
    """customer ⨝ nation ⨝ region via a composed broadcast lookup."""
    nation = _rp(sf_dir, "nation").to_pandas()
    region = _rp(sf_dir, "region").to_pandas()
    region_names = dict(zip(region["r_regionkey"], region["r_name"]))
    nation_to_region = {
        int(r["n_nationkey"]): region_names[r["n_regionkey"]]
        for _, r in nation.iterrows()
    }

    def _regions(batch: pd.DataFrame) -> pd.DataFrame:
        # inner join: a customer without a nation drops out
        return pd.DataFrame(
            {"r_name": batch["c_nationkey"].map(nation_to_region).dropna()}
        )

    regions = _rp(sf_dir, "customer", ["c_nationkey"]).map_batches(
        _regions, batch_format="pandas"
    )
    return partitioned_aggregate(regions, ["r_name"], [_COUNT_STAR]).sort("r_name")


def shipping_priority(
    sf_dir: str,
    segment: str = "BUILDING",
    cutoff: str = "1998-01-01",
    k: int = 10,
) -> ray.data.Dataset:
    """TPC-H-Q3-shaped: customer ⨝ orders ⨝ lineitem → top-k undelivered
    orders by revenue for one market segment.

    Scale shape (round-4 rewrite of a driver-side broadcast — the date
    cutoff keeps most of orders, so the old ``orders.to_pandas()`` was a
    corpus-scale driver materialization): both joins are distributed
    ``partitioned_join``s, same shape as ``returned_items``. The segment
    filter prunes the customer side in a vectorized batch pass straight
    off the read; the date-filtered orders join the segment keys; lineitem
    is shipdate-filtered and aggregated to one row per orderkey BEFORE its
    join, so the join moves per-order revenue, never lineitem rows.
    Nothing table-sized is collected into the calling process."""
    cutoff_ts = pd.Timestamp(cutoff)

    def _seg_keys(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["c_mktsegment"], pa.scalar(segment))
        return pa.table({"c_custkey": batch["c_custkey"].filter(keep)})

    cust = _rp(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        _seg_keys, batch_format="pyarrow", batch_size=65536
    )

    def _dated(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch["o_orderdate"], pa.scalar(cutoff_ts))
        return batch.filter(keep)

    orders = _rp(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(_dated, batch_format="pyarrow", batch_size=65536)

    qual = partitioned_join(
        orders, cust, ["o_custkey"], ["c_custkey"], "inner"
    ).select_columns(["o_orderkey", "o_orderdate"])

    def _shipped(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["l_shipdate"], pa.scalar(cutoff_ts)))
        return pa.table(
            {"l_orderkey": batch["l_orderkey"], "revenue": _disc_price(batch)}
        )

    lines = _rp(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(_shipped, batch_format="pyarrow", batch_size=65536)
    agg = partitioned_aggregate(
        lines, ["l_orderkey"], [("revenue", "sum", "revenue")]
    )

    joined = partitioned_join(agg, qual, ["l_orderkey"], ["o_orderkey"], "inner")

    def _project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "revenue": pc.round(batch["revenue"], 2),
                "o_orderdate": batch["o_orderdate"],
            }
        )

    return (
        joined.map_batches(_project, batch_format="pyarrow")
        .sort([("revenue"), ("l_orderkey")], descending=[True, False])
        .limit(k)
    )


def events_distinct_users(sf_dir: str) -> ray.data.Dataset:
    """COUNT(DISTINCT user_id) per event_type — the canonical distributed
    distinct-aggregate: in-batch pair dedupe (cheap, bounds the shuffle),
    then every distinct (event_type, user_id) pair of one event_type meets
    in one partition and is counted there."""
    return partitioned_aggregate(
        _rp(sf_dir, "events", ["event_type", "user_id"]),
        ["event_type"],
        [("user_id", "count_distinct", "n_users")],
    ).sort("event_type")


# ---------------------------------------------------------------------------
# Events: tumbling-window aggregate (streaming-shaped; SURVEY.md §2.10 —
# expressed as GROUP BY date_trunc in both engines)
# ---------------------------------------------------------------------------


def _hour(ts) -> pa.Array:
    """``date_trunc('hour', ts)`` as timestamp[us], the oracle's type."""
    return pc.cast(pc.floor_temporal(ts, unit="hour"), pa.timestamp("us"))


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    def _windowed(batch: pa.Table) -> pa.Table:
        return batch.append_column("window_start", _hour(batch["ts"]))

    events = _rp(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        _windowed, batch_format="pyarrow", batch_size=65536
    )
    ds = partitioned_aggregate(
        events,
        ["window_start", "event_type"],
        [("value", "count", "n"), ("value", "sum", "sum_value")],
    )

    def _round(batch: pa.Table) -> pa.Table:
        # integer-cents stabilization: the input values are exact 2dp, so
        # round(sum*100) is an exact integer regardless of float summation
        # order, and cents/100.0 is one deterministic IEEE division —
        # bit-identical across engines. Plain round(sum, 2) is NOT: two
        # engines summing in different orders can round onto ADJACENT
        # doubles and fail the driver's value hash (observed at 32 CPUs)
        cents = pc.cast(
            pc.round(pc.multiply(batch["sum_value"], pa.scalar(100.0)), 0),
            pa.int64(),
        )
        return batch.set_column(
            batch.schema.get_field_index("sum_value"),
            "sum_value",
            pc.divide(pc.cast(cents, pa.float64()), pa.scalar(100.0)),
        )

    return ds.map_batches(_round, batch_format="pyarrow").sort(
        ["window_start", "event_type"]
    )


def events_sliding(sf_dir: str, window_hours: int = 3) -> ray.data.Dataset:
    """SLIDING-window event counts: a ``window_hours``-hour window
    stepping hourly — ``(window_start, n_events)`` where n_events counts
    events with ``window_start <= ts < window_start + window_hours``.
    Complements the tumbling ``events_hourly`` (§2.10 streaming-shaped
    extension; the task brief's "windowed aggregate" custom operator).

    Scale shape: per-batch hour-bucket PARTIAL counts collapse the corpus
    to (distinct hours) rows before any shuffle; each hour row then
    explodes to the ``window_hours`` windows containing it (an hour h is
    inside windows h, h-1h, ..., h-(W-1)h) and a second result-sized
    groupby sums per window. Both all-to-alls move time-bounded tables —
    never event rows — so corpus size only affects the streaming scan."""
    us = 3_600_000_000  # one hour in microseconds

    def _hourly(batch: pa.Table) -> pa.Table:
        return pa.table({"hour": _hour(batch["ts"])})

    hours = partitioned_aggregate(
        _rp(sf_dir, "events", ["ts"]).map_batches(
            _hourly, batch_format="pyarrow", batch_size=65536
        ),
        ["hour"],
        [_COUNT_STAR],
    )

    def _explode(batch: pa.Table) -> pa.Table:
        parts = []
        for k in range(window_hours):
            parts.append(
                pa.table(
                    {
                        "window_start": pc.subtract(
                            batch["hour"], pa.scalar(k * us, pa.duration("us"))
                        ),
                        "n": batch["n"],
                    }
                )
            )
        return pa.concat_tables(parts)

    return partitioned_aggregate(
        hours.map_batches(_explode, batch_format="pyarrow"),
        ["window_start"],
        [("n", "sum", "n_events")],
    ).sort("window_start")


# ---------------------------------------------------------------------------
# Stream-shaped custom operators (SURVEY.md "Custom operators"): session
# windows + as-of join via BATCHED sort-within-partition windowing — one
# shuffle on the bounded partition key (``aggregate.partitioned_map``:
# mix64(user_id) % P), then ONE vectorized pandas pass per partition. No
# per-user Python: the round-2 layout ran a Python fn per user group,
# paying Ray's per-group dispatch × millions of users; here group count is
# P (a few × pool width) and every kernel inside (sort, cumsum
# sessionization, groupby agg, merge_asof by=user_id) is a C-speed
# multi-user operation. Partitioning assumption: one PARTITION (corpus/P)
# fits a worker's heap — a hot user no longer needs its own group, just
# its partition.
# ---------------------------------------------------------------------------


def user_sessions(sf_dir: str, gap_minutes: int = 30) -> ray.data.Dataset:
    """Session windows per user: a new session starts when the gap from
    the previous event exceeds ``gap_minutes``. One partition-key shuffle,
    then per partition: sort by (user_id, ts) and sessionize EVERY user in
    one cumsum pass — session boundaries are user changes OR gap
    exceedances, so no per-user loop exists anywhere."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def _sessions_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_session = g["user_id"].ne(g["user_id"].shift()) | (
            g["ts"].diff() > gap
        )
        sid = new_session.cumsum()
        out = (
            g.groupby(sid)
            .agg(
                user_id=("user_id", "first"),
                session_start=("ts", "min"),
                n=("ts", "size"),
                sum_value=("value", "sum"),
            )
            .reset_index(drop=True)
        )
        out["n"] = out["n"].astype("int64")
        out["sum_value"] = out["sum_value"].round(2)
        return out[["user_id", "session_start", "n", "sum_value"]]

    return partitioned_map(
        _rp(sf_dir, "events", ["user_id", "ts", "value"]),
        ["user_id"],
        _sessions_part,
    ).sort(["user_id", "session_start"])


def purchase_last_click(sf_dir: str) -> ray.data.Dataset:
    """As-of join inside the events log: for every purchase event, the
    most recent preceding click by the same user. One partition-key
    shuffle, then ONE ``pd.merge_asof(by="user_id")`` per partition — the
    multi-user vectorized as-of (C kernel), not a merge per user."""

    def _asof_part(g: pd.DataFrame) -> pd.DataFrame:
        purchases = g.loc[
            g["event_type"] == "purchase", ["event_id", "user_id", "ts"]
        ].sort_values("ts", kind="mergesort")
        clicks = (
            g.loc[g["event_type"] == "click", ["user_id", "ts"]]
            .rename(columns={"ts": "last_click_ts"})
            .sort_values("last_click_ts", kind="mergesort")
        )
        if purchases.empty:
            return pd.DataFrame(
                {"event_id": pd.Series(dtype="int64"),
                 "last_click_ts": pd.Series(dtype="datetime64[us]")}
            )
        merged = pd.merge_asof(
            purchases,
            clicks,
            left_on="ts",
            right_on="last_click_ts",
            by="user_id",
            direction="backward",
        )
        return merged[["event_id", "last_click_ts"]]

    return partitioned_map(
        _rp(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"]),
        ["user_id"],
        _asof_part,
    ).sort("event_id")


# ---------------------------------------------------------------------------
# Exact dedup by content (O4 scale variant: keep first per duplicate group)
# ---------------------------------------------------------------------------


def dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact dedup on documents.text: keep the smallest doc_id per distinct
    text. Delegates to the hashed implementation — grouping on the raw text
    would ship full documents as the shuffle key, so the only at-scale
    layout is the 8-byte content-hash groupby (same oracle SQL)."""
    from rika_ray.pipelines.dedup import dedup_exact_survivors

    return dedup_exact_survivors(sf_dir)


def distinct_langs(sf_dir: str) -> ray.data.Dataset:
    """O6-ish set op: distinct claimed language codes."""
    return partitioned_aggregate(
        _rp(sf_dir, "documents", ["lang"]), ["lang"], []
    ).sort("lang")


def sample_fraction(sf_dir: str, fraction: float = 0.1, seed: int = 7):
    """O5: seeded sampling for QA sweeps (engine extra; no SQL oracle —
    sampling RNGs differ across engines)."""
    return _rp(sf_dir, "documents", ["doc_id"]).random_sample(
        fraction, seed=seed
    )


def first_per_key(
    ds: ray.data.Dataset, keys: list[str], order: str, k: int
) -> ray.data.Dataset:
    """The ``k`` rows with the lowest ``order`` per distinct ``keys``
    (``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order) <= k``), all
    columns kept, in no particular row order.

    Scale shape: same batched sort-within-partition windowing as
    user_sessions — ONE shuffle on the bounded partition key, then per
    partition a single vectorized pass that ranks EVERY key at once (sort
    + groupby.cumcount, C kernels; no per-key Python). A key hotter than
    ``k`` costs only its partition's sort, never an unbounded group."""

    def _cap_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*keys, order], kind="mergesort")
        return g[g.groupby(keys, sort=False, dropna=False).cumcount() < k]

    return partitioned_map(ds, keys, _cap_part)


def domain_cap_sample(sf_dir: str, k: int = 20) -> ray.data.Dataset:
    """Per-domain document cap: keep at most ``k`` documents per source
    (deterministically the lowest ``doc_id``s) — the per-domain quota
    step of CCNet/Gopher-style pretraining corpus curation."""
    return first_per_key(
        _rp(sf_dir, "documents", ["doc_id", "source"]), ["source"], "doc_id", k
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# Distributed joins (§2.4 at scale): when BOTH sides are too large to
# broadcast, ``aggregate.partitioned_join`` shuffles both inputs together
# on the bounded partition key so each block joins locally — the
# shuffle-join complement to the broadcast pattern above.
# ---------------------------------------------------------------------------


def returned_items(sf_dir: str, k: int = 20) -> ray.data.Dataset:
    """Revenue per customer over RETURNED items (TPC-H Q10 shape):
    lineitem ⨝ orders ⨝ customer with both joins as distributed
    ``partitioned_join``s — neither orders nor customer is broadcast.

    Scale shape: lineitem is filtered and pre-aggregated to one row per
    orderkey BEFORE the first join (the join inputs are
    result-cardinality, never lineitem-cardinality); the second join
    input is one row per customer. Doubles rounded to 2dp in both
    engines."""
    li = _rp(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    ).filter(expr="l_returnflag == 'R'")

    def _revenue(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"l_orderkey": batch["l_orderkey"], "revenue": _disc_price(batch)}
        )

    li_agg = partitioned_aggregate(
        li.map_batches(_revenue, batch_format="pyarrow", batch_size=65536),
        ["l_orderkey"],
        [("revenue", "sum", "revenue")],
    )

    orders = _rp(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    per_order = partitioned_join(
        li_agg, orders, ["l_orderkey"], ["o_orderkey"], "inner"
    )

    cust_rev = partitioned_aggregate(
        per_order, ["o_custkey"], [("revenue", "sum", "revenue")]
    )

    cust = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    joined = partitioned_join(cust_rev, cust, ["o_custkey"], ["c_custkey"], "inner")

    def _project(batch: pa.Table) -> pa.Table:
        # the join coalesces the key pair under the LEFT name — restore the
        # oracle's customer-side name
        return pa.table(
            {
                "c_custkey": batch["o_custkey"],
                "c_name": batch["c_name"],
                "revenue": pc.round(batch["revenue"], 2),
            }
        )

    return (
        joined.map_batches(_project, batch_format="pyarrow")
        .sort([("revenue"), ("c_custkey")], descending=[True, False])
        .limit(k)
    )


# ---------------------------------------------------------------------------
# Conditional aggregation (CASE WHEN ... inside SUM — TPC-H Q12 shape)
# and multi-statistic aggregation (AVG / MIN / MAX per group)
# ---------------------------------------------------------------------------


def orders_value_class_tally(
    sf_dir: str, threshold: float = 150000.0
) -> ray.data.Dataset:
    """Per order priority, how many orders are above/below a total-price
    threshold — the conditional-aggregate (CASE WHEN) pattern, computed as
    vectorized bool→int columns summed per group."""

    def _classed(batch: pa.Table) -> pa.Table:
        hi = pc.cast(
            pc.greater(batch["o_totalprice"], pa.scalar(threshold)),
            pa.int64(),
        )
        return pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n_high": hi,
                "n_low": pc.subtract(pa.scalar(1, pa.int64()), hi),
            }
        )

    orders = _rp(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]).map_batches(
        _classed, batch_format="pyarrow", batch_size=65536
    )
    return partitioned_aggregate(
        orders,
        ["o_orderpriority"],
        [("n_high", "sum", "n_high"), ("n_low", "sum", "n_low")],
    ).sort("o_orderpriority")


def part_type_stats(sf_dir: str) -> ray.data.Dataset:
    """Per part type: count, mean retail price, min/max size — the
    multi-statistic aggregate shape. AVG is computed from (sum, count)
    partials so the combine stays exact under re-partitioning; doubles
    rounded to 2dp in both engines."""

    ds = partitioned_aggregate(
        _rp(sf_dir, "part", ["p_type", "p_retailprice", "p_size"]),
        ["p_type"],
        [
            ("p_retailprice", "sum", "price_sum"),
            ("p_retailprice", "count", "n"),
            ("p_size", "min", "min_size"),
            ("p_size", "max", "max_size"),
        ],
    )

    def _finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_type": batch["p_type"],
                "n": batch["n"],
                "avg_price": pc.round(
                    pc.divide(batch["price_sum"], pc.cast(batch["n"], pa.float64())), 2
                ),
                # int64 like the oracle's BIGINT casts (p_size is int32)
                "min_size": pc.cast(batch["min_size"], pa.int64()),
                "max_size": pc.cast(batch["max_size"], pa.int64()),
            }
        )

    return ds.map_batches(_finish, batch_format="pyarrow").sort("p_type")


def customers_without_urgent_orders(sf_dir: str) -> ray.data.Dataset:
    """Customers that never placed a 1-URGENT order — the distributed
    ANTI-join shape (NOT EXISTS). ``left_anti`` shuffles both sides on
    the key's partition and keeps left rows with no match; the right side
    is filtered at the read and ships only its key column."""
    cust = _rp(sf_dir, "customer", ["c_custkey", "c_name"])
    urgent_keys = _rp(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).filter(
        expr="o_orderpriority == '1-URGENT'"
    ).select_columns(["o_custkey"])
    return partitioned_join(
        cust, urgent_keys, ["c_custkey"], ["o_custkey"], "left_anti"
    ).sort("c_custkey")
