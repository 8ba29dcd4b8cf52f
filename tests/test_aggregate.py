"""``partitioned_aggregate``, ``partitioned_map`` and ``partitioned_join``
against the same query in one process.

The inputs hold 100,000 rows in two blocks, so the same key reaches the
combine from more than one partial; at the testdata scales every table is
a single 65,536-row batch and the combine never merges anything.

The single-process reference is DuckDB: pyarrow 16's own multi-column
``group_by`` splits a group whose key holds a null into several groups,
which is one of the cases covered here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rika_ray.pipelines.aggregate import (
    partition_count,
    partitioned_aggregate,
    partitioned_join,
    partitioned_map,
)

N_ROWS = 100_000

AGGS = [
    ("v", "sum", "sum_v"),
    ("v", "count", "n_v"),
    (None, "count", "n"),
    ("w", "min", "min_w"),
    ("w", "max", "max_w"),
]
_SQL = {
    "sum": "SUM({})",
    "count": "COUNT({})",
    "min": "MIN({})",
    "max": "MAX({})",
    "count_distinct": "COUNT(DISTINCT {})",
}


def _table(n: int = N_ROWS) -> pa.Table:
    i = np.arange(n)
    # 27 x 8 keys, nulls in both key columns, every key in both blocks
    k1 = pa.array(
        [None if j % 31 == 0 else chr(97 + j % 26) for j in i], pa.string()
    )
    k2 = pa.array(i % 7, pa.int64(), mask=(i % 37 == 0))
    v = pa.array((i % 1000).astype(np.float64), mask=(i % 11 == 0))
    w = pa.array(((i * 7919) % 100_003).astype(np.int32))
    return pa.table({"k1": k1, "k2": k2, "v": v, "w": w})


def _ds(table: pa.Table):
    """``table`` as a dataset of two blocks: one partial per block."""
    import ray.data

    half = table.num_rows // 2
    return ray.data.from_arrow([table.slice(0, half), table.slice(half)])


def _run(ds) -> tuple:
    """The executed dataset and its rows as one Arrow table."""
    import ray

    out = ds.materialize()
    return out, pa.concat_tables(ray.get(out.to_arrow_refs()))


def _reference(table: pa.Table, keys: list[str], aggs) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    con.register("t", table)
    cols = keys + [
        f"{_SQL[op].format(col or '*')} AS {name}" for col, op, name in aggs
    ]
    return con.execute(
        f"SELECT {', '.join(cols)} FROM t GROUP BY {', '.join(keys)}"
    ).arrow()


def _canon(t: pa.Table, keys: list[str]) -> list[dict]:
    order = [(k, "ascending") for k in keys]
    idx = pc.sort_indices(t, sort_keys=order, null_placement="at_start")
    return t.take(idx).to_pylist()


def test_multi_key_nulls_and_every_combine(ray_session):
    from rika_ray.state.metrics import stage_summary

    table = _table()
    keys = ["k1", "k2"]
    out, got = _run(partitioned_aggregate(_ds(table), keys, AGGS))
    exp = _reference(table, keys, AGGS)
    assert got.schema == exp.schema
    assert _canon(got, keys) == _canon(exp, keys)
    # null keys are groups of their own
    assert got.filter(pc.is_null(got["k1"])).num_rows == 8
    assert got.filter(pc.is_null(got["k2"])).num_rows == 27
    # one partial row per key and block: every key reached the combine
    # from both blocks and was merged there
    partial_rows = sum(
        s["rows"]
        for s in stage_summary(out._get_stats_summary())
        if "_partial" in s["operator"]
    )
    assert partial_rows == 2 * exp.num_rows


def test_top_k_ties_broken_by_key(ray_session):
    key = np.arange(N_ROWS) % 1000  # every key 100 rows: all tied
    # two keys out in front, then the rest tied at the cut
    key = np.concatenate([key, [907, 907, 3]])
    table = pa.table({"key": key, "one": np.ones(len(key))})
    aggs = [("one", "sum", "total")]
    got = partitioned_aggregate(_ds(table), ["key"], aggs, top=("total", 7))
    got = got.to_pandas()
    assert got["key"].tolist() == [907, 3, 0, 1, 2, 4, 5]
    exp = _reference(table, ["key"], aggs).to_pandas()
    exp = exp.sort_values(["total", "key"], ascending=[False, True]).head(7)
    assert got.to_dict("list") == exp.to_dict("list")


def test_more_partitions_than_keys(ray_session):
    table = _table()
    table = table.set_column(
        0, "k1", pc.if_else(pc.equal(table["k2"], 1), "x", "y")
    )
    assert len(pc.unique(table["k1"])) < partition_count()
    _, got = _run(partitioned_aggregate(_ds(table), ["k1"], AGGS))
    exp = _reference(table, ["k1"], AGGS)
    assert _canon(got, ["k1"]) == _canon(exp, ["k1"])


def test_count_distinct(ray_session):
    table = _table()
    aggs = [("w", "count_distinct", "n_w")]
    _, got = _run(partitioned_aggregate(_ds(table), ["k2"], aggs))
    exp = _reference(table, ["k2"], aggs)
    assert _canon(got, ["k2"]) == _canon(exp, ["k2"])
    with pytest.raises(ValueError):
        partitioned_aggregate(_ds(table), ["k2"], aggs + AGGS)


def test_zero_rows_keep_the_output_schema(ray_session):
    empty = _table().slice(0, 0)
    keys = ["k1", "k2"]
    out = partitioned_aggregate(_ds(empty), keys, AGGS)
    assert out.count() == 0
    assert out.schema().base_schema == _reference(empty, keys, AGGS).schema


def test_partitioned_map_sees_every_row_of_a_key_once(ray_session):
    import pandas as pd

    table = _table().select(["k1", "w"])

    def _sizes(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("k1", dropna=False).size()
        return pd.DataFrame({"k1": g.index, "rows": g.to_numpy()})

    got = partitioned_map(_ds(table), ["k1"], _sizes).to_pandas()
    exp = _reference(table, ["k1"], [(None, "count", "n")]).to_pandas()
    # one row per key, the null key included: every row of a key met in
    # the same call
    assert len(got) == len(exp) == 27
    assert sorted(got["rows"]) == sorted(exp["n"])


def test_first_per_key_blocks_carry_no_schema_metadata(ray_session):
    """``partitioned_map`` emits Arrow blocks without schema metadata:
    Ray cannot hash pandas metadata when it dedups block schemas."""
    import ray

    from rika_ray.pipelines.relational import first_per_key

    out = first_per_key(_ds(_table().select(["k1", "w"])), ["k1"], "w", 2)
    blocks = ray.get(out.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == 27 * 2
    assert all(b.schema.metadata is None for b in blocks)


def _join_sides(n_left: int = 20_000, n_right: int = 2_000) -> tuple:
    """(left, right): a two-column key with nulls on both sides, many rows
    per key on both sides, binary payloads, and a payload column named
    ``shared`` on both sides."""

    def _side(n: int, salt: int, names: tuple[str, str]) -> dict:
        i = np.arange(n) * salt
        return {
            names[0]: pa.array(
                [None if j % 29 == 0 else chr(97 + j % 26) for j in i], pa.string()
            ),
            names[1]: pa.array(i % 40, pa.int64(), mask=(i % 23 == 0)),
            "shared": pa.array(np.arange(n) + salt * 1_000_000, pa.int64()),
            f"blob{salt}": pa.array(
                [int(j).to_bytes(8, "little") for j in i], pa.binary()
            ),
        }

    left = pa.table({**_side(n_left, 1, ("k1", "k2")), "v": np.arange(n_left) * 0.5})
    return left, pa.table(_side(n_right, 3, ("rk1", "rk2")))


def _join_reference(left: pa.Table, right: pa.Table, how: str) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    on = "l.k1 = r.rk1 AND l.k2 = r.rk2"
    if how == "inner":
        return con.execute(
            "SELECT l.*, r.shared AS shared_right, r.blob3 "
            f"FROM l JOIN r ON {on}"
        ).arrow()
    return con.execute(
        f"SELECT * FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE {on})"
    ).arrow()


def _rows(t: pa.Table) -> list:
    return sorted(map(tuple, zip(*t.to_pydict().values())), key=repr)


@pytest.mark.parametrize("how", ["inner", "left_anti"])
def test_join_matches_duckdb(ray_session, how):
    left, right = _join_sides()
    keys, rkeys = ["k1", "k2"], ["rk1", "rk2"]
    _, got = _run(partitioned_join(_ds(left), _ds(right), keys, rkeys, how))
    exp = _join_reference(left, right, how)
    assert got.column_names == exp.column_names
    assert got.num_rows == exp.num_rows > 0
    assert _rows(got) == _rows(exp)
    if how == "left_anti":
        # null keys match nothing: every left row with a null key survives
        nulls = pc.or_(pc.is_null(left["k1"]), pc.is_null(left["k2"]))
        assert pc.sum(pc.or_(pc.is_null(got["k1"]), pc.is_null(got["k2"]))).as_py() == (
            pc.sum(nulls).as_py()
        )


def test_join_on_same_named_keys(ray_session):
    """A self-join: both sides name their keys alike, the keys come out
    once and the other shared names get the suffix."""
    left, _ = _join_sides(4_000)
    _, got = _run(
        partitioned_join(_ds(left), _ds(left), ["k1", "k2"], ["k1", "k2"], "inner")
    )
    assert got.column_names == [
        "k1", "k2", "shared", "blob1", "v", "shared_right", "blob1_right", "v_right"
    ]
    import duckdb

    con = duckdb.connect()
    con.register("l", left)
    (n,) = con.execute(
        "SELECT COUNT(*) FROM l a JOIN l b ON a.k1 = b.k1 AND a.k2 = b.k2"
    ).fetchone()
    assert got.num_rows == n


@pytest.mark.parametrize("how", ["inner", "left_anti"])
def test_join_with_a_zero_row_side(ray_session, how):
    left, right = _join_sides(5_000, 500)
    keys, rkeys = ["k1", "k2"], ["rk1", "rk2"]
    for lt, rt in ((left.slice(0, 0), right), (left, right.slice(0, 0))):
        out = partitioned_join(_ds(lt), _ds(rt), keys, rkeys, how)
        _, got = _run(out)
        exp = _join_reference(lt, rt, how)
        assert _rows(got) == _rows(exp)
        if got.num_rows == 0:
            # a side known to be empty: the empty answer keeps its columns
            assert out.schema().names == exp.column_names
    # a side that turns out empty only when it runs
    emptied = _ds(right).filter(expr="rk2 < 0")
    _, got = _run(partitioned_join(_ds(left), emptied, keys, rkeys, how))
    assert _rows(got) == _rows(_join_reference(left, right.slice(0, 0), how))
