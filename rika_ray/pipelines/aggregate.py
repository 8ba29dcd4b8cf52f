"""Every exchange of rows by key, over a bounded number of partitions.

Every grouped aggregate, tally, per-key window and join in ``pipelines/``
is planned here, the same way:

1. **Partial, per block.** An Arrow hash ``group_by`` reduces each block
   the input arrives in to one row per key in that block, and tags the row
   with its partition: ``mix64`` over the key columns, modulo
   :func:`partition_count`. Taking blocks as they come (no batch size) lets
   Ray fuse the partial into the caller's per-batch projection.
2. **Combine, per partition.** One Ray sort on the partition id moves every
   partition whole into one block, four partitions to a block; the ids are
   known, so the sort takes fixed boundaries and samples nothing. One Arrow
   ``group_by`` per block merges the partials: sum→sum, count→sum,
   min→min, max→max. All rows of a key share a partition, so the union of
   the blocks is the answer.
3. **Top-k** (optional): each block keeps only its k best rows, and one
   last task picks the k best of those.

A join (:func:`partitioned_join`) tags both sides with the partition of
their key, shuffles them together with the same sort and runs one Arrow
hash join per block.

Ray's own ``groupby(key)`` dispatches once per distinct key and its sort
makes one reduce task per input block; its hash joins hold one aggregator
actor per partition, which never schedules on a one-CPU cluster. Here the
shuffle is plain tasks: ``partition_count() / 4`` reduce tasks whatever
the key cardinality or the input size, and everything inside one is a
vectorized Arrow pass. A block must fit a worker's heap: at scale the
count grows with the cluster (see :func:`partition_count`), never with
the key space.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from rika_ray.functions.text import mix64
from rika_ray.pool import pool_size

PART = "_part"

# partial aggregate -> the aggregate that combines the partials
_COMBINE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}

_FIXED_WIDTH = (
    pa.types.is_integer,
    pa.types.is_floating,
    pa.types.is_boolean,
    pa.types.is_timestamp,
)


def partition_count() -> int:
    """How many partitions a bounded-partition shuffle uses: four per
    auxiliary pool slot (``pool_size()``, at least 2), enough parallelism
    without the per-partition cost mattering. It follows the cluster."""
    return 4 * pool_size()


def _key_u64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """A deterministic uint64 per key value: the same value maps to the same
    number in every block, whatever the block's nulls."""
    if any(is_type(col.type) for is_type in _FIXED_WIDTH):
        # a null would turn numpy's integer view into floats: cast and fill
        ints = pc.fill_null(pc.cast(col, pa.int64(), safe=False), 0)
        return ints.to_numpy(zero_copy_only=False).view(np.uint64)
    # strings and the rest, by value; categorize=False: the categorize path
    # truncates at NUL bytes
    return pd.util.hash_array(col.to_numpy(zero_copy_only=False), categorize=False)


def _tagged(table: pa.Table, keys: list[str], n_parts: int) -> pa.Table:
    """``table`` plus its partition column: ``mix64`` over the key
    columns, modulo ``n_parts`` (int64, the type Ray's sort takes)."""
    h = np.zeros(table.num_rows, np.uint64)
    for k in keys:
        h = mix64(h ^ _key_u64(table[k]))
    part = (h % np.uint64(n_parts)).astype(np.int64)
    return table.append_column(PART, pa.array(part, pa.int64()))


def _shuffled(tagged: ray.data.Dataset, n_parts: int, fn, batch_format: str):
    """Shuffle ``tagged`` rows so that every partition lands whole in one
    block, then run ``fn`` once per block. The partition ids are known
    (0 … n_parts-1), so the sort takes fixed boundaries instead of sampling
    the data for them: four partitions to a block, which is one block per
    pool slot (see :func:`partition_count`)."""
    bounds = list(range(4, n_parts, 4))
    return tagged.sort(PART, boundaries=bounds).map_batches(
        fn, batch_format=batch_format, batch_size=None
    )


def partitioned_map(ds: ray.data.Dataset, keys: list[str], fn) -> ray.data.Dataset:
    """Run ``fn`` (pandas frame in, pandas frame out) over the rows of a
    few partitions at a time: all rows of a key reach the same call."""
    # counted once, where the plan is built: the tasks need not ask the
    # cluster
    n_parts = partition_count()

    def _tag(batch: pa.Table) -> pa.Table:
        return _tagged(batch, keys, n_parts)

    def _run(part: pd.DataFrame) -> pd.DataFrame:
        return fn(part.drop(columns=[PART]))

    tagged = ds.map_batches(_tag, batch_format="pyarrow", batch_size=None)
    return _shuffled(tagged, n_parts, _run, "pandas")


def _group(table: pa.Table, keys: list[str], specs) -> pa.Table:
    """``table.group_by(keys)`` with ``specs`` = [(column|None, op, name)],
    renamed by name (pyarrow's key/aggregate column order varies)."""
    codes = {}
    if len(keys) > 1 and any(table[k].null_count for k in keys):
        # pyarrow 16 splits a multi-column group whose key holds a null into
        # several groups: group on null-free dictionary codes instead
        for k in keys:
            enc = pc.dictionary_encode(table[k].combine_chunks())
            codes[k] = enc.dictionary
            table = table.set_column(
                table.schema.get_field_index(k), k, pc.fill_null(enc.indices, -1)
            )
    g = table.group_by(keys, use_threads=False).aggregate(
        [([], "count_all") if col is None else (col, op) for col, op, _ in specs]
    )
    cols = {k: g[k] for k in keys}
    for k, values in codes.items():
        code = cols[k]
        cols[k] = values.take(
            pc.if_else(pc.equal(code, -1), pa.scalar(None, code.type), code)
        )
    for col, op, name in specs:
        cols[name] = g["count_all" if col is None else f"{col}_{op}"]
    return pa.table(cols)


def partitioned_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: list[tuple[str | None, str, str]],
    *,
    top: tuple[str, int] | None = None,
) -> ray.data.Dataset:
    """``SELECT keys, aggs FROM ds GROUP BY keys``: one row per distinct key,
    columns ``keys`` then the aggregate names, in no particular row order.

    ``aggs`` is a list of ``(column, op, name)`` with ``op`` one of ``sum``,
    ``count`` (non-null values; ``column=None`` counts rows), ``min``,
    ``max`` and ``count_distinct`` (non-null distinct values; it cannot be
    mixed with the others). Null keys form their own group.

    ``top=(column, k)`` keeps only the k rows with the largest ``column``,
    ties broken by the keys ascending, sorted in that order."""
    distinct = [a for a in aggs if a[1] == "count_distinct"]
    if distinct and len(aggs) > 1:
        raise ValueError("count_distinct cannot be mixed with other aggregates")
    if distinct:
        # the partial is the block's distinct (keys, value) rows; all rows
        # of a key meet in one partition, where count_distinct is exact
        col, _, name = distinct[0]
        partial_specs = []
        partial_keys = keys + [col]
        combine_specs = [(col, "count_distinct", name)]
    else:
        partial_specs = aggs
        partial_keys = keys
        combine_specs = [(name, _COMBINE[op], name) for _, op, name in aggs]

    n_parts = partition_count()

    def _partial(batch: pa.Table) -> pa.Table:
        return _tagged(_group(batch, partial_keys, partial_specs), keys, n_parts)

    def _combine(part: pa.Table) -> pa.Table:
        g = _group(part, keys, combine_specs)
        if top is not None:
            g = _top(g, keys, *top)
        return g

    if ds._meta_count() == 0 and (schema := ds.schema()) is not None:
        # Ray runs no task over zero rows, so the plan below would give a
        # dataset without columns. An input whose row count is known to be
        # zero without running it gets the typed empty result instead.
        empty = schema.base_schema.empty_table()
        return ray.data.from_arrow(_combine(_partial(empty)))
    partials = ds.map_batches(_partial, batch_format="pyarrow", batch_size=None)
    out = _shuffled(partials, n_parts, _combine, "pyarrow")
    if top is not None:
        # each block kept its own k best, so the answer is the k best
        # of those few rows: one block, one task, no sort shuffle
        out = out.repartition(1).map_batches(
            _top, fn_args=(keys, *top), batch_format="pyarrow", batch_size=None
        )
    return out


def _top(table: pa.Table, keys: list[str], col: str, k: int) -> pa.Table:
    order = [(col, "descending")] + [(key, "ascending") for key in keys]
    return table.take(pc.sort_indices(table, sort_keys=order)[:k])


_SIDE = "_side"
_RIGHT = "_right."
_JOIN_TYPES = {"inner": "inner", "left_anti": "left anti"}


def partitioned_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: list[str],
    right_on: list[str],
    how: str,
) -> ray.data.Dataset:
    """``left JOIN right ON left_on = right_on``, ``how`` one of ``inner``
    and ``left_anti``, in no particular row order.

    The output holds the left columns, the keys under their left names,
    then (``inner`` only) the right columns other than the keys; a right
    column whose name the left side also has gets the suffix ``_right``.
    Null keys match nothing, as in SQL: a left row with a null key is kept
    by ``left_anti``.

    Both sides are tagged with their partition and a side marker,
    shuffled together by one sort, and each block, which holds every row
    of its partitions from both sides, is joined by one Arrow hash join."""
    if how not in _JOIN_TYPES:
        raise ValueError(f"unsupported join type {how!r}")
    # Each side runs to completion on its own before the shared sort. Ray
    # runs a sort's shuffle inside the executor's scheduling loop: if one
    # side's sort started while a task of the other side waited for that
    # loop to take its output, the waiting task would hold the CPU the
    # shuffle needs, and a one-CPU cluster would hang. Materialized, both
    # sides also know their schema and row count without running again.
    left, right = left.materialize(), right.materialize()
    lschema, rschema = left.schema().base_schema, right.schema().base_schema
    if left.count() == 0 or right.count() == 0:
        if how == "left_anti":
            return left
        return ray.data.from_arrow(
            _join_tables(
                lschema.empty_table(), rschema.empty_table(), left_on, right_on, how
            )
        )

    n_parts = partition_count()

    def _tag(batch: pa.Table, is_right: bool) -> pa.Table:
        t = _tagged(batch, right_on if is_right else left_on, n_parts)
        if is_right:
            # the right side's columns travel under a prefix: the two sides
            # never share a name in the shuffled blocks. Their schemas
            # differ, which Ray logs once per union; padding each side to
            # one layout would ship the other side's fixed-width columns
            # (512-byte signatures) as nulls.
            t = t.rename_columns(
                [c if c == PART else _RIGHT + c for c in t.column_names]
            )
        return t.append_column(_SIDE, pa.array(np.full(t.num_rows, is_right)))

    def _side(block: pa.Table, schema: pa.Schema, prefix: str, rows) -> pa.Table:
        names = [prefix + n for n in schema.names]
        if not set(names) <= set(block.column_names):
            return schema.empty_table()  # no row of this side in the block
        return block.filter(rows).select(names).rename_columns(schema.names)

    def _join(block: pa.Table) -> pa.Table:
        is_right = block[_SIDE]
        lt = _side(block, lschema, "", pc.invert(is_right))
        rt = _side(block, rschema, _RIGHT, is_right)
        return _join_tables(lt, rt, left_on, right_on, how)

    tagged = [
        ds.map_batches(
            _tag, fn_args=(is_right,), batch_format="pyarrow", batch_size=None
        )
        for ds, is_right in ((left, False), (right, True))
    ]
    return _shuffled(tagged[0].union(tagged[1]), n_parts, _join, "pyarrow")


def _join_tables(
    lt: pa.Table, rt: pa.Table, left_on: list[str], right_on: list[str], how: str
) -> pa.Table:
    return lt.join(
        rt,
        keys=left_on,
        right_keys=right_on,
        join_type=_JOIN_TYPES[how],
        right_suffix="_right",
        use_threads=False,
    )
