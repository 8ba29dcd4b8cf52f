"""Similarity search over an embedding column (task brief "Similarity
search" block): brute-force cosine top-k as the exact baseline, plus TWO
approximate scale paths — a multi-table hyperplane-LSH variant and an
IVF (inverted-file / coarse-quantizer) variant.

Scale pattern: the query matrix (and for IVF, the small centroid matrix)
is broadcast (the per-batch task closes over it; Ray ships a map's
function once); each batch computes a vectorized numpy matmul and emits
only its local top-k candidates — the final reduce
(``aggregate.partitioned_map`` on the query id) sees ``k × n_batches``
rows per query, never the corpus.

IVF at 100 TB: centroids are trained on a SAMPLE (one bounded
``random_sample`` pass), the corpus is assigned to cells in one
map_batches pass (this is the partitioned-parquet layout you'd persist),
and a query touches only its ``n_probe`` nearest cells — per-query work
is corpus_fraction ≈ n_probe / n_cells instead of a full scan.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from rika_ray.functions.vectors import embedding_matrix, unit_rows
from rika_ray.pipelines.aggregate import partitioned_map

# Every candidate stage emits this exact schema (even for an empty batch):
# per-batch schema inference over Python-object frames is what produced
# Ray's "Failed to hash the schemas" dedup warning and unstable unions.
_SIM_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()), ("sim", pa.float64())]
)


def _candidate_table(chunks: list[tuple[int, np.ndarray, np.ndarray]]) -> pa.Table:
    """Per-query (qid, ids, sims) chunks → one stable-schema Arrow table."""
    if not chunks:
        return _SIM_SCHEMA.empty_table()
    q = np.concatenate(
        [np.full(len(ids), qid, np.int64) for qid, ids, _ in chunks]
    )
    v = np.concatenate([ids.astype(np.int64) for _, ids, _ in chunks])
    s = np.concatenate([sims.astype(np.float64) for _, _, sims in chunks])
    return pa.table(
        {"query_id": q, "vec_id": v, "sim": s}, schema=_SIM_SCHEMA
    )


def _top_k_per_query(candidates: ray.data.Dataset, k: int) -> ray.data.Dataset:
    """The exact final top-k per query over the small candidate set."""

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["sim", "vec_id"], ascending=[False, True])
        return df.groupby("query_id", group_keys=False).head(k)[
            ["query_id", "vec_id"]
        ].astype("int64")

    return partitioned_map(candidates, ["query_id"], _final).sort(
        ["query_id", "vec_id"]
    )


def _embeddings(sf_dir: str):
    from rika_ray.sources.parquet import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/embeddings.parquet")


def _query_matrix(sf_dir: str, query_ids: list[int]) -> np.ndarray:
    rows = (
        _embeddings(sf_dir)
        .filter(expr=f"vec_id < {max(query_ids) + 1}")
        .take_all()
    )
    by_id = {r["vec_id"]: r["embedding"] for r in rows}
    mat = np.stack([np.asarray(by_id[q], dtype=np.float64) for q in query_ids])
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)


def ann_topk_bruteforce(
    sf_dir: str, query_ids: tuple[int, ...] = (0, 1, 2, 3), k: int = 10
) -> ray.data.Dataset:
    """Exact cosine top-k per query vector. Per-batch local top-k, final
    exact reduce over the small candidate set."""
    queries = _query_matrix(sf_dir, list(query_ids))  # (n_q, dim), unit
    qids = list(query_ids)

    def _local_top_k(batch: pa.Table) -> pa.Table:
        unit = unit_rows(embedding_matrix(batch["embedding"]))
        sims = unit @ queries.T  # (n, n_q)
        ids = batch["vec_id"].to_numpy()
        chunks = []
        for qi, qid in enumerate(qids):
            col = sims[:, qi]
            top = np.argsort(-col, kind="stable")[:k]
            chunks.append((qid, ids[top], col[top]))
        return _candidate_table(chunks)

    candidates = _embeddings(sf_dir).map_batches(
        _local_top_k, batch_format="pyarrow", batch_size=4096
    )
    return _top_k_per_query(candidates, k)


def ann_topk_lsh(
    sf_dir: str,
    query_ids: tuple[int, ...] = (0, 1, 2, 3),
    k: int = 10,
    n_planes: int = 8,
    n_tables: int = 4,
    seed: int = 42,
) -> ray.data.Dataset:
    """Approximate top-k: ``n_tables`` independent hyperplane-LSH tables
    (OR-amplification); per table each query probes its own bucket plus
    every Hamming-distance-1 neighbor. A vector is a candidate if ANY
    table collides — the standard multi-table design that keeps recall
    useful even on near-uniform data. Recall < 1 by design — the scale
    path when the corpus no longer fits a full scan (rows-only check;
    recall measured against the exact baseline in
    tests/test_similarity_recall.py)."""
    queries = _query_matrix(sf_dir, list(query_ids))
    dim = queries.shape[1]
    rng = np.random.RandomState(seed)
    planes = rng.standard_normal((n_tables, dim, n_planes))
    powers = 1 << np.arange(n_planes)
    # per-table probe sets: query bucket ± each single-bit flip
    probe_sets: list[list[set[int]]] = []
    for t in range(n_tables):
        q_buckets = ((queries @ planes[t]) > 0) @ powers
        table_probes = []
        for qb in q_buckets:
            probes = {int(qb)}
            for bit in range(n_planes):
                probes.add(int(qb) ^ (1 << bit))
            table_probes.append(probes)
        probe_sets.append(table_probes)
    qids = list(query_ids)

    def _bucket_top_k(batch: pa.Table) -> pa.Table:
        vecs = embedding_matrix(batch["embedding"])
        unit = unit_rows(vecs)
        buckets = np.stack(
            [((vecs @ planes[t]) > 0) @ powers for t in range(n_tables)]
        )  # (n_tables, n)
        ids = batch["vec_id"].to_numpy()
        chunks = []
        for qi, qid in enumerate(qids):
            mask = np.zeros(len(ids), dtype=bool)
            for t in range(n_tables):
                mask |= np.isin(buckets[t], list(probe_sets[t][qi]))
            if not mask.any():
                continue
            sims = unit[mask] @ queries[qi]
            sub_ids = ids[mask]
            top = np.argsort(-sims, kind="stable")[:k]
            chunks.append((qid, sub_ids[top], sims[top]))
        return _candidate_table(chunks)

    candidates = _embeddings(sf_dir).map_batches(
        _bucket_top_k, batch_format="pyarrow", batch_size=4096
    )
    return _top_k_per_query(candidates, k)


def _bounded_training_sample(
    emb: ray.data.Dataset,
    seed: int,
    sample_fraction: float,
    max_sample_rows: int,
) -> list:
    """Training rows with the driver-side materialization CAPPED in code:
    the sample fraction is scaled down so the expected sample is
    ``max_sample_rows`` (parquet row counts come from metadata, so
    ``count()`` is not a data scan), and a ``limit`` hard-bounds the
    actual rows regardless of sampling variance. At 10^12 vectors the
    driver never sees more than ``max_sample_rows`` rows.

    Membership is a DETERMINISTIC hash gate on ``vec_id`` (splitmix64
    threshold), not ``random_sample``: Ray's per-task sampling RNG varies
    with dynamic block splitting, which made the trained centroids — and
    therefore IVF's approximate results — differ run to run under load."""
    from rika_ray.functions.text import mix64

    n = emb.count()
    # gate wide enough (2×) that ≥ max_sample_rows rows pass w.h.p., then
    # keep the max_sample_rows SMALLEST hash keys — a deterministic top-k.
    # A bare .limit() after the gate picks rows by block-ARRIVAL order,
    # which varies with scheduling under load.
    frac = min(sample_fraction, 2.0 * max_sample_rows / max(n, 1))
    threshold = np.uint64(int(frac * float(2**64 - 1)))
    seed_u = np.uint64(seed)

    def _hash_gate(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = mix64(ids ^ seed_u)
        keep = key <= threshold
        out = batch.filter(pa.array(keep))
        # int64 bit-view: uint64 > int63 degrades Ray's shuffle to pickled
        # extension arrays (see dedup.py)
        return out.append_column(
            "_sk", pa.array(key[keep].view(np.int64), pa.int64())
        )

    rows = (
        emb.map_batches(_hash_gate, batch_format="pyarrow")
        .sort(["_sk", "vec_id"])  # sample-sized shuffle (~2×max rows)
        .limit(max_sample_rows)
        .take_all()
    )
    if not rows:
        rows = emb.sort("vec_id").limit(max_sample_rows).take_all()
    for r in rows:
        r.pop("_sk", None)
    return rows


def _train_centroids(
    sf_dir: str,
    n_cells: int,
    seed: int,
    sample_fraction: float = 0.5,
    max_sample_rows: int = 100_000,
) -> np.ndarray:
    """Coarse quantizer via mini k-means on a bounded sample (Lloyd's, few
    iterations, deterministic seed) — bounded by ``max_sample_rows`` in
    code (see ``_bounded_training_sample``), not just by docstring."""
    rows = _bounded_training_sample(
        _embeddings(sf_dir), seed, sample_fraction, max_sample_rows
    )
    x = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in rows])
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    rng = np.random.RandomState(seed)
    n_cells = min(n_cells, len(x))
    cent = x[rng.choice(len(x), size=n_cells, replace=False)]
    for _ in range(8):  # Lloyd iterations on unit sphere (cosine k-means)
        assign = np.argmax(x @ cent.T, axis=1)
        for c in range(n_cells):
            members = x[assign == c]
            if len(members):
                v = members.sum(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)
    return cent


def ann_topk_ivf(
    sf_dir: str,
    query_ids: tuple[int, ...] = (0, 1, 2, 3),
    k: int = 10,
    n_cells: int = 16,
    n_probe: int = 4,
    seed: int = 42,
) -> ray.data.Dataset:
    """Approximate top-k via an IVF coarse quantizer: vectors belong to
    their nearest-centroid cell; each query scans only its ``n_probe``
    nearest cells (~n_probe/n_cells of the corpus). Recall < 1 by design;
    measured against the exact baseline in tests (rows-only check)."""
    queries = _query_matrix(sf_dir, list(query_ids))
    cent = _train_centroids(sf_dir, n_cells, seed)
    # per-query probe cells (tiny: n_q × n_probe ints)
    probe_cells = np.argsort(-(queries @ cent.T), axis=1)[:, :n_probe]
    qids = list(query_ids)

    def _cell_top_k(batch: pa.Table) -> pa.Table:
        unit = unit_rows(embedding_matrix(batch["embedding"]))
        cells = np.argmax(unit @ cent.T, axis=1)
        ids = batch["vec_id"].to_numpy()
        chunks = []
        for qi, qid in enumerate(qids):
            mask = np.isin(cells, probe_cells[qi])
            if not mask.any():
                continue
            sims = unit[mask] @ queries[qi]
            sub_ids = ids[mask]
            top = np.argsort(-sims, kind="stable")[:k]
            chunks.append((qid, sub_ids[top], sims[top]))
        return _candidate_table(chunks)

    candidates = _embeddings(sf_dir).map_batches(
        _cell_top_k, batch_format="pyarrow", batch_size=4096
    )
    return _top_k_per_query(candidates, k)
