"""Cluster-aware actor-pool sizing shared by every pipeline.

One rule everywhere (factored out of the extraction pipeline's proven
3/4-of-cluster sizing): a pool gets a CPU-proportional number of actors so
stage concurrency scales with ``ray.cluster_resources()`` instead of being
pinned to a constant that is correct on one node and a bottleneck on 256.

Two invariants (learned the hard way in round 1):
- A pool set that reserves every CPU starves the stateless task operators
  (read / shuffle / write) and the streaming executor deadlocks SILENTLY.
  Callers pass fractional ``num_cpus`` (0.5 for light stages) and keep the
  total logical reservation below the cluster size.
- On tiny clusters (<4 CPUs) pools are barely worth their startup; callers
  should keep ``floor`` small (the extraction pipeline falls back to
  stateless tasks there).
"""

from __future__ import annotations


def cluster_cpus(default: int = 8) -> int:
    """Logical CPU count of the connected Ray cluster (``default`` when Ray
    is not initialised — e.g. schema-only imports)."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", default))
    return default


def pool_spec(
    per_cpu: float = 0.5, *, floor: int = 2, cap: int | None = None
) -> tuple[int, int]:
    """Autoscaling pool bounds ``(floor, pool_size(...))`` for
    ``map_batches(concurrency=...)``: short inputs pay only ``floor``
    actors of startup, large inputs scale to the CPU-proportional cap.
    Use this for the auxiliary pipelines; fixed ``pool_size()`` only where
    the stage is known to saturate the pool immediately (extraction).

    The floor shrinks on tiny clusters: a pipeline may chain two pools
    (decode → features), and their eagerly-started floor actors at the
    conventional ``num_cpus=0.5`` must not reserve every cluster CPU or
    the stateless read/write tasks never schedule and the streaming
    executor deadlocks silently (observed at ``num_cpus=2``: 2 pools ×
    2 floor actors × 0.5 CPU = the whole cluster). Bounding the floor by
    ``cluster_cpus() - 1`` keeps two chained floors at ``cpus - 1``
    reserved, always leaving one CPU for task operators."""
    hi = pool_size(per_cpu, floor=floor, cap=cap)
    lo = max(1, min(floor, cluster_cpus() - 1, hi))
    return (lo, hi)


def pool_size(
    per_cpu: float = 0.5, *, floor: int = 2, cap: int | None = None
) -> int:
    """Actor count for a ``map_batches`` pool: ``per_cpu`` actors per
    cluster CPU, at least ``floor``, at most ``cap``.

    Defaults suit the auxiliary pipelines (dedup / similarity / text
    analysis / joins): ``per_cpu=0.5`` with each actor at ``num_cpus=0.5``
    reserves a quarter of the cluster and can burst to half of it — wide
    enough to scale, narrow enough that several pools plus the task
    operators coexist. The heavyweight extraction pool uses
    ``pool_size(0.75, floor=1)`` with whole-CPU actors.
    """
    n = max(floor, int(cluster_cpus() * per_cpu))
    if cap is not None:
        n = min(n, cap)
    return n


def join_parts(*counts: int) -> int:
    """Hash-join partition count clamped so the SMALLER side averages
    ≥4096 rows per partition (floor 1, cap = cluster width). Two reasons:

    - CORRECTNESS: unclamped ``max(4, cluster_cpus())`` on a tiny side
      produces empty right-side partitions whose blocks lose their schema,
      and Ray's hash-shuffle join finalize then dies in pyarrow with
      ``No match … for FieldRef.Name(…)`` — reproduced at num_cpus=32
      with a ~50-row label table (round-3 CORRECTNESS run).
    - LATENCY: each partition is one hash-shuffle aggregator actor;
      measured fixed cost is ~0.4-0.6 s of startup going 4 → 32 actors on
      result-sized inputs where parallelism buys nothing.

    At cluster scale every real input exceeds 4096 × cluster width, so the
    clamp vanishes there. Callers pass known (materialized) row counts."""
    n = min(counts)
    return max(1, min(max(4, cluster_cpus()), (n + 4095) // 4096))
