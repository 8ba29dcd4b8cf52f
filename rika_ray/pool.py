"""Cluster-aware sizing shared by every pipeline.

One rule everywhere: a width is a CPU-proportional number of slots, so
concurrency scales with ``ray.cluster_resources()`` instead of being
pinned to a constant that is correct on one node and a bottleneck on 256.

Only the extraction kernel holds an actor pool (``pool_size(0.75,
floor=1)`` at 4+ CPUs, stateless tasks below). Every auxiliary stage runs
as plain tasks, which hold no standing reservation: a pool set that
reserves every CPU starves the read / shuffle / write tasks and the
streaming executor deadlocks silently, as auxiliary pools with
``num_cpus=0.5`` floors did on a one-CPU cluster. The default
``pool_size()`` also sets the partition count of the bounded-partition
shuffles (``pipelines.aggregate.partition_count``).
"""

from __future__ import annotations


def cluster_cpus(default: int = 8) -> int:
    """Logical CPU count of the connected Ray cluster (``default`` when Ray
    is not initialised — e.g. schema-only imports)."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", default))
    return default


def pool_size(
    per_cpu: float = 0.5, *, floor: int = 2, cap: int | None = None
) -> int:
    """``per_cpu`` slots per cluster CPU, at least ``floor``, at most
    ``cap``.

    The extraction kernel's actor pool is ``pool_size(0.75, floor=1)``
    whole-CPU actors at 4+ CPUs. The defaults (half the cluster's CPUs, at
    least 2) are a width, not a pool: ``pipelines.aggregate
    .partition_count()`` runs four bounded-partition shuffle partitions per
    slot, and the dedup signature checkpoint is read back in one block
    per slot.
    """
    n = max(floor, int(cluster_cpus() * per_cpu))
    if cap is not None:
        n = min(n, cap)
    return n
