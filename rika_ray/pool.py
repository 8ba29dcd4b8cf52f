"""Cluster-aware sizing shared by every pipeline.

One rule everywhere: a width is a CPU-proportional number of slots, so
parallelism scales with ``ray.cluster_resources()`` instead of being
pinned to a constant that is correct on one node and a bottleneck on 256.

No pipeline holds an actor pool: the extraction kernel and every
auxiliary stage run as plain tasks, which hold no standing reservation. A
pool set that reserves every CPU starves the read / shuffle / write tasks
and the streaming executor deadlocks silently, as auxiliary pools with
``num_cpus=0.5`` floors did on a one-CPU cluster. ``pool_size()`` sets
the partition count of the bounded-partition shuffles
(``pipelines.aggregate.partition_count``) and the block count of the
dedup signature checkpoint read.
"""

from __future__ import annotations


def cluster_cpus(default: int = 8) -> int:
    """Logical CPU count of the connected Ray cluster (``default`` when Ray
    is not initialised — e.g. schema-only imports)."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", default))
    return default


def pool_size() -> int:
    """One slot per two cluster CPUs, at least 2."""
    return max(2, cluster_cpus() // 2)
