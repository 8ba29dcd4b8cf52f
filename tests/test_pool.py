"""Cluster-aware sizing: widths must scale with
``ray.cluster_resources()``, not be pinned to a constant; and no pipeline
may hold a standing pool or use one of Ray's own exchanges."""

from __future__ import annotations

import ast
import pathlib

import rika_ray.pool as pool_mod
from rika_ray.pool import pool_size

ROOT = pathlib.Path(pool_mod.__file__).resolve().parents[1]


def test_pool_size_scales_with_cluster(monkeypatch):
    sizes = {}
    for ncpu in (1, 4, 8, 32, 128, 1024):
        monkeypatch.setattr(pool_mod, "cluster_cpus", lambda n=ncpu: n)
        sizes[ncpu] = pool_mod.pool_size()
    # monotone and CPU-proportional (one slot per two CPUs)
    assert sizes[8] == 4 and sizes[32] == 16 and sizes[128] == 64
    assert sizes[1024] == 512
    assert sizes[4] == 2
    assert sizes[1] == 2  # floor


def test_partition_count_follows_the_cluster(monkeypatch):
    from rika_ray.pipelines.aggregate import partition_count

    counts = {}
    for ncpu in (1, 4, 8, 32, 128):
        monkeypatch.setattr(pool_mod, "cluster_cpus", lambda n=ncpu: n)
        counts[ncpu] = partition_count()
    assert counts == {1: 8, 4: 8, 8: 16, 32: 64, 128: 256}


def _standing_pools_and_exchanges(src: str) -> list:
    """(line, what) for every ``concurrency=`` and every Ray ``join``,
    ``groupby`` or ``map_groups`` in ``src``. ``join``/``groupby`` on a
    string or ``os.path``, or inside a function taking a ``pd.DataFrame``
    (in-process pandas), are not Ray's."""
    found = []

    def _walk(node, frame: bool) -> None:
        if isinstance(node, ast.FunctionDef):
            frame = frame or any(
                a.annotation is not None and ast.unparse(a.annotation) == "pd.DataFrame"
                for a in node.args.args
            )
        if isinstance(node, ast.Call):
            if any(k.arg == "concurrency" for k in node.keywords):
                found.append((node.lineno, "concurrency="))
            f = node.func
            if isinstance(f, ast.Attribute) and (
                f.attr == "map_groups"
                or f.attr in ("join", "groupby")
                and not frame
                and not isinstance(f.value, ast.Constant)
                and ast.unparse(f.value) != "os.path"
            ):
                found.append((node.lineno, f.attr))
        for child in ast.iter_child_nodes(node):
            _walk(child, frame)

    _walk(ast.parse(src), False)
    return found


def test_no_standing_pools_or_ray_exchanges():
    """Every stage, the extraction kernel included, is a plain task and
    every exchange by key is planned in ``pipelines/aggregate.py``: actor
    pools with CPU floors and Ray's hash joins hang on a one-CPU cluster,
    and the kernel's pool stalled back-to-back jobs at four CPUs."""
    paths = [
        p for p in sorted((ROOT / "rika_ray" / "pipelines").glob("*.py"))
        if p.name != "aggregate.py"
    ] + [ROOT / "__ray_entry__.py"]
    for p in paths:
        src = p.read_text()
        assert _standing_pools_and_exchanges(src) == [], p.name
        assert "ray.data.aggregate" not in src, p.name


def test_the_guard_sees_pools_and_exchanges():
    src = """
import os
import pandas as pd
def plan(ds, other):
    a = ds.map_batches(Stage, concurrency=(1, 4), num_cpus=0.5)
    b = ds.groupby("k").map_groups(fn)
    c = ds.join(other, "inner", on=("k",))
    d = ds.groupby("k").count()
    e = " ".join(["x"]) + os.path.join("a", "b")
    def _part(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k").head(1).join(g)
    return ds.map_batches(_part)
def build_extraction_pipeline(ds):
    return ds.map_batches(Kernel, concurrency=4)
"""
    assert _standing_pools_and_exchanges(src) == [
        (5, "concurrency="), (6, "map_groups"), (6, "groupby"), (7, "join"),
        (8, "groupby"), (14, "concurrency="),
    ]


def test_pool_size_live_cluster(ray_session):
    """With the 4-CPU test cluster, the helper reads the live resource
    count (not the no-Ray default of 8 CPUs, which would give 4)."""
    import ray

    assert int(ray.cluster_resources()["CPU"]) == 4
    assert pool_size() == 2
