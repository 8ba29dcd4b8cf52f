"""Cluster-aware sizing: widths must scale with
``ray.cluster_resources()``, not be pinned to a constant; and no pipeline
outside the extraction kernel may hold a standing pool or use one of
Ray's own exchanges."""

from __future__ import annotations

import ast
import pathlib

import rika_ray.pool as pool_mod
from rika_ray.pool import pool_size

ROOT = pathlib.Path(pool_mod.__file__).resolve().parents[1]


def test_pool_size_scales_with_cluster(monkeypatch):
    sizes = {}
    for ncpu in (4, 8, 32, 128, 1024):
        monkeypatch.setattr(pool_mod, "cluster_cpus", lambda n=ncpu: n)
        sizes[ncpu] = pool_mod.pool_size()
    # monotone and CPU-proportional (default 0.5 actors per CPU)
    assert sizes[8] == 4 and sizes[32] == 16 and sizes[128] == 64
    assert sizes[1024] == 512
    assert sizes[4] == 2  # floor


def test_extraction_pool_fraction(monkeypatch):
    monkeypatch.setattr(pool_mod, "cluster_cpus", lambda: 32)
    assert pool_mod.pool_size(0.75, floor=1) == 24
    monkeypatch.setattr(pool_mod, "cluster_cpus", lambda: 8)
    assert pool_mod.pool_size(0.75, floor=1) == 6


def test_partition_count_follows_the_cluster(monkeypatch):
    from rika_ray.pipelines.aggregate import partition_count

    counts = {}
    for ncpu in (1, 4, 8, 32, 128):
        monkeypatch.setattr(pool_mod, "cluster_cpus", lambda n=ncpu: n)
        counts[ncpu] = partition_count()
    assert counts == {1: 8, 4: 8, 8: 16, 32: 64, 128: 256}


def _standing_pools_and_exchanges(src: str, kernel_fn: str | None = None) -> list:
    """(line, what) for every ``concurrency=`` and every Ray ``join``,
    ``groupby`` or ``map_groups`` in ``src``. ``join``/``groupby`` on a
    string or ``os.path``, or inside a function taking a ``pd.DataFrame``
    (in-process pandas), are not Ray's; ``kernel_fn`` may hold a pool."""
    found = []

    def _walk(node, fn: str | None, frame: bool) -> None:
        if isinstance(node, ast.FunctionDef):
            fn = fn or node.name
            frame = frame or any(
                a.annotation is not None and ast.unparse(a.annotation) == "pd.DataFrame"
                for a in node.args.args
            )
        if isinstance(node, ast.Call):
            if fn != kernel_fn and any(k.arg == "concurrency" for k in node.keywords):
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
            _walk(child, fn, frame)

    _walk(ast.parse(src), None, False)
    return found


def test_no_standing_pools_or_ray_exchanges():
    """Every auxiliary stage is a plain task and every exchange by key is
    planned in ``pipelines/aggregate.py``: actor pools with CPU floors and
    Ray's hash joins hang on a one-CPU cluster. Only the extraction kernel
    keeps its pool."""
    paths = [
        p for p in sorted((ROOT / "rika_ray" / "pipelines").glob("*.py"))
        if p.name != "aggregate.py"
    ] + [ROOT / "__ray_entry__.py"]
    for p in paths:
        src = p.read_text()
        kernel = "build_extraction_pipeline" if p.name == "extraction.py" else None
        assert _standing_pools_and_exchanges(src, kernel) == [], p.name
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
    found = _standing_pools_and_exchanges(src, "build_extraction_pipeline")
    assert found == [
        (5, "concurrency="), (6, "map_groups"), (6, "groupby"), (7, "join"),
        (8, "groupby"),
    ]
    assert (14, "concurrency=") in _standing_pools_and_exchanges(src)


def test_pool_size_live_cluster(ray_session):
    """With the 4-CPU test cluster, the helper reads the live resource
    count (not the no-Ray default)."""
    import ray

    ncpu = int(ray.cluster_resources()["CPU"])
    assert pool_size(1.0, floor=1) == ncpu
