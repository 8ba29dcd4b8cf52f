"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_tables():
    """(web_pages, expected) Arrow tables at smoke scale."""
    from rika_ray.corpus import generate_corpus

    return generate_corpus(n_per_family=3, seed=42)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """On-disk smoke corpus (web_pages.parquet + expected_extractions.parquet)."""
    from rika_ray.corpus import write_corpus

    d = tmp_path_factory.mktemp("corpus")
    write_corpus(str(d), n_per_family=3, seed=42)
    return str(d)


# files of the split smoke corpus: at least the 4 CPUs of ``ray_session``,
# so the read asks for one block per file and fuses with the kernel
SPLIT_FILES = 4


@pytest.fixture(scope="session")
def split_corpus_dir(corpus_dir, tmp_path_factory):
    """The smoke corpus's web_pages table split into ``SPLIT_FILES``
    Parquet files of consecutive rows, in one directory."""
    import pyarrow.parquet as pq

    pages = pq.read_table(f"{corpus_dir}/web_pages.parquet")
    d = tmp_path_factory.mktemp("split_corpus")
    step = -(-pages.num_rows // SPLIT_FILES)
    for i in range(SPLIT_FILES):
        pq.write_table(pages.slice(i * step, step), str(d / f"part-{i}.parquet"))
    return str(d)


@pytest.fixture(scope="session")
def sharded_input(tmp_path_factory):
    """Three web_pages shards (separate small corpora with disjoint urls)
    for checkpointed runs, sorted."""
    import os

    from rika_ray.corpus import write_corpus

    base = tmp_path_factory.mktemp("shards")
    files = []
    for i, seed in enumerate((42, 43, 44)):
        d = base / f"shard{i}"
        write_corpus(str(d), n_per_family=1, seed=seed)
        dst = str(base / f"shard-{i}.parquet")
        os.rename(str(d / "web_pages.parquet"), dst)
        files.append(dst)
    return files


@pytest.fixture(scope="session")
def sharded_hash(ray_session, sharded_input, tmp_path_factory):
    """The combined content hash of one uninterrupted checkpointed run over
    ``sharded_input`` at the session's 4 CPUs."""
    from rika_ray.state.checkpoint import (
        combined_content_hash,
        run_partitioned_extraction,
    )

    out = str(tmp_path_factory.mktemp("sharded_run") / "out")
    run_partitioned_extraction(sharded_input, out)
    return combined_content_hash(out)
