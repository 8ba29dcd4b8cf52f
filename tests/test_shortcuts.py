"""``shortcuts.parse`` runs the pipeline's fused kernel in process: for
every document it returns the pipeline's row, and it never starts Ray."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rika_ray.shortcuts import parse

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def loose_files(corpus_dir, tmp_path_factory) -> list[str]:
    """The smoke corpus written out as one loose file per row. A file
    keeps its url's extension: the sniffer refines plain text by name."""
    pages = pq.read_table(f"{corpus_dir}/web_pages.parquet")
    d = tmp_path_factory.mktemp("loose")
    paths = []
    for i, (url, body) in enumerate(
        zip(pages["url"].to_pylist(), pages["html"].to_pylist())
    ):
        last = url.split("?", 1)[0].rstrip("/").rsplit("/", 1)[-1]
        path = str(d / f"{i:04d}{os.path.splitext(last)[1]}")
        with open(path, "wb") as f:
            f.write(body or b"")
        paths.append(path)
    return paths


def test_parse_equals_pipeline_row(ray_session, loose_files):
    import ray

    from rika_ray.pipelines.extraction import build_extraction_pipeline
    from rika_ray.sources.ingest import read_files_as_web_pages

    out = build_extraction_pipeline(read_files_as_web_pages(loose_files))
    rows = pa.concat_tables(
        [t for t in ray.get(out.to_arrow_refs()) if len(t)]
    ).to_pylist()
    by_url = {r["url"]: r for r in rows}
    assert sorted(by_url) == sorted(loose_files)
    mismatched = [p for p in loose_files if parse(p) != by_url[p]]
    assert not mismatched, mismatched[:5]


def test_few_loose_files_read_as_one_block_each(ray_session, loose_files):
    """Fewer files than CPUs: one non-empty read block per file (Ray's
    default count adds empty blocks), and the same rows."""
    import ray

    from rika_ray.sources.ingest import read_files_as_web_pages

    paths = loose_files[:2]
    tables = ray.get(read_files_as_web_pages(paths).to_arrow_refs())
    assert [t.num_rows for t in tables] == [1, 1]
    rows = pa.concat_tables(tables)
    assert sorted(rows["url"].to_pylist()) == paths
    for row in rows.to_pylist():
        with open(row["url"], "rb") as f:
            assert row["html"] == f.read()


def test_parse_never_starts_ray(loose_files):
    """In a fresh process: Ray stays uninitialised after ``parse``, and the
    terse aliases agree with it."""
    sample = loose_files[::7]
    script = (
        "import json, sys\n"
        "import ray\n"
        "from rika_ray.shortcuts import c, ct, lang, m, parse\n"
        "agree = []\n"
        "for path in sys.argv[1:]:\n"
        "    row = parse(path)\n"
        "    meta = {p['key']: p['value'] for p in row['metadata'] or []}\n"
        "    agree.append([c(path) == row['content'], m(path) == meta,\n"
        "                  lang(path) == row['language'],\n"
        "                  ct(path) == row['content_type']])\n"
        "print('RESULT:' + json.dumps(\n"
        "    {'ray': ray.is_initialized(), 'agree': agree}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *sample],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [l for l in proc.stdout.splitlines() if l.startswith("RESULT:")]
    assert line, proc.stdout[-2000:]
    got = json.loads(line[0][len("RESULT:"):])
    assert got["ray"] is False
    assert len(got["agree"]) == len(sample)
    assert all(all(a) for a in got["agree"]), got["agree"]
