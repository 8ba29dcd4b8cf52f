"""Seeded benchmark inputs, generated once and cached inside the checkout.

Everything here runs before any timed window and outside ``setup_s``.

* A **pool** corpus: ``rika_ray.corpus.generate_corpus`` at a fixed
  generator seed with ``POOL_N`` rows per scaled family. Generating it
  costs ~20 s (mostly the fixed FLAC/JPEG fixtures), so it is made once per
  checkout and every seed draws from it.
* Per ``--seed``: a stratified half of every scaled family (all rows of the
  fixed families) for ``extract_mixed``; seeded truncations / byte flips /
  insertions plus a fixed looping-FAT OLE2 file for ``extract_hostile``;
  and, for the traced run's probes, one document per family written as
  loose files and ``lineitem`` / ``events`` / ``documents`` tables.
  The make-up (rows per family, table sizes) is the same for every seed;
  the content differs.

Cache layout: ``<root>/.layerbench/inputs/v<CORPUS_VERSION>.<INPUTS_VERSION>/``.
Each directory is built under a temporary name and renamed into place, so
an interrupted run never leaves a half-written input behind.
"""

from __future__ import annotations

import os
import random
import shutil
import struct
from collections import defaultdict
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# bump when anything below changes the generated inputs
INPUTS_VERSION = 5

POOL_SEED = 42
POOL_N = 80  # rows per scaled family in the pool; a seed takes half
# 64 mutated documents per family (4,346 in all) and one looping-FAT file,
# so that the mutated documents carry most of a hostile job
HOSTILE_PER_FAMILY = 64
N_LOOPING_FAT = 1
# OLE2 documents are sampled and mutated from this fixed stream, not from
# the seed: a random byte flip in an OLE2 file makes a looping FAT chain
# too (on 3 of seeds 1-15, ~1.1 s each), which would make a seed's job
# cost turn on a draw. Their part of the hostile set is the same for every
# seed, like the looping-FAT file.
OLE2_MUTATION_SEED = 7
OLE2_MAGIC = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"
WARMUP_SEED_OFFSET = 1_000_003  # warm-up inputs come from another seed

# relational tables per seed (about a quarter of the sf0.1 testdata shape)
N_LINEITEM = 150_000
N_PARTS = 5_000
N_EVENTS = 25_000
N_USERS = 375
N_DOCUMENTS = 1_250
N_SOURCES = 50
# warm-up tables: the same generator, 1/25 of the size
WARMUP_SCALE = 25


def root_dir() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def work_dir() -> str:
    return os.path.join(root_dir(), ".layerbench")


def inputs_dir() -> str:
    from rika_ray.corpus import CORPUS_VERSION

    return os.path.join(
        work_dir(), "inputs", f"v{CORPUS_VERSION}.{INPUTS_VERSION}"
    )


def _publish(final: str, build) -> str:
    """Run ``build(tmp_dir)`` and rename the result to ``final``."""
    if os.path.isdir(final):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    try:
        os.replace(tmp, final)
    except OSError:  # another process published it first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def family(url: str) -> str:
    return url.split("/")[3]


# ---------------------------------------------------------------------------
# document corpora
# ---------------------------------------------------------------------------


def pool_dir() -> str:
    def build(tmp: str) -> None:
        from rika_ray.corpus import generate_corpus

        pages, expected = generate_corpus(n_per_family=POOL_N, seed=POOL_SEED)
        pq.write_table(pages, os.path.join(tmp, "web_pages.parquet"))
        pq.write_table(expected, os.path.join(tmp, "expected.parquet"))

    return _publish(os.path.join(inputs_dir(), f"pool-n{POOL_N}"), build)


def _load_pool() -> tuple[pa.Table, pa.Table]:
    d = pool_dir()
    return (
        pq.read_table(os.path.join(d, "web_pages.parquet")),
        pq.read_table(os.path.join(d, "expected.parquet")),
    )


def _stratified(urls: list[str], per_family, rng: random.Random) -> list[int]:
    """Row indices: ``per_family(group_size)`` rows of every family, drawn
    by ``rng``, then shuffled. Rows sharing a url stay together."""
    groups: dict[str, list[int]] = defaultdict(list)
    for i, u in enumerate(urls):
        groups[family(u)].append(i)
    picked: list[int] = []
    for fam in sorted(groups):
        rows = groups[fam]
        by_url: dict[str, list[int]] = defaultdict(list)
        for i in rows:
            by_url[urls[i]].append(i)
        keys = sorted(by_url)
        k = min(len(keys), per_family(len(keys)))
        for u in sorted(rng.sample(keys, k)):
            picked.extend(by_url[u])
    rng.shuffle(picked)
    return picked


def _mixed_take(n_keys: int) -> int:
    # scaled families hold POOL_N (or a multiple of it) urls: take half;
    # the fixed fixture families are always taken whole
    return n_keys // 2 if n_keys >= POOL_N else n_keys


def _write_sample(tmp: str, seed: int, per_family) -> None:
    pages, expected = _load_pool()
    rows = _stratified(
        pages["url"].to_pylist(), per_family, random.Random(seed)
    )
    idx = pa.array(rows, pa.int64())
    pq.write_table(
        pages.take(idx), os.path.join(tmp, "web_pages.parquet"),
        row_group_size=1024,
    )
    pq.write_table(expected.take(idx), os.path.join(tmp, "expected.parquet"))


def mixed_dir(seed: int) -> str:
    """extract_mixed input: the generator's full format mix."""
    return _publish(
        os.path.join(inputs_dir(), f"seed-{seed}", "mixed"),
        lambda tmp: _write_sample(tmp, seed, _mixed_take),
    )


def mixed_warmup_dir(seed: int) -> str:
    """One document per family, drawn with another seed."""
    s = seed + WARMUP_SEED_OFFSET
    return _publish(
        os.path.join(inputs_dir(), f"seed-{seed}", "mixed-warmup"),
        lambda tmp: _write_sample(tmp, s, lambda n: 1),
    )


def _file_name(i: int, url: str) -> str:
    last = url.rstrip("/").rsplit("/", 1)[-1]
    ext = os.path.splitext(last)[1] if "." in last else ""
    return f"{i:03d}-{family(url)}{ext}"


def _write_files(tmp: str, seed: int) -> None:
    pages, expected = _load_pool()
    urls = pages["url"].to_pylist()
    rows = _stratified(urls, lambda n: 1, random.Random(seed))
    # duplicate-url rows hold identical payloads: one file per url
    seen: set[str] = set()
    files_dir = os.path.join(tmp, "files")
    os.makedirs(files_dir)
    names, picked = [], []
    for r in rows:
        if urls[r] in seen:
            continue
        seen.add(urls[r])
        name = _file_name(len(names), urls[r])
        with open(os.path.join(files_dir, name), "wb") as f:
            f.write(pages["html"][r].as_py() or b"")
        names.append(name)
        picked.append(r)
    exp = expected.take(pa.array(picked, pa.int64()))
    exp = exp.append_column("file", pa.array(names, pa.string()))
    pq.write_table(exp, os.path.join(tmp, "expected.parquet"))


def files_dir(seed: int) -> str:
    """Parse probe input: one loose file per family, in a seeded order."""
    return _publish(
        os.path.join(inputs_dir(), f"seed-{seed}", "files"),
        lambda tmp: _write_files(tmp, seed),
    )


def looping_fat_ole2(i: int) -> bytes:
    """A 5,632-byte legacy .doc whose directory sector's FAT entry points
    back at itself, so the directory chain never reaches ENDOFCHAIN.
    Seed-independent: it is the same bytes in every run."""
    from rika_ray import docgen

    data = bytearray(docgen.build_doc([f"looping directory chain {i}"]))
    (first_dir,) = struct.unpack_from("<I", data, 48)
    (fat_sid,) = struct.unpack_from("<I", data, 76)
    struct.pack_into("<I", data, 512 + fat_sid * 512 + 4 * first_dir, first_dir)
    return bytes(data)


def mutate(payload: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One seeded corruption: truncation, byte flips or an insertion."""
    kind = rng.choice(("truncate", "flip", "insert"))
    if not payload:
        return kind, payload
    if kind == "truncate":
        return kind, payload[: rng.randrange(len(payload))]
    data = bytearray(payload)
    if kind == "flip":
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    else:
        at = rng.randrange(len(data) + 1)
        data[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))
    return kind, bytes(data)


def _write_hostile(tmp: str, seed: int, per_family: int, n_looping: int) -> None:
    from rika_ray.schema import WEB_PAGES_SCHEMA

    pages, _ = _load_pool()
    urls = pages["url"].to_pylist()
    html = [h or b"" for h in pages["html"].to_pylist()]
    is_ole2 = [h.startswith(OLE2_MAGIC) for h in html]
    mutated = []
    for rng, ole2 in (
        (random.Random(OLE2_MUTATION_SEED), True),
        (random.Random(seed), False),
    ):
        idx = [i for i, o in enumerate(is_ole2) if o == ole2]
        for j in _stratified([urls[i] for i in idx], lambda n: per_family, rng):
            kind, data = mutate(html[idx[j]], rng)
            mutated.append((urls[idx[j]], kind, data))
    random.Random(seed).shuffle(mutated)
    out_urls, payloads, kinds = [], [], []
    for url, kind, data in mutated:
        # the mutated row gets its own url: duplicates in the pool become
        # distinct documents here
        out_urls.append(f"{url}#{kind}-{len(out_urls)}")
        payloads.append(data)
        kinds.append(kind)
    for i in range(n_looping):
        out_urls.append(f"https://hostile.test/looping-fat/{i}.doc")
        payloads.append(looping_fat_ole2(i))
        kinds.append("looping-fat")
    n = len(out_urls)
    table = pa.table(
        {
            "url": out_urls,
            "warc_ts": pa.array([datetime(2026, 1, 1)] * n, pa.timestamp("us")),
            "html": pa.array(payloads, pa.large_binary()),
            "text": pa.array([None] * n, pa.string()),
            "lang": pa.array([None] * n, pa.string()),
        },
        schema=WEB_PAGES_SCHEMA,
    )
    pq.write_table(
        table, os.path.join(tmp, "web_pages.parquet"), row_group_size=1024
    )
    pq.write_table(
        pa.table({"url": out_urls, "mutation": kinds}),
        os.path.join(tmp, "mutations.parquet"),
    )


def hostile_dir(seed: int) -> str:
    """extract_hostile input: corrupted documents plus a looping-FAT OLE2."""
    return _publish(
        os.path.join(inputs_dir(), f"seed-{seed}", "hostile"),
        lambda tmp: _write_hostile(tmp, seed, HOSTILE_PER_FAMILY, N_LOOPING_FAT),
    )


def hostile_warmup_dir(seed: int) -> str:
    """One corrupted document per family; no looping FAT, whose cost would
    only lengthen set-up."""
    s = seed + WARMUP_SEED_OFFSET
    return _publish(
        os.path.join(inputs_dir(), f"seed-{seed}", "hostile-warmup"),
        lambda tmp: _write_hostile(tmp, s, 1, 0),
    )


# ---------------------------------------------------------------------------
# relational tables (same columns and value shapes as the repository's
# TPC-H-like testdata)
# ---------------------------------------------------------------------------

_WORDS = (
    "a the key agg row scan slow fast table value part hash merge batch "
    "spark line sort window data column order join small customer query big "
    "stream filter group vector"
).split()
_LANGS = (("en", 0.44), ("de", 0.14), ("es", 0.14), ("fr", 0.13), ("zh", 0.15))
_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def _lineitem(rng: np.random.Generator, n: int, n_parts: int) -> pa.Table:
    flags = np.array(["A", "N", "R"])
    status = np.array(["F", "O"])
    ship = np.datetime64("1992-01-01") + rng.integers(0, 3650, n).astype(
        "timedelta64[D]"
    )
    return pa.table(
        {
            "l_orderkey": np.sort(rng.integers(0, n // 4, n)).astype(np.int64),
            "l_partkey": rng.integers(0, n_parts, n).astype(np.int64),
            "l_suppkey": rng.integers(0, max(1, n_parts // 20), n).astype(np.int64),
            "l_linenumber": rng.integers(1, 8, n).astype(np.int32),
            "l_quantity": rng.integers(1, 51, n).astype(np.float64),
            "l_extendedprice": np.round(rng.uniform(900.0, 105000.0, n), 2),
            "l_discount": rng.integers(0, 11, n) / 100.0,
            "l_tax": rng.integers(0, 9, n) / 100.0,
            "l_returnflag": flags[rng.integers(0, 3, n)],
            "l_linestatus": status[rng.integers(0, 2, n)],
            "l_shipdate": pa.array(ship.astype("datetime64[us]")),
        }
    )


def _events(rng: np.random.Generator, n: int, n_users: int) -> pa.Table:
    span_us = 30 * 24 * 3600 * 1_000_000
    ts = np.sort(rng.integers(0, span_us, n)) + np.datetime64(
        "2024-01-01T00:00:00", "us"
    ).astype(np.int64)
    return pa.table(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pa.array(ts.astype("datetime64[us]")),
            "user_id": rng.integers(0, n_users, n).astype(np.int64),
            "event_type": np.array(_EVENT_TYPES)[rng.integers(0, 5, n)],
            "value": np.round(rng.uniform(0.01, 490.0, n), 2),
            "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n)],
        }
    )


def _documents(rng: np.random.Generator, n: int, n_sources: int) -> pa.Table:
    words = np.array(_WORDS)
    texts = [
        " ".join(words[rng.integers(0, len(words), rng.integers(8, 90))])
        for _ in range(n)
    ]
    # ~2% exact duplicates of earlier documents, so dedup has work to do
    for i in rng.choice(np.arange(1, n), size=max(1, n // 50), replace=False):
        texts[i] = texts[int(rng.integers(0, i))]
    langs, weights = zip(*_LANGS)
    return pa.table(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": texts,
            "lang": np.array(langs)[rng.choice(len(langs), n, p=weights)],
            "source": [f"src{i % n_sources}" for i in range(n)],
            "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
        }
    )


def _write_tables(tmp: str, seed: int, scale: int) -> None:
    rng = np.random.default_rng(seed)
    tables = {
        "lineitem": _lineitem(rng, N_LINEITEM // scale, max(10, N_PARTS // scale)),
        "events": _events(rng, N_EVENTS // scale, max(10, N_USERS // scale)),
        "documents": _documents(
            rng, N_DOCUMENTS // scale, max(2, N_SOURCES // scale)
        ),
    }
    for name, t in tables.items():
        pq.write_table(t, os.path.join(tmp, f"{name}.parquet"))


def tables_dir(seed: int) -> str:
    return _publish(
        os.path.join(inputs_dir(), f"seed-{seed}", "tables"),
        lambda tmp: _write_tables(tmp, seed, 1),
    )


def tables_warmup_dir(seed: int) -> str:
    return _publish(
        os.path.join(inputs_dir(), f"seed-{seed}", "tables-warmup"),
        lambda tmp: _write_tables(tmp, seed + WARMUP_SEED_OFFSET, WARMUP_SCALE),
    )


def prepare(seed: int) -> dict[str, str]:
    """Build (or find cached) every input of every workload and of the
    traced run's probes for ``seed``."""
    return {
        "pool": pool_dir(),
        "mixed": mixed_dir(seed),
        "mixed_warmup": mixed_warmup_dir(seed),
        "files": files_dir(seed),
        "hostile": hostile_dir(seed),
        "hostile_warmup": hostile_warmup_dir(seed),
        "tables": tables_dir(seed),
        "tables_warmup": tables_warmup_dir(seed),
    }
