"""Dedup operators on a corpus with PLANTED duplicates — proves the
operators actually find near-dups (the driver documents table is
dup-free, so oracle runs only prove plumbing)."""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rika_ray.pipelines.dedup import (
    dedup_exact_survivors,
    embedding_neardup_pairs,
    minhash_lsh_pairs,
    shingle_simhash64_batch,
    verify_jaccard_pairs,
)

WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu "
    "xi omicron pi rho sigma tau upsilon phi chi psi omega river bridge "
    "stone light water morning path house door step year"
).split()


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    rng = random.Random(7)
    texts = []
    for _ in range(20):
        texts.append(" ".join(rng.choice(WORDS) for _ in range(60)))
    # doc 20: near-dup of doc 0 (one word changed)
    toks = texts[0].split()
    toks[30] = "changedword"
    texts.append(" ".join(toks))
    # doc 21: exact dup of doc 2
    texts.append(texts[2])
    # doc 22: near-dup of doc 1 (two words changed)
    toks = texts[1].split()
    toks[5], toks[40] = "xx", "yy"
    texts.append(" ".join(toks))

    d = tmp_path_factory.mktemp("planted")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )

    # embeddings: 30 random vectors + one near-copy of vector 0
    rng_np = np.random.RandomState(7)
    vecs = rng_np.standard_normal((30, 16)).astype(np.float32)
    near = vecs[0] + rng_np.standard_normal(16).astype(np.float32) * 0.01
    vecs = np.vstack([vecs, near[None, :]])
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    return str(d)


def test_minhash_finds_planted_neardups(ray_session, planted_dir):
    pairs = {
        (r["doc_a"], r["doc_b"]): r["est_jaccard"]
        for r in minhash_lsh_pairs(planted_dir, threshold=0.5).take_all()
    }
    assert (0, 20) in pairs  # one-word edit
    assert (2, 21) in pairs and pairs[(2, 21)] == 1.0  # exact dup
    assert (1, 22) in pairs  # two-word edit
    # no spurious high-estimate pairs between unrelated random docs
    for (a, b), j in pairs.items():
        if (a, b) not in {(0, 20), (2, 21), (1, 22)}:
            assert j < 0.9, ((a, b), j)


def test_verified_jaccard_exact_values(ray_session, planted_dir):
    got = {
        (r["doc_a"], r["doc_b"]): r["jaccard"]
        for r in verify_jaccard_pairs(planted_dir, threshold=0.5).take_all()
    }
    assert got[(2, 21)] == 1.0
    assert 0.8 < got[(0, 20)] < 1.0  # 3 shingles of 58 affected


def test_exact_dedup_removes_only_exact(ray_session, planted_dir):
    survivors = [r["doc_id"] for r in dedup_exact_survivors(planted_dir).take_all()]
    assert 21 not in survivors  # exact dup of 2 removed
    assert 2 in survivors
    assert 20 in survivors and 22 in survivors  # near-dups kept (exact op)
    assert len(survivors) == 22


def test_simhash_distance_ranks_neardups():
    a = "the quick brown fox jumps over the lazy dog near the old bridge"
    b = a.replace("lazy", "sleepy")
    c = "completely different words about gardens vegetables and sunshine today"
    ha, hb, hc = (int(h) for h in shingle_simhash64_batch([a, b, c]))
    d_ab = bin(ha ^ hb).count("1")
    d_ac = bin(ha ^ hc).count("1")
    assert d_ab < d_ac
    assert int(shingle_simhash64_batch([a])[0]) == ha  # deterministic


def test_embedding_neardup_finds_planted_pair(ray_session, planted_dir):
    pairs = embedding_neardup_pairs(planted_dir, threshold=0.95).take_all()
    assert any(
        (r["vec_a"], r["vec_b"]) == (0, 30) and r["cosine"] > 0.99
        for r in pairs
    )


def test_lsh_matches_exact_neardups(ray_session, planted_dir):
    """The LSH near-dup path agrees with the exact all-pairs baseline at
    its 0.95 threshold on the planted corpus — the recall confirmation the
    driver testdata (0 true pairs ≥ 0.9) cannot give."""
    from rika_ray.pipelines.dedup import embedding_neardup_exact

    lsh = {
        (r["vec_a"], r["vec_b"])
        for r in embedding_neardup_pairs(planted_dir, threshold=0.95).take_all()
    }
    exact = {
        (r["vec_a"], r["vec_b"])
        for r in embedding_neardup_exact(planted_dir, threshold=0.95).take_all()
    }
    assert (0, 30) in exact
    assert lsh == exact


def test_capped_bucket_pairs_bounds_degenerate_bucket():
    """A bucket of IDENTICAL vectors (no hyperplane can split it) must
    fall back to id-order chunks of ``cap`` — bounded quadratic work —
    instead of one O(n²) matmul. With n=1000, cap=100: 10 chunks ×
    C(100,2) pairs each."""
    from rika_ray.pipelines.dedup import _capped_bucket_pairs

    n, cap = 1000, 100
    unit = np.tile(np.ones(8) / np.sqrt(8), (n, 1))
    ids = np.arange(n)
    frames = _capped_bucket_pairs(ids, unit, 0.9, cap, seed=42)
    total = sum(len(f) for f in frames)
    assert total == (n // cap) * (cap * (cap - 1) // 2)
    for f in frames:
        assert (f["cosine"] >= 0.9).all()
        assert (f["vec_a"] < f["vec_b"]).all()


def test_capped_bucket_pairs_splits_keep_neardups():
    """Splittable oversized buckets sub-split by hyperplanes and still
    find a planted near-identical pair."""
    from rika_ray.pipelines.dedup import _capped_bucket_pairs

    rng = np.random.RandomState(3)
    vecs = rng.standard_normal((500, 16))
    vecs[499] = vecs[0] + rng.standard_normal(16) * 0.001
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    frames = _capped_bucket_pairs(np.arange(500), unit, 0.99, 64, seed=42)
    pairs = {
        (a, b) for f in frames for a, b in zip(f["vec_a"], f["vec_b"])
    }
    assert (0, 499) in pairs


def test_embedding_neardup_degenerate_bucket_completes(
    ray_session, tmp_path
):
    """300 identical vectors all land in ONE LSH bucket; with
    bucket_cap=64 the pipeline must complete (bounded per-group work)
    and still report the planted near-dup among the distinct vectors."""
    rng = np.random.RandomState(11)
    base = rng.standard_normal(16).astype(np.float32)
    degenerate = np.tile(base, (300, 1))
    distinct = rng.standard_normal((20, 16)).astype(np.float32)
    near = distinct[0] + rng.standard_normal(16).astype(np.float32) * 0.01
    vecs = np.vstack([degenerate, distinct, near[None, :]])
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    pairs = embedding_neardup_pairs(
        str(tmp_path), threshold=0.95, bucket_cap=64
    ).take_all()
    got = {(r["vec_a"], r["vec_b"]) for r in pairs}
    assert (300, 320) in got  # planted near-dup of distinct[0]
    # identical vectors pair within their chunks (cosine 1.0)
    assert any(a < 300 and b < 300 for a, b in got)


def test_driver_testdata_has_no_neardups_at_09(ray_session):
    """Confirms the 0-row result of embedding_neardup_pairs on the driver
    testdata is genuinely correct: the exact baseline finds nothing ≥ 0.9
    either (max cosine in the data is ~0.51)."""
    from rika_ray.pipelines.dedup import embedding_neardup_exact

    sf = "/root/testdata/sf0.001"
    exact = embedding_neardup_exact(sf, threshold=0.9).take_all()
    lsh = embedding_neardup_pairs(sf, threshold=0.9).take_all()
    assert exact == [] and lsh == []


def test_neardup_clusters_chain_transitivity(ray_session, tmp_path_factory):
    """Cluster formation follows TRANSITIVE near-dup links: a—b and b—c
    edges put a, b, c in ONE cluster labeled min(a) even when a—c itself
    is below the pair threshold (the chain shape label propagation must
    walk), while an unrelated dup pair keeps its own cluster."""
    from rika_ray.pipelines.dedup import neardup_clusters

    rng = random.Random(13)
    base = [" ".join(rng.choice(WORDS) for _ in range(80)) for _ in range(6)]
    texts = list(base)

    def _mutate(text: str, positions: list[int]) -> str:
        toks = text.split()
        for i, p in enumerate(positions):
            toks[p] = f"mut{p}_{i}"
        return " ".join(toks)

    # chain: 6 = near-dup of 0; 7 = near-dup of 6 with DIFFERENT extra
    # mutations so jaccard(0,7) < jaccard(0,6) (still linked via 6)
    texts.append(_mutate(base[0], [10]))              # doc 6 ~ doc 0
    texts.append(_mutate(texts[6], [30, 50, 70]))     # doc 7 ~ doc 6
    # separate pair: 8 = near-dup of 3
    texts.append(_mutate(base[3], [20]))              # doc 8 ~ doc 3

    d = tmp_path_factory.mktemp("clusters")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    rows = {
        r["doc_id"]: r["cluster_id"]
        for r in neardup_clusters(str(d)).take_all()
    }
    assert rows[0] == rows[6] == rows[7] == 0  # chain collapses to min id
    assert rows[3] == rows[8] == 3
    assert set(rows) == {0, 3, 6, 7, 8}  # singles don't appear


def test_neardup_clusters_at_32_cpus(planted_dir):
    """Regression for the round-3 driver crash: ``neardup_clusters`` at
    ``num_cpus=32`` (the driver's config). Unclamped join partition counts
    exceeded the tiny label-table row count, empty right-side partitions
    lost their schema, and Ray's hash-shuffle join finalize raised
    ``ArrowInvalid: No match … FieldRef.Name(lnode)`` — only at 32 CPUs;
    8 passed. Runs in a SUBPROCESS because the session fixture pins 4."""
    import json
    import subprocess
    import sys

    script = (
        "import ray, json\n"
        "ray.init(address='local', num_cpus=32, include_dashboard=False,\n"
        "         logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "from rika_ray.pipelines.dedup import neardup_clusters\n"
        f"rows = neardup_clusters({str(planted_dir)!r}).take_all()\n"
        "print('RESULT:' + json.dumps(sorted((r['doc_id'], r['cluster_id'])"
        " for r in rows)))\n"
        "ray.shutdown()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=600,
        cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [l for l in proc.stdout.splitlines() if l.startswith("RESULT:")]
    assert line, proc.stdout[-2000:]
    got = {tuple(p) for p in json.loads(line[0][len("RESULT:"):])}
    # planted: 20 ~ 0, 21 == 2, 22 ~ 1 → three 2-doc clusters labeled by min
    assert got == {(0, 0), (20, 0), (1, 1), (22, 1), (2, 2), (21, 2)}


def test_popcount64_matches_python():
    import numpy as np

    from rika_ray.pipelines.dedup import _popcount64

    rng = np.random.RandomState(3)
    xs = rng.randint(0, 2**63, size=200, dtype=np.uint64)
    xs[:3] = [0, 1, 0xFFFFFFFFFFFFFFFF]
    got = _popcount64(xs.copy())
    exp = np.array([bin(int(v)).count("1") for v in xs], dtype=np.uint64)
    assert (got == exp).all()


@pytest.mark.parametrize("oracle_features", [False, True])
def test_simhash_neardup_pairs_planted(
    ray_session, planted_dir, oracle_features
):
    """Banding must return exactly the brute-force hamming-≤-3 set over
    the signatures (pigeonhole completeness), and the planted exact dup
    (hamming 0) must be in it — in BOTH feature-hash modes: the MD5
    oracle path and the vectorized production path must have the same
    near-dup geometry."""
    import numpy as np
    import pyarrow.parquet as pq

    from rika_ray.pipelines.dedup import (
        _md5_shingle_simhash64,
        _popcount64,
        shingle_simhash64_batch,
        simhash_neardup_pairs,
    )

    got = {
        (r["doc_a"], r["doc_b"]): r["hamming"]
        for r in simhash_neardup_pairs(
            planted_dir, oracle_features=oracle_features
        ).take_all()
    }
    assert got[(2, 21)] == 0  # exact dup: identical signature
    t = pq.read_table(planted_dir + "/documents.parquet")
    ids = t["doc_id"].to_pylist()
    sig_fn = (
        _md5_shingle_simhash64 if oracle_features else shingle_simhash64_batch
    )
    sims = sig_fn(t["text"].to_pylist())
    exp = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            h = int(_popcount64(np.array([sims[i] ^ sims[j]]))[0])
            if h <= 3:
                a, b = sorted((ids[i], ids[j]))
                exp[(a, b)] = h
    assert got == exp


@pytest.mark.parametrize("texts", [[], ["red green blue", "one two three four", "x"]])
def test_pair_operators_without_pairs_keep_their_columns(ray_session, tmp_path, texts):
    """An empty corpus and one without near-dups: every pair operator
    returns zero rows under its own columns."""
    from rika_ray.pipelines.dedup import neardup_clusters, simhash_neardup_pairs

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    for fn, cols in [
        (minhash_lsh_pairs, ["doc_a", "doc_b", "est_jaccard"]),
        (verify_jaccard_pairs, ["doc_a", "doc_b", "jaccard"]),
        (neardup_clusters, ["doc_id", "cluster_id"]),
        (simhash_neardup_pairs, ["doc_a", "doc_b", "hamming"]),
    ]:
        out = fn(str(tmp_path))
        assert out.count() == 0, fn.__name__
        assert out.schema().names == cols, fn.__name__


# ---------------------------------------------------------------------------
# The batch shingler against a per-document reference
# ---------------------------------------------------------------------------

EDGE_TEXTS = [
    None,
    "",
    "   ",
    "\t\n \r\f",
    "one",
    "Two  words",
    "a b c a b c a b c",  # repeated shingles
    "x y z x y z",
    "a b c d",  # U+00A0 is not a separator
    "  lead\ttab\nnew\r\nline  \f end ",
    "ΣΑΣ İ ΣΑΣ İ",
]


def _ref_shingles(text):
    """The per-document shingle loop the batch shingler replaced."""
    from rika_ray.functions.text import tokenize
    from rika_ray.pipelines.dedup import SHINGLE_K

    toks = tokenize(text or "")
    if len(toks) < SHINGLE_K:
        return [" ".join(toks)]
    return [
        " ".join(toks[i : i + SHINGLE_K])
        for i in range(len(toks) - SHINGLE_K + 1)
    ]


def _ref_votes(h):
    bits = np.unpackbits(
        h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    votes = bits.sum(axis=0).astype(np.int64) * 2 - len(h)
    sim = np.packbits((votes > 0).astype(np.uint8), bitorder="little")
    return int(sim.view(np.uint64)[0])


def _ref_features(text, keys):
    """(signature, blob, simhash, md5 simhash) of one text, per document."""
    import hashlib

    import pandas as pd

    from rika_ray.functions.text import mix64

    shingles = _ref_shingles(text)
    h = pd.util.hash_array(np.asarray(shingles, dtype=object))
    h32 = h & np.uint64(0xFFFFFFFF)
    sig = mix64(h32[None, :] ^ keys[:, None]).min(axis=1)
    distinct = sorted(set(shingles))
    sim = _ref_votes(pd.util.hash_array(np.asarray(distinct, dtype=object)))
    md5 = _ref_votes(
        np.frombuffer(
            b"".join(
                hashlib.md5(s.encode("utf-8")).digest()[8:16] for s in distinct
            ),
            dtype="<u8",
        )
    )
    return sig, np.unique(h32).astype("<u4").tobytes(), sim, md5


def _batch_features(texts):
    from rika_ray.pipelines.dedup import (
        MinHashSigStage,
        _md5_shingle_simhash64,
        _unpack_sigs,
        shingle_simhash64_batch,
    )

    col = pa.array(texts, pa.string())
    ids = pa.array(range(len(texts)), pa.int64())
    out = MinHashSigStage()(pa.table({"doc_id": ids, "text": col}))
    return (
        _unpack_sigs(out["sig"]),
        out["shingles"].to_pylist(),
        shingle_simhash64_batch(col),
        _md5_shingle_simhash64(col),
    )


@pytest.mark.parametrize("corpus", ["edge", "planted"])
def test_shingler_matches_per_document_reference(planted_dir, corpus):
    """Signatures, Jaccard blobs and both SimHash variants from the batch
    shingler are bit-identical to the per-document shingle loop."""
    from rika_ray.pipelines.dedup import MinHashSigStage

    texts = (
        EDGE_TEXTS
        if corpus == "edge"
        else pq.read_table(planted_dir + "/documents.parquet")["text"].to_pylist()
    )
    sigs, blobs, sims, md5s = _batch_features(texts)
    keys = MinHashSigStage().keys
    for i, text in enumerate(texts):
        sig, blob, sim, md5 = _ref_features(text, keys)
        assert np.array_equal(sigs[i], sig), repr(text)
        assert blobs[i] == blob, repr(text)
        assert int(sims[i]) == sim, repr(text)
        assert int(md5s[i]) == md5, repr(text)


def test_shingler_values_do_not_depend_on_batch_neighbours(planted_dir):
    """A document's features are the same alone, in a batch, and in a
    slice of a larger table (non-zero Arrow offsets)."""
    from rika_ray.pipelines.dedup import MinHashSigStage, _unpack_sigs

    planted = pq.read_table(planted_dir + "/documents.parquet")["text"]
    texts = EDGE_TEXTS + planted.to_pylist()[:6]
    together = _batch_features(texts)
    for i, text in enumerate(texts):
        alone = _batch_features([text])
        assert np.array_equal(together[0][i], alone[0][0]), repr(text)
        assert together[1][i] == alone[1][0], repr(text)
        assert together[2][i] == alone[2][0], repr(text)
        assert together[3][i] == alone[3][0], repr(text)
    table = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    stage = MinHashSigStage()
    for start in (1, 5, len(texts) - 2):
        want_sigs = together[0][start : start + 2]
        out = stage(table.slice(start, 2))
        assert np.array_equal(_unpack_sigs(out["sig"]), want_sigs)
        assert out["shingles"].to_pylist() == together[1][start : start + 2]
        sliced = stage(table)["sig"].combine_chunks().slice(start, 2)
        assert np.array_equal(_unpack_sigs(sliced), want_sigs)
