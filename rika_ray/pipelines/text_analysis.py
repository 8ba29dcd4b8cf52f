"""Text-analysis operators for a large-scale training-data pipeline:
language ID, quality scoring, token counting, document fingerprinting
(task brief "Text analysis" block). All run over the driver ``documents``
table; token counting and md5 fingerprints carry exact DuckDB oracles,
model-driven ops (lang-id, quality) are rows-only checks.
"""

from __future__ import annotations

import string

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from rika_ray.functions.text import (
    md5_hex,
    rolling_fingerprint,
    tokenize,
    tokenize_arrow,
)


def _docs(sf_dir: str, columns):
    from rika_ray.sources.parquet import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


def doc_token_counts(sf_dir: str) -> ray.data.Dataset:
    """doc_id → n_words (whitespace tokenizer; oracle: regexp split).
    Counting stays in Arrow C++ (``tokenize_arrow``) — no per-row Python."""

    def _count(batch: pa.Table) -> pa.Table:
        _, n = tokenize_arrow(batch["text"])
        return pa.table({"doc_id": batch["doc_id"], "n_words": n})

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_count, batch_format="pyarrow", batch_size=2048)
        .sort("doc_id")
    )


def doc_fingerprints_md5(sf_dir: str) -> ray.data.Dataset:
    """Exact content fingerprint (md5 hex) — oracle: DuckDB md5()."""

    def _fp(batch: pa.Table) -> pa.Table:
        fps = [md5_hex(v.as_py()) for v in batch["text"]]
        return pa.table(
            {"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())}
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_fp, batch_format="pyarrow", batch_size=2048)
        .sort("doc_id")
    )


def doc_fingerprints_rolling(sf_dir: str) -> ray.data.Dataset:
    """Winnowing-style rolling-hash fingerprint (rows-only; not
    SQL-expressible)."""

    def _fp(batch: pa.Table) -> pa.Table:
        fps = [rolling_fingerprint(v.as_py()) for v in batch["text"]]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(fps, pa.uint64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_fp, batch_format="pyarrow", batch_size=2048)
        .sort("doc_id")
    )


_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that for "
    "with as on at by from not but".split()
)
_PUNCT = set(string.punctuation)
# C-speed single-pass character counters for ASCII text (the common case):
# count = len(text) - len(text.translate(delete_table))
_DEL_PUNCT = str.maketrans("", "", string.punctuation)
_DEL_NON_ALPHA_ASCII = str.maketrans(
    "", "", "".join(chr(c) for c in range(128) if not chr(c).isalpha())
)


# RE2 class for exactly string.punctuation (the four ASCII ranges
# 0x21-0x2F, 0x3A-0x40, 0x5B-0x60, 0x7B-0x7E)
_PUNCT_RE = r"[!-/:-@\[-\x60{-~]"
# RE2 \pL = Unicode categories Lu/Ll/Lt/Lm/Lo — the exact set Python's
# str.isalpha() counts
_ALPHA_RE = r"\pL"


class QualityScorer:
    """Per-batch stage: per-document quality features (length, punctuation
    ratio, stopword ratio, mean word length, alpha ratio) — the standard
    heuristic pre-filters for web-scale training corpora.

    Fully vectorized: tokenization/char counts run as pyarrow C++ kernels
    (``tokenize_arrow``, ``count_substring_regex``) and the per-document
    token reductions as ``np.bincount`` over list-parent indices — no
    per-row Python in ``__call__``. ``score_one`` is the scalar REFERENCE
    implementation; a differential test pins ``__call__`` to it."""

    def __init__(self) -> None:
        self.stopwords = _STOPWORDS
        self.punct = _PUNCT
        self._stop_arr = pa.array(sorted(_STOPWORDS), pa.string())

    def score_one(self, text: str) -> dict:
        # ratios stay RAW float64 (single divisions of integer counts):
        # the same IEEE division the DuckDB oracle computes, so values are
        # bit-identical across engines — rounding would only add banker's-
        # vs-half-away tie mismatches at the cut digit
        toks = tokenize(text)
        n_words = len(toks)
        n_chars = len(text)
        n_stop = sum(1 for t in toks if t in self.stopwords)
        if text.isascii():
            # single C pass per feature; identical counts to the per-char
            # loops below (punctuation is ASCII-only by definition)
            n_punct = n_chars - len(text.translate(_DEL_PUNCT))
            n_alpha = len(text.translate(_DEL_NON_ALPHA_ASCII))
        else:
            # exact Unicode isalpha semantics for non-ASCII text
            n_punct = sum(1 for ch in text if ch in self.punct)
            n_alpha = sum(1 for ch in text if ch.isalpha())
        return {
            "n_chars": n_chars,
            "n_words": n_words,
            "stopword_ratio": n_stop / n_words if n_words else 0.0,
            "punct_ratio": n_punct / n_chars if n_chars else 0.0,
            "alpha_ratio": n_alpha / n_chars if n_chars else 0.0,
            "mean_word_len": (
                sum(len(t) for t in toks) / n_words if n_words else 0.0
            ),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        n = len(batch)
        text = pc.fill_null(batch["text"].combine_chunks(), "")
        n_chars = pc.utf8_length(text).cast(pa.int64()).to_numpy()
        toks, n_words_arr = tokenize_arrow(text)
        nw = n_words_arr.to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        # blank rows tokenize to [""]: zero length, never a stopword —
        # contributes nothing to either reduction, and nw is already 0
        tok_len = pc.utf8_length(flat).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        sum_len = np.bincount(parent, weights=tok_len, minlength=n)
        stop_mask = pc.is_in(flat, value_set=self._stop_arr).to_numpy(
            zero_copy_only=False
        )
        n_stop = np.bincount(parent[stop_mask], minlength=n)
        n_punct = (
            pc.count_substring_regex(text, _PUNCT_RE)
            .cast(pa.int64())
            .to_numpy()
        )
        n_alpha = (
            pc.count_substring_regex(text, _ALPHA_RE)
            .cast(pa.int64())
            .to_numpy()
        )
        # integer operands are exact in float64 (≤2^53), so these divisions
        # are bit-identical to score_one()'s int/int divisions
        nw_safe = np.maximum(nw, 1)
        nch_safe = np.maximum(n_chars, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_words": pa.array(nw, pa.int64()),
                "stopword_ratio": pa.array(
                    np.where(nw > 0, n_stop / nw_safe, 0.0), pa.float64()
                ),
                "punct_ratio": pa.array(
                    np.where(n_chars > 0, n_punct / nch_safe, 0.0),
                    pa.float64(),
                ),
                "alpha_ratio": pa.array(
                    np.where(n_chars > 0, n_alpha / nch_safe, 0.0),
                    pa.float64(),
                ),
                "mean_word_len": pa.array(
                    np.where(nw > 0, sum_len / nw_safe, 0.0), pa.float64()
                ),
            }
        )


def quality_scores(sf_dir: str) -> ray.data.Dataset:
    scorer = QualityScorer()

    def _scores(batch: pa.Table) -> pa.Table:
        return scorer(batch)

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_scores, batch_format="pyarrow", batch_size=1024)
        .sort("doc_id")
    )


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """Detected language per document via the engine's n-gram detector (T1
    applied as a standalone operator; rows-only — model-driven)."""
    from rika_ray.stages.lang import LangDetectStage

    detector = LangDetectStage()

    def _detect(batch: pa.Table) -> pa.Table:
        out = detector(pa.table({"doc_id": batch["doc_id"], "content": batch["text"]}))
        return out.select(["doc_id", "language"])

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_detect, batch_format="pyarrow", batch_size=1024)
        .sort("doc_id")
    )


def quality_filter(sf_dir: str, min_words: int = 50) -> ray.data.Dataset:
    """The composed 'keep good documents' pre-filter: token-count gate
    (SQL-expressible part only, so it carries an oracle)."""

    def _count(batch: pa.Table) -> pa.Table:
        _, n = tokenize_arrow(batch["text"])
        t = batch.append_column("n_words", n)
        return t.filter(pc.greater_equal(t["n_words"], min_words))

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_count, batch_format="pyarrow", batch_size=2048)
        .select_columns(["doc_id", "n_words"])
        .sort("doc_id")
    )
