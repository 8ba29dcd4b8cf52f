"""Text scalar functions (SURVEY.md §2.7) shared by the relational and
training-data operators.

``tokenize`` is the normative tokenizer for word-level operators (A3 top-k
words, token counting, shingling — the batch paths run its vectorized twin
``tokenize_arrow``): lowercase, split on runs of whitespace,
drop empties — chosen to be expressible 1:1 in DuckDB SQL
(``regexp_split_to_array(lower(text), '\\s+')`` + empty filter) so the
driver's oracle comparison is exact.

Whitespace is normatively RE2's ``\\s`` — the class ``[\\t\\n\\f\\r ]``
that pyarrow's ``split_pattern_regex`` AND DuckDB's
``regexp_split_to_array`` both use (both are RE2) — spelled out explicitly
here so the pure-Python path cannot drift to Python's wider Unicode
``\\s`` (U+00A0 etc.) and produce n_words counts that disagree with the
vectorized/oracle paths on the same document.

Lowercasing is normatively per code point, each code point mapped alone
to the first code point of its lowercase — what pyarrow's ``utf8_lower``
and DuckDB's ``lower`` do. Python's ``str.lower`` departs from that in
exactly two places, which ``tokenize`` maps first: the final-sigma rule
(``'ΣΑΣ'`` → ``'σας'``, not ``'σασ'``) and ``'İ'``, the one code point
whose lowercase is two code points.
"""

from __future__ import annotations

import hashlib
import re

_WS_RE = re.compile(r"[\t\n\f\r ]+")
_LOWER_ALONE = str.maketrans({"Σ": "σ", "İ": "i"})


def tokenize(text: str | None) -> list[str]:
    if not text:
        return []
    if "Σ" in text or "İ" in text:
        text = text.translate(_LOWER_ALONE)
    return [t for t in _WS_RE.split(text.lower()) if t]


def tokenize_arrow(col):
    """Vectorized ``tokenize`` for Arrow string arrays — the hot-path
    variant (pyarrow C++ kernels, no per-row Python): lower → trim →
    ``split_pattern_regex(\\s+)``.

    RE2's ``\\s`` is ``[\\t\\n\\f\\r ]`` — exactly what the DuckDB
    oracle's ``regexp_split_to_array`` uses AND what ``tokenize()``'s
    explicit class matches, and all three lower each code point alone
    (module docstring), so the three paths (Python, Arrow, SQL) tokenize
    identically — pinned by ``test_tokenize_python_matches_arrow`` and
    ``test_tokenize_lowers_like_duckdb``.

    Returns ``(token_lists, n_tokens)`` where ``n_tokens`` is int64 with
    null/empty/whitespace-only rows counted as 0 (token lists for those
    rows may contain a single empty string — filter it when flattening).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    # explicit RE2-\s character set (NOT utf8_trim_whitespace, which trims
    # wider Unicode whitespace and would diverge from tokenize()/SQL on
    # e.g. a leading U+00A0)
    trimmed = pc.utf8_trim(pc.utf8_lower(col), characters="\t\n\f\r ")
    toks = pc.split_pattern_regex(trimmed, pattern=r"\s+")
    n = pc.list_value_length(toks).cast(pa.int64())
    blank = pc.fill_null(pc.equal(trimmed, ""), True)
    n = pc.fill_null(pc.if_else(blank, pa.scalar(0, pa.int64()), n), 0)
    return toks, n


def content_type_split(content_type: str | None) -> tuple[str | None, str | None]:
    """Split 'text/plain; charset=UTF-8' → ('text/plain', 'UTF-8').
    Reference tests compare on split(';').first
    (/root/reference/spec/integration/web_url_processing_spec.rb:245)."""
    if content_type is None:
        return None, None
    parts = content_type.split(";", 1)
    media = parts[0].strip()
    charset = None
    if len(parts) > 1 and "charset=" in parts[1]:
        charset = parts[1].split("charset=", 1)[1].strip()
    return media, charset


def md5_hex(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def sha1_hex(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a — the cheap stable hash used for shingles/features."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def mix64(z):
    """splitmix64 finalizer over uint64 numpy arrays (wrapping arithmetic)
    — the engine's shared full-avalanche bijection."""
    import numpy as np

    z = np.asarray(z, dtype=np.uint64).copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def rolling_fingerprint(text: str, window: int = 16) -> int:
    """Document fingerprint: minimum over all ``window``-byte windows of a
    64-bit window hash (winnowing-style representative). The window hash
    is splitmix64 over the window's bytes packed as two little-endian
    uint64 words — fully vectorized (sliding_window_view + wrapping
    uint64 math), no per-byte Python. Deterministic; not SQL-expressible
    (rows-only driver check)."""
    import numpy as np

    if window % 8:
        raise ValueError("window must be a multiple of 8 (uint64 packing)")
    data = text.encode("utf-8", errors="replace")
    if len(data) < window:
        return fnv1a64(data)
    arr = np.frombuffer(data, dtype=np.uint8)
    w = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(arr, window)
    ).view(np.uint64)  # (n_windows, window // 8)
    h = mix64(w[:, 0])
    for c in range(1, w.shape[1]):
        h = mix64(h ^ w[:, c])
    return int(h.min())
