"""Regenerate the checked-in golden table for the ``doc_fingerprints_rolling``
driver oracle.

The table is (doc_id, fingerprint) over the driver-fixed ``documents`` table
at the sf0.01 tier. Unlike the lang-ID golden it is not the engine's own
output: every fingerprint is recomputed here window by window in plain
Python integers from the definition — the minimum, over every 16-byte window
of the UTF-8 text, of splitmix64 chained over the window's two
little-endian 64-bit words; FNV-1a 64 of the whole text when it is shorter
than one window — so the oracle checks the engine's vectorized kernel
(``rika_ray.functions.text.rolling_fingerprint``).

The input file's md5 is recorded in the table metadata;
``tests/test_golden_hashes.py`` checks it and compares the engine's
fingerprints with the table.

Usage: python tools/gen_golden_rolling.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pyarrow as pa
import pyarrow.parquet as pq

from gen_golden_lang import DOCS, docs_md5

OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "rika_ray",
    "data",
    "golden_rolling_fingerprint_sf0.01.parquet",
)
WINDOW = 16
M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & M64
    return h


def fingerprint(text: str) -> int:
    data = text.encode("utf-8", errors="replace")
    if len(data) < WINDOW:
        return _fnv1a64(data)
    best = M64
    for i in range(len(data) - WINDOW + 1):
        lo = int.from_bytes(data[i : i + 8], "little")
        hi = int.from_bytes(data[i + 8 : i + 16], "little")
        best = min(best, _splitmix64(_splitmix64(lo) ^ hi))
    return best


def golden_table(path: str = DOCS) -> pa.Table:
    docs = pq.read_table(path, columns=["doc_id", "text"]).sort_by("doc_id")
    fps = [fingerprint(t or "") for t in docs["text"].to_pylist()]
    return pa.table(
        {"doc_id": docs["doc_id"], "fingerprint": pa.array(fps, pa.uint64())}
    )


def main() -> None:
    t = golden_table()
    t = t.replace_schema_metadata({"docs_md5": docs_md5()})
    pq.write_table(t, OUT)
    print(f"wrote {OUT}: {t.num_rows} rows")


if __name__ == "__main__":
    main()
