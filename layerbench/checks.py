"""Output checks that do not rely on the program's own results.

Each check takes the program's output and an independent expectation and
returns a list of problems (empty when the output is correct):

* extraction outputs are compared per url with the generator's
  ``expected_extractions`` table (content md5, media_type, error_type, and
  language where the expected text is long enough to be unambiguous);
* hostile outputs are checked for their stated properties;
* relational results are compared with DuckDB running the query's
  ``oracle_sql()`` text over the same Parquet files.
"""

from __future__ import annotations

import hashlib
from collections import Counter

# Language is compared only where the expected content holds at least this
# many characters (after stripping). Shorter texts are ambiguous: the
# generator labels a 13-23 character Visio shape text "en" while the
# detector, rightly unsure, returns null.
LANG_MIN_CHARS = 32

MAX_REPORTED = 5


def _md5(text: str | None) -> str | None:
    return None if text is None else hashlib.md5(text.encode("utf-8")).hexdigest()


def _summary(problems: list[str]) -> list[str]:
    if len(problems) > MAX_REPORTED:
        return problems[:MAX_REPORTED] + [f"... {len(problems) - MAX_REPORTED} more"]
    return problems


def compare_extractions(rows: list[dict], expected: list[dict]) -> list[str]:
    """``rows``: program output rows keyed by ``url``; ``expected``: the
    generator's expected_extractions rows for the same inputs."""
    problems: list[str] = []
    exp_by_url = {e["url"]: e for e in expected}
    got_urls = Counter(r["url"] for r in rows)
    exp_urls = Counter(e["url"] for e in expected)
    if got_urls != exp_urls:
        missing = exp_urls - got_urls
        extra = got_urls - exp_urls
        problems.append(
            f"url multiset differs: {sum(missing.values())} missing, "
            f"{sum(extra.values())} unexpected (e.g. "
            f"{next(iter(missing or extra))})"
        )
    for r in rows:
        e = exp_by_url.get(r["url"])
        if e is None:
            continue
        for field in ("media_type", "error_type"):
            if r[field] != e[field]:
                problems.append(
                    f"{r['url']}: {field} {r[field]!r} != expected {e[field]!r}"
                )
        if _md5(r["content"]) != _md5(e["content"]):
            problems.append(f"{r['url']}: content md5 differs from expected")
        expected_text = (e["content"] or "").strip()
        if (
            len(expected_text) >= LANG_MIN_CHARS
            and r["language"] != e["language"]
        ):
            problems.append(
                f"{r['url']}: language {r['language']!r} != "
                f"expected {e['language']!r}"
            )
    return _summary(problems)


def check_hostile(rows: list[dict], input_urls: list[str], error_types) -> list[str]:
    """One output row per input url; each row has content or a typed error
    from the engine's taxonomy."""
    problems: list[str] = []
    got = Counter(r["url"] for r in rows)
    want = Counter(input_urls)
    if got != want:
        problems.append(
            f"{sum((want - got).values())} input urls without an output row, "
            f"{sum((got - want).values())} output rows without an input url"
        )
    for r in rows:
        err = r["error_type"]
        if err is None and r["content"] is None:
            problems.append(f"{r['url']}: neither content nor error_type")
        elif err is not None and err not in error_types:
            problems.append(f"{r['url']}: error_type {err!r} not in taxonomy")
    return _summary(problems)


def compare_frames(got, expected) -> list[str]:
    """The same comparison ``tools/oracle_check.py`` makes: row count,
    column names, dtypes and exact values with columns in name order."""
    import pandas.testing as pdt

    got = got.reset_index(drop=True)
    expected = expected.reset_index(drop=True)
    if len(got) != len(expected):
        return [f"rows {len(got)} != {len(expected)}"]
    if sorted(got.columns) != sorted(expected.columns):
        return [f"columns {sorted(got.columns)} != {sorted(expected.columns)}"]
    g = got[sorted(got.columns)]
    e = expected[sorted(expected.columns)]
    problems = [
        f"dtype[{c}] {g[c].dtype} != {e[c].dtype}"
        for c in g.columns
        if str(g[c].dtype) != str(e[c].dtype)
    ]
    try:
        pdt.assert_frame_equal(g, e, check_dtype=False, check_exact=True)
    except AssertionError as exc:
        problems.append(f"values: {str(exc)[:200]}")
    return problems


def oracle_frames(tables_dir: str, names: list[str]) -> dict:
    """Run each query's ``oracle_sql()`` text with DuckDB over the tables."""
    import duckdb

    import __ray_entry__

    sql = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    try:
        for t in ("lineitem", "events", "documents"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{tables_dir}/{t}.parquet')"
            )
        return {n: con.execute(sql[n]).df() for n in names}
    finally:
        con.close()
