"""Driver-style oracle checks: every queries() entry runs at sf0.001; those
with an oracle_sql() entry are compared to DuckDB column-by-column (sorted
by column name, order-insensitive rows) — mirroring CORRECTNESS_r{N}
semantics so mismatches surface here first (SURVEY.md §5.2 layer 6)."""

from __future__ import annotations

import math

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def _to_df(result) -> pd.DataFrame:
    import ray.data

    if isinstance(result, ray.data.Dataset):
        df = result.to_pandas()
        if df.empty and len(df.columns) == 0:
            # Ray quirk: to_pandas() on a 0-row dataset drops column
            # names — rebuild them from the (preserved) schema
            schema = result.schema()
            if schema is not None:
                df = pd.DataFrame(columns=list(schema.names))
        return df
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    # nested cells (lists/arrays) aren't sortable/hashable — sort on a
    # stringified shadow key instead
    sort_keys = []
    for col in list(df.columns):
        has_nested = df[col].map(
            lambda v: isinstance(v, (list, dict)) or hasattr(v, "dtype")
        ).any()
        if has_nested:
            df[f"__sort_{col}"] = df[col].astype(str)
            sort_keys.append(f"__sort_{col}")
        else:
            sort_keys.append(col)
    df = df.sort_values(sort_keys).reset_index(drop=True)
    return df[[c for c in df.columns if not c.startswith("__sort_")]]


def _compare(ray_df: pd.DataFrame, sql_df: pd.DataFrame, name: str):
    assert len(ray_df) == len(sql_df), (
        f"{name}: row count {len(ray_df)} != {len(sql_df)}"
    )
    assert sorted(ray_df.columns) == sorted(sql_df.columns), (
        f"{name}: columns {sorted(ray_df.columns)} != {sorted(sql_df.columns)}"
    )
    a, b = _canon(ray_df), _canon(sql_df)
    for col in a.columns:
        av, bv = a[col], b[col]
        if pd.api.types.is_float_dtype(av) or pd.api.types.is_float_dtype(bv):
            av_list, bv_list = av.tolist(), bv.tolist()
            for x, y in zip(av_list, bv_list):
                if pd.isna(x) and pd.isna(y):
                    continue
                assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-6), (
                    f"{name}.{col}: {x} != {y}"
                )
        else:
            mism = (av.astype(str) != bv.astype(str))
            assert not mism.any(), (
                f"{name}.{col}: first mismatch "
                f"{av[mism].iloc[0]!r} != {bv[mism].iloc[0]!r}"
            )


def _all_query_names():
    import __ray_entry__ as entrymod

    return sorted(entrymod.queries().keys())


@pytest.mark.parametrize("name", _all_query_names())
def test_query_runs_and_matches_oracle(ray_session, con, name):
    import __ray_entry__ as entrymod

    q = entrymod.queries()[name]
    oracles = entrymod.oracle_sql()
    golden_tier = {
        # these oracles are CHECKED-IN golden tables for the sf0.01 tier
        # (the tier the driver compares at) — validate against that tier
        # directly instead of the sf0.001 corpus this module uses
        "extract_content_hashes",
        "extract_media_tally",
        "extract_error_tally",
        "warc_media_tally",
        "image_features_decoded",
        "audio_features_decoded",
        "video_features_decoded",
        "lang_id",
        "doc_fingerprints_rolling",
    }
    if name in golden_tier:
        ray_df = _to_df(q("/root/testdata/sf0.01"))
        sql_df = con.execute(oracles[name]).fetchdf()
        _compare(ray_df, sql_df, name)
        return
    ray_df = _to_df(q(SF_DIR))
    assert ray_df is not None
    if name in oracles:
        sql_df = con.execute(oracles[name]).fetchdf()
        _compare(ray_df, sql_df, name)
    else:
        # rows-only: deterministic across two runs (stringified compare —
        # handles nested list/array cells)
        ray_df2 = _to_df(q(SF_DIR))
        a = _canon(ray_df).astype(str)
        b = _canon(ray_df2).astype(str)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_entry_smoke(ray_session):
    import __ray_entry__ as entrymod

    ds = entrymod.entry()
    df = _to_df(ds)
    assert len(df) > 0
    assert "url" in df.columns and "content" in df.columns
