"""REPL helper shortcuts (SURVEY.md §2.9; analogue of the reference's
``rika_helper.rb:18-31`` aliases ``pa``/``c``/``m``...).

Convenience one-liners for interactive sessions::

    >>> from rika_ray.shortcuts import parse, content, metadata, language
    >>> parse("doc.pdf")["content"]

Each helper runs the pipeline's fused kernel (``FusedExtractStage``) in
process on a single local file or URL and returns plain Python values —
the same row the Ray pipeline produces for that document. No Ray session
is started or needed; the kernel is the pipeline's own per-process cache
(``pipelines.extraction.kernel``), built once per config."""

from __future__ import annotations

from typing import Any


def parse(target: str, **cfg_kwargs) -> dict[str, Any]:
    """Parse one file/URL → the extracted row as a dict (the ParseResult
    analogue, ``lib/rika/parse_result.rb:5-15``). ``cfg_kwargs`` are
    ``ExtractionConfig`` fields; the url column is ``target`` as given."""
    import pyarrow as pa

    from rika_ray.pipelines.extraction import ExtractionConfig, kernel
    from rika_ray.schema import WEB_PAGES_SCHEMA
    from rika_ray.sources.ingest import INGEST_EPOCH, fetch_to_table

    cfg = ExtractionConfig(**cfg_kwargs)
    if target.startswith(("http://", "https://")):
        tbl = fetch_to_table([target])
        err = tbl.column("error_type")[0].as_py()
        if err is not None:
            raise OSError(
                f"{err}: {tbl.column('error_message')[0].as_py()}"
            )
        page = tbl.drop_columns(["error_type", "error_message"])
    else:
        with open(target, "rb") as f:
            body = f.read()
        page = pa.Table.from_pylist(
            [{"url": target, "warc_ts": INGEST_EPOCH, "html": body,
              "text": None, "lang": None}],
            schema=WEB_PAGES_SCHEMA,
        )
    fused = kernel(cfg.max_content_length, cfg.key_sort, cfg.detector)
    return fused(page).to_pylist()[0]


def content(target: str) -> str | None:
    """Alias ``c``: extracted text only (Rika.parse(...).content)."""
    return parse(target)["content"]


def metadata(target: str) -> dict[str, str]:
    """Alias ``m``: metadata hash only."""
    return {p["key"]: p["value"] for p in parse(target)["metadata"] or []}


def language(target: str) -> str | None:
    return parse(target)["language"]


def content_type(target: str) -> str | None:
    return parse(target)["content_type"]


# the reference's terse aliases
c = content
m = metadata
lang = language
ct = content_type
