"""Loose-file / URL ingest into the web_pages table shape (operators
S1/S2, SURVEY.md §2.1).

File mode: ``read_binary_files(include_paths=True)`` → rename to the
fixed ``web_pages`` schema (path→url, bytes→html) so every downstream
stage sees one input shape regardless of origin (the Dataset analogue of
rika's one-abstraction data source, ``lib/rika/parser.rb:59-71``).

HTTP mode: not a hot-path concern at 10^12 scale (pages are pre-crawled
into Parquet); ``fetch_to_table`` exists for API parity, uses stdlib
urllib, and maps per-URL failures to error rows (``unknown_host`` /
``io_error`` — the reference's rescue taxonomy,
``lib/rika/cli/rika_command.rb:197-216``). In this sandbox there is no
network, so fetches surface as error rows rather than raising.
"""

from __future__ import annotations

from datetime import datetime

import pyarrow as pa
import ray.data

from rika_ray.pool import cluster_cpus
from rika_ray.schema import WEB_PAGES_SCHEMA

# warc_ts of every loose-file or fetched page (they carry no crawl time)
INGEST_EPOCH = datetime(2026, 1, 1)


def read_files_as_web_pages(paths: list[str]) -> ray.data.Dataset:
    """Local files → web_pages-shaped Dataset (url = file path), one read
    block per file up to one per cluster CPU: Ray's default count splits a
    few files into one-row blocks plus empty ones."""
    ds = ray.data.read_binary_files(
        paths, include_paths=True,
        override_num_blocks=min(len(paths), cluster_cpus()),
    )

    def _shape(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "url": batch["path"],
                "warc_ts": pa.array([INGEST_EPOCH] * n, pa.timestamp("us")),
                "html": batch["bytes"].cast(pa.large_binary()),
                "text": pa.array([None] * n, pa.string()),
                "lang": pa.array([None] * n, pa.string()),
            },
            schema=WEB_PAGES_SCHEMA,
        )

    return ds.map_batches(_shape, batch_format="pyarrow")


def fetch_to_table(urls: list[str], timeout: float = 10.0) -> pa.Table:
    """HTTP(S) URLs → web_pages-shaped Arrow table with per-URL error
    columns appended (never raises; failed fetches produce rows with
    ``html=None`` plus error_type/error_message).

    Failure mapping mirrors the reference's rescue taxonomy
    (``lib/rika/cli/rika_command.rb:197-216`` and the loopback-server
    expectations in ``spec/integration/web_url_processing_spec.rb``):
    redirects are followed (urllib's default opener, like Tika's client);
    4xx/5xx → ``io_error`` with the status code and URL in the message
    (the reference raises IOException matching /500|Server Error/);
    unresolvable hosts → ``unknown_host``; non-http(s) schemes →
    ``bad_url_scheme``; unparseable targets → ``invalid_url``."""
    import socket
    import urllib.error
    import urllib.parse
    import urllib.request

    rows = []
    for url in urls:
        body = None
        err_t = err_m = None
        try:
            parsed = urllib.parse.urlparse(url)
        except ValueError as e:
            parsed = None
            err_t, err_m = "invalid_url", f"{url}: {e}"
        if parsed is not None and parsed.scheme not in ("http", "https"):
            err_t, err_m = "bad_url_scheme", f"{url}: scheme {parsed.scheme!r}"
        elif parsed is not None and not parsed.netloc:
            err_t, err_m = "invalid_url", f"{url}: no host"
        if err_t is None:
            try:
                with urllib.request.urlopen(url, timeout=timeout) as resp:
                    body = resp.read()
            except urllib.error.HTTPError as e:
                # 4xx/5xx after redirects: status + URL, reference-style
                err_t, err_m = "io_error", f"{url}: HTTP {e.code} {e.reason}"
            except urllib.error.URLError as e:
                reason = getattr(e, "reason", e)
                if isinstance(reason, socket.gaierror):
                    err_t, err_m = "unknown_host", f"{url}: {reason}"
                else:
                    err_t, err_m = "io_error", f"{url}: {reason}"
            except (socket.timeout, OSError, ValueError) as e:
                err_t, err_m = "io_error", f"{url}: {e}"
        rows.append(
            {
                "url": url,
                "warc_ts": INGEST_EPOCH,
                "html": body,
                "text": None,
                "lang": None,
                "error_type": err_t,
                "error_message": err_m,
            }
        )
    schema = pa.schema(
        list(WEB_PAGES_SCHEMA)
        + [pa.field("error_type", pa.string()),
           pa.field("error_message", pa.string())]
    )
    return pa.Table.from_pylist(rows, schema=schema)
