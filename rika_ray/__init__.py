"""rika_ray — a Ray-Data-native document/content-extraction engine.

A brand-new engine with the query and data-processing capabilities of the
``keithrbennett/rika`` reference (a JRuby wrapper around Apache Tika), built
from scratch on ``ray.data.Dataset`` pipelines over zero-copy Arrow batches.

Reference surface recreated here (see SURVEY.md for the full inventory):

- MIME/content-type sniffing from magic bytes (reference: Tika
  ``DefaultDetector`` wired at ``lib/rika.rb:45``).
- Charset detection + text decode (reference: Tika-internal; observable in
  ``spec/rika/parser_spec.rb:225-227``).
- HTML main-content extraction (Boilerpipe-style density classifier; the
  north-rule upgrade of Tika's body-text extraction).
- PDF layout parsing into ordered text spans (reference: Tika PDFParser,
  goldens at ``spec/rika/parser_spec.rb:157-170``).
- Language detection from extracted content (reference:
  ``lib/rika.rb:58-61``).
- Metadata extraction/enrichment/key-sort, content truncation, typed
  error-as-data accumulation (reference: ``lib/rika/parser.rb:26-54``,
  ``lib/rika/cli/rika_command.rb:94-123,197-216``).

Plus the large-scale training-data operators a 100 TB corpus pipeline needs:
exact/MinHash-LSH/SimHash/embedding dedup, ANN similarity search, text
quality scoring, token counting, fingerprinting, and multimodal plumbing.

Ray sessions are owned by the caller (driver, bench.py, test fixture);
only the CLI entry point starts one. No library module starts or stops
Ray, and the ``shortcuts`` helpers need none.
"""

from rika_ray.schema import EXTRACTED_SCHEMA, WEB_PAGES_SCHEMA


def _stub_fsspec_http() -> None:
    """Make ``from fsspec.implementations.http import HTTPFileSystem`` stable
    under concurrent Dataset executions when ``aiohttp`` is absent.

    Ray's path resolution re-attempts that import on every read/write and
    catches only ``ModuleNotFoundError``; when two driver threads race the
    failing import (fsspec present, aiohttp missing), the loser can see the
    half-torn-down module and raise plain ``ImportError`` ("cannot import
    name 'HTTPFileSystem'"), which escapes Ray's guard and kills an
    otherwise-local read. Installing a stub module once makes every later
    import a plain ``sys.modules`` cache hit — deterministic and race-free.
    The stub class is only ever used in ``isinstance`` checks (always False
    for local/Arrow filesystems) and refuses construction loudly."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

        return  # aiohttp available: real class, nothing to do
    except ModuleNotFoundError:
        pass
    except ImportError:
        return  # fsspec itself absent or torn: nothing safe to stub
    import sys
    import types

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # pragma: no cover — isinstance-only stub
        protocol = ("http", "https")

        def __init__(self, *args, **kwargs):
            raise ImportError(
                "fsspec HTTPFileSystem requires aiohttp, which is not "
                "installed in this environment"
            )

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules.setdefault("fsspec.implementations.http", mod)


_stub_fsspec_http()

__version__ = "0.1.0"

__all__ = ["WEB_PAGES_SCHEMA", "EXTRACTED_SCHEMA", "__version__"]
