"""Per-document extraction router (operators M3-M8, SURVEY.md §2.2/§3.4).

One `map_batches` pass with per-type sub-kernels (branch on the sniffed
``media_type`` per row) rather than N filtered sub-pipelines — this keeps a
single scan over the corpus (SURVEY.md §3.4 "Mixed-format routing").

The kernels sit in module-level tables keyed by media type, one table per
input shape (the analogue of Tika's parser registry):

- ``_TEXT_KERNELS``: decoded text → ``(content, spans, meta)``; the router
  decodes the bytes and adds ``Content-Encoding`` and ``; charset=``;
- ``_BYTE_KERNELS``: bytes → ``(content, spans, meta)``, the media type
  kept (PDF, office, EPUB, RTF, SVG, feeds, images, audio/video);
- ``_INFLATERS``: compressed streams, unwrapped to the inner document;
- ``_ARCHIVES``: member walkers, each member routed one level deeper.

``ExtractStage._route`` is the one dispatch: the batch loop, archive and
mail members and decompressed payloads all go through it. Mail, mbox,
OLE2 and the opaque fallback are its explicit branches.

Every row is wrapped: a poison document becomes an
``error_type="parse_error"`` row; nothing raises out of the batch (§2.8 —
reference behavior: a failed document is recorded and the run continues,
``lib/rika/cli/rika_command.rb:85-89,197-216``).

Output drops the raw ``html`` payload (multi-MB per row) so downstream
stages move only extracted data through the object store.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from functools import partial

import pyarrow as pa

from rika_ray.schema import METADATA_TYPE, SPANS_TYPE
from rika_ray.stages import charset as charset_mod
from rika_ray.stages import sniff as sniff_mod
from rika_ray.stages.archive import iter_tar_entries, iter_zip_entries
from rika_ray.stages.audio_meta import (
    extract_avi,
    extract_flac,
    extract_mp3,
    extract_mp4,
    extract_ogg,
    extract_wav,
)
from rika_ray.stages.email_msg import (
    message_leaves,
    message_metadata,
    parse_message,
    split_mbox,
)
from rika_ray.stages.epub import extract_epub
from rika_ray.stages.html_extract import extract_html
from rika_ray.stages.image_meta import extract_image
from rika_ray.stages.office import (
    CfbFile,
    OfficeParseError,
    extract_doc,
    extract_docx,
    extract_msg,
    extract_odt,
    extract_ppt,
    extract_pptx,
    extract_vsdx,
    extract_xls,
    extract_xlsx,
)
from rika_ray.stages.pdf_extract import PdfEncryptedError, extract_pdf
from rika_ray.stages.rar import iter_rar_entries
from rika_ray.stages.rtf import extract_rtf
from rika_ray.stages.sevenz import iter_7z_entries
from rika_ray.stages.textual import (
    extract_csv,
    extract_feed,
    extract_ical,
    extract_json,
    extract_markdown,
    extract_ndjson,
    extract_svg,
    extract_vcard,
)
from rika_ray.stages.zstd import decompress_zstd

MSWORD = "application/msword"
MS_OUTLOOK = "application/vnd.ms-outlook"

_IMAGES = {
    sniff_mod.JPEG, sniff_mod.PNG, sniff_mod.GIF, sniff_mod.TIFF,
    sniff_mod.BMP, sniff_mod.WEBP, sniff_mod.PSD, sniff_mod.ICO,
}


def _plain(text: str):
    return text, [], {}


# decoded text → (content, spans, meta)
_TEXT_KERNELS = {
    sniff_mod.PLAIN: _plain,
    sniff_mod.XML: _plain,
    sniff_mod.HTML: extract_html,
    sniff_mod.CSV: partial(extract_csv, delimiter=","),
    sniff_mod.TSV: partial(extract_csv, delimiter="\t"),
    sniff_mod.ICAL: extract_ical,
    sniff_mod.VCARD: extract_vcard,
    sniff_mod.JSON: extract_json,
    sniff_mod.NDJSON: extract_ndjson,
    sniff_mod.MARKDOWN: extract_markdown,
    # code text: Tika detects text/css / application/javascript by
    # resource name and extracts through the plain-text parser
    sniff_mod.CSS: _plain,
    sniff_mod.JS: _plain,
}

# bytes → (content, spans, meta); the charset column stays None. SVG and
# feeds are XML that self-describes its encoding: expat parses the BYTES.
# Audio/video are metadata-only (empty content), the Tika AudioParser /
# Mp3Parser / MP4Parser convention the image kernels follow.
_BYTE_KERNELS = {
    sniff_mod.PDF: extract_pdf,
    sniff_mod.DOCX: extract_docx,
    sniff_mod.XLSX: extract_xlsx,
    sniff_mod.PPTX: extract_pptx,
    sniff_mod.RTF: extract_rtf,
    sniff_mod.EPUB: extract_epub,
    sniff_mod.VSDX: extract_vsdx,
    # text:p extraction applies to every ODF package kind (ODS cells, ODP
    # frames, and ODG draw text boxes all hold text:p)
    **{
        f"application/vnd.oasis.opendocument.{kind}": extract_odt
        for kind in ("text", "spreadsheet", "presentation", "graphics")
    },
    sniff_mod.MP3: extract_mp3,
    sniff_mod.WAV: extract_wav,
    sniff_mod.FLAC: extract_flac,
    sniff_mod.OGG: extract_ogg,
    sniff_mod.MP4: extract_mp4,
    sniff_mod.AVI: extract_avi,
    sniff_mod.SVG: extract_svg,
    sniff_mod.RSS: partial(extract_feed, kind="rss"),
    sniff_mod.ATOM: partial(extract_feed, kind="atom"),
    **{m: partial(extract_image, media_type=m) for m in _IMAGES},
}


# (payload, cap) → the whole inflated stream, or ValueError past ``cap``
def _gunzip(data: bytes, cap: int) -> bytes:
    z = zlib.decompressobj(wbits=31)
    out = z.decompress(data, cap)
    if z.unconsumed_tail:
        raise ValueError(f"gzip member expands past {cap} bytes")
    return out


def _bunzip2(data: bytes, cap: int) -> bytes:
    z = bz2.BZ2Decompressor()
    out = z.decompress(data, cap)
    if not z.eof and not z.needs_input:
        raise ValueError(f"bzip2 member expands past {cap} bytes")
    return out


def _unxz(data: bytes, cap: int) -> bytes:
    z = lzma.LZMADecompressor(format=lzma.FORMAT_XZ)
    out = z.decompress(data, cap)
    if not z.eof and not z.needs_input:
        raise ValueError(f"xz member expands past {cap} bytes")
    return out


_INFLATERS = {
    sniff_mod.GZIP: _gunzip,
    sniff_mod.BZIP2: _bunzip2,
    sniff_mod.XZ: _unxz,
    sniff_mod.ZSTD: decompress_zstd,
}

# bytes → iterator of (name, member bytes or None if guarded, entry total)
_ARCHIVES = {
    sniff_mod.ZIP: iter_zip_entries,
    sniff_mod.TAR: iter_tar_entries,
    sniff_mod.SEVENZ: iter_7z_entries,
    sniff_mod.RAR: iter_rar_entries,
}


def _sniff(data: bytes) -> str:
    return sniff_mod.sniff_bytes(data[:2048], data[-4096:])


def _join(members) -> tuple[str, list[dict]]:
    """Concatenate ``(ordinal, content, spans)`` member texts, each ending
    in a newline, with each span's ``page`` renumbered to its member's
    ordinal (the EPUB chapter convention). Members without text are
    dropped."""
    parts: list[str] = []
    spans: list[dict] = []
    for ordinal, content, m_spans in members:
        if content:
            parts.append(content if content.endswith("\n") else content + "\n")
            spans.extend({**s, "page": ordinal} for s in m_spans)
    return "".join(parts), spans


def _ole2(data: bytes, media: str):
    # container sniff says OLE2; refine by directory stream names
    # (Tika-style container inspection): WordDocument → msword,
    # Workbook/Book → ms-excel, PowerPoint Document → ms-powerpoint;
    # anything else falls back to empty content with the container
    # type. A container whose FAT or directory cannot be read is a
    # parse error.
    streams = CfbFile(data).streams()
    try:
        if "WordDocument" in streams:
            content, spans, meta = extract_doc(data, streams)
            return content, MSWORD, None, spans, meta
        if "Workbook" in streams or "Book" in streams:
            content, spans, meta = extract_xls(data, streams)
            return content, sniff_mod.XLS, None, spans, meta
        if "PowerPoint Document" in streams:
            content, spans, meta = extract_ppt(data, streams)
            return content, sniff_mod.PPT, None, spans, meta
        if any(nm.startswith("__substg1.0_") for nm in streams):
            content, spans, meta = extract_msg(streams)
            return content, MS_OUTLOOK, None, spans, meta
    except OfficeParseError:
        pass
    return "", media, None, [], {}


class ExtractStage:
    """Kernel stage: sniffed web_pages batch →
    + content, content_type, charset, spans, metadata columns."""

    # Bomb guards for every container (compressed streams, archives, mail
    # attachments): a member may not expand past this (per document; rows
    # are routed one at a time, so a batch holds one row's expansions at
    # once, whatever its size), and nesting stops at this depth.
    _MAX_EXPANDED = 256 * 1024 * 1024
    _MAX_DEPTH = 3

    def _route(self, data: bytes, media: str, depth: int = 0, charset=None):
        """``data`` of type ``media`` at container nesting ``depth`` →
        (content, content_type, charset, spans, meta). A text kernel
        decodes with ``charset`` when the batch detected one; an archive or
        mail member detects its own."""
        if (kernel := _TEXT_KERNELS.get(media)) is not None:
            text, cs = charset_mod.decode_text(data, charset)
            content, spans, meta = kernel(text)
            meta["Content-Encoding"] = cs
            return content, f"{media}; charset={cs}", cs, spans, meta
        if (kernel := _BYTE_KERNELS.get(media)) is not None:
            content, spans, meta = kernel(data)
            return content, media, None, spans, meta
        if media in _INFLATERS:
            return self._inflate(data, media, depth)
        if media in _ARCHIVES:
            return self._archive(data, media, depth)
        if media == sniff_mod.EML:
            return self._eml(data, media, depth)
        if media == sniff_mod.MBOX:
            return self._mbox(data, media, depth)
        if media == sniff_mod.OLE2:
            return _ole2(data, media)
        # unknown binary → empty content, bare container type (reference:
        # unknown.bin → application/octet-stream with "" content,
        # spec/rika/parser_spec.rb:186-188,236-238)
        return "", media, None, [], {}

    def _member(self, data: bytes, depth: int, media: str | None = None):
        """Route an embedded member at ``depth``, re-sniffed unless its
        ``media`` is known. A poison member gives None, so its container
        keeps the other members."""
        media = media or _sniff(data)
        try:
            return self._route(data, media, depth)
        except MemoryError:
            raise
        except Exception:
            return None

    def _inflate(self, data: bytes, media: str, depth: int):
        # transparent member unwrap (Tika CompressorParser semantics behind
        # the one-parse surface, /root/reference/lib/rika/parser.rb:21-29):
        # decompress bounded, re-sniff the inner bytes, route the inner
        # document; media_type refines to the INNER type and the container
        # CHAIN is recorded as metadata, outermost first (e.g. .tar.gz →
        # "application/gzip,application/x-tar")
        if depth >= self._MAX_DEPTH:
            return "", media, None, [], {}
        inner = _INFLATERS[media](data, self._MAX_EXPANDED)
        content, ctype, cs, spans, meta = self._route(
            inner, _sniff(inner), depth + 1
        )
        chain = meta.get("rika:container")
        chain = media if chain is None else f"{media},{chain}"
        return content, ctype, cs, spans, {**meta, "rika:container": chain}

    def _archive(self, data: bytes, media: str, depth: int):
        # Tika PackageParser semantics behind the one-parse surface
        # (/root/reference/lib/rika/parser.rb:21-29): each member is
        # auto-detected and routed, walked lazily in archive order; the
        # document's own media type stays the container's. Bomb guards
        # live in stages/archive.py; nesting depth is bounded here.
        if depth >= self._MAX_DEPTH:
            return "", media, None, [], {}
        walk = _ARCHIVES[media](data)
        seen = [0, 0]  # entries walked, entries listed

        def members():
            for ordinal, (_name, member, total) in enumerate(walk):
                seen[:] = ordinal + 1, total
                if member is None:  # skipped by a bomb/encryption guard
                    continue
                if r := self._member(member, depth + 1):
                    yield ordinal, r[0], r[3]

        content, spans = _join(members())
        walked, total = seen
        meta = {"rika:container": media, "rika:entry-count": str(total)}
        if walked < total:
            meta["rika:entries-truncated"] = str(total - walked)
        return content, media, None, spans, meta

    def _eml(self, data: bytes, media: str, depth: int):
        # Tika RFC822Parser semantics: header metadata + every renderable
        # MIME leaf in document order. text/plain leaves pass through
        # decoded (charset + CTE handled by the email package); text/html
        # leaves go through the boilerplate extractor; binary attachments
        # are routed as members, bounded by the container nesting depth.
        msg = parse_message(data)
        meta = message_metadata(msg)
        leaves = message_leaves(msg)

        def parts():
            for ordinal, (ctype, payload) in enumerate(leaves):
                if isinstance(payload, str):
                    if ctype == "text/html":
                        yield ordinal, *extract_html(payload)[:2]
                    else:
                        yield ordinal, payload, []
                elif depth + 1 < self._MAX_DEPTH and (
                    r := self._member(payload, depth + 1)
                ):
                    yield ordinal, r[0], r[3]

        content, spans = _join(parts())
        meta["Message:num-parts"] = str(len(leaves))
        return content, media, None, spans, meta

    def _mbox(self, data: bytes, media: str, depth: int):
        # Tika MboxParser semantics: each postmark-delimited message is an
        # embedded document parsed by the RFC822 path, texts concatenated
        # in mailbox order (the archive convention); metadata carries the
        # message count plus the first message's headers.
        blobs = split_mbox(data)
        msgs = [self._member(b, depth, sniff_mod.EML) for b in blobs]
        content, spans = _join(
            (i, r[0], r[3]) for i, r in enumerate(msgs) if r
        )
        meta = dict(msgs[0][4]) if msgs and msgs[0] else {}
        meta.pop("Message:num-parts", None)
        meta["mbox:message-count"] = str(len(blobs))
        return content, media, None, spans, meta

    def __call__(self, batch: pa.Table) -> pa.Table:
        html_col = batch["html"]
        n = len(batch)

        contents: list[str | None] = [None] * n
        ctypes: list[str | None] = [None] * n
        charsets: list[str | None] = [None] * n
        spans_out: list[list | None] = [None] * n
        meta_out: list[list | None] = [None] * n
        err_t = batch["error_type"].to_pylist()
        err_m = batch["error_message"].to_pylist()
        media_refined = batch["media_type"].to_pylist()
        # one charset detection over every row whose kernel decodes text
        text_rows = [
            i for i in range(n)
            if err_t[i] is None and media_refined[i] in _TEXT_KERNELS
        ]
        detected = dict(zip(text_rows, charset_mod.detect_charsets(
            html_col[i].as_py() for i in text_rows
        )))

        for i in range(n):
            if err_t[i] is not None:
                continue  # pre-flagged (e.g. empty_file): skip, keep error
            try:
                content, ctype, cs, spans, meta = self._route(
                    html_col[i].as_py(), media_refined[i], 0, detected.get(i)
                )
            except MemoryError:
                raise
            except Exception as e:  # poison row must never abort the job
                err_t[i] = (
                    "encrypted_document"
                    if isinstance(e, PdfEncryptedError)
                    else "parse_error"
                )
                err_m[i] = f"{type(e).__name__}: {e}"
                continue
            contents[i] = content
            ctypes[i] = ctype
            charsets[i] = cs
            spans_out[i] = spans
            meta_out[i] = [
                {"key": k, "value": v} for k, v in meta.items()
            ]

        # refine media_type from the extraction result (container
        # inspection can narrow the sniffed type, e.g. OLE2 → msword)
        for i in range(n):
            if err_t[i] is None and ctypes[i]:
                media_refined[i] = ctypes[i].split(";", 1)[0]

        out = batch.drop_columns(
            [c for c in ("html", "text", "lang") if c in batch.column_names]
        )
        out = out.set_column(
            out.schema.get_field_index("media_type"),
            "media_type",
            pa.array(media_refined, pa.string()),
        )
        out = out.set_column(
            out.schema.get_field_index("error_type"),
            "error_type",
            pa.array(err_t, pa.string()),
        )
        out = out.set_column(
            out.schema.get_field_index("error_message"),
            "error_message",
            pa.array(err_m, pa.string()),
        )
        return (
            out.append_column("content", pa.array(contents, pa.large_string()))
            .append_column("content_type", pa.array(ctypes, pa.string()))
            .append_column("charset", pa.array(charsets, pa.string()))
            .append_column("spans", pa.array(spans_out, SPANS_TYPE))
            .append_column("metadata", pa.array(meta_out, METADATA_TYPE))
        )
