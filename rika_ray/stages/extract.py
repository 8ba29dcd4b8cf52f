"""Per-document extraction router (operators M3-M8, SURVEY.md §2.2/§3.4).

One `map_batches` pass with per-type sub-kernels (branch on the sniffed
``media_type`` per row) rather than N filtered sub-pipelines — this keeps a
single scan over the corpus (SURVEY.md §3.4 "Mixed-format routing").

Shaped as a callable class of the fused kernel: parser state (the PDF layout
machinery, charset tables, dispatch table) lives on the instance, initialized
once per worker (§2.3 stages T2/T3) — the scale analogue of the reference's
once-per-JVM Tika bootstrap (``/root/reference/lib/rika.rb:16-34``).

Every sub-kernel is wrapped per row: a poison document becomes an
``error_type="parse_error"`` row; nothing raises out of the batch (§2.8 —
reference behavior: a failed document is recorded and the run continues,
``lib/rika/cli/rika_command.rb:85-89,197-216``).

Output drops the raw ``html`` payload (multi-MB per row) so downstream
stages move only extracted data through the object store.
"""

from __future__ import annotations

import pyarrow as pa

from rika_ray.schema import METADATA_TYPE, SPANS_TYPE
from rika_ray.stages import charset as charset_mod
from rika_ray.stages import sniff as sniff_mod
from rika_ray.stages.audio_meta import extract_mp3
from rika_ray.stages.epub import extract_epub
from rika_ray.stages.html_extract import extract_html
from rika_ray.stages.image_meta import extract_image
from rika_ray.stages.office import (
    CfbFile,
    OfficeParseError,
    extract_doc,
    extract_docx,
    extract_odt,
    extract_ppt,
    extract_pptx,
    extract_xls,
    extract_xlsx,
)
from rika_ray.stages.archive import iter_tar_entries, iter_zip_entries
from rika_ray.stages.pdf_extract import PdfEncryptedError, extract_pdf
from rika_ray.stages.rtf import extract_rtf
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

MSWORD = "application/msword"
MS_OUTLOOK = "application/vnd.ms-outlook"

_TEXTUAL = {sniff_mod.PLAIN, sniff_mod.XML}
_IMAGES = {
    sniff_mod.JPEG,
    sniff_mod.PNG,
    sniff_mod.GIF,
    sniff_mod.TIFF,
    sniff_mod.BMP,
    sniff_mod.WEBP,
    sniff_mod.PSD,
    sniff_mod.ICO,
}


class ExtractStage:
    """Kernel stage: sniffed web_pages batch →
    + content, content_type, charset, spans, metadata columns."""

    def __init__(self) -> None:
        # dispatch table + any parser state, built once per instance
        self._dispatch = {
            sniff_mod.HTML: self._do_html,
            sniff_mod.PDF: self._do_pdf,
            sniff_mod.DOCX: self._do_docx,
            sniff_mod.XLSX: self._do_xlsx,
            sniff_mod.PPTX: self._do_pptx,
            sniff_mod.OLE2: self._do_ole2,
            sniff_mod.RTF: self._do_rtf,
            sniff_mod.EPUB: self._do_epub,
            sniff_mod.MP3: self._do_mp3,
            sniff_mod.WAV: self._do_wav,
            sniff_mod.FLAC: self._do_flac,
            sniff_mod.OGG: self._do_ogg,
            sniff_mod.MP4: self._do_mp4,
            sniff_mod.AVI: self._do_avi,
            sniff_mod.GZIP: self._do_gzip,
            sniff_mod.BZIP2: self._do_bzip2,
            sniff_mod.XZ: self._do_xz,
            sniff_mod.ZSTD: self._do_zstd,
            sniff_mod.ZIP: self._do_zip,
            sniff_mod.TAR: self._do_tar,
            sniff_mod.SEVENZ: self._do_7z,
            sniff_mod.RAR: self._do_rar,
            # text:p extraction applies to every ODF package kind (ODS
            # cells, ODP frames, and ODG draw text boxes all hold text:p)
            **{
                f"application/vnd.oasis.opendocument.{kind}": self._do_odt
                for kind in ("text", "spreadsheet", "presentation", "graphics")
            },
            sniff_mod.VSDX: self._do_vsdx,
            sniff_mod.EML: self._do_eml,
            sniff_mod.MBOX: self._do_mbox,
            sniff_mod.CSV: self._do_csv,
            sniff_mod.TSV: self._do_csv,
            sniff_mod.ICAL: self._do_ical,
            sniff_mod.VCARD: self._do_vcard,
            # code text: Tika detects text/css / application/javascript by
            # resource name and extracts through the plain-text parser
            sniff_mod.CSS: self._do_text,
            sniff_mod.JS: self._do_text,
            sniff_mod.JSON: self._do_json,
            sniff_mod.NDJSON: self._do_ndjson,
            sniff_mod.MARKDOWN: self._do_markdown,
            sniff_mod.SVG: self._do_svg,
            sniff_mod.RSS: self._do_feed,
            sniff_mod.ATOM: self._do_feed,
            **{m: self._do_text for m in _TEXTUAL},
            **{m: self._do_image for m in _IMAGES},
        }

    # each sub-kernel: bytes → (content, content_type, charset, spans, meta)
    def _do_text(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        return text, f"{media}; charset={cs}", cs, [], {"Content-Encoding": cs}

    def _do_html(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        content, spans, meta = extract_html(text)
        meta["Content-Encoding"] = cs
        return content, f"{media}; charset={cs}", cs, spans, meta

    def _do_csv(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        delim = "\t" if media == sniff_mod.TSV else ","
        content, spans, meta = extract_csv(text, delim)
        meta["Content-Encoding"] = cs
        return content, f"{media}; charset={cs}", cs, spans, meta

    def _do_ical(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        content, spans, meta = extract_ical(text)
        meta["Content-Encoding"] = cs
        return content, f"{media}; charset={cs}", cs, spans, meta

    def _do_vcard(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        content, spans, meta = extract_vcard(text)
        meta["Content-Encoding"] = cs
        return content, f"{media}; charset={cs}", cs, spans, meta

    def _do_json(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        content, spans, meta = extract_json(text)
        meta["Content-Encoding"] = cs
        return content, f"{media}; charset={cs}", cs, spans, meta

    def _do_ndjson(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        content, spans, meta = extract_ndjson(text)
        meta["Content-Encoding"] = cs
        return content, f"{media}; charset={cs}", cs, spans, meta

    def _do_markdown(self, data: bytes, media: str):
        text, cs = charset_mod.decode_text(data)
        content, spans, meta = extract_markdown(text)
        meta["Content-Encoding"] = cs
        return content, f"{media}; charset={cs}", cs, spans, meta

    def _do_svg(self, data: bytes, media: str):
        # XML self-describes its encoding: parse the BYTES (expat honors
        # the declaration); the charset column stays None like the raster
        # image kernels — SVG is image/*, not text/*
        content, spans, meta = extract_svg(data)
        return content, media, None, spans, meta

    def _do_feed(self, data: bytes, media: str):
        kind = "atom" if media == sniff_mod.ATOM else "rss"
        content, spans, meta = extract_feed(data, kind)
        return content, media, None, spans, meta

    def _do_pdf(self, data: bytes, media: str):
        content, spans, meta = extract_pdf(data)
        return content, media, None, spans, meta

    def _do_docx(self, data: bytes, media: str):
        content, spans, meta = extract_docx(data)
        return content, media, None, spans, meta

    def _do_xlsx(self, data: bytes, media: str):
        content, spans, meta = extract_xlsx(data)
        return content, media, None, spans, meta

    def _do_pptx(self, data: bytes, media: str):
        content, spans, meta = extract_pptx(data)
        return content, media, None, spans, meta

    def _do_rtf(self, data: bytes, media: str):
        content, spans, meta = extract_rtf(data)
        return content, media, None, spans, meta

    def _do_odt(self, data: bytes, media: str):
        content, spans, meta = extract_odt(data)
        return content, media, None, spans, meta

    def _do_vsdx(self, data: bytes, media: str):
        from rika_ray.stages.office import extract_vsdx

        content, spans, meta = extract_vsdx(data)
        return content, media, None, spans, meta

    def _do_epub(self, data: bytes, media: str):
        content, spans, meta = extract_epub(data)
        return content, media, None, spans, meta

    def _do_mp3(self, data: bytes, media: str):
        content, spans, meta = extract_mp3(data)
        return content, media, None, spans, meta

    # audio/video: metadata-only formats (empty content), the Tika
    # AudioParser / Mp3Parser / MP4Parser convention the image kernels
    # already follow
    def _do_wav(self, data: bytes, media: str):
        from rika_ray.stages.audio_meta import extract_wav

        content, spans, meta = extract_wav(data)
        return content, media, None, spans, meta

    def _do_flac(self, data: bytes, media: str):
        from rika_ray.stages.audio_meta import extract_flac

        content, spans, meta = extract_flac(data)
        return content, media, None, spans, meta

    def _do_ogg(self, data: bytes, media: str):
        from rika_ray.stages.audio_meta import extract_ogg

        content, spans, meta = extract_ogg(data)
        return content, media, None, spans, meta

    def _do_mp4(self, data: bytes, media: str):
        from rika_ray.stages.audio_meta import extract_mp4

        content, spans, meta = extract_mp4(data)
        return content, media, None, spans, meta

    def _do_avi(self, data: bytes, media: str):
        from rika_ray.stages.audio_meta import extract_avi

        content, spans, meta = extract_avi(data)
        return content, media, None, spans, meta

    def _do_eml(self, data: bytes, media: str, _depth: int = 0):
        # Tika RFC822Parser semantics: header metadata + every renderable
        # MIME leaf in document order. text/plain leaves pass through
        # decoded (charset + CTE handled by the email package); text/html
        # leaves go through the boilerplate extractor; binary attachments
        # are re-sniffed and routed through the same dispatch as
        # standalone documents (the archive-member convention), bounded by
        # the container nesting depth.
        from rika_ray.stages.email_msg import (
            message_leaves,
            message_metadata,
            parse_message,
        )

        msg = parse_message(data)
        meta = message_metadata(msg)
        parts: list[str] = []
        spans: list[dict] = []
        leaves = message_leaves(msg)
        for ordinal, (ctype, payload) in enumerate(leaves):
            if isinstance(payload, str):
                if ctype == "text/html":
                    content, p_spans, _m = extract_html(payload)
                else:
                    content, p_spans = payload, []
            elif _depth + 1 < self._GZIP_MAX_DEPTH:
                inner_media = sniff_mod.sniff_bytes(
                    payload[:2048], payload[-4096:]
                )
                try:
                    content, _ct, _cs, p_spans, _m = self._route(
                        payload, inner_media, _depth + 1
                    )
                except Exception as e:  # poison attachment: skip it
                    if isinstance(e, (MemoryError, KeyboardInterrupt)):
                        raise
                    continue
            else:
                continue
            if content:
                parts.append(
                    content if content.endswith("\n") else content + "\n"
                )
                for s in p_spans:
                    spans.append({**s, "page": ordinal})
        meta["Message:num-parts"] = str(len(leaves))
        return "".join(parts), media, None, spans, meta

    def _do_mbox(self, data: bytes, media: str, _depth: int = 0):
        # Tika MboxParser semantics: each postmark-delimited message is an
        # embedded document parsed by the RFC822 path, texts concatenated
        # in mailbox order (the archive convention); metadata carries the
        # message count plus the first message's headers.
        from rika_ray.stages.email_msg import split_mbox

        blobs = split_mbox(data)
        parts: list[str] = []
        spans: list[dict] = []
        meta: dict[str, str] = {}
        for ordinal, blob in enumerate(blobs):
            try:
                content, _ct, _cs, m_spans, m_meta = self._do_eml(
                    blob, sniff_mod.EML, _depth
                )
            except Exception as e:  # poison message: skip, keep the mailbox
                if isinstance(e, (MemoryError, KeyboardInterrupt)):
                    raise
                continue
            if ordinal == 0:
                meta.update(m_meta)
            if content:
                parts.append(content)
                for s in m_spans:
                    spans.append({**s, "page": ordinal})
        meta.pop("Message:num-parts", None)
        meta["mbox:message-count"] = str(len(blobs))
        return "".join(parts), media, None, spans, meta

    # Bomb guard: a member may not expand past this (per-doc, not per-job;
    # tune with worker heap — a batch holds batch_size expansions at most)
    _GZIP_MAX_EXPANDED = 256 * 1024 * 1024
    _GZIP_MAX_DEPTH = 3

    def _do_gzip(self, data: bytes, media: str, _depth: int = 0):
        import zlib

        def inflate(d: bytes, cap: int) -> bytes:
            z = zlib.decompressobj(wbits=31)
            out = z.decompress(d, cap)
            if z.unconsumed_tail:
                raise ValueError(f"gzip member expands past {cap} bytes")
            return out

        return self._do_compressed(inflate, sniff_mod.GZIP, data, _depth)

    def _do_bzip2(self, data: bytes, media: str, _depth: int = 0):
        import bz2

        def inflate(d: bytes, cap: int) -> bytes:
            z = bz2.BZ2Decompressor()
            out = z.decompress(d, cap)
            if not z.eof and not z.needs_input:
                raise ValueError(f"bzip2 member expands past {cap} bytes")
            return out

        return self._do_compressed(inflate, sniff_mod.BZIP2, data, _depth)

    def _do_xz(self, data: bytes, media: str, _depth: int = 0):
        import lzma

        def inflate(d: bytes, cap: int) -> bytes:
            z = lzma.LZMADecompressor(format=lzma.FORMAT_XZ)
            out = z.decompress(d, cap)
            if not z.eof and not z.needs_input:
                raise ValueError(f"xz member expands past {cap} bytes")
            return out

        return self._do_compressed(inflate, sniff_mod.XZ, data, _depth)

    def _do_zstd(self, data: bytes, media: str, _depth: int = 0):
        from rika_ray.stages.zstd import decompress_zstd

        def inflate(d: bytes, cap: int) -> bytes:
            return decompress_zstd(d, cap)

        return self._do_compressed(inflate, sniff_mod.ZSTD, data, _depth)

    def _do_compressed(self, inflate, container: str, data: bytes, depth: int):
        # transparent member unwrap (Tika CompressorParser semantics behind
        # the one-parse surface, /root/reference/lib/rika/parser.rb:21-29):
        # decompress bounded, re-sniff the inner bytes, dispatch to the
        # inner kernel; media_type refines to the INNER type and the
        # container is recorded as metadata
        if depth >= self._GZIP_MAX_DEPTH:
            return "", container, None, [], {}
        inner = inflate(data, self._GZIP_MAX_EXPANDED)
        inner_media = sniff_mod.sniff_bytes(inner[:2048], inner[-4096:])
        content, ctype, cs, spans, meta = self._route(
            inner, inner_media, depth + 1
        )
        meta = dict(meta)
        inner_container = meta.get("rika:container")
        # container CHAIN, outermost first (e.g. .tar.gz →
        # "application/gzip,application/x-tar")
        meta["rika:container"] = (
            container
            if inner_container is None
            else f"{container},{inner_container}"
        )
        return content, ctype, cs, spans, meta

    def _route(self, data: bytes, media: str, depth: int):
        """Dispatch to the kernel for ``media``, threading the container
        nesting depth into container kernels (gzip/zip/tar) so nested
        packaging terminates at ``_GZIP_MAX_DEPTH`` regardless of the
        container mix."""
        kernel = self._dispatch.get(media, self._do_opaque)
        if kernel in (
            self._do_gzip,
            self._do_bzip2,
            self._do_xz,
            self._do_zstd,
            self._do_zip,
            self._do_tar,
            self._do_7z,
            self._do_rar,
            self._do_eml,
            self._do_mbox,
        ):
            return kernel(data, media, depth)
        return kernel(data, media)

    def _do_zip(self, data: bytes, media: str, _depth: int = 0):
        return self._do_archive(iter_zip_entries, data, media, _depth)

    def _do_tar(self, data: bytes, media: str, _depth: int = 0):
        return self._do_archive(iter_tar_entries, data, media, _depth)

    def _do_7z(self, data: bytes, media: str, _depth: int = 0):
        from rika_ray.stages.sevenz import iter_7z_entries

        return self._do_archive(iter_7z_entries, data, media, _depth)

    def _do_rar(self, data: bytes, media: str, _depth: int = 0):
        from rika_ray.stages.rar import iter_rar_entries

        return self._do_archive(iter_rar_entries, data, media, _depth)

    def _do_archive(self, entries, data: bytes, media: str, depth: int):
        # Tika PackageParser semantics behind the one-parse surface
        # (/root/reference/lib/rika/parser.rb:21-29): each embedded member
        # is auto-detected and parsed by the same dispatch, their extracted
        # texts concatenated in archive order; the document's own media
        # type stays the container's. Member spans are preserved with
        # ``page`` renumbered to the member ordinal (the EPUB chapter
        # convention). Bomb guards live in stages/archive.py; nesting depth
        # is bounded here.
        if depth >= self._GZIP_MAX_DEPTH:
            return "", media, None, [], {}
        parts: list[str] = []
        spans: list[dict] = []
        n_total = 0
        n_walked = 0
        for ordinal, (name, member, total) in enumerate(entries(data)):
            n_total = total
            n_walked += 1
            if member is None:  # skipped by a bomb/encryption guard
                continue
            inner_media = sniff_mod.sniff_bytes(member[:2048], member[-4096:])
            try:
                content, _ctype, _cs, m_spans, _meta = self._route(
                    member, inner_media, depth + 1
                )
            except Exception as e:  # poison member: skip, keep the archive
                if isinstance(e, (MemoryError, KeyboardInterrupt)):
                    raise
                continue
            if content:
                parts.append(
                    content if content.endswith("\n") else content + "\n"
                )
                for s in m_spans:
                    spans.append({**s, "page": ordinal})
        meta = {
            "rika:container": media,
            "rika:entry-count": str(n_total),
        }
        if n_walked < n_total:
            meta["rika:entries-truncated"] = str(n_total - n_walked)
        return "".join(parts), media, None, spans, meta

    def _do_ole2(self, data: bytes, media: str):
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
                from rika_ray.stages.office import extract_msg

                content, spans, meta = extract_msg(streams)
                return content, MS_OUTLOOK, None, spans, meta
        except OfficeParseError:
            pass
        return "", media, None, [], {}

    def _do_image(self, data: bytes, media: str):
        content, spans, meta = extract_image(data, media)
        return content, media, None, spans, meta

    def _do_opaque(self, data: bytes, media: str):
        # unknown binary → empty content, bare container type
        # (reference: unknown.bin → application/octet-stream with "" content,
        #  spec/rika/parser_spec.rb:186-188,236-238)
        return "", media, None, [], {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        html_col = batch["html"]
        media_col = batch["media_type"]
        err_t_col = batch["error_type"]
        err_m_col = batch["error_message"]
        n = len(batch)

        contents: list[str | None] = [None] * n
        ctypes: list[str | None] = [None] * n
        charsets: list[str | None] = [None] * n
        spans_out: list[list | None] = [None] * n
        meta_out: list[list | None] = [None] * n
        err_t = err_t_col.to_pylist()
        err_m = err_m_col.to_pylist()

        for i in range(n):
            if err_t[i] is not None:
                continue  # pre-flagged (e.g. empty_file): skip, keep error
            media = media_col[i].as_py()
            data = html_col[i].as_py()
            kernel = self._dispatch.get(media, self._do_opaque)
            try:
                content, ctype, cs, spans, meta = kernel(data, media)
            except Exception as e:  # poison row must never abort the job
                if isinstance(e, (MemoryError, KeyboardInterrupt)):
                    raise
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
        media_refined = media_col.to_pylist()
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
