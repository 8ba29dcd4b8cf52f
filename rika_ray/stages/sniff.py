"""Content-type detection from magic bytes (operator M1, SURVEY.md §2.2).

The reference delegates MIME sniffing to Tika's ``DefaultDetector``
(wired at ``/root/reference/lib/rika.rb:45`` and
``lib/rika/parser.rb:21``), which detects from content — a file with no
extension is still identified (``spec/rika/parser_spec.rb:143-146``) and
unknown bytes fall back to ``application/octet-stream``
(``spec/rika/parser_spec.rb:236-238``).

This stage re-implements that semantics as a stateless ``map_batches``
kernel: it inspects only a bounded prefix/suffix of each payload (never the
whole document), so per-row work is O(1) regardless of document size. A
zero-length payload becomes an ``empty_file`` error row — the scale
reinterpretation of the reference's empty-file pre-filter
(``lib/rika/cli/args_parser.rb:227``); the run continues (§2.8).
"""

from __future__ import annotations

import re as _re

import pyarrow as pa

# Media types (detection targets). OOXML subtypes distinguished by member
# names inside the ZIP.
PDF = "application/pdf"
PNG = "image/png"
GIF = "image/gif"
JPEG = "image/jpeg"
ZIP = "application/zip"
DOCX = "application/vnd.openxmlformats-officedocument.wordprocessingml.document"
XLSX = "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet"
PPTX = "application/vnd.openxmlformats-officedocument.presentationml.presentation"
OLE2 = "application/x-ole-storage"
RTF = "application/rtf"
ODT = "application/vnd.oasis.opendocument.text"
EPUB = "application/epub+zip"
MP3 = "audio/mpeg"
GZIP = "application/gzip"
TAR = "application/x-tar"
BZIP2 = "application/x-bzip2"
XZ = "application/x-xz"
ZSTD = "application/zstd"
SEVENZ = "application/x-7z-compressed"
RAR = "application/x-rar-compressed"
TIFF = "image/tiff"
BMP = "image/bmp"
WEBP = "image/webp"
PSD = "image/vnd.adobe.photoshop"
VSDX = "application/vnd.ms-visio.drawing"
EML = "message/rfc822"
MBOX = "application/mbox"
WAV = "audio/vnd.wave"
FLAC = "audio/x-flac"
OGG = "audio/ogg"
MP4 = "video/mp4"
AVI = "video/x-msvideo"
ICO = "image/vnd.microsoft.icon"
ICAL = "text/calendar"
VCARD = "text/vcard"
CSS = "text/css"
JS = "application/javascript"
XLS = "application/vnd.ms-excel"
PPT = "application/vnd.ms-powerpoint"
HTML = "text/html"
XML = "application/xml"
SVG = "image/svg+xml"
RSS = "application/rss+xml"
ATOM = "application/atom+xml"
CSV = "text/csv"
TSV = "text/tab-separated-values"
JSON = "application/json"
NDJSON = "application/x-ndjson"
MARKDOWN = "text/markdown"
PLAIN = "text/plain"
OCTET = "application/octet-stream"

_HTML_MARKERS = (
    b"<!doctype html",
    b"<html",
    b"<head",
    b"<body",
    b"<title",
    b"<h1",
    b"<div",
    b"<p>",
)

_SNIFF_PREFIX = 2048
_SNIFF_SUFFIX = 4096  # ZIP central directory lives at the end
# control bytes that mark binary content (tab, LF and CR are text)
_CTRL = bytes(c for c in range(0x20) if c not in (9, 10, 13))

# Resource-name hints refine ONLY within the text supertype (a name never
# overrides magic): the scale analogue of Tika's DefaultDetector combining
# the resource-name glob with content magic — CSV/TSV/Markdown have no
# magic bytes, so Tika itself leans on the name for them.
_NAME_HINTS = {
    ".csv": CSV,
    ".tsv": TSV,
    ".md": MARKDOWN,
    ".markdown": MARKDOWN,
    ".json": JSON,
    ".ndjson": NDJSON,
    ".jsonl": NDJSON,
    ".eml": EML,
    ".mbox": MBOX,
    ".ics": ICAL,
    ".vcf": VCARD,
    ".css": CSS,
    ".js": JS,
    ".mjs": JS,
}

_XML_ROOT_RE = _re.compile(rb"<([a-zA-Z][a-zA-Z0-9_.-]*)")
_JSON_OBJ_RE = _re.compile(rb'\{\s*"')
_JSON_ARR_RE = _re.compile(rb'\[\s*(?:[\{\["0-9-]|true|false|null)')


def _xml_subtype(lowered: bytes) -> str:
    """XML payload → specific type from the ROOT element: svg / rss / atom
    feed, else generic. The declaration (``<?``), comments (``<!--``) and
    doctype (``<!``) never match ``<letter``, so the first match IS the
    root element."""
    m = _XML_ROOT_RE.search(lowered)
    if m is None:
        return XML
    root = m.group(1)
    if root == b"svg":
        return SVG
    if root == b"rss":
        return RSS
    if root == b"feed":
        return ATOM
    return XML


# mbox postmark: "From " + envelope sender + ctime date ("Mon Jan  1
# 00:00:00 2026"). The date shape is the discriminator — prose starting
# with "From " ("From here we travel…") never carries it.
_MBOX_POSTMARK_RE = _re.compile(
    rb"\AFrom \S+ +[A-Z][a-z]{2} [A-Z][a-z]{2} [ \d]\d"
    rb" \d\d:\d\d:\d\d \d{4}\r?\n"
)
# RFC 5322 header line: field-name (printable US-ASCII minus colon), colon
_HDR_LINE_RE = _re.compile(rb"\A[!-9;-~]{1,64}:")
# canonical mail headers — at least two must appear for the EML verdict
_MAIL_HDRS = frozenset(
    (
        b"from", b"to", b"cc", b"bcc", b"subject", b"date", b"received",
        b"message-id", b"mime-version", b"return-path", b"delivered-to",
        b"reply-to", b"sender", b"in-reply-to",
    )
)


def _email_subtype(scan: bytes) -> str | None:
    """Email detection within the text supertype (Tika RFC822 / mbox
    detector semantics): an mbox postmark line, or a complete RFC 5322
    header block — every line up to the first blank is a ``Name: value``
    header or a folded continuation, with ≥2 canonical mail header names
    (one alone would misfile prose like ``Note: remember the date``)."""
    if _MBOX_POSTMARK_RE.match(scan):
        return MBOX
    lines = scan.split(b"\n")
    complete = lines[:-1]  # the sniff window may truncate the last line
    if len(complete) < 2:
        return None
    n_mail = 0
    saw_blank = False
    for ln in complete[:64]:
        ln = ln.rstrip(b"\r")
        if not ln:
            saw_blank = True
            break
        if ln[:1] in (b" ", b"\t"):
            continue  # folded continuation of the previous header
        if not _HDR_LINE_RE.match(ln):
            return None
        if ln.split(b":", 1)[0].strip().lower() in _MAIL_HDRS:
            n_mail += 1
    # a complete header block (blank separator seen) with 2 canonical
    # names, or — when the window cuts the block off — 4 to be safe
    if n_mail >= 2 and (saw_blank or n_mail >= 4):
        return EML
    return None


def _textual_subtype(scan: bytes) -> str | None:
    """Structured-text detection within the text supertype: JSON / NDJSON
    (brace-led with a string key), iCalendar / vCard (their mandated
    BEGIN: first line — the Tika mime-magic strings, case-sensitive at
    offset 0 like Tika's), Markdown (heading-led with a second block
    signal), CSV / TSV (Tika TextAndCSVParser-style delimiter consistency
    across the first complete lines)."""
    if scan.startswith(b"BEGIN:VCALENDAR"):
        return ICAL
    if scan.startswith(b"BEGIN:VCARD"):
        return VCARD
    s = scan.lstrip()
    if s[:1] == b"{":
        # NDJSON: every complete line is a brace-delimited object
        lines = [ln.strip() for ln in s.split(b"\n")[:-1]]
        lines = [ln for ln in lines if ln][:10]
        if len(lines) >= 2 and all(
            ln.startswith(b"{") and ln.endswith(b"}") for ln in lines
        ):
            return NDJSON
        if _JSON_OBJ_RE.match(s):
            return JSON
        return None
    if s[:1] == b"[":
        return JSON if _JSON_ARR_RE.match(s) else None
    # Markdown: a leading ATX heading plus a second block-level signal
    # (another heading, a list, or strong emphasis) — one signal alone
    # would misfile hash-commented plain text
    if s.startswith(b"# "):
        body = s.split(b"\n", 1)[1] if b"\n" in s else b""
        if (
            b"\n# " in body
            or b"\n## " in body
            or b"\n- " in body
            or b"\n* " in body
            or b"**" in body
        ):
            return MARKDOWN
    # CSV / TSV: >=3 complete lines with an identical, nonzero delimiter
    # count per line (tab checked first: tabs are rarer in prose). The
    # comma branch demands >=2 per line — three prose sentences each
    # containing exactly one comma would otherwise misfile as text/csv
    # (a single tab per line stays sufficient: tabs don't occur in prose)
    lines = scan.split(b"\n")[:-1][:10]  # drop the possibly-truncated tail
    lines = [ln for ln in lines if ln.strip()]
    if len(lines) >= 3:
        for delim, mt, min_count in ((b"\t", TSV, 1), (b",", CSV, 2)):
            c0 = lines[0].count(delim)
            if c0 >= min_count and all(ln.count(delim) == c0 for ln in lines):
                return mt
    return None


def refine_by_name(media: str, url: str | None) -> str:
    """Resource-name refinement within text/plain only (magic wins)."""
    if media != PLAIN or not url:
        return media
    path = url.split("?", 1)[0].split("#", 1)[0]
    dot = path.rfind(".")
    if dot == -1 or "/" in path[dot:]:
        return media
    return _NAME_HINTS.get(path[dot:].lower(), media)


def _zip_member_names(zone: bytes) -> list[bytes]:
    """Member names parsed from ZIP record headers found in a bounded
    window: local file headers (``PK\\x03\\x04``, name at +30, length at
    +26) and central-directory entries (``PK\\x01\\x02``, name at +46,
    length at +28). Truncated records at the window edge are skipped."""
    names: list[bytes] = []
    for sig, name_off, len_off in ((b"PK\x03\x04", 30, 26), (b"PK\x01\x02", 46, 28)):
        pos = zone.find(sig)
        while pos != -1:
            if pos + name_off <= len(zone):
                nlen = int.from_bytes(zone[pos + len_off : pos + len_off + 2], "little")
                name = zone[pos + name_off : pos + name_off + nlen]
                if name and len(name) == nlen:
                    names.append(name)
            pos = zone.find(sig, pos + 4)
    return names


def _odf_mimetype(prefix: bytes) -> str | None:
    """Package media type from the ``mimetype`` member (ODF and EPUB/OCF
    both mandate it as the FIRST member, STORED uncompressed), so its
    content sits at a computable offset after the first local file header —
    anchored to that header's name/extra fields, never a raw substring
    scan of the window."""
    if not prefix.startswith(b"PK\x03\x04") or len(prefix) < 34:
        return None
    nlen = int.from_bytes(prefix[26:28], "little")
    xlen = int.from_bytes(prefix[28:30], "little")
    if prefix[30 : 30 + nlen] != b"mimetype":
        return None
    start = 30 + nlen + xlen
    body = prefix[start : start + 128]
    if body.startswith(b"application/epub+zip"):
        return EPUB
    if body.startswith(b"application/vnd.oasis.opendocument."):
        end = 35
        while end < len(body) and (
            body[end : end + 1].islower() or body[end : end + 1] == b"-"
        ):
            end += 1
        return body[:end].decode("ascii", errors="replace")
    return None


def sniff_bytes(prefix: bytes, suffix: bytes | None = None) -> str:
    """Classify a payload from its first bytes (and, for ZIP containers,
    its last bytes). Pure function — the normative magic-byte table.
    """
    if suffix is None:
        suffix = prefix
    if prefix.startswith(b"%PDF-"):
        return PDF
    if prefix.startswith(b"\x89PNG\r\n\x1a\n"):
        return PNG
    if prefix.startswith((b"GIF87a", b"GIF89a")):
        return GIF
    if prefix.startswith(b"\xff\xd8\xff"):
        return JPEG
    if prefix.startswith((b"II*\x00", b"MM\x00*")):
        return TIFF
    if prefix.startswith(b"8BPS"):
        return PSD
    if prefix[:4] == b"RIFF" and prefix[8:12] == b"WEBP":
        return WEBP
    if prefix[:4] == b"RIFF" and prefix[8:12] == b"WAVE":
        return WAV
    if prefix[:4] == b"RIFF" and prefix[8:12] == b"AVI ":
        return AVI
    if prefix.startswith(b"fLaC"):
        return FLAC
    if prefix.startswith(b"OggS"):
        return OGG
    # ISO BMFF: size + "ftyp" as the first box (MP4/QuickTime family)
    if prefix[4:8] == b"ftyp" and len(prefix) >= 12:
        return MP4
    # ICO: weak 4-byte magic — require a plausible icon count and the
    # first directory entry's reserved byte to be 0
    if (
        prefix[:4] == b"\x00\x00\x01\x00"
        and len(prefix) >= 10
        and 1 <= int.from_bytes(prefix[4:6], "little") <= 64
        and prefix[9] == 0
    ):
        return ICO
    # BMP: "BM" alone collides with text ("BMW …"); require a known DIB
    # header size at offset 14 (BITMAPCOREHEADER through V5HEADER)
    if (
        prefix.startswith(b"BM")
        and len(prefix) >= 18
        and int.from_bytes(prefix[14:18], "little")
        in (12, 40, 52, 56, 64, 108, 124)
    ):
        return BMP
    if prefix.startswith(b"{\\rtf"):
        return RTF
    if prefix.startswith(b"PK\x03\x04"):
        # ODF first (mimetype member anchored at the mandated first-entry
        # offset), then OOXML subtype from ZIP MEMBER NAMES only
        # (local-file-header and central-directory name fields), never a
        # raw substring scan of the window — a generic ZIP containing
        # 'crossword/notes.txt' must stay application/zip.
        odf = _odf_mimetype(prefix)
        if odf is not None:
            return odf
        names = _zip_member_names(prefix) + _zip_member_names(suffix)
        if any(nm.startswith(b"word/") for nm in names):
            return DOCX
        if any(nm.startswith(b"xl/") for nm in names):
            return XLSX
        if any(nm.startswith((b"ppt/", b"ppt\\")) for nm in names):
            return PPTX
        if any(nm.startswith(b"visio/") for nm in names):
            return VSDX
        return ZIP
    if prefix.startswith(b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"):
        return OLE2
    if prefix.startswith(b"\x1f\x8b"):
        return GZIP
    # bzip2: "BZh" + level digit + the 6-byte compressed-block pi magic
    # (the pi bytes keep a text file that merely starts "BZh9..." textual)
    if (
        prefix[:3] == b"BZh"
        and prefix[3:4] in b"123456789"
        and prefix[4:10] == b"\x31\x41\x59\x26\x53\x59"
    ):
        return BZIP2
    if prefix.startswith(b"\xfd7zXZ\x00"):
        return XZ
    if prefix.startswith(b"\x28\xb5\x2f\xfd"):
        return ZSTD
    if prefix.startswith(b"7z\xbc\xaf\x27\x1c"):
        return SEVENZ
    if prefix.startswith(b"Rar!\x1a\x07"):
        return RAR
    # TAR (POSIX ustar / GNU): magic at offset 257 inside the first header
    # block — covered by the 2048-byte sniff prefix
    if prefix[257:262] == b"ustar" and prefix[262:265] in (
        b"\x0000",
        b"  \x00",
    ):
        return TAR
    # MP3: ID3v2 tag (validated header: major version 2-4, syncsafe size
    # bytes < 0x80 — a text file that merely starts with "ID3" stays
    # text/plain), or a bare MPEG-1 Layer III frame sync (0xFFFB/0xFFFA)
    if (
        prefix.startswith(b"ID3")
        and len(prefix) >= 10
        and prefix[3] in (2, 3, 4)
        and prefix[4] != 0xFF
        and all(b < 0x80 for b in prefix[6:10])
    ):
        return MP3
    if prefix.startswith((b"\xff\xfb", b"\xff\xfa")):
        return MP3
    # UTF-16 BOMs: NUL-heavy bytes would otherwise hit the binary
    # heuristic — decode the prefix and scan that for HTML markers
    if prefix.startswith((b"\xff\xfe", b"\xfe\xff")):
        codec = "utf-16-le" if prefix[0] == 0xFF else "utf-16-be"
        decoded = prefix[2:].decode(codec, errors="replace").lower()
        dbytes = decoded.encode("utf-8", errors="replace")
        if any(m in dbytes for m in (b"<html", b"<head", b"<body")):
            return HTML
        return PLAIN
    # UTF-8 BOM marks text; fall through to the HTML scan on BOM-stripped
    # lowercase bytes below.
    scan = prefix
    if scan.startswith(b"\xef\xbb\xbf"):
        scan = scan[3:]
    lowered = scan[:1024].lower().lstrip()
    if lowered.startswith(b"<?xml"):
        return HTML if b"<html" in lowered else _xml_subtype(lowered)
    for marker in _HTML_MARKERS:
        if lowered.startswith(marker):
            return HTML
    # bare XML roots without a declaration
    if lowered.startswith(b"<svg"):
        return SVG
    if lowered.startswith(b"<rss"):
        return RSS
    if lowered.startswith(b"<feed"):
        return ATOM
    # email BEFORE the html substring scan: a message whose MIME tree
    # contains an html alternative has "<html" inside the window, but its
    # header block starts at byte 0 and wins (Tika detector precedence)
    email_mt = _email_subtype(scan)
    if email_mt is not None:
        return email_mt
    if any(m in lowered for m in (b"<html", b"<head", b"<body")):
        return HTML
    # text-vs-binary heuristic: NUL bytes or a high ratio of control
    # characters → binary.
    if b"\x00" in prefix:
        return OCTET
    n_ctrl = len(prefix) - len(prefix.translate(None, _CTRL))
    if prefix and n_ctrl / len(prefix) > 0.10:
        return OCTET
    return _textual_subtype(scan) or PLAIN


def detect_content_type(batch: pa.Table, detector=None) -> pa.Table:
    """map_batches kernel: web_pages batch → + media_type, error_type,
    error_message columns. Never raises (§2.8 error-as-data).

    ``detector`` is the user-extension hook (SURVEY.md §2.9): a callable
    ``bytes -> media_type`` replacing the built-in magic-byte table — the
    scale analogue of ``Rika.parse(..., detector: MyDetector)``
    (``/root/reference/lib/rika.rb:43-46``). A detector that raises or
    returns a falsy value falls back to the built-in sniff for that row.
    """
    import pyarrow.compute as pc

    html_col = batch["html"]
    n = len(batch)
    media = [None] * n
    err_t = [None] * n
    err_m = [None] * n
    # vectorized prefix/suffix slices: only bounded windows of each payload
    # are materialized as Python bytes, never the (possibly multi-MB) doc
    prefixes = pc.binary_slice(html_col, 0, _SNIFF_PREFIX).to_pylist()
    suffixes = pc.binary_slice(html_col, -_SNIFF_SUFFIX, None).to_pylist()
    urls = (
        batch["url"].to_pylist() if "url" in batch.column_names else [None] * n
    )
    for i in range(n):
        prefix = prefixes[i]
        if prefix is None or len(prefix) == 0:
            err_t[i] = "empty_file"
            err_m[i] = "zero-length document payload"
            continue
        detected = None
        if detector is not None:
            try:
                detected = detector(html_col[i].as_py())
            except Exception:
                detected = None
        media[i] = detected or refine_by_name(
            sniff_bytes(prefix, suffixes[i]), urls[i]
        )
    return (
        batch.append_column("media_type", pa.array(media, pa.string()))
        .append_column("error_type", pa.array(err_t, pa.string()))
        .append_column("error_message", pa.array(err_m, pa.string()))
    )
