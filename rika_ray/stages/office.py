"""Word-processor format extraction (operator M6, SURVEY.md §2.2).

The reference extracts DOC/DOCX text + format metadata (``meta:page-count``)
via Tika's POI-backed parsers
(``/root/reference/spec/rika/parser_spec.rb:153-155,199-201,240-249``).

Here: DOCX (OOXML ZIP) is parsed for real — unzip ``word/document.xml``,
walk ``w:p``/``w:t`` runs, read ``docProps/core.xml`` (title/creator) and
``docProps/app.xml`` (page count).

Legacy binary DOC is parsed with a from-scratch minimal CFB (Compound File
Binary / OLE2) reader: header → FAT via the header DIFAT → directory chain
→ ``WordDocument`` stream → Word97 FibBase (``wIdent`` 0xA5EC; ``fcMin``/
``fcMac`` at FibBase offsets 0x18/0x1C) → linear text region. Scope is the
simple-save layout (contiguous text, cp1252 / UTF-16 by ``fcMac`` parity
heuristic) — complex piece-table documents raise ``OfficeParseError`` and
become error rows; an OLE2 container *without* a WordDocument stream falls
back to empty content with the container media type.

Extraction spec: each paragraph's text, newline-terminated
(``docgen.expected_docx_content``).
"""

from __future__ import annotations

import re
import zipfile
import xml.etree.ElementTree as ET
from io import BytesIO


class OfficeParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# Minimal CFB (OLE2 compound file) reader
# ---------------------------------------------------------------------------

_CFB_MAGIC = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"
_ENDOFCHAIN = 0xFFFFFFFE


class CfbFile:
    """Read-only minimal CFB: FAT from the header DIFAT (first 109
    entries), directory chain, per-stream sector chains. Covers files whose
    DIFAT fits the header (≤ ~7 MB FAT coverage) — enough for documents."""

    def __init__(self, data: bytes) -> None:
        import struct

        if not data.startswith(_CFB_MAGIC) or len(data) < 512:
            raise OfficeParseError("not a CFB file")
        self.data = data
        (self.sector_shift,) = struct.unpack_from("<H", data, 30)
        if not 7 <= self.sector_shift <= 12:
            raise OfficeParseError(f"bad sector shift {self.sector_shift}")
        self.sector_size = 1 << self.sector_shift
        (n_fat,) = struct.unpack_from("<I", data, 44)
        (self.first_dir,) = struct.unpack_from("<I", data, 48)
        fat_sectors = []
        for i in range(min(109, n_fat)):
            (sid,) = struct.unpack_from("<I", data, 76 + 4 * i)
            if sid < 0xFFFFFFFA:
                fat_sectors.append(sid)
        self.fat: list[int] = []
        for sid in fat_sectors:
            raw = self._sector(sid)
            self.fat.extend(
                struct.unpack(f"<{len(raw) // 4}I", raw)
            )
        if not self.fat:
            raise OfficeParseError("empty FAT")

    def _sector(self, sid: int) -> bytes:
        start = 512 + sid * self.sector_size
        if start + self.sector_size > len(self.data):
            raise OfficeParseError(f"sector {sid} out of range")
        return self.data[start : start + self.sector_size]

    def _chain(self, start: int) -> bytes:
        """A sector chain's bytes. Each sector is visited at most once, so
        a chain can be no longer than the file: a FAT that loops back is
        refused at its first repeated sector."""
        out = []
        seen: set[int] = set()
        sid = start
        while sid != _ENDOFCHAIN:
            if sid >= len(self.fat) or sid in seen:
                raise OfficeParseError("broken FAT chain")
            seen.add(sid)
            out.append(self._sector(sid))
            sid = self.fat[sid]
        return b"".join(out)

    def streams(self) -> dict[str, bytes]:
        """Directory walk → {stream name: bytes} (storage tree flattened)."""
        import struct

        directory = self._chain(self.first_dir)
        out: dict[str, bytes] = {}
        for off in range(0, len(directory) - 127, 128):
            entry = directory[off : off + 128]
            (name_len,) = struct.unpack_from("<H", entry, 64)
            if name_len < 2 or name_len > 64:
                continue
            name = entry[: name_len - 2].decode("utf-16-le", errors="replace")
            obj_type = entry[66]
            (start,) = struct.unpack_from("<I", entry, 116)
            (size,) = struct.unpack_from("<Q", entry, 120)
            if obj_type == 2 and size > 0:  # stream
                out[name] = self._chain(start)[:size]
        return out


def extract_xlsx(data: bytes) -> tuple[str, list[dict], dict[str, str]]:
    """Spreadsheet text: shared strings in document order, one per line."""
    try:
        zf = zipfile.ZipFile(BytesIO(data))
    except zipfile.BadZipFile as e:
        raise OfficeParseError(f"bad zip: {e}") from None
    if "xl/sharedStrings.xml" not in zf.namelist():
        return "", [], {}
    try:
        root = ET.fromstring(zf.read("xl/sharedStrings.xml"))
    except ET.ParseError as e:
        raise OfficeParseError(f"bad sharedStrings.xml: {e}") from None
    ns = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
    cells = ["".join(t.text or "" for t in si.iter(f"{ns}t"))
             for si in root.iter(f"{ns}si")]
    spans = [
        {"page": 0, "order": i, "kind": "cell", "text": t}
        for i, t in enumerate(cells)
    ]
    return "".join(t + "\n" for t in cells), spans, {}


def extract_pptx(data: bytes) -> tuple[str, list[dict], dict[str, str]]:
    """Presentation text: ``a:t`` runs per slide, slide order by number."""
    import re as _re

    try:
        zf = zipfile.ZipFile(BytesIO(data))
    except zipfile.BadZipFile as e:
        raise OfficeParseError(f"bad zip: {e}") from None
    ns = "{http://schemas.openxmlformats.org/drawingml/2006/main}"
    slide_names = sorted(
        (n for n in zf.namelist()
         if _re.fullmatch(r"ppt/slides/slide\d+\.xml", n)),
        key=lambda n: int(_re.search(r"(\d+)", n).group(1)),
    )
    lines: list[str] = []
    spans: list[dict] = []
    for page, name in enumerate(slide_names):
        try:
            root = ET.fromstring(zf.read(name))
        except ET.ParseError:
            continue
        for order, t in enumerate(root.iter(f"{ns}t")):
            txt = t.text or ""
            spans.append(
                {"page": page, "order": order, "kind": "run", "text": txt}
            )
            lines.append(txt)
    return "".join(t + "\n" for t in lines), spans, {}


def _doc_text_from_piece_table(
    wd: bytes, table: bytes, fc_clx: int, lcb_clx: int
) -> str:
    """Text via the Word97 piece table (MS-DOC CLX → Pcdt → PlcPcd):
    reading order comes from the CP array; each PCD's fc locates the
    piece's bytes in WordDocument, bit 30 (fCompressed) selecting cp1252
    (offset = fc/2) vs UTF-16LE."""
    import struct

    if not (0 <= fc_clx and fc_clx + lcb_clx <= len(table)):
        raise OfficeParseError("CLX out of table-stream bounds")
    clx = table[fc_clx : fc_clx + lcb_clx]
    pos = 0
    plc = None
    while pos < len(clx):
        tag = clx[pos]
        if tag == 1:  # Prc: skip grpprl
            if pos + 3 > len(clx):
                raise OfficeParseError("truncated Prc in CLX")
            (cb,) = struct.unpack_from("<H", clx, pos + 1)
            pos += 3 + cb
        elif tag == 2:  # Pcdt
            if pos + 5 > len(clx):
                raise OfficeParseError("truncated Pcdt in CLX")
            (lcb,) = struct.unpack_from("<I", clx, pos + 1)
            plc = clx[pos + 5 : pos + 5 + lcb]
            if len(plc) != lcb:
                raise OfficeParseError("PlcPcd shorter than its lcb")
            break
        else:
            raise OfficeParseError(f"unknown CLX tag {tag}")
    if plc is None:
        raise OfficeParseError("no Pcdt in CLX")
    if len(plc) < 4 + 8 or (len(plc) - 4) % 12:
        raise OfficeParseError("bad PlcPcd size")
    n = (len(plc) - 4) // 12
    cps = struct.unpack_from(f"<{n + 1}I", plc, 0)
    parts: list[str] = []
    for i in range(n):
        n_chars = cps[i + 1] - cps[i]
        if n_chars < 0:
            raise OfficeParseError("non-monotone piece CPs")
        (fc,) = struct.unpack_from("<I", plc, 4 * (n + 1) + 8 * i + 2)
        if fc & 0x40000000:  # fCompressed: cp1252, halved offset
            off = (fc & 0x3FFFFFFF) >> 1
            raw = wd[off : off + n_chars]
            if len(raw) != n_chars:
                raise OfficeParseError("piece out of WordDocument bounds")
            parts.append(raw.decode("cp1252", errors="replace"))
        else:
            off = fc
            raw = wd[off : off + 2 * n_chars]
            if len(raw) != 2 * n_chars:
                raise OfficeParseError("piece out of WordDocument bounds")
            parts.append(raw.decode("utf-16-le", errors="replace"))
    return "".join(parts)


def extract_doc(
    data: bytes, streams: dict[str, bytes] | None = None
) -> tuple[str, list[dict], dict[str, str]]:
    """(content, spans, metadata) from legacy Word binary bytes.

    Raises OfficeParseError when the container has no WordDocument stream
    (caller falls back to opaque OLE2 handling) or when neither the piece
    table nor the simple linear layout parses. Piece-table (complex /
    incremental-save) documents — the predominant real-world layout — are
    read via fcClx/lcbClx (FIB 0x1A2/0x1A6) into the Table stream.
    ``streams`` lets the extraction router reuse an already-parsed CFB
    directory (one container read per doc)."""
    if streams is None:
        streams = CfbFile(data).streams()
    if "WordDocument" not in streams:
        raise OfficeParseError("no WordDocument stream")
    wd = streams["WordDocument"]
    if len(wd) < 32:
        raise OfficeParseError("WordDocument stream too short")
    import struct

    (w_ident,) = struct.unpack_from("<H", wd, 0)
    if w_ident != 0xA5EC:
        raise OfficeParseError(f"bad FIB wIdent 0x{w_ident:04X}")
    (flags,) = struct.unpack_from("<H", wd, 10)
    table_name = "1Table" if flags & 0x0200 else "0Table"
    fc_clx = lcb_clx = 0
    if len(wd) >= 0x1AA:
        (fc_clx,) = struct.unpack_from("<I", wd, 0x1A2)
        (lcb_clx,) = struct.unpack_from("<I", wd, 0x1A6)
    if lcb_clx and table_name in streams:
        text = _doc_text_from_piece_table(
            wd, streams[table_name], fc_clx, lcb_clx
        )
    else:
        (fc_min,) = struct.unpack_from("<I", wd, 24)
        (fc_mac,) = struct.unpack_from("<I", wd, 28)
        if not (32 <= fc_min <= fc_mac <= len(wd)):
            raise OfficeParseError("FIB text range out of bounds")
        raw = wd[fc_min:fc_mac]
        # simple-save heuristic: UTF-16 text regions have even length and
        # abundant NUL high bytes; cp1252 otherwise
        if len(raw) % 2 == 0 and raw[1::2].count(0) > len(raw) // 4:
            text = raw.decode("utf-16-le", errors="replace")
        else:
            text = raw.decode("cp1252", errors="replace")
    paragraphs = [p for p in text.split("\r") if p != ""]
    spans = [
        {"page": 0, "order": i, "kind": "p", "text": p}
        for i, p in enumerate(paragraphs)
    ]
    content = "".join(p + "\n" for p in paragraphs)
    return content, spans, {}


# ---------------------------------------------------------------------------
# Legacy binary Excel (BIFF8) and PowerPoint — same CFB container as DOC.
# The reference gets these through Tika's POI HSSF/HSLF parsers behind the
# one Rika.parse surface (/root/reference/lib/rika/parser.rb:21-29); here
# they are read from the public MS-XLS / MS-PPT record layouts.
# ---------------------------------------------------------------------------

_BIFF_SST = 0x00FC
_BIFF_CONTINUE = 0x003C


def _biff_records(stream: bytes):
    """Yield (record_type, payload) over a BIFF stream; truncated trailing
    bytes are ignored (real writers pad the final sector)."""
    import struct

    pos = 0
    n = len(stream)
    while pos + 4 <= n:
        rec_type, rec_len = struct.unpack_from("<HH", stream, pos)
        if rec_type == 0:
            break  # sector padding after EOF
        payload = stream[pos + 4 : pos + 4 + rec_len]
        if len(payload) != rec_len:
            break
        yield rec_type, payload
        pos += 4 + rec_len


def _sst_strings(payload: bytes, continues: list[bytes]) -> list[str]:
    """XLUnicodeRichExtendedString entries from an SST record.

    Handles the compressed (latin-1) vs uncompressed (UTF-16LE) flag per
    string and rich/ext tails. A string that spans into a Continue record
    resumes after that record's fresh option-flags byte (MS-XLS 2.5.293);
    scope is strings that do not SPLIT mid-character — enough for the
    synthetic corpus and typical small sheets, and a violation raises
    rather than silently mis-reading."""
    import struct

    (cst_unique,) = struct.unpack_from("<I", payload, 4)
    out: list[str] = []
    buf = payload
    pos = 8
    pending = list(continues)
    for _ in range(cst_unique):
        if pos >= len(buf):
            if not pending:
                raise OfficeParseError("SST truncated")
            buf, pos = pending.pop(0), 0
        if pos + 3 > len(buf):
            raise OfficeParseError("SST string header truncated")
        (cch,) = struct.unpack_from("<H", buf, pos)
        flags = buf[pos + 2]
        pos += 3
        if flags & 0x08:  # fRichSt: u16 run count
            (c_run,) = struct.unpack_from("<H", buf, pos)
            pos += 2
        else:
            c_run = 0
        if flags & 0x04:  # fExtSt: u32 ExtRst size
            (cb_ext,) = struct.unpack_from("<I", buf, pos)
            pos += 4
        else:
            cb_ext = 0
        nbytes = cch * 2 if flags & 0x01 else cch
        if pos + nbytes > len(buf):
            raise OfficeParseError("SST string spans a Continue mid-body")
        raw = buf[pos : pos + nbytes]
        out.append(
            raw.decode("utf-16-le" if flags & 0x01 else "latin-1",
                       errors="replace")
        )
        pos += nbytes + 4 * c_run + cb_ext
    return out


def extract_xls(
    data: bytes, streams: dict[str, bytes] | None = None
) -> tuple[str, list[dict], dict[str, str]]:
    """(content, spans, metadata) from legacy Excel binary bytes: the
    ``Workbook`` (or ``Book``) stream's SST shared strings in document
    order, one per line — the same extraction spec as ``extract_xlsx``.
    Raises OfficeParseError when no workbook stream exists (caller falls
    back to opaque OLE2 handling). ``streams`` lets the extraction router
    reuse an already-parsed CFB directory (one container read per doc)."""
    if streams is None:
        streams = CfbFile(data).streams()
    wb = streams.get("Workbook", streams.get("Book"))
    if wb is None:
        raise OfficeParseError("no Workbook stream")
    cells: list[str] = []
    records = _biff_records(wb)
    for rec_type, payload in records:
        if rec_type != _BIFF_SST:
            continue
        continues: list[bytes] = []
        for nxt_type, nxt_payload in records:
            if nxt_type != _BIFF_CONTINUE:
                break
            continues.append(nxt_payload)
        cells.extend(_sst_strings(payload, continues))
        break
    spans = [
        {"page": 0, "order": i, "kind": "cell", "text": t}
        for i, t in enumerate(cells)
    ]
    return "".join(t + "\n" for t in cells), spans, {}


_PPT_TEXT_CHARS_ATOM = 0x0FA0  # UTF-16LE
_PPT_TEXT_BYTES_ATOM = 0x0FA8  # single-byte cp1252


def _ppt_walk_text(stream: bytes, out: list[str], depth: int = 0) -> None:
    """Recursive MS-PPT record walk: 8-byte headers (verAndInstance,
    recType, recLen); recVer == 0xF marks a container whose payload is
    itself a record sequence. Collects text atoms in stream order."""
    import struct

    if depth > 32:
        raise OfficeParseError("PPT record nesting too deep")
    pos = 0
    n = len(stream)
    while pos + 8 <= n:
        ver_inst, rec_type, rec_len = struct.unpack_from("<HHI", stream, pos)
        payload = stream[pos + 8 : pos + 8 + rec_len]
        if len(payload) != rec_len:
            break  # sector padding / truncation ends the walk
        if ver_inst & 0x000F == 0x000F:  # container
            _ppt_walk_text(payload, out, depth + 1)
        elif rec_type == _PPT_TEXT_CHARS_ATOM:
            out.append(payload.decode("utf-16-le", errors="replace"))
        elif rec_type == _PPT_TEXT_BYTES_ATOM:
            out.append(payload.decode("cp1252", errors="replace"))
        pos += 8 + rec_len


def extract_ppt(
    data: bytes, streams: dict[str, bytes] | None = None
) -> tuple[str, list[dict], dict[str, str]]:
    """(content, spans, metadata) from legacy PowerPoint binary bytes:
    TextCharsAtom / TextBytesAtom payloads in record order from the
    ``PowerPoint Document`` stream, one per line — the same extraction
    spec as ``extract_pptx``. Raises OfficeParseError when the stream is
    absent (caller falls back to opaque OLE2 handling). ``streams`` as in
    ``extract_xls``."""
    if streams is None:
        streams = CfbFile(data).streams()
    doc = streams.get("PowerPoint Document")
    if doc is None:
        raise OfficeParseError("no PowerPoint Document stream")
    texts: list[str] = []
    _ppt_walk_text(doc, texts)
    spans = [
        {"page": 0, "order": i, "kind": "run", "text": t}
        for i, t in enumerate(texts)
    ]
    return "".join(t + "\n" for t in texts), spans, {}


_ODF_TEXT_NS = "{urn:oasis:names:tc:opendocument:xmlns:text:1.0}"
_ODF_OFFICE_NS = "{urn:oasis:names:tc:opendocument:xmlns:office:1.0}"


def _odf_para_text(el) -> str:
    """Flatten one ODF paragraph/heading: nested spans recurse;
    ``text:tab`` → TAB, ``text:line-break`` → NL, ``text:s`` → its
    ``c``-count spaces (ODF whitespace-expansion rules)."""
    parts: list[str] = [el.text or ""]
    for child in el:
        tag = child.tag
        if tag == f"{_ODF_TEXT_NS}tab":
            parts.append("\t")
        elif tag == f"{_ODF_TEXT_NS}line-break":
            parts.append("\n")
        elif tag == f"{_ODF_TEXT_NS}s":
            parts.append(" " * int(child.get(f"{_ODF_TEXT_NS}c", "1")))
        else:
            parts.append(_odf_para_text(child))
        parts.append(child.tail or "")
    return "".join(parts)


def extract_odt(data: bytes) -> tuple[str, list[dict], dict[str, str]]:
    """(content, spans, metadata) from an OpenDocument Text package:
    unzip ``content.xml``, walk ``text:p``/``text:h`` in document order,
    read ``meta.xml`` for dc:title / dc:creator. Same newline-terminated
    paragraph spec as the other word-processor kernels."""
    try:
        zf = zipfile.ZipFile(BytesIO(data))
    except zipfile.BadZipFile as e:
        raise OfficeParseError(f"bad zip: {e}") from None
    names = set(zf.namelist())
    if "content.xml" not in names:
        raise OfficeParseError("no content.xml")
    try:
        root = ET.fromstring(zf.read("content.xml"))
    except ET.ParseError as e:
        raise OfficeParseError(f"bad content.xml: {e}") from None

    paragraphs = [
        _odf_para_text(el)
        for el in root.iter()
        if el.tag in (f"{_ODF_TEXT_NS}p", f"{_ODF_TEXT_NS}h")
    ]
    spans = [
        {"page": 0, "order": i, "kind": "p", "text": t}
        for i, t in enumerate(paragraphs)
    ]
    content = "".join(t + "\n" for t in paragraphs)

    metadata: dict[str, str] = {}
    if "meta.xml" in names:
        try:
            meta_root = ET.fromstring(zf.read("meta.xml"))
            title = meta_root.findtext(f".//{_DC_NS}title")
            creator = meta_root.findtext(f".//{_DC_NS}creator")
            if title:
                metadata["dc:title"] = title
            if creator:
                metadata["dc:creator"] = creator
        except ET.ParseError:
            pass
    return content, spans, metadata


_W_NS = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"
_DC_NS = "{http://purl.org/dc/elements/1.1/}"
_EP_NS = "{http://schemas.openxmlformats.org/officeDocument/2006/extended-properties}"


def extract_docx(data: bytes) -> tuple[str, list[dict], dict[str, str]]:
    """(content, spans, metadata) from OOXML wordprocessing bytes."""
    try:
        zf = zipfile.ZipFile(BytesIO(data))
    except zipfile.BadZipFile as e:
        raise OfficeParseError(f"bad zip: {e}") from None
    names = set(zf.namelist())
    if "word/document.xml" not in names:
        raise OfficeParseError("no word/document.xml")
    try:
        root = ET.fromstring(zf.read("word/document.xml"))
    except ET.ParseError as e:
        raise OfficeParseError(f"bad document.xml: {e}") from None

    paragraphs: list[str] = []
    for p in root.iter(f"{_W_NS}p"):
        runs = [t.text or "" for t in p.iter(f"{_W_NS}t")]
        paragraphs.append("".join(runs))
    spans = [
        {"page": 0, "order": i, "kind": "p", "text": t}
        for i, t in enumerate(paragraphs)
    ]
    content = "".join(t + "\n" for t in paragraphs)

    metadata: dict[str, str] = {}
    if "docProps/core.xml" in names:
        try:
            core = ET.fromstring(zf.read("docProps/core.xml"))
            title = core.findtext(f"{_DC_NS}title")
            creator = core.findtext(f"{_DC_NS}creator")
            if title:
                metadata["dc:title"] = title
            if creator:
                metadata["dc:creator"] = creator
        except ET.ParseError:
            pass
    if "docProps/app.xml" in names:
        try:
            app = ET.fromstring(zf.read("docProps/app.xml"))
            pages = app.findtext(f"{_EP_NS}Pages")
            if pages and re.fullmatch(r"\d+", pages):
                metadata["meta:page-count"] = pages
        except ET.ParseError:
            pass
    return content, spans, metadata


_VISIO_NS = "{http://schemas.microsoft.com/office/visio/2012/main}"


def extract_vsdx(data: bytes) -> tuple[str, list[dict], dict[str, str]]:
    """(content, spans, metadata) from a Visio OOXML (.vsdx) package:
    walk ``visio/pages/page*.xml`` in name order and emit each shape's
    ``<Text>`` element (Visio 2012 main namespace) as one paragraph —
    the Tika VisioOOXMLExtractor surface (shape text + core properties).
    Re-implemented from the PUBLIC VSDX file-format documentation
    ([MS-VSDX]); the reference inherits it via the Tika jar
    (/root/reference/lib/rika/tika_loader.rb:12-26)."""
    try:
        zf = zipfile.ZipFile(BytesIO(data))
    except zipfile.BadZipFile as e:
        raise OfficeParseError(f"bad zip: {e}") from None
    names = sorted(zf.namelist())
    page_files = [
        n for n in names
        if n.startswith("visio/pages/") and re.fullmatch(
            r"visio/pages/page\d+\.xml", n
        )
    ]
    if not page_files:
        raise OfficeParseError("no visio/pages/page*.xml")

    paragraphs: list[str] = []
    spans: list[dict] = []
    for page_no, pf in enumerate(page_files):
        try:
            root = ET.fromstring(zf.read(pf))
        except ET.ParseError as e:
            raise OfficeParseError(f"bad {pf}: {e}") from None
        for order, t in enumerate(root.iter(f"{_VISIO_NS}Text")):
            text = "".join(t.itertext()).strip()
            if not text:
                continue
            paragraphs.append(text)
            spans.append(
                {"page": page_no, "order": order, "kind": "p", "text": text}
            )
    content = "".join(t + "\n" for t in paragraphs)

    metadata: dict[str, str] = {}
    if "docProps/core.xml" in names:
        try:
            core = ET.fromstring(zf.read("docProps/core.xml"))
            title = core.findtext(f"{_DC_NS}title")
            creator = core.findtext(f"{_DC_NS}creator")
            if title:
                metadata["dc:title"] = title
            if creator:
                metadata["dc:creator"] = creator
        except ET.ParseError:
            pass
    metadata["visio:page-count"] = str(len(page_files))
    return content, spans, metadata


# Outlook MSG property streams we surface ([MS-OXMSG], public spec):
# stream names are __substg1.0_<prop><type>, type 001F = UTF-16LE,
# 001E = 8-bit ANSI. The reference reads these via Tika's
# OutlookExtractor (/root/reference/lib/rika/tika_loader.rb:12-26).
_MSG_META_PROPS = (
    ("0037", "dc:title"),          # PidTagSubject
    ("0C1A", "Message:From"),      # PidTagSenderName
    ("0E04", "Message:To"),        # PidTagDisplayTo
    ("1035", "Message:Message-ID"),  # PidTagInternetMessageId
)
_MSG_BODY_PROP = "1000"  # PidTagBody


def _msg_prop(streams: dict[str, bytes], prop: str) -> str | None:
    uni = streams.get(f"__substg1.0_{prop}001F")
    if uni is not None:
        return uni.decode("utf-16-le", errors="replace").rstrip("\x00")
    ansi = streams.get(f"__substg1.0_{prop}001E")
    if ansi is not None:
        return ansi.decode("cp1252", errors="replace").rstrip("\x00")
    return None


def extract_msg(streams: dict[str, bytes]) -> tuple[str, list[dict], dict[str, str]]:
    """(content, spans, metadata) from an Outlook .msg CFB: plain body
    from PidTagBody, header surface from the subject/sender/recipient
    property streams (the Tika OutlookExtractor key set)."""
    metadata: dict[str, str] = {}
    for prop, key in _MSG_META_PROPS:
        v = _msg_prop(streams, prop)
        if v:
            metadata[key] = v
    if "Message:From" in metadata:
        metadata["dc:creator"] = metadata["Message:From"]
    body = _msg_prop(streams, _MSG_BODY_PROP) or ""
    if body and not body.endswith("\n"):
        body += "\n"
    spans = (
        [{"page": 0, "order": 0, "kind": "p", "text": body.rstrip("\n")}]
        if body
        else []
    )
    return body, spans, metadata
