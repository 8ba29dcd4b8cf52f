"""PDF text extraction into ordered spans (operator M5, SURVEY.md §2.2).

The reference delegates PDF parsing to Tika's PDFParser; its observable
semantics are page-ordered text with layout quirks — a leading newline and
newline-terminated lines (``/root/reference/spec/rika/parser_spec.rb:157-170``
"generated PDF has newline at beginning") plus docinfo metadata
(``spec/rika/parser_spec.rb:85-92,203-205``).

This is a from-scratch minimal PDF parser scoped to the document class our
corpus generator emits (SURVEY.md §7 risk note: "scope to the subset the
corpus generator emits; never claim general-PDF coverage"):

- classic xref layout AND PDF 1.5+ cross-reference streams
  (``/Type/XRef`` with /W field widths, /Index ranges, FlateDecode +
  PNG-predictor row encoding, /Prev chains) with compressed object
  streams (``/Type/ObjStm``) expanded into the object store,
- uncompressed or FlateDecode content streams,
- text shown with ``Tj`` / ``'`` / ``"`` / ``TJ`` operators, literal and
  hex strings, page tree via /Root → /Pages → /Kids.

Extraction spec: one span per text-showing operator, ordered (page, op);
``content`` = ``"\\n"`` + every span's text + ``"\\n"`` (see
``docgen.expected_pdf_content``). Malformed input raises ``PdfParseError``
which the pipeline converts to an ``error_type="parse_error"`` row (§2.8).

Stateful stage T2: the compiled regexes and operator tables live on the
extractor class, built once per worker process with the pipeline's
cached kernel (``pipelines.extraction.kernel``).
"""

from __future__ import annotations

import re
import zlib


class PdfEncryptedError(Exception):
    """Document is encrypted (``/Encrypt`` in the trailer) — text is not
    recoverable without key material. Tika raises
    ``EncryptedDocumentException`` here, which the reference surfaces as a
    typed failure; the caller maps this to an
    ``error_type="encrypted_document"`` row (§2.8 error-as-data)."""


class PdfParseError(Exception):
    """Raised for documents this parser cannot interpret."""


_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b", re.S)
_TRAILER_RE = re.compile(rb"trailer\b", re.S)


class _Lexer:
    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def skip_ws(self) -> None:
        d, n = self.data, len(self.data)
        while self.pos < n:
            c = self.data[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x25:  # '%' comment to EOL
                while self.pos < n and d[self.pos] not in (0x0A, 0x0D):
                    self.pos += 1
            else:
                break

    def parse_object(self):
        """Parse one PDF object at pos: dict / array / name / number /
        string / hex string / ref / bool / null."""
        self.skip_ws()
        d = self.data
        if self.pos >= len(d):
            raise PdfParseError("unexpected end of data")
        c = d[self.pos]
        if d.startswith(b"<<", self.pos):
            return self._parse_dict()
        if c == 0x3C:  # '<' hex string
            return self._parse_hex_string()
        if c == 0x28:  # '('
            return self._parse_literal_string()
        if c == 0x5B:  # '['
            return self._parse_array()
        if c == 0x2F:  # '/'
            return self._parse_name()
        if d.startswith(b"true", self.pos):
            self.pos += 4
            return True
        if d.startswith(b"false", self.pos):
            self.pos += 5
            return False
        if d.startswith(b"null", self.pos):
            self.pos += 4
            return None
        return self._parse_number_or_ref()

    def _parse_dict(self) -> dict:
        self.pos += 2
        out: dict = {}
        while True:
            self.skip_ws()
            if self.data.startswith(b">>", self.pos):
                self.pos += 2
                return out
            key = self.parse_object()
            if not isinstance(key, str) or not key.startswith("/"):
                raise PdfParseError("dict key is not a name")
            out[key] = self.parse_object()

    def _parse_array(self) -> list:
        self.pos += 1
        out = []
        while True:
            self.skip_ws()
            if self.pos < len(self.data) and self.data[self.pos] == 0x5D:
                self.pos += 1
                return out
            out.append(self.parse_object())

    def _parse_name(self) -> str:
        start = self.pos
        self.pos += 1
        d = self.data
        while self.pos < len(d) and d[self.pos] not in _WS and d[self.pos] not in _DELIM:
            self.pos += 1
        return d[start : self.pos].decode("latin-1")

    def _parse_literal_string(self) -> bytes:
        d = self.data
        self.pos += 1
        out = bytearray()
        depth = 1
        while self.pos < len(d):
            c = d[self.pos]
            if c == 0x5C:  # backslash
                self.pos += 1
                if self.pos >= len(d):
                    break
                e = d[self.pos]
                esc = {0x6E: 0x0A, 0x72: 0x0D, 0x74: 0x09, 0x62: 0x08, 0x66: 0x0C}
                if e in esc:
                    out.append(esc[e])
                    self.pos += 1
                elif 0x30 <= e <= 0x37:  # octal
                    oct_digits = bytearray()
                    while self.pos < len(d) and len(oct_digits) < 3 and 0x30 <= d[self.pos] <= 0x37:
                        oct_digits.append(d[self.pos])
                        self.pos += 1
                    out.append(int(oct_digits.decode(), 8) & 0xFF)
                else:
                    out.append(e)
                    self.pos += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                self.pos += 1
            elif c == 0x29:
                depth -= 1
                self.pos += 1
                if depth == 0:
                    return bytes(out)
                out.append(c)
            else:
                out.append(c)
                self.pos += 1
        raise PdfParseError("unterminated literal string")

    def _parse_hex_string(self) -> bytes:
        d = self.data
        self.pos += 1
        end = d.find(b">", self.pos)
        if end < 0:
            raise PdfParseError("unterminated hex string")
        hexpart = bytes(c for c in d[self.pos : end] if c not in _WS)
        self.pos = end + 1
        if len(hexpart) % 2:
            hexpart += b"0"
        try:
            return bytes.fromhex(hexpart.decode("ascii"))
        except ValueError as e:
            raise PdfParseError(f"bad hex string: {e}") from None

    def _parse_number_or_ref(self):
        d = self.data
        start = self.pos
        while self.pos < len(d) and d[self.pos] not in _WS and d[self.pos] not in _DELIM:
            self.pos += 1
        tok = d[start : self.pos]
        if not tok:
            raise PdfParseError(f"unparseable token at {start}")
        try:
            num = int(tok)
        except ValueError:
            try:
                return float(tok)
            except ValueError:
                raise PdfParseError(f"bad token {tok!r}") from None
        # lookahead for "gen R" → indirect reference
        save = self.pos
        self.skip_ws()
        m = re.match(rb"(\d+)\s+R\b", d[self.pos :])
        if m:
            self.pos += m.end()
            return ("ref", num)
        self.pos = save
        return num


class PdfDocument:
    """Parsed object store + page tree for one PDF file."""

    def __init__(self, data: bytes) -> None:
        if not data.startswith(b"%PDF-"):
            raise PdfParseError("missing %PDF header")
        self.data = data
        self.objects: dict[int, tuple[dict | object, bytes | None]] = {}
        self._scan_objects()
        self._expand_object_streams()
        self.trailer = self._parse_trailer()

    def _scan_objects(self) -> None:
        for m in _OBJ_RE.finditer(self.data):
            num = int(m.group(1))
            lex = _Lexer(self.data, m.end())
            try:
                obj = lex.parse_object()
            except PdfParseError:
                continue
            stream = None
            lex.skip_ws()
            if self.data.startswith(b"stream", lex.pos):
                p = lex.pos + len(b"stream")
                if self.data.startswith(b"\r\n", p):
                    p += 2
                elif self.data.startswith(b"\n", p):
                    p += 1
                length = obj.get("/Length") if isinstance(obj, dict) else None
                if isinstance(length, tuple):
                    length = self._resolve_now(length)
                if isinstance(length, int):
                    stream = self.data[p : p + length]
                else:
                    end = self.data.find(b"endstream", p)
                    if end < 0:
                        raise PdfParseError("unterminated stream")
                    stream = self.data[p:end].rstrip(b"\r\n")
            self.objects[num] = (obj, stream)
        if not self.objects:
            raise PdfParseError("no objects found")

    def _resolve_now(self, ref):
        # used only for /Length refs discovered mid-scan
        target = ref[1]
        for m in re.finditer(
            rb"(?m)^%d\s+\d+\s+obj\b" % target, self.data
        ):
            lex = _Lexer(self.data, m.end())
            return lex.parse_object()
        return None

    def _decode_stream(self, obj: dict, stream: bytes) -> bytes:
        """Apply /Filter chain (+ /DecodeParms PNG predictors) to a raw
        stream body."""
        filt = self.resolve(obj.get("/Filter"))
        filters = filt if isinstance(filt, list) else ([filt] if filt else [])
        parms = self.resolve(obj.get("/DecodeParms"))
        parms_list = (
            parms if isinstance(parms, list) else ([parms] if parms else [])
        )
        for i, f in enumerate(filters):
            if f == "/FlateDecode":
                try:
                    stream = zlib.decompress(stream)
                except zlib.error as e:
                    raise PdfParseError(f"flate error: {e}") from None
            else:
                raise PdfParseError(f"unsupported filter {f}")
            p = parms_list[i] if i < len(parms_list) else None
            p = self.resolve(p)
            if isinstance(p, dict):
                pred = self.resolve(p.get("/Predictor", 1)) or 1
                if 10 <= pred <= 15:  # PNG row predictors
                    stream = _apply_png_predictor(
                        stream,
                        columns=int(self.resolve(p.get("/Columns", 1)) or 1),
                        colors=int(self.resolve(p.get("/Colors", 1)) or 1),
                        bpc=int(
                            self.resolve(p.get("/BitsPerComponent", 8)) or 8
                        ),
                    )
                elif pred != 1:
                    raise PdfParseError(f"unsupported predictor {pred}")
        return stream

    def _expand_object_streams(self) -> None:
        """PDF 1.5 compressed object streams (/Type/ObjStm): N (objnum,
        offset) header pairs at the stream head, serialized objects from
        /First. Members join the object store (raw-scanned objects win on
        number clashes)."""
        for num, (obj, stream) in list(self.objects.items()):
            if not (
                isinstance(obj, dict)
                and obj.get("/Type") == "/ObjStm"
                and stream is not None
            ):
                continue
            data = self._decode_stream(obj, stream)
            n = self.resolve(obj.get("/N"))
            first = self.resolve(obj.get("/First"))
            if not isinstance(n, int) or not isinstance(first, int):
                raise PdfParseError("ObjStm missing /N or /First")
            lex = _Lexer(data)
            pairs = []
            for _ in range(n):
                onum = lex.parse_object()
                ooff = lex.parse_object()
                if not isinstance(onum, int) or not isinstance(ooff, int):
                    raise PdfParseError("bad ObjStm header pair")
                pairs.append((onum, ooff))
            for onum, ooff in pairs:
                if onum in self.objects:
                    continue
                member = _Lexer(data, first + ooff).parse_object()
                self.objects[onum] = (member, None)

    def _parse_trailer(self) -> dict:
        m = None
        for m in _TRAILER_RE.finditer(self.data):
            pass
        if m is not None:
            lex = _Lexer(self.data, m.end())
            t = lex.parse_object()
            if not isinstance(t, dict):
                raise PdfParseError("bad trailer")
            return t
        # PDF 1.5+ layout: no `trailer` keyword — the cross-reference
        # STREAM's dict is the trailer. Follow startxref to it, decode its
        # W-encoded entry table (validates the layout and locates
        # compressed objects), and merge /Prev chains (newest wins).
        return self._parse_xref_stream_trailer()

    def _parse_xref_stream_trailer(self) -> dict:
        idx = self.data.rfind(b"startxref")
        if idx < 0:
            raise PdfParseError("no trailer and no startxref")
        m = re.match(rb"startxref\s+(\d+)", self.data[idx:])
        if not m:
            raise PdfParseError("malformed startxref")
        offset = int(m.group(1))
        merged: dict = {}
        seen_offsets: set[int] = set()
        while True:
            if offset in seen_offsets or len(seen_offsets) > 32:
                raise PdfParseError("xref /Prev cycle")
            seen_offsets.add(offset)
            om = _OBJ_RE.match(self.data, offset) or _OBJ_RE.search(
                self.data, offset, offset + 64
            )
            if om is None:
                raise PdfParseError(f"no xref stream object at {offset}")
            num = int(om.group(1))
            obj, stream = self.objects.get(num, (None, None))
            if not (
                isinstance(obj, dict)
                and obj.get("/Type") == "/XRef"
                and stream is not None
            ):
                raise PdfParseError(f"object at {offset} is not /Type/XRef")
            self._check_xref_entries(obj, stream)
            for k, v in obj.items():
                merged.setdefault(k, v)
            prev = obj.get("/Prev")
            if not isinstance(prev, int):
                break
            offset = prev
        if "/Root" not in merged:
            raise PdfParseError("xref stream trailer has no /Root")
        return merged

    def _check_xref_entries(self, obj: dict, stream: bytes) -> None:
        """Decode the W-encoded entry table and validate that every
        referenced object is present (type 1 → raw object exists at some
        scanned position; type 2 → ObjStm member already expanded)."""
        data = self._decode_stream(obj, stream)
        w = self.resolve(obj.get("/W"))
        size = self.resolve(obj.get("/Size"))
        if (
            not isinstance(w, list)
            or len(w) != 3
            or not all(isinstance(x, int) and x >= 0 for x in w)
        ):
            raise PdfParseError("bad /W in xref stream")
        index = self.resolve(obj.get("/Index"))
        if index is None:
            index = [0, size]
        if not isinstance(index, list) or len(index) % 2:
            raise PdfParseError("bad /Index in xref stream")
        row_len = sum(w)
        if row_len == 0 or len(data) % row_len:
            raise PdfParseError("xref stream data not a multiple of /W row")
        rows = [
            data[i : i + row_len] for i in range(0, len(data), row_len)
        ]
        expected_rows = sum(index[i + 1] for i in range(0, len(index), 2))
        if len(rows) < expected_rows:
            raise PdfParseError("xref stream shorter than /Index claims")
        ri = 0
        for i in range(0, len(index), 2):
            start, count = index[i], index[i + 1]
            for objnum in range(start, start + count):
                row = rows[ri]
                ri += 1
                pos = 0
                fields = []
                for width in w:
                    fields.append(
                        int.from_bytes(row[pos : pos + width], "big")
                        if width
                        else 1  # omitted type field defaults to 1
                    )
                    pos += width
                etype = fields[0]
                if etype == 1 and objnum not in self.objects:
                    raise PdfParseError(
                        f"xref names missing object {objnum}"
                    )
                if etype == 2:
                    container = fields[1]
                    if container not in self.objects:
                        raise PdfParseError(
                            f"xref names missing ObjStm {container}"
                        )
                    if objnum not in self.objects:
                        raise PdfParseError(
                            f"ObjStm {container} missing member {objnum}"
                        )

    def resolve(self, obj):
        seen = 0
        while isinstance(obj, tuple) and len(obj) == 2 and obj[0] == "ref":
            num = obj[1]
            if num not in self.objects:
                raise PdfParseError(f"dangling reference {num}")
            obj = self.objects[num][0]
            seen += 1
            if seen > 32:
                raise PdfParseError("reference cycle")
        return obj

    def stream_for(self, ref) -> bytes:
        if not (isinstance(ref, tuple) and ref[0] == "ref"):
            raise PdfParseError("contents is not a reference")
        num = ref[1]
        if num not in self.objects:
            raise PdfParseError(f"dangling contents {num}")
        obj, stream = self.objects[num]
        if stream is None:
            raise PdfParseError(f"object {num} has no stream")
        if not isinstance(obj, dict):
            raise PdfParseError(f"object {num} stream without dict")
        return self._decode_stream(obj, stream)

    def pages(self) -> list[dict]:
        root = self.resolve(self.trailer.get("/Root"))
        if not isinstance(root, dict):
            raise PdfParseError("no catalog")
        pages_obj = self.resolve(root.get("/Pages"))
        out: list[dict] = []
        self._walk_pages(pages_obj, out, depth=0)
        if not out:
            raise PdfParseError("no pages")
        return out

    def _walk_pages(self, node, out: list, depth: int) -> None:
        if depth > 32:
            raise PdfParseError("page tree too deep")
        node = self.resolve(node)
        if not isinstance(node, dict):
            raise PdfParseError("bad page tree node")
        t = node.get("/Type")
        if t == "/Page":
            out.append(node)
        elif t == "/Pages":
            kids = self.resolve(node.get("/Kids")) or []
            for kid in kids:
                self._walk_pages(kid, out, depth + 1)
        else:
            raise PdfParseError(f"unexpected node type {t}")

    def info(self) -> dict[str, str]:
        try:
            info = self.resolve(self.trailer.get("/Info"))
        except PdfParseError:
            return {}
        if not isinstance(info, dict):
            return {}
        out = {}
        for k, v in info.items():
            if isinstance(v, bytes):
                out[k] = _decode_pdf_string(v)
        return out


def _apply_png_predictor(
    data: bytes, columns: int, colors: int = 1, bpc: int = 8
) -> bytes:
    """Undo PNG row predictors (PDF /Predictor 10-15): each row is one
    filter-type byte + `columns*colors*bpc/8` data bytes; types 0-4 =
    None/Sub/Up/Average/Paeth over the previous row/byte."""
    bpp = max(1, (colors * bpc) // 8)
    row_len = (columns * colors * bpc + 7) // 8
    stride = row_len + 1
    if row_len <= 0 or len(data) % stride:
        raise PdfParseError("predictor data not a multiple of row length")
    out = bytearray()
    prev = bytearray(row_len)
    for r in range(0, len(data), stride):
        ftype = data[r]
        row = bytearray(data[r + 1 : r + stride])
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for i in range(bpp, row_len):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(row_len):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(row_len):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(row_len):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[i] = (row[i] + pred) & 0xFF
        else:
            raise PdfParseError(f"unknown PNG predictor row type {ftype}")
        out += row
        prev = row
    return bytes(out)


def _decode_pdf_string(b: bytes) -> str:
    if b.startswith(b"\xfe\xff"):
        return b[2:].decode("utf-16-be", errors="replace")
    return b.decode("latin-1")


# text-showing operators inside a content stream
def _extract_page_lines(stream: bytes) -> list[str]:
    lex = _Lexer(stream)
    lines: list[str] = []
    stack: list = []
    d = stream
    n = len(d)
    while True:
        lex.skip_ws()
        if lex.pos >= n:
            break
        c = d[lex.pos]
        if c in b"(<[/" or (0x30 <= c <= 0x39) or c in b"+-.":
            try:
                stack.append(lex.parse_object())
            except PdfParseError:
                lex.pos += 1
            continue
        # operator token
        start = lex.pos
        while lex.pos < n and d[lex.pos] not in _WS and d[lex.pos] not in _DELIM:
            lex.pos += 1
        op = d[start : lex.pos]
        if lex.pos == start:  # stray delimiter
            lex.pos += 1
            continue
        if op == b"Tj" or op == b"'":
            if stack and isinstance(stack[-1], bytes):
                lines.append(_decode_pdf_string(stack[-1]))
        elif op == b'"':
            if stack and isinstance(stack[-1], bytes):
                lines.append(_decode_pdf_string(stack[-1]))
        elif op == b"TJ":
            if stack and isinstance(stack[-1], list):
                parts = [
                    _decode_pdf_string(x)
                    for x in stack[-1]
                    if isinstance(x, bytes)
                ]
                lines.append("".join(parts))
        stack.clear()
    return lines


def extract_pdf(data: bytes) -> tuple[str, list[dict], dict[str, str]]:
    """Extract (content, spans, metadata) from PDF bytes.

    Raises PdfParseError on malformed input — caller maps it to an
    ``error_type="parse_error"`` row.
    """
    doc = PdfDocument(data)
    if "/Encrypt" in doc.trailer:
        raise PdfEncryptedError("PDF has an /Encrypt dictionary")
    pages = doc.pages()
    spans: list[dict] = []
    parts = ["\n"]  # the reference's leading-newline quirk (parser_spec.rb:157-162)
    for page_idx, page in enumerate(pages):
        contents = page.get("/Contents")
        refs = contents if isinstance(contents, list) else [contents]
        stream = b"".join(doc.stream_for(r) for r in refs if r is not None)
        for order, line in enumerate(_extract_page_lines(stream)):
            spans.append(
                {"page": page_idx, "order": order, "kind": "line", "text": line}
            )
            parts.append(line + "\n")
    content = "".join(parts)

    info = doc.info()
    metadata: dict[str, str] = {"xmpTPg:NPages": str(len(pages))}
    if "/Title" in info:
        metadata["dc:title"] = info["/Title"]
    if "/Author" in info:
        metadata["dc:creator"] = info["/Author"]
    if "/Producer" in info:
        metadata["pdf:producer"] = info["/Producer"]
    if "/Subject" in info:
        metadata["dc:description"] = info["/Subject"]
    if "/Creator" in info:
        metadata["xmp:CreatorTool"] = info["/Creator"]
    return content, spans, metadata
