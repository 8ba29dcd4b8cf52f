"""MIME sniffer goldens (M1) — detection from magic bytes only, no
extension/URL hints (reference proof: extension-less image detected,
spec/rika/parser_spec.rb:143-146; unknown → octet-stream :236-238)."""

from __future__ import annotations

import pyarrow as pa

from rika_ray import docgen
from rika_ray.stages import sniff
from rika_ray.stages.sniff import detect_content_type, sniff_bytes


def _sniff(payload: bytes) -> str:
    return sniff_bytes(payload[:2048], payload[-4096:])


def test_magic_bytes_table():
    assert _sniff(b"%PDF-1.4\nxyz") == sniff.PDF
    assert _sniff(docgen.build_png(4, 4)) == sniff.PNG
    assert _sniff(docgen.build_gif(4, 4)) == sniff.GIF
    assert _sniff(docgen.build_jpeg(4, 4)) == sniff.JPEG
    assert _sniff(docgen.build_docx(["x"])) == sniff.DOCX
    assert _sniff(b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"\x00" * 100) == sniff.OLE2
    assert _sniff(b"<!DOCTYPE html><html></html>") == sniff.HTML
    assert _sniff(b"  \n <html><body>hi</body></html>") == sniff.HTML
    assert _sniff(b"<?xml version='1.0'?><root/>") == sniff.XML
    assert _sniff("plain old text, nothing else.".encode()) == sniff.PLAIN
    assert _sniff(b"\x00\x00\x30\x39") == sniff.OCTET


def test_no_extension_needed():
    # detection works on bytes alone — same payload, any "name"
    jpeg = docgen.build_jpeg(72, 72)
    assert _sniff(jpeg) == sniff.JPEG


def test_bom_text():
    assert _sniff(b"\xef\xbb\xbfhello world") == sniff.PLAIN


# families whose expected media_type is the post-unwrap INNER type; the
# sniffer alone reports the compressor container
_COMPRESSED_FAMS = {
    "gzip": "application/gzip",
    "tgz": "application/gzip",
    "tbz2": "application/x-bzip2",
    "txz": "application/x-xz",
    "zstd": "application/zstd",
}


def test_detect_batch_kernel(corpus_tables):
    web_pages, expected = corpus_tables
    out = detect_content_type(web_pages)
    got = {
        r["url"]: (r["media_type"], r["error_type"])
        for r in out.select(["url", "media_type", "error_type"]).to_pylist()
    }
    for r in expected.to_pylist():
        url = r["url"]
        if r["error_type"] == "empty_file":
            assert got[url] == (None, "empty_file"), url
        elif r["media_type"] in (
            "application/msword",
            "application/vnd.ms-excel",
            "application/vnd.ms-powerpoint",
            "application/vnd.ms-outlook",
        ):
            # sniff sees the OLE2 container; the extract stage refines it
            # by directory stream names (WordDocument / Workbook /
            # PowerPoint Document / __substg1.0_*)
            assert got[url][0] == "application/x-ole-storage", (url, got[url])
        elif any(
            f"/{fam}-" in url
            for fam, _ in _COMPRESSED_FAMS.items()
        ):
            # sniff sees the compressor container; the extract stage unwraps
            # the member and refines to the inner type
            fam = next(
                f for f in _COMPRESSED_FAMS if f"/{f}-" in url
            )
            assert got[url][0] == _COMPRESSED_FAMS[fam], (url, got[url])
        elif r["media_type"] is not None:
            assert got[url][0] == r["media_type"], (url, got[url])


def test_generic_zip_with_misleading_member_names():
    """A plain ZIP whose member paths merely CONTAIN 'word/'/'xl/'/'ppt/'
    substrings (e.g. 'crossword/notes.txt') must stay application/zip —
    OOXML subtype detection anchors on ZIP header name fields."""
    import io
    import zipfile

    from rika_ray.stages.sniff import DOCX, ZIP, sniff_bytes

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("crossword/notes.txt", "across: 1")
        z.writestr("excl/data.bin", "x" * 10)
        z.writestr("apppt/slide.txt", "y")
    data = buf.getvalue()
    assert sniff_bytes(data[:2048], data[-4096:]) == ZIP

    buf2 = io.BytesIO()
    with zipfile.ZipFile(buf2, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("word/document.xml", "<w:document/>")
    d2 = buf2.getvalue()
    assert sniff_bytes(d2[:2048], d2[-4096:]) == DOCX


def test_prose_with_single_commas_is_not_csv():
    """Three prose lines each containing exactly ONE comma must stay
    text/plain — the comma branch of the CSV sniff requires >=2 delimiters
    per line (a consistent single comma is normal in prose; round-3 advice)."""
    prose = (
        b"The rain fell, and the river rose.\n"
        b"We waited inside, watching the road.\n"
        b"By morning, the water had gone down.\n"
    )
    assert sniff._textual_subtype(prose) is None
    assert sniff_bytes(prose, prose) == sniff.PLAIN
    # a real comma table (>=2 delimiters per line) still sniffs as CSV
    table = b"id,name,qty\n1,ann,3\n2,bob,5\n"
    assert sniff._textual_subtype(table) == sniff.CSV
    # single-TAB lines remain TSV (tabs don't occur in prose)
    tsv = b"id\tname\n1\tann\n2\tbob\n"
    assert sniff._textual_subtype(tsv) == sniff.TSV


def test_control_byte_share_decides_binary_at_ten_percent():
    """More than 10% control bytes in the prefix make a payload binary;
    exactly 10% does not, and tab, LF and CR never count."""
    text = (b"plain words " * 200)[:2000]  # shorter than the prefix
    for extra, expected in ((0, sniff.PLAIN), (1, sniff.OCTET)):
        body = bytearray(text)
        body[::10] = b"\x01" * 200  # exactly 10%
        body[5:5 + extra] = b"\x1f" * extra
        assert _sniff(bytes(body)) == expected, extra
    body = bytearray(text)
    body[::2] = b"\t\n\r" * 333 + b"\t"  # half of it tab/LF/CR
    assert _sniff(bytes(body)) != sniff.OCTET  # text (tab-separated)
    # every other C0 byte counts: 12 of 100 bytes make it binary
    for c in set(range(1, 0x20)) - {9, 10, 13}:
        body = bytearray(text[:100])
        body[::9] = bytes([c]) * 12
        assert _sniff(bytes(body)) == sniff.OCTET, c
