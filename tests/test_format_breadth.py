"""Unit goldens for the round-3 format-breadth extractors: EPUB, legacy
XLS/PPT, MP3/ID3, JPEG EXIF — the Tika formats a crawl corpus hits after
RTF/ODT (reference surface: every DefaultDetector format flows through one
``Rika.parse``, ``/root/reference/lib/rika/parser.rb:21-29``)."""

from __future__ import annotations

import struct

import pytest

from rika_ray import docgen
from rika_ray.stages import sniff
from rika_ray.stages.audio_meta import AudioParseError, extract_mp3
from rika_ray.stages.epub import EpubParseError, extract_epub
from rika_ray.stages.image_meta import extract_image, jpeg_exif
from rika_ray.stages.office import OfficeParseError, extract_ppt, extract_xls


# ---------------------------------------------------------------- EPUB ----

def test_epub_spine_order_and_metadata():
    chapters = [["One A.", "One B."], ["Two A."], ["Three A.", "Three B."]]
    data = docgen.build_epub(chapters, title="T", creator="C")
    assert sniff.sniff_bytes(data[:2048], data[-4096:]) == sniff.EPUB
    content, spans, meta = extract_epub(data)
    assert content == "One A.\nOne B.\nTwo A.\nThree A.\nThree B.\n"
    assert meta == {"dc:title": "T", "dc:creator": "C"}
    assert [s["page"] for s in spans] == [0, 0, 1, 2, 2]


def test_epub_damaged_chapter_skips_but_book_extracts():
    import io
    import zipfile

    good = docgen.build_epub([["Good."], ["Bad."]], title="T")
    src = zipfile.ZipFile(io.BytesIO(good))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for info in src.infolist():
            data = src.read(info.filename)
            if info.filename == "OEBPS/chap2.xhtml":
                data = data.replace(b"</p>", b"</q>")  # unparseable XML
            zi = zipfile.ZipInfo(info.filename)
            zi.compress_type = info.compress_type
            zf.writestr(zi, data)
    content, _, _ = extract_epub(buf.getvalue())
    assert content == "Good.\n"


def test_epub_missing_container_raises():
    import io
    import zipfile

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zi = zipfile.ZipInfo("mimetype")
        zi.compress_type = zipfile.ZIP_STORED
        zf.writestr(zi, b"application/epub+zip")
    with pytest.raises(EpubParseError):
        extract_epub(buf.getvalue())


# ----------------------------------------------------------------- XLS ----

def test_xls_mixed_encodings_roundtrip():
    cells = ["ascii only", "naïve café — cp1252? no: latin-1", "日本語"]
    content, spans, _ = extract_xls(docgen.build_xls(cells))
    assert content == docgen.expected_xls_content(cells)
    assert [s["kind"] for s in spans] == ["cell"] * 3


def test_xls_rich_string_tail_skipped():
    """A rich (fRichSt) SST string carries a run table after the chars;
    the parser must skip it and keep reading subsequent strings."""
    s1, s2 = "styled", "after"
    e1 = (
        struct.pack("<HBH", len(s1), 0x08, 2)  # flags: rich, 2 runs
        + s1.encode("latin-1")
        + b"\x00" * 8  # 2 runs × 4 bytes
    )
    e2 = struct.pack("<HB", len(s2), 0x00) + s2.encode("latin-1")
    sst = struct.pack("<II", 2, 2) + e1 + e2
    stream = (
        struct.pack("<HH", 0x0809, 16) + b"\x00" * 16
        + struct.pack("<HH", 0x00FC, len(sst)) + sst
        + struct.pack("<HH", 0x000A, 0)
    )
    from rika_ray.docgen import _build_cfb

    content, _, _ = extract_xls(_build_cfb({"Workbook": stream}))
    assert content == "styled\nafter\n"


def test_xls_without_workbook_stream_raises():
    with pytest.raises(OfficeParseError):
        extract_xls(docgen.build_doc(["x"]))


# ----------------------------------------------------------------- PPT ----

def test_ppt_nested_containers_and_mixed_atoms():
    slides = [["plain ascii", "unicode — 箇条"], ["second slide"]]
    content, spans, _ = extract_ppt(docgen.build_ppt(slides))
    assert content == docgen.expected_ppt_content(slides)
    assert len(spans) == 3


def test_ppt_truncated_container_raises_for_error_row():
    """Chopping the CFB tail breaks the stream's sector chain — the
    extractor raises OfficeParseError, which the extraction router maps to
    a parse_error row (§2.8 error-as-data), never a crash."""
    data = docgen.build_ppt([["some text here"]])
    with pytest.raises(OfficeParseError):
        extract_ppt(data[: len(data) - 256])


# ----------------------------------------------------------------- MP3 ----

def test_mp3_id3v23_tag_and_sniff():
    data = docgen.build_mp3(title="T", artist="A", album="L", genre="G")
    assert sniff.sniff_bytes(data[:2048]) == sniff.MP3
    content, spans, meta = extract_mp3(data)
    assert content == "" and spans == []
    assert meta == {
        "dc:title": "T", "xmpDM:artist": "A",
        "xmpDM:album": "L", "xmpDM:genre": "G",
    }


def test_mp3_id3v24_syncsafe_frame_sizes():
    """v2.4 frames use syncsafe sizes — build one by hand."""
    payload = b"\x03" + "Tïtle".encode("utf-8")
    frame = b"TIT2" + bytes(
        ((len(payload) >> s) & 0x7F) for s in (21, 14, 7, 0)
    ) + b"\x00\x00" + payload
    tag = b"ID3\x04\x00\x00" + bytes(
        ((len(frame) >> s) & 0x7F) for s in (21, 14, 7, 0)
    ) + frame
    _, _, meta = extract_mp3(tag + b"\xff\xfb\x90\x00")
    assert meta == {"dc:title": "Tïtle"}


def test_mp3_bare_sync_no_metadata():
    data = docgen.build_mp3_bare()
    assert sniff.sniff_bytes(data[:2048]) == sniff.MP3
    assert extract_mp3(data) == ("", [], {})


def test_mp3_overrunning_frame_raises():
    bad = b"ID3\x03\x00\x00" + bytes([0, 0, 0, 20]) + b"TIT2" + struct.pack(
        ">I", 9999
    ) + b"\x00\x00" + b"\x00x"
    with pytest.raises(AudioParseError):
        extract_mp3(bad)


def test_text_starting_with_id3_stays_plain():
    assert (
        sniff.sniff_bytes(b"ID3 tags are a metadata container format.")
        == sniff.PLAIN
    )


# ---------------------------------------------------------------- EXIF ----

def test_jpeg_exif_little_endian_roundtrip():
    data = docgen.build_jpeg_exif(
        320, 240, make="Acme", model="Shutter 9", orientation=8,
        datetime="2021:12:31 23:59:59",
    )
    _, _, meta = extract_image(data, "image/jpeg")
    assert meta["tiff:Make"] == "Acme"
    assert meta["tiff:Model"] == "Shutter 9"
    assert meta["tiff:Orientation"] == "8"
    assert meta["exif:DateTime"] == "2021:12:31 23:59:59"
    assert meta["Image Width"] == "320 pixels"


def test_jpeg_exif_big_endian_tiff():
    """Hand-built MM (big-endian) TIFF with one inline SHORT tag."""
    entries = struct.pack(">HHIHH", 0x0112, 3, 1, 3, 0)
    tiff = b"MM" + struct.pack(">HI", 42, 8) + struct.pack(">H", 1) + entries
    tiff += struct.pack(">I", 0)
    exif = b"Exif\x00\x00" + tiff
    app1 = b"\xff\xe1" + struct.pack(">H", len(exif) + 2) + exif
    sof0 = b"\xff\xc0" + struct.pack(">HBHHB", 11, 8, 10, 20, 1) + b"\x01\x11\x00"
    data = b"\xff\xd8" + app1 + sof0 + b"\xff\xd9"
    assert jpeg_exif(data) == {"tiff:Orientation": "3"}


def test_jpeg_without_exif_unchanged():
    _, _, meta = extract_image(docgen.build_jpeg(72, 72), "image/jpeg")
    assert meta == {"Image Height": "72 pixels", "Image Width": "72 pixels"}


# ---------------------------------------------------------------- GZIP ----

def _extract_one(payload: bytes):
    """Run one payload through the ExtractStage dispatch (no Ray)."""
    import pyarrow as pa

    from rika_ray.stages.extract import ExtractStage
    from rika_ray.stages.sniff import detect_content_type

    batch = pa.table(
        {
            "url": ["https://fixtures.test/x/0"],
            "html": pa.array([payload], pa.large_binary()),
        }
    )
    out = ExtractStage()(detect_content_type(batch))
    return out.to_pylist()[0]


def test_gzip_text_member_unwraps():
    import gzip

    text = "Whose woods these are I think I know.\n"
    row = _extract_one(gzip.compress(text.encode(), mtime=0))
    assert row["error_type"] is None
    assert row["content"] == text
    assert row["media_type"] == "text/plain"
    assert {"key": "rika:container", "value": "application/gzip"} in row[
        "metadata"
    ]


def test_gzip_html_member_unwraps_to_html():
    import gzip

    html = (
        b"<html><head><title>t</title></head><body><article>"
        b"<p>The woods are lovely, dark and deep, and the road goes ever on "
        b"and on, down from the door where it began.</p></article></body></html>"
    )
    row = _extract_one(gzip.compress(html, mtime=0))
    assert row["error_type"] is None
    assert row["media_type"] == "text/html"
    assert "lovely" in row["content"]


def test_gzip_nested_depth_bounded():
    import gzip

    payload = b"inner text payload here"
    wrapped = payload
    for _ in range(5):  # deeper than _MAX_DEPTH
        wrapped = gzip.compress(wrapped, mtime=0)
    row = _extract_one(wrapped)
    # bounded unwrap: never loops forever; deep nesting degrades to empty
    assert row["error_type"] is None
    assert row["content"] == ""


def test_gzip_corrupt_member_is_parse_error():
    row = _extract_one(b"\x1f\x8b\x08\x00" + b"\xde\xad\xbe\xef" * 16)
    assert row["error_type"] == "parse_error"


# --------------------------------------------------- TIFF / BMP / WebP ----

def test_tiff_dimensions_and_ifd_metadata():
    data = docgen.build_tiff(200, 100, make="Acme")
    assert sniff.sniff_bytes(data) == sniff.TIFF
    _, _, meta = extract_image(data, "image/tiff")
    assert meta == {
        "Image Height": "100 pixels",
        "Image Width": "200 pixels",
        "tiff:Make": "Acme",
    }


def test_bmp_dimensions_incl_topdown():
    data = docgen.build_bmp(40, 30)
    assert sniff.sniff_bytes(data) == sniff.BMP
    _, _, meta = extract_image(data, "image/bmp")
    assert meta == {"Image Height": "30 pixels", "Image Width": "40 pixels"}
    # top-down BMP stores a negative height
    import struct as _s

    topdown = data[:22] + _s.pack("<i", -30) + data[26:]
    _, _, meta = extract_image(topdown, "image/bmp")
    assert meta["Image Height"] == "30 pixels"


def test_text_starting_with_bm_stays_plain():
    assert sniff.sniff_bytes(b"BMW sales rose sharply this quarter.") == sniff.PLAIN


def test_webp_vp8x_vp8_vp8l_dimensions():
    import struct as _s

    from rika_ray.stages.image_meta import webp_dimensions

    data = docgen.build_webp(256, 128)
    assert sniff.sniff_bytes(data) == sniff.WEBP
    assert webp_dimensions(data) == (256, 128)
    # lossy VP8 keyframe header
    vp8_payload = (
        b"\x00" * 3 + b"\x9d\x01\x2a"  # 3-byte frame tag, keyframe start code
        + _s.pack("<H", 320) + _s.pack("<H", 240) + b"\x00" * 20
    )
    vp8 = b"VP8 " + _s.pack("<I", len(vp8_payload)) + vp8_payload
    data = b"RIFF" + _s.pack("<I", 4 + len(vp8)) + b"WEBP" + vp8
    assert webp_dimensions(data) == (320, 240)
    # VP8L lossless stream header: sig 0x2F then 14-bit w-1 / h-1
    bits = (100 - 1) | ((50 - 1) << 14)
    vp8l_payload = b"\x2f" + _s.pack("<I", bits)
    vp8l = b"VP8L" + _s.pack("<I", len(vp8l_payload)) + vp8l_payload
    data = b"RIFF" + _s.pack("<I", 4 + len(vp8l)) + b"WEBP" + vp8l + b"\x00" * 8
    assert webp_dimensions(data) == (100, 50)


def test_new_image_types_decode_with_stub():
    from rika_ray.pipelines.multimodal import decode_image

    for payload, h, w in (
        (docgen.build_tiff_rgb(docgen.gradient_pixels(10, 20)), 10, 20),
        (docgen.build_bmp_rgb(docgen.gradient_pixels(8, 16)), 8, 16),
        # webp decodes real pixels now too (lossless VP8L)
        (docgen.build_webp_lossless(docgen.gradient_pixels(6, 12)), 6, 12),
    ):
        pixels, media = decode_image(payload)
        assert pixels.shape == (h, w, 3)


# ------------------------------------------------------- ZIP/TAR archives ----

def _stage():
    from rika_ray.stages.extract import ExtractStage

    return ExtractStage()


def test_zip_members_concatenate_in_order():
    z = docgen.build_zip(
        [("a.txt", b"alpha one\n"), ("sub/b.txt", b"beta two\n")]
    )
    assert sniff.sniff_bytes(z[:2048], z[-4096:]) == sniff.ZIP
    content, ctype, cs, spans, meta = _stage()._route(z, sniff.ZIP)
    assert content == "alpha one\nbeta two\n"
    assert ctype == sniff.ZIP and cs is None
    assert meta == {
        "rika:container": "application/zip",
        "rika:entry-count": "2",
    }


def test_zip_html_member_extracts_main_content():
    paras = [
        "Real paragraph body one with enough running text that the "
        "block classifier keeps it as main content.",
        "Real paragraph body two, also long enough to score as a "
        "content block rather than boilerplate.",
    ]
    page = docgen.build_html_page("T", paras, [])
    z = docgen.build_zip([("index.html", page)])
    content, *_ = _stage()._route(z, sniff.ZIP)
    assert content == docgen.expected_html_content(paras) + "\n"


def test_tar_members_and_tgz_chain():
    import gzip

    t = docgen.build_tar([("x.txt", b"tar body\n")])
    assert sniff.sniff_bytes(t[:2048], t[-4096:]) == sniff.TAR
    content, ctype, _, _, meta = _stage()._route(t, sniff.TAR)
    assert content == "tar body\n" and ctype == sniff.TAR
    # .tar.gz through the gzip kernel: media refines to the tar, the
    # container chain records both, outermost first
    content2, ctype2, _, _, meta2 = _stage()._route(
        gzip.compress(t, mtime=0), sniff.GZIP
    )
    assert content2 == "tar body\n" and ctype2 == sniff.TAR
    assert meta2["rika:container"] == "application/gzip,application/x-tar"


def test_zip_nested_depth_bounded():
    z = docgen.build_zip([("leaf.txt", b"leaf\n")])
    for _ in range(4):
        z = docgen.build_zip([("inner.zip", z)])
    content, *_ = _stage()._route(z, sniff.ZIP)
    assert content == ""  # depth cap reached before the leaf


def test_zip_poison_member_skipped_archive_survives():
    z = docgen.build_zip(
        [("bad.pdf", b"%PDF-1.4 garbage with no xref"), ("ok.txt", b"fine\n")]
    )
    content, *_ = _stage()._route(z, sniff.ZIP)
    assert content == "fine\n"


def test_zip_oversized_member_skipped_and_recorded():
    from rika_ray.stages import archive as arch

    z = docgen.build_zip([("big.txt", b"x" * 128), ("ok.txt", b"ok\n")])
    orig = arch.MAX_ENTRY_BYTES
    arch.MAX_ENTRY_BYTES = 64
    try:
        content, _, _, _, meta = _stage()._route(z, sniff.ZIP)
    finally:
        arch.MAX_ENTRY_BYTES = orig
    assert content == "ok\n"
    assert meta["rika:entry-count"] == "2"


def test_zip_entry_cap_records_truncation():
    from rika_ray.stages import archive as arch

    z = docgen.build_zip([(f"f{i}.txt", b"t\n") for i in range(6)])
    orig = arch.MAX_ENTRIES
    arch.MAX_ENTRIES = 4
    try:
        _, _, _, _, meta = _stage()._route(z, sniff.ZIP)
    finally:
        arch.MAX_ENTRIES = orig
    assert meta["rika:entry-count"] == "6"
    assert meta["rika:entries-truncated"] == "2"


def test_corrupt_archives_raise_for_error_row():
    from rika_ray.stages.archive import (
        ArchiveParseError,
        iter_tar_entries,
        iter_zip_entries,
    )

    with pytest.raises(ArchiveParseError):
        list(iter_zip_entries(b"PK\x03\x04" + b"\x01" * 64))
    with pytest.raises(ArchiveParseError):
        list(iter_tar_entries(b"\x00" * 100))


# -------------------------------------------------------- encrypted PDF ----

def test_encrypted_pdf_refused_without_text_recovery():
    from rika_ray.stages.pdf_extract import PdfEncryptedError, extract_pdf

    data = docgen.build_pdf_encrypted([["Hidden text."]])
    assert sniff.sniff_bytes(data[:2048], data[-4096:]) == sniff.PDF
    with pytest.raises(PdfEncryptedError):
        extract_pdf(data)


def test_plain_pdf_still_extracts():
    from rika_ray.stages.pdf_extract import extract_pdf

    content, _, _ = extract_pdf(docgen.build_pdf([["Visible text."]]))
    assert "Visible text." in content


# ------------------------------------------------- bzip2 / xz / 7z / rar ----

def test_bzip2_and_xz_unwrap_like_gzip():
    import bz2
    import lzma

    body = b"compressed body text\n"
    bz = bz2.compress(body)
    xz = lzma.compress(body)
    assert sniff.sniff_bytes(bz[:2048], bz[-4096:]) == sniff.BZIP2
    assert sniff.sniff_bytes(xz[:2048], xz[-4096:]) == sniff.XZ
    st = _stage()
    c1, t1, _, _, m1 = st._route(bz, sniff.BZIP2)
    c2, t2, _, _, m2 = st._route(xz, sniff.XZ)
    assert c1 == c2 == "compressed body text\n"
    assert t1.split(";")[0] == t2.split(";")[0] == sniff.PLAIN
    assert m1["rika:container"] == sniff.BZIP2
    assert m2["rika:container"] == sniff.XZ


def test_tar_bz2_and_tar_xz_chain():
    import bz2
    import lzma

    t = docgen.build_tar([("x.txt", b"tar via bz2\n")])
    c, ctype, _, _, meta = _stage()._route(bz2.compress(t), sniff.BZIP2)
    assert c == "tar via bz2\n" and ctype == sniff.TAR
    assert meta["rika:container"] == f"{sniff.BZIP2},{sniff.TAR}"
    c, ctype, _, _, meta = _stage()._route(lzma.compress(t), sniff.XZ)
    assert c == "tar via bz2\n" and ctype == sniff.TAR
    assert meta["rika:container"] == f"{sniff.XZ},{sniff.TAR}"


def test_bzip2_bomb_guard_raises_for_error_row():
    import bz2

    from rika_ray.stages.extract import ExtractStage

    st = _stage()
    orig = ExtractStage._MAX_EXPANDED
    ExtractStage._MAX_EXPANDED = 1024
    try:
        with pytest.raises(ValueError):
            st._route(bz2.compress(b"\x00" * 65536), sniff.BZIP2)
    finally:
        ExtractStage._MAX_EXPANDED = orig


def test_7z_rar_zstd_detected_as_opaque_containers():
    assert sniff.sniff_bytes(b"7z\xbc\xaf\x27\x1c" + b"\x00" * 32) == sniff.SEVENZ
    assert sniff.sniff_bytes(b"Rar!\x1a\x07\x01\x00" + b"\x00" * 32) == sniff.RAR
    assert sniff.sniff_bytes(b"\x28\xb5\x2f\xfd" + b"\x00" * 32) == sniff.ZSTD
    # no parser → opaque kernel: empty content, media stays the container's
    content, ctype, _, _, _ = _stage()._route(
        b"7z\xbc\xaf\x27\x1c" + b"\x00" * 32, sniff.SEVENZ, 0
    )
    assert content == "" and ctype == sniff.SEVENZ


def test_text_starting_bzh_stays_plain():
    payload = b"BZh9 is the bzip2 best-compression flag, says this text."
    assert sniff.sniff_bytes(payload[:2048], payload[-4096:]) == sniff.PLAIN


# --- textual web formats: CSV/TSV, JSON/NDJSON, Markdown, SVG, feeds ----


def test_csv_tsv_delimiter_consistency_sniff():
    assert sniff.sniff_bytes(b"a,b,c\n1,2,3\n4,5,6\n7,8,9\n") == sniff.CSV
    assert sniff.sniff_bytes(b"a\tb\n1\t2\n3\t4\n") == sniff.TSV
    # inconsistent counts or zero delimiters stay plain
    assert sniff.sniff_bytes(b"one, two\nthree\nfour five\n") == sniff.PLAIN
    assert sniff.sniff_bytes(b"line one\nline two\nline three\n") == sniff.PLAIN
    # two complete lines are not enough evidence
    assert sniff.sniff_bytes(b"a,b\n1,2\n") == sniff.PLAIN


def test_json_and_ndjson_sniff():
    assert sniff.sniff_bytes(b'{"key": "value"}') == sniff.JSON
    assert sniff.sniff_bytes(b'{\n  "key": 1\n}\n') == sniff.JSON
    assert sniff.sniff_bytes(b'[{"a": 1}, {"a": 2}]') == sniff.JSON
    assert sniff.sniff_bytes(b"[1, 2, 3]") == sniff.JSON
    assert sniff.sniff_bytes(b'{"a":1}\n{"a":2}\n{"a":3}\n') == sniff.NDJSON
    # brace-led but not JSON-shaped stays plain
    assert sniff.sniff_bytes(b"{brace} in prose text") == sniff.PLAIN
    assert sniff.sniff_bytes(b"[citation needed] said the page") == sniff.PLAIN


def test_markdown_sniff_needs_two_signals():
    assert sniff.sniff_bytes(b"# Title\n\nBody.\n\n## Section\n\nx\n") == sniff.MARKDOWN
    assert sniff.sniff_bytes(b"# Title\n\n- item one\n- item two\n") == sniff.MARKDOWN
    # a single hash-led line (shell comment style) stays plain
    assert sniff.sniff_bytes(b"# config comment\nkey=value\n") == sniff.PLAIN


def test_xml_root_subtypes():
    x = b'<?xml version="1.0" encoding="UTF-8"?>\n'
    assert sniff.sniff_bytes(x + b'<svg xmlns="http://www.w3.org/2000/svg"/>') == sniff.SVG
    assert sniff.sniff_bytes(x + b'<rss version="2.0"><channel/></rss>') == sniff.RSS
    assert sniff.sniff_bytes(x + b'<feed xmlns="http://www.w3.org/2005/Atom"/>') == sniff.ATOM
    assert sniff.sniff_bytes(x + b"<catalog><item/></catalog>") == sniff.XML
    # a doctype or comment before the root must not confuse root detection
    assert (
        sniff.sniff_bytes(x + b"<!-- made by hand -->\n<svg/>") == sniff.SVG
    )
    assert sniff.sniff_bytes(b"<svg width='4'/>") == sniff.SVG


def test_name_hint_refines_only_text_plain():
    assert sniff.refine_by_name(sniff.PLAIN, "https://x.test/d/t.csv") == sniff.CSV
    assert sniff.refine_by_name(sniff.PLAIN, "https://x.test/d/t.tsv") == sniff.TSV
    assert sniff.refine_by_name(sniff.PLAIN, "https://x.test/README.md") == sniff.MARKDOWN
    assert sniff.refine_by_name(sniff.PLAIN, "https://x.test/a.jsonl?y=1#z") == sniff.NDJSON
    # magic always wins: a non-plain sniff is never renamed
    assert sniff.refine_by_name(sniff.HTML, "https://x.test/d/t.csv") == sniff.HTML
    # dots in directories don't count as extensions
    assert sniff.refine_by_name(sniff.PLAIN, "https://x.test/v1.2/data") == sniff.PLAIN


def test_csv_extraction_passthrough_and_shape():
    text = "id,name\n1,ann\n2,bob\n"
    c, ctype, cs, spans, meta = _stage()._route(text.encode(), sniff.CSV)
    assert c == text  # Tika TextAndCSVParser: characters stream through
    assert ctype == "text/csv; charset=UTF-8" and cs == "UTF-8"
    assert meta["csv:delimiter"] == "comma"
    assert meta["csv:num-rows"] == "3" and meta["csv:num-columns"] == "2"
    # quoted field with an embedded delimiter parses as ONE cell
    q = 'id,name\n1,"last, first"\n2,plain\n'
    _, _, _, _, meta = _stage()._route(q.encode(), sniff.CSV)
    assert meta["csv:num-columns"] == "2"


def test_json_ndjson_extraction_metadata():
    c, _, _, _, meta = _stage()._route(b'{"a": 1, "b": [2, 3]}', sniff.JSON)
    assert c == '{"a": 1, "b": [2, 3]}'
    assert meta["json:valid"] == "true" and meta["json:num-keys"] == "2"
    _, _, _, _, meta = _stage()._route(b'{"a": unterminated', sniff.JSON)
    assert meta["json:valid"] == "false"
    _, _, _, _, meta = _stage()._route(
        b'{"i":1}\n{"i":2}\nbroken line\n', sniff.NDJSON
    )
    assert meta["ndjson:num-lines"] == "3"
    assert meta["ndjson:num-records"] == "2"


def test_markdown_strips_to_plain_text():
    md = (
        "# The Title\n\nFirst paragraph.\n\n## Sub\n\n> quoted line\n\n"
        "1. first\n2. second\n\n```python\ncode line\n```\n\n"
        "![alt text](img.png) and *emph* plus __strong__.\n\n---\n"
    )
    c, ctype, _, _, meta = _stage()._route(md.encode(), sniff.MARKDOWN)
    assert "# " not in c and "```" not in c and "![" not in c
    assert "The Title" in c and "quoted line" in c
    assert "first\nsecond" in c  # ordered-list markers stripped
    assert "code line" in c  # fence markers gone, code kept
    assert "alt text and emph plus strong." in c
    assert "---" not in c
    assert meta["dc:title"] == "The Title"
    assert meta["md:num-headings"] == "2"
    assert ctype == "text/markdown; charset=UTF-8"


def test_svg_text_and_dimensions():
    svg = (
        b'<svg xmlns="http://www.w3.org/2000/svg" width="32" height="16">'
        b"<title>Chart</title><desc>A description</desc>"
        b'<text x="0" y="0">Label <tspan>one</tspan></text></svg>'
    )
    c, ctype, cs, _, meta = _stage()._route(svg, sniff.SVG)
    assert c == "Chart\nA description\nLabel one\n"
    assert cs is None and ctype == sniff.SVG
    assert meta == {"dc:title": "Chart", "svg:width": "32", "svg:height": "16"}


def test_feed_extraction_rss_and_atom():
    rss = (
        b'<rss version="2.0"><channel><title>News</title>'
        b"<description>All the news</description>"
        b"<item><title>One</title><description>First item</description></item>"
        b"<item><title>Two</title><description>Second item</description></item>"
        b"</channel></rss>"
    )
    c, _, _, _, meta = _stage()._route(rss, sniff.RSS)
    assert c == "News\nAll the news\nOne\nFirst item\nTwo\nSecond item\n"
    assert meta == {"feed:num-entries": "2", "dc:title": "News"}
    atom = (
        b'<feed xmlns="http://www.w3.org/2005/Atom"><title>Blog</title>'
        b"<entry><title>Post</title><summary>Summary text</summary></entry>"
        b"</feed>"
    )
    c, _, _, _, meta = _stage()._route(atom, sniff.ATOM)
    assert c == "Blog\nPost\nSummary text\n"
    assert meta == {"feed:num-entries": "1", "dc:title": "Blog"}


def test_corrupt_svg_feed_raise_for_error_row():
    import pytest as _pytest

    with _pytest.raises(Exception):
        _stage()._route(b"<svg><unclosed", sniff.SVG)
    with _pytest.raises(Exception):
        _stage()._route(b"<rss><channel><broken", sniff.RSS)


def test_odg_draw_text_boxes_extract():
    """ODF graphics: text:p inside draw:text-box frames — the same ODF
    walk as ODT/ODS/ODP (Tika long-tail format, round-3 verdict missing
    item 1)."""
    odg = docgen.build_odg(["circle label text", "arrow annotation"])
    assert sniff.sniff_bytes(odg[:2048], odg[-4096:]) == (
        "application/vnd.oasis.opendocument.graphics"
    )
    c, ctype, _cs, spans, _meta = _stage()._route(
        odg, "application/vnd.oasis.opendocument.graphics", 0
    )
    assert c == "circle label text\narrow annotation\n"
    assert ctype == "application/vnd.oasis.opendocument.graphics"


def test_vsdx_shape_text_extracts_in_page_order():
    v = docgen.build_vsdx(
        [["Start node", "End node"], ["Second page shape"]],
        title="Flow", creator="qa",
    )
    assert sniff.sniff_bytes(v[:2048], v[-4096:]) == sniff.VSDX
    c, _ctype, _cs, spans, meta = _stage()._route(v, sniff.VSDX)
    assert c == "Start node\nEnd node\nSecond page shape\n"
    assert meta["dc:title"] == "Flow"
    assert meta["visio:page-count"] == "2"
    assert [s["page"] for s in spans] == [0, 0, 1]


def test_psd_header_dimensions():
    p = docgen.build_psd(640, 480)
    assert sniff.sniff_bytes(p, p) == sniff.PSD
    c, _ctype, _cs, _spans, meta = _stage()._route(p, sniff.PSD, 0)
    assert c == ""
    assert meta["Image Width"] == "640 pixels"
    assert meta["Image Height"] == "480 pixels"


def test_eml_plain_body_and_header_metadata():
    e = docgen.build_eml(
        "Weekly update", "a@x.test", "b@x.test", "line one.\nline two.\n"
    )
    assert sniff.sniff_bytes(e[:2048], e[-4096:]) == sniff.EML
    c, ctype, _cs, _sp, meta = _stage()._route(e, sniff.EML, 0)
    assert c == "line one.\nline two.\n"
    assert ctype == sniff.EML
    assert meta["dc:title"] == "Weekly update"
    assert meta["Message:From"] == "a@x.test"
    assert meta["Message:num-parts"] == "1"


def test_eml_multipart_alternative_prefers_plain():
    """multipart/alternative emits ONE rendering (plain preferred) — both
    would double-count the body in downstream dedup/token stats. The html
    member inside the message must not flip the sniff to text/html."""
    e = docgen.build_eml(
        "Grüße", "a@x.test", "b@x.test", "Grüße aus Köln.\n",
        html_body="<html><body><p>Grüße aus <b>Köln</b>.</p></body></html>",
    )
    assert sniff.sniff_bytes(e[:2048], e[-4096:]) == sniff.EML
    c, *_rest, meta = _stage()._route(e, sniff.EML, 0)
    assert c == "Grüße aus Köln.\n"  # qp-decoded utf-8, plain member only
    assert meta["Message:num-parts"] == "1"


def test_eml_text_attachment_extracts_through_dispatch():
    e = docgen.build_eml(
        "Report", "a@x.test", "b@x.test", "See attachment.\n",
        attachments=[("notes.txt", b"attached note text.\n", "text/plain")],
    )
    c, *_rest, meta = _stage()._route(e, sniff.EML, 0)
    assert c == "See attachment.\nattached note text.\n"
    assert meta["Message:num-parts"] == "2"


def test_mbox_concatenates_messages_in_order():
    e1 = docgen.build_eml("One", "a@x.test", "b@x.test", "first body.\n")
    e2 = docgen.build_eml("Two", "c@x.test", "b@x.test", "second body.\n")
    mb = docgen.build_mbox([e1, e2])
    assert sniff.sniff_bytes(mb[:2048], mb[-4096:]) == sniff.MBOX
    c, *_rest, meta = _stage()._route(mb, sniff.MBOX, 0)
    assert c == "first body.\nsecond body.\n"
    assert meta["mbox:message-count"] == "2"
    assert meta["dc:title"] == "One"  # headers from the first message


def test_email_sniff_rejects_prose_with_colons():
    p = b"Note: remember the date\nAlso: bring snacks\n\nprose follows.\n"
    assert sniff.sniff_bytes(p, p) == sniff.PLAIN
    p2 = b"From here we travel on.\nThe journey takes days.\nWe arrive.\n"
    assert sniff.sniff_bytes(p2, p2) == sniff.PLAIN


def test_wav_flac_ogg_metadata():
    w = docgen.build_wav(22050, 1, 16, 44100)
    assert sniff.sniff_bytes(w[:2048], w[-4096:]) == sniff.WAV
    c, *_r, meta = _stage()._route(w, sniff.WAV, 0)
    assert c == ""
    assert meta["xmpDM:audioSampleRate"] == "22050"
    assert meta["xmpDM:audioChannelType"] == "Mono"
    assert meta["xmpDM:duration"] == "2.00"

    f = docgen.build_flac(48000, 2, 24, 96000)
    assert sniff.sniff_bytes(f[:2048], f[-4096:]) == sniff.FLAC
    _c, *_r2, fmeta = _stage()._route(f, sniff.FLAC, 0)
    assert fmeta["bits"] == "24"
    assert fmeta["xmpDM:duration"] == "2.00"

    o = docgen.build_ogg_vorbis(44100, 2)
    assert sniff.sniff_bytes(o[:2048], o[-4096:]) == sniff.OGG
    _c, *_r3, ometa = _stage()._route(o, sniff.OGG, 0)
    assert ometa["ogg:codec"] == "vorbis"
    assert ometa["xmpDM:audioSampleRate"] == "44100"


def test_mp4_box_walk_duration_and_dims():
    m = docgen.build_mp4(12.5, 640, 360)
    assert sniff.sniff_bytes(m[:2048], m[-4096:]) == sniff.MP4
    c, *_r, meta = _stage()._route(m, sniff.MP4, 0)
    assert c == ""
    assert meta["xmpDM:duration"] == "12.50"
    assert meta["tiff:ImageWidth"] == "640"
    assert meta["tiff:ImageLength"] == "360"
    assert meta["mp4:major-brand"] == "isom"


def test_mp4_tkhd_is_spec_sized_and_parsed_at_spec_offset():
    """The v0 tkhd payload must be exactly 84 bytes (ISO 14496-12), and the
    parser must read width/height at the fixed spec offset — not at
    end-of-box — so a spec-conformant file from any producer parses."""
    m = docgen.build_mp4(1.0, 320, 240)
    i = m.find(b"tkhd")
    size = int.from_bytes(m[i - 4 : i], "big")
    assert size == 8 + 84  # header + v0 payload
    c, *_r, meta = _stage()._route(m, sniff.MP4, 0)
    assert meta["tiff:ImageWidth"] == "320"
    assert meta["tiff:ImageLength"] == "240"


def test_mbox_split_preserves_body_final_blank_lines():
    """Only the ONE framing blank line is mailbox separator; a message
    body that legitimately ends with blank lines must survive intact."""
    from rika_ray.stages.email_msg import split_mbox

    m1 = b"Subject: a\n\nbody one\n\n"  # body ends with a blank line
    m2 = b"Subject: b\n\nbody two\n"
    blob = docgen.build_mbox([m1, m2])
    parts = split_mbox(blob)
    assert parts == [m1, m2]


def test_ico_directory_dimensions():
    i = docgen.build_ico(48, 48)
    assert sniff.sniff_bytes(i, i) == sniff.ICO
    _c, *_r, meta = _stage()._route(i, sniff.ICO, 0)
    assert meta["Image Width"] == "48 pixels"
    # 256 encodes as 0 in the directory byte
    big = docgen.build_ico(256, 256)
    _c2, *_r2, meta2 = _stage()._route(big, sniff.ICO, 0)
    assert meta2["Image Width"] == "256 pixels"


def test_riff_disambiguation_wav_vs_webp():
    w = docgen.build_wav()
    assert sniff.sniff_bytes(w[:2048], w[-4096:]) == sniff.WAV
    # truncated RIFF with neither fourcc stays binary
    assert sniff.sniff_bytes(b"RIFF\x10\x00\x00\x00JUNK\x00\x00\x00\x00", b"") == sniff.OCTET


def test_msg_outlook_property_streams():
    m = docgen.build_msg(
        "Q3 planning", "eve@corp.test", "team@corp.test",
        "agenda items follow.\nbring estimates.",
    )
    assert sniff.sniff_bytes(m[:2048], m[-4096:]) == sniff.OLE2
    c, ctype, _cs, _sp, meta = _stage()._route(m, sniff.OLE2, 0)
    assert ctype == "application/vnd.ms-outlook"
    assert c == "agenda items follow.\nbring estimates.\n"
    assert meta["dc:title"] == "Q3 planning"
    assert meta["Message:From"] == "eve@corp.test"
    assert meta["Message:To"] == "team@corp.test"


def test_mbox_body_from_line_does_not_split():
    """A body line starting 'From ' (no ctime date) must not be treated
    as a postmark — the regression that dropped a line from an sf0.01
    golden row."""
    e1 = docgen.build_eml(
        "One", "a@x.test", "b@x.test",
        "first line.\nFrom state way but being one me.\nlast line.\n",
    )
    e2 = docgen.build_eml("Two", "c@x.test", "b@x.test", "second body.\n")
    mb = docgen.build_mbox([e1, e2])
    c, *_rest, meta = _stage()._route(mb, sniff.MBOX, 0)
    assert c == (
        "first line.\nFrom state way but being one me.\nlast line.\n"
        "second body.\n"
    )
    assert meta["mbox:message-count"] == "2"


# ------------------------------------------------- iCal / vCard / code ----

def test_ical_content_sniff_and_shape_metadata():
    ics = (
        "BEGIN:VCALENDAR\r\nVERSION:2.0\r\nPRODID:-//x//EN\r\n"
        "BEGIN:VEVENT\r\nUID:1@x\r\nDTSTART:20260110T090000Z\r\n"
        "SUMMARY:Quarterly sync\r\nEND:VEVENT\r\n"
        "BEGIN:VEVENT\r\nUID:2@x\r\nDTSTART:20260111T090000Z\r\n"
        "SUMMARY:Offsite\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
    ).encode()
    assert sniff.sniff_bytes(ics[:2048], ics[-4096:]) == sniff.ICAL
    c, ctype, cs, _sp, meta = _stage()._route(ics, sniff.ICAL, 0)
    assert c == ics.decode()
    assert ctype.startswith("text/calendar; charset=")
    assert meta["ical:version"] == "2.0"
    assert meta["ical:num-events"] == "2"
    assert meta["dc:title"] == "Quarterly sync"


def test_vcard_content_sniff_and_card_count():
    vcf = (
        "BEGIN:VCARD\r\nVERSION:4.0\r\nFN:Ada Lovelace\r\n"
        "EMAIL:ada@x.test\r\nEND:VCARD\r\n"
        "BEGIN:VCARD\r\nVERSION:4.0\r\nFN:Alan Turing\r\nEND:VCARD\r\n"
    ).encode()
    assert sniff.sniff_bytes(vcf[:2048], vcf[-4096:]) == sniff.VCARD
    c, ctype, _cs, _sp, meta = _stage()._route(vcf, sniff.VCARD, 0)
    assert c == vcf.decode()
    assert ctype.startswith("text/vcard; charset=")
    assert meta["vcard:num-cards"] == "2"
    assert meta["dc:title"] == "Ada Lovelace"


def test_css_js_name_hint_refines_plain_text():
    from rika_ray.stages.sniff import refine_by_name

    css = b"/* layout rules for the panel grid */\nbody { margin: 0; }\n"
    assert sniff.sniff_bytes(css, css) == sniff.PLAIN
    assert refine_by_name(sniff.PLAIN, "https://x.test/a/site.css") == sniff.CSS
    assert refine_by_name(sniff.PLAIN, "https://x.test/app.js?v=3") == sniff.JS
    assert refine_by_name(sniff.PLAIN, "https://x.test/mod.mjs") == sniff.JS
    # magic wins: a PDF at a .css url is never refined
    assert refine_by_name(sniff.PDF, "https://x.test/site.css") == sniff.PDF
    # code text extracts through the plain-text kernel, media preserved
    c, ctype, _cs, _sp, _m = _stage()._route(css, sniff.CSS, 0)
    assert c == css.decode()
    assert ctype.startswith("text/css; charset=")


def test_prose_begin_line_is_not_calendar():
    t = b"BEGIN:VCALENDAR is the first line of an iCalendar file.\nBut this is prose explaining it, not a calendar itself.\nStill, the magic string anchors at offset zero only.\n"
    # Tika's magic matches at offset 0 — and so does ours; prose that
    # merely MENTIONS the string mid-text stays plain
    t2 = b"The string BEGIN:VCALENDAR appears mid-line here.\nSecond line of prose for the sniff window.\nThird line keeps it textual.\n"
    assert sniff.sniff_bytes(t2[:2048], t2[-4096:]) == sniff.PLAIN
    # offset-0 match IS calendar (matching Tika's detector exactly)
    assert sniff.sniff_bytes(t[:2048], t[-4096:]) == sniff.ICAL
