"""Unit goldens for the per-format parser kernels (M2-M7)."""

from __future__ import annotations

import pytest

from rika_ray import docgen
from rika_ray.stages.charset import detect_charset, decode_text
from rika_ray.stages.html_extract import extract_html
from rika_ray.stages.image_meta import (
    ImageParseError,
    extract_image,
    gif_dimensions,
    jpeg_dimensions,
    png_dimensions,
)
from rika_ray.stages.office import OfficeParseError, extract_docx
from rika_ray.stages.pdf_extract import PdfParseError, extract_pdf


# --- charset (M2) ---

def test_charset_detection():
    assert detect_charset(b"hello") == "UTF-8"
    assert detect_charset("héllo".encode("utf-8")) == "UTF-8"
    assert detect_charset("héllo".encode("iso-8859-1")) == "ISO-8859-1"
    assert detect_charset(b"\xef\xbb\xbfx") == "UTF-8"
    assert detect_charset(b"\xff\xfeh\x00i\x00") == "UTF-16LE"
    assert detect_charset(b"\xfe\xff\x00h\x00i") == "UTF-16BE"


def test_decode_text_roundtrip():
    assert decode_text("naïve café".encode("iso-8859-1")) == ("naïve café", "ISO-8859-1")
    assert decode_text("naïve café".encode("utf-8")) == ("naïve café", "UTF-8")
    assert decode_text(b"\xff\xfeh\x00i\x00")[0] == "hi"
    assert decode_text(b"\xef\xbb\xbfhi")[0] == "hi"  # BOM stripped


# --- HTML (M4) ---

def test_html_main_content_recovered():
    paras = [
        "This is the first paragraph of the article and it has plenty of "
        "words to pass the minimum block threshold easily.",
        "Here is a second long paragraph that also carries the main "
        "content of the page with many ordinary words in it.",
    ]
    page = docgen.build_html_page("My Title", paras, ["Home", "News", "Sports"])
    content, spans, meta = extract_html(page.decode("utf-8"))
    assert content == docgen.expected_html_content(paras)
    assert meta["dc:title"] == "My Title"
    assert [s["order"] for s in spans] == [0, 1]
    assert spans[0]["text"].startswith("This is the first")


def test_html_boilerplate_dropped():
    page = docgen.build_html_page(
        "T",
        ["Main content paragraph with well over ten distinct words inside "
         "of it for the classifier."],
        ["Home", "News", "Sports", "Weather", "Archive"],
    ).decode("utf-8")
    content, _, _ = extract_html(page)
    assert "Home" not in content
    assert "Copyright" not in content
    assert "tracker" not in content  # script stripped
    assert "margin" not in content  # style stripped


def test_html_link_farm_yields_empty():
    page = docgen.build_link_farm_page("Index", [f"Topic {i}" for i in range(20)])
    content, spans, meta = extract_html(page.decode("utf-8"))
    assert content == ""
    assert spans == []
    assert meta["dc:title"] == "Index"


def test_html_entities_decoded():
    html = "<html><body><p>Fish &amp; chips cost five pounds and that is " \
           "quite a fair price for dinner these days.</p></body></html>"
    content, _, _ = extract_html(html)
    assert "Fish & chips" in content


# --- PDF (M5) ---

def test_pdf_roundtrip_uncompressed():
    pages = [["First line of page one.", "Second line here."],
             ["Page two starts now."]]
    data = docgen.build_pdf(pages, title="T1", author="A1")
    content, spans, meta = extract_pdf(data)
    assert content == docgen.expected_pdf_content(pages)
    assert content.startswith("\n")  # rika's leading-newline quirk
    assert meta["dc:title"] == "T1"
    assert meta["dc:creator"] == "A1"
    assert meta["xmpTPg:NPages"] == "2"
    assert [(s["page"], s["order"]) for s in spans] == [(0, 0), (0, 1), (1, 0)]


def test_pdf_roundtrip_flate():
    pages = [["Compressed stream content line."]]
    data = docgen.build_pdf(pages, compress=True)
    content, _, _ = extract_pdf(data)
    assert content == docgen.expected_pdf_content(pages)


def test_pdf_escapes():
    pages = [["Parens (nested) and back\\slash."]]
    data = docgen.build_pdf(pages)
    content, _, _ = extract_pdf(data)
    assert "Parens (nested) and back\\slash." in content


def test_pdf_corrupt_raises():
    with pytest.raises(PdfParseError):
        extract_pdf(b"%PDF-1.4\n\x01\x02garbage without objects")
    with pytest.raises(PdfParseError):
        extract_pdf(b"not a pdf at all")


# --- DOCX (M6) ---

def test_docx_roundtrip():
    paras = ["First paragraph here.", "Second paragraph follows."]
    data = docgen.build_docx(paras, title="DT", creator="DC", page_count=3)
    content, spans, meta = extract_docx(data)
    assert content == docgen.expected_docx_content(paras)
    assert meta == {"dc:title": "DT", "dc:creator": "DC", "meta:page-count": "3"}
    assert len(spans) == 2


def test_docx_bad_zip_raises():
    with pytest.raises(OfficeParseError):
        extract_docx(b"PK\x03\x04 not really a zip")


# --- images (M7) ---

def test_image_dimensions():
    assert jpeg_dimensions(docgen.build_jpeg(72, 48)) == (72, 48)
    assert png_dimensions(docgen.build_png(64, 32)) == (64, 32)
    assert gif_dimensions(docgen.build_gif(10, 20)) == (10, 20)


def test_image_metadata_shape():
    content, spans, meta = extract_image(docgen.build_jpeg(72, 72), "image/jpeg")
    assert content == ""  # no-text format → empty string, not null
    assert meta == {"Image Height": "72 pixels", "Image Width": "72 pixels"}


def test_image_corrupt_raises():
    with pytest.raises(ImageParseError):
        jpeg_dimensions(b"\xff\xd8\xff\xe0 but then truncated")


# --- DOC / CFB (M6 legacy path) ---

def test_doc_cfb_roundtrip():
    from rika_ray.stages.office import CfbFile, extract_doc

    paras = ["First legacy paragraph.", "Second one with more words."]
    data = docgen.build_doc(paras)
    # container level: the CFB reader finds the stream
    streams = CfbFile(data).streams()
    assert "WordDocument" in streams
    content, spans, meta = extract_doc(data)
    assert content == docgen.expected_doc_content(paras)
    assert [s["text"] for s in spans] == paras


def test_doc_corrupt_rejected():
    from rika_ray.stages.office import OfficeParseError, extract_doc

    with pytest.raises(OfficeParseError):
        extract_doc(b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"\x00" * 600)
    with pytest.raises(OfficeParseError):
        extract_doc(b"not cfb at all")


def test_doc_looping_fat_chain_is_a_fast_error_row():
    """A FAT whose directory chain points back at itself is refused at the
    first repeated sector: the fused kernel turns it into a parse_error
    row at a cost bounded by the file's size."""
    import struct
    import time

    import pyarrow as pa

    from rika_ray.pipelines.extraction import FusedExtractStage
    from rika_ray.schema import WEB_PAGES_SCHEMA

    data = bytearray(docgen.build_doc(["looping directory"]))
    # FAT sector 0 starts at 512; entry 1 is the directory sector's next
    struct.pack_into("<I", data, 512 + 4 * 1, 1)
    page = pa.Table.from_pylist(
        [{"url": "loop.doc", "warc_ts": None, "html": bytes(data),
          "text": None, "lang": None}],
        schema=WEB_PAGES_SCHEMA,
    )
    kernel = FusedExtractStage()
    t0 = time.perf_counter()
    row = kernel(page).to_pylist()[0]
    elapsed = time.perf_counter() - t0
    assert row["error_type"] == "parse_error"
    assert "FAT chain" in row["error_message"]
    assert elapsed < 0.05, elapsed


def test_xlsx_pptx_extraction():
    import zipfile
    from io import BytesIO
    from rika_ray.stages.office import extract_pptx, extract_xlsx

    # minimal xlsx: sharedStrings only
    buf = BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("xl/sharedStrings.xml",
            '<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
            '<si><t>Cell one</t></si><si><t>Cell two</t></si></sst>')
        zf.writestr("[Content_Types].xml", "<Types/>")
    content, spans, _ = extract_xlsx(buf.getvalue())
    assert content == "Cell one\nCell two\n"
    assert len(spans) == 2

    buf2 = BytesIO()
    with zipfile.ZipFile(buf2, "w") as zf:
        zf.writestr("ppt/slides/slide2.xml",
            '<p:sld xmlns:a="http://schemas.openxmlformats.org/drawingml/2006/main" '
            'xmlns:p="x"><a:t>Late slide</a:t></p:sld>')
        zf.writestr("ppt/slides/slide1.xml",
            '<p:sld xmlns:a="http://schemas.openxmlformats.org/drawingml/2006/main" '
            'xmlns:p="x"><a:t>Title text</a:t></p:sld>')
    content, spans, _ = extract_pptx(buf2.getvalue())
    assert content == "Title text\nLate slide\n"  # slide-number order
    assert spans[0]["page"] == 0 and spans[1]["page"] == 1


# --- adversarial HTML robustness (M4) ---

def test_html_attr_with_gt_and_comments():
    html = (
        '<html><body>'
        '<!-- a comment with <p>tags</p> inside -->'
        '<a title="a>b">short link</a>'
        '<p>The planted article paragraph carries more than ten words of '
        'meaningful text to survive classification.</p>'
        '</body></html>'
    )
    content, _, _ = extract_html(html)
    assert "planted article paragraph" in content
    assert "comment with" not in content


def test_html_unclosed_and_nested_blocks():
    html = (
        "<div><p>First paragraph has plenty of words to pass the minimum "
        "threshold set by the block classifier easily."
        "<div>Second block also has plenty of words to pass the minimum "
        "threshold set by the classifier here.</div>"
    )
    content, spans, _ = extract_html(html)
    assert len(spans) == 2
    assert content.count("\n") == 1


def test_html_script_with_fake_tags():
    html = (
        '<html><body><script>var s = "<p>not content</p>";</script>'
        "<p>Real content paragraph with well over ten words inside of it "
        "for the density classifier to keep.</p></body></html>"
    )
    content, _, _ = extract_html(html)
    assert "not content" not in content
    assert "Real content" in content


def test_legacy_charset_detection():
    """M2 depth: frequency/structure detection of real legacy encodings,
    reported like Tika's ICU detector (content_type charset parameter,
    /root/reference/spec/rika/parser_spec.rb:225-227)."""
    from rika_ray.stages.charset import detect_charset, decode_text

    cases = [
        ("привет мир это русский текст для проверки кодировок",
         "cp1251", "windows-1251"),
        ("привет мир это русский текст для проверки кодировок",
         "koi8-r", "KOI8-R"),
        ("Привет Мир Смешанный Регистр русского текста",
         "cp1251", "windows-1251"),
        ("Привет Мир Смешанный Регистр русского текста",
         "koi8-r", "KOI8-R"),
        ("L'été à Paris — c'est « magnifique », n'est-ce pas ? 5 €",
         "cp1252", "windows-1252"),
        ("voilà une phrase française avec des accents très ordinaire",
         "latin-1", "ISO-8859-1"),
        ("こんにちは世界、これは日本語のテキストです。", "shift_jis", "Shift_JIS"),
        # mostly-ASCII page with a few pure-Cyrillic words still detects
        ("see наша page for details about товар and среда conditions",
         "cp1251", "windows-1251"),
        ("Müller straße größe fünf häuser schöne grüße", "latin-1",
         "ISO-8859-1"),
    ]
    for text, codec, expected in cases:
        data = text.encode(codec)
        assert detect_charset(data) == expected, (codec, expected)
        decoded, cs = decode_text(data)
        assert decoded == text and cs == expected


def test_cjk_multibyte_charset_detection():
    """M2 breadth: GB18030 / Big5 / EUC-KR via structural decode +
    script dominance + common-character frequency gate (ICU-style). The
    confusable pairs are the real test: Hangul bytes alias the KOI8-R
    lowercase plane, any 0xA1-0xFE pair stream is structurally valid in
    all three GR-plane encodings, and Big5 trails land in ASCII."""
    from rika_ray.stages.charset import decode_text, detect_charset

    zh = (
        "的一是不了在人有我他这个上们来到时大地为子中你说生国年着就那"
        "和要她出也得很好。今天天气不错，我们去公园散步。"
    )
    zh_trad = (
        "這是一個很大的問題。他們說今天天氣不錯，我們去公園散步。"
        "的一是不了在人有我他這個上們來到時大地為子中你說生國年。"
    )
    ko = (
        "이것은 아주 좋은 하루입니다. 사람들이 거리에서 이야기를 하고 "
        "있습니다. 우리는 내일 다시 만나기로 했습니다."
    )
    cases = [
        (zh, "gb18030", "GB18030"),
        (zh_trad, "big5", "Big5"),
        (ko, "euc_kr", "EUC-KR"),
        # mixed ASCII + CJK (a web page with markup-ish English)
        ("price list: " + zh + " end of document", "gb18030", "GB18030"),
        (ko + " (see http://example.com for details)", "euc_kr", "EUC-KR"),
    ]
    for text, codec, expected in cases:
        data = text.encode(codec)
        assert detect_charset(data) == expected, (codec, expected)
        decoded, cs = decode_text(data)
        assert decoded == text and cs == expected
    # Cyrillic text is structurally valid under all three GR planes but
    # must never clear the common-character gate
    ru = "привет мир это русский текст для проверки кодировок"
    assert detect_charset(ru.encode("cp1251")) == "windows-1251"
    assert detect_charset(ru.encode("koi8-r")) == "KOI8-R"
    # Japanese stays Shift_JIS (double-byte units are valid GBK)
    ja = "こんにちは世界、これは日本語のテキストです。"
    assert detect_charset(ja.encode("shift_jis")) == "Shift_JIS"


def test_japanese_eucjp_and_iso2022jp():
    """M2 breadth: EUC-JP joins the GR-plane candidates (kana membership
    separates it from GB/Big5/EUC-KR); ISO-2022-JP is pure 7-bit — it
    must be caught by its JIS shift-in escapes BEFORE the UTF-8 pass."""
    from rika_ray.stages.charset import decode_text, detect_charset

    ja = (
        "これは日本語のテキストです。東京都内の鉄道網は世界有数の規模を"
        "誇り、毎日数百万人が利用しています。言語と文字コードの検出。"
    )
    for codec, expected in (("euc_jp", "EUC-JP"), ("iso2022_jp", "ISO-2022-JP")):
        data = ja.encode(codec)
        assert detect_charset(data) == expected, codec
        decoded, cs = decode_text(data)
        assert decoded == ja and cs == expected
    # mixed ASCII markup around the payload
    mixed = ("<title>news</title> " + ja + " http://example.jp").encode("euc_jp")
    assert detect_charset(mixed) == "EUC-JP"
    # a plain-ASCII file containing a bare ESC is NOT ISO-2022-JP
    assert detect_charset(b"plain text with \x1b escape inside") != "ISO-2022-JP"
    # ESC $ B requires a valid JIS stream — garbage after it must not match
    assert detect_charset(b"x\x1b$B\xff\xff garbage") != "ISO-2022-JP"


def test_cjk_charset_window_truncation():
    """A multi-byte unit cut by the 2 KiB detection window must not
    reject the candidate; a corrupt unit mid-stream must."""
    from rika_ray.stages.charset import detect_charset

    zh = "今天天气不错我们去公园散步他说这是一个很大的问题的一是不了在人"
    big = (zh * 40).encode("gb18030")
    # place the window edge mid-unit: 2048 is even, each char is 2 bytes,
    # prepend one ASCII byte to shift parity
    assert detect_charset(b"x" + big) == "GB18030"
    corrupt = bytearray(zh.encode("gb18030"))
    corrupt[10] = 0x20  # break a trail byte mid-stream
    assert detect_charset(bytes(corrupt)) != "GB18030"


def test_script_codepage_charset_detection():
    """M2 breadth: per-script frequency profiles separate the single-byte
    legacy codepages — Greek (ISO-8859-7), Arabic (windows-1256), Hebrew
    (windows-1255), Thai (TIS-620) and Central European (windows-1250,
    whose accents land on typography/controls under latin-1/cp1252)."""
    from rika_ray.stages.charset import decode_text, detect_charset

    cases = [
        ("Το πρωί ο σταθμός γεμίζει με κόσμο και θόρυβο. Οι άνθρωποι "
         "περπατούν με ψωμί.", "iso8859_7", "ISO-8859-7"),
        ("في الصباح تمتلئ المحطة بالناس والضجيج. يمشي الناس مع الخبز "
         "والصحف.", "cp1256", "windows-1256"),
        ("בבוקר התחנה מתמלאת באנשים וברעש. אנשים הולכים עם לחם "
         "ועיתונים.", "cp1255", "windows-1255"),
        ("สถานีรถไฟเต็มไปด้วยผู้คนในตอนเช้า "
         "ผู้คนเดินไปพร้อมขนมปังและหนังสือพิมพ์", "tis_620", "TIS-620"),
        ("Rano stacja wypełnia się ludźmi i hałasem. Ludzie idą z chlebem "
         "i gazetami.", "cp1250", "windows-1250"),
        ("Vlak přijíždí na nádraží brzy ráno. Děti běží přes náměstí se "
         "žlutými míči.", "cp1250", "windows-1250"),
    ]
    for text, codec, expected in cases:
        data = text.encode(codec)
        assert detect_charset(data) == expected, (codec, expected)
        decoded, cs = decode_text(data)
        assert decoded == text and cs == expected
    # Western text must NOT migrate to the new candidates (margin rule)
    fr = "voilà une phrase française avec des accents très ordinaire"
    assert detect_charset(fr.encode("latin-1")) == "ISO-8859-1"
    ru = "привет мир это русский текст для проверки кодировок"
    assert detect_charset(ru.encode("cp1251")) == "windows-1251"


def test_legacy_charset_fuzz_total():
    """detect/decode never raise on arbitrary bytes (the M1-style totality
    property extended to M2)."""
    import random

    from rika_ray.stages.charset import decode_text, detect_charset

    rng = random.Random(11)
    for _ in range(200):
        b = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        cs = detect_charset(b)
        text, cs2 = decode_text(b)
        assert cs == cs2 and isinstance(text, str)


def test_pdf_xref_stream_layout():
    """M5 depth: PDF 1.5 cross-reference streams + compressed object
    streams extract identically to the classic layout."""
    from rika_ray import docgen
    from rika_ray.stages.pdf_extract import PdfParseError, extract_pdf

    import pytest as _pytest

    pages = [["Alpha one.", "Alpha two."], ["Beta one."]]
    modern = docgen.build_pdf_xrefstream(pages, title="T", author="A")
    classic = docgen.build_pdf(pages, title="T", author="A", compress=True)
    mc, ms, mm = extract_pdf(modern)
    cc, cs_, cm = extract_pdf(classic)
    assert mc == cc == docgen.expected_pdf_content(pages)
    assert mm["dc:title"] == cm["dc:title"] == "T"
    assert b"trailer" not in modern  # genuinely the modern layout

    for corrupt in (
        modern[: len(modern) * 2 // 3],
        modern.replace(b"/Predictor 12", b"/Predictor 99"),
        modern.replace(b"/W [1 2 2]", b"/W [1 2 3]"),
        modern.replace(b"startxref", b"startxrEf"),
    ):
        with _pytest.raises(PdfParseError):
            extract_pdf(corrupt)


def test_doc_piece_table():
    """M6 depth: piece-table (complex-save) legacy DOC — reading order
    from the CP array, pieces physically out of order, alternating UTF-16
    and fCompressed-cp1252 encodings."""
    import pytest as _pytest

    from rika_ray import docgen
    from rika_ray.stages.office import OfficeParseError, extract_doc

    paras = ["First piece paragraph with ünïcödé.", "Second paragraph.",
             "Third paragraph closes the file."]
    payload = docgen.build_doc_piecetable(paras)
    content, spans, meta = extract_doc(payload)
    assert content == docgen.expected_doc_content(paras)

    # pieces really are out of physical order: the CLX walk is load-bearing
    simple = docgen.build_doc(paras)
    c2, _, _ = extract_doc(simple)
    assert c2 == content.replace("ünïcödé", "ünïcödé")  # both layouts agree

    # corrupt CLX tag → OfficeParseError (never a wrong-text success)
    bad = bytearray(payload)
    idx = bad.find(b"\x02", 512 * 2)  # inside the 0Table stream region
    with _pytest.raises(OfficeParseError):
        extract_doc(bytes(bad[:1200]))


def test_rtf_roundtrip_and_features():
    """RTF kernel: escapes, skip destinations, \\uN with uc fallback,
    metadata — and sniff recognizes the signature."""
    from rika_ray import docgen
    from rika_ray.stages.rtf import extract_rtf
    from rika_ray.stages.sniff import sniff_bytes

    paras = ["Plain paragraph.", "Accents: café déjà — naïveté.",
             "Unicode beyond cp1252: ☃ 日本語."]
    payload = docgen.build_rtf(paras, title="T&ítle", author="A{u}thor")
    assert sniff_bytes(payload[:2048], payload[-4096:]) == "application/rtf"
    content, spans, meta = extract_rtf(payload)
    assert content == docgen.expected_rtf_content(paras)
    assert meta["dc:title"] == "T&ítle"
    assert meta["dc:creator"] == "A{u}thor"
    assert [s["text"] for s in spans] == paras


def test_rtf_hand_written_constructs():
    """Hand-authored RTF exercising constructs the generator doesn't emit:
    \\tab, \\line, literal braces, \\~ nbsp, uc2 skip counts, unknown
    control words (ignored per spec), raw newlines (ignored)."""
    from rika_ray.stages.rtf import extract_rtf

    doc = (
        rb"{\rtf1\ansi\uc2 Hello\tab world\line second\~half "
        rb"\{braced\} \unknownword more\par"
        b"\nnext\r\nline text\\par}"
    )
    content, spans, _ = extract_rtf(doc)
    assert content.split("\n")[0] == "Hello\tworld"
    assert "second half" in content
    assert "{braced}" in content
    assert "more" in content
    assert "nextline text" in content  # raw CR/LF ignored


def test_rtf_uc_skip_protocol():
    r"""\uN emits the code point and the next uc chars (the ANSI
    fallback) are swallowed — including \'hh fallbacks."""
    from rika_ray.stages.rtf import extract_rtf

    content, _, _ = extract_rtf(rb"{\rtf1\uc1 a\u9731?b\par}")
    assert content == "a☃b\n"
    content2, _, _ = extract_rtf(rb"{\rtf1\uc1 a\u233\'e9b\par}")
    assert content2 == "aéb\n"


def test_rtf_not_rtf_raises():
    import pytest as _pytest

    from rika_ray.stages.rtf import RtfParseError, extract_rtf

    with _pytest.raises(RtfParseError):
        extract_rtf(b"this is not rtf at all")


def test_odt_roundtrip_and_sniff_anchoring():
    """ODT kernel + detection: the mimetype member anchors the subtype;
    a generic ZIP whose FIRST member isn't 'mimetype' must NOT become
    ODT even if it contains the mimetype string somewhere."""
    import zipfile
    from io import BytesIO

    from rika_ray import docgen
    from rika_ray.stages.office import extract_odt
    from rika_ray.stages.sniff import sniff_bytes

    paras = ["First paragraph.", "Second paragraph long enough to split."]
    payload = docgen.build_odt(paras, title="OT", creator="OC")
    assert (
        sniff_bytes(payload[:2048], payload[-4096:])
        == "application/vnd.oasis.opendocument.text"
    )
    content, spans, meta = extract_odt(payload)
    assert content == docgen.expected_odt_content(paras)
    assert meta == {"dc:title": "OT", "dc:creator": "OC"}

    # decoy zip: same string as CONTENT of a differently-named first
    # member → stays application/zip
    buf = BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("readme.txt", "application/vnd.oasis.opendocument.text")
    decoy = buf.getvalue()
    assert sniff_bytes(decoy[:2048], decoy[-4096:]) == "application/zip"


def test_odt_whitespace_elements():
    """ODF text:tab / text:line-break / text:s expand per spec."""
    import zipfile
    from io import BytesIO

    from rika_ray.stages.office import extract_odt

    content_xml = (
        '<?xml version="1.0"?>'
        '<office:document-content '
        'xmlns:office="urn:oasis:names:tc:opendocument:xmlns:office:1.0" '
        'xmlns:text="urn:oasis:names:tc:opendocument:xmlns:text:1.0">'
        "<office:body><office:text>"
        '<text:p>a<text:tab/>b<text:line-break/>c<text:s text:c="3"/>d</text:p>'
        "</office:text></office:body></office:document-content>"
    )
    buf = BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("mimetype", "application/vnd.oasis.opendocument.text")
        zf.writestr("content.xml", content_xml)
    content, _, _ = extract_odt(buf.getvalue())
    assert content == "a\tb\nc   d\n"


def test_odt_bad_zip_raises():
    import pytest as _pytest

    from rika_ray.stages.office import OfficeParseError, extract_odt

    with _pytest.raises(OfficeParseError):
        extract_odt(b"PK\x03\x04 not really a zip")


def test_html_table_fusion():
    """M4: a data table inside main content fuses into ONE block (cells
    space-separated) so it survives the word gate, while a link-dense nav
    table still drops; both tokenizer paths agree."""
    from rika_ray.stages.html_extract import (
        extract_html,
        extract_html_reference,
    )

    rows = "".join(
        f"<tr><td>City name {i}</td><td>Population {30000 + i}</td>"
        f"<td>Region east {i}</td></tr>"
        for i in range(4)
    )
    html = (
        "<html><body><div><p>This is the leading article paragraph with "
        "plenty of words to dominate the page content and be chosen.</p>"
        f"<table><tr><th>City</th><th>Population</th><th>Region</th></tr>"
        f"{rows}</table>"
        "<p>Closing paragraph with several more words of running text to "
        "keep density high.</p></div></body></html>"
    )
    c, spans, _ = extract_html(html)
    assert extract_html_reference(html)[0] == c  # tokenizer parity
    assert "City name 0 Population 30000" in c
    assert c.count("\n") == 2  # para, fused table, para

    nav = (
        "<html><body><p>Real article paragraph with plenty of ordinary "
        "words to pass the classifier word gate easily.</p>"
        "<table><tr>"
        + "".join(
            f"<td><a href=/x{i}>menu link {i}</a></td>" for i in range(6)
        )
        + "</tr></table></body></html>"
    )
    c_nav, _, _ = extract_html(nav)
    assert "menu link" not in c_nav  # link-dense table still boilerplate

    # a tiny table (under the word gate) stays dropped even fused
    tiny = (
        "<html><body><p>Real article paragraph with plenty of ordinary "
        "words to pass the classifier word gate easily.</p>"
        "<table><tr><td>a</td><td>b</td></tr></table></body></html>"
    )
    assert "a b" not in extract_html(tiny)[0]
