"""Property-based tests (hypothesis) — SURVEY.md §5.2 layer 3.

Robustness invariants: no parser kernel may raise on arbitrary bytes (a
poison document must become an error row, so the kernels themselves are
exercised for total-ness here); truncation is a char-counted prefix;
key-sort and tokenizer invariants hold for arbitrary inputs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from rika_ray import docgen
from rika_ray.docgen import normalize_block_text
from rika_ray.functions.text import content_type_split, tokenize
from rika_ray.stages.charset import decode_text, detect_charset
from rika_ray.stages.html_extract import extract_html
from rika_ray.stages.lang import build_profiles, detect_language
from rika_ray.stages.sniff import sniff_bytes

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(st.binary(max_size=4096))
def test_sniffer_total_on_arbitrary_bytes(data):
    media = sniff_bytes(data[:2048], data[-4096:] if data else data)
    assert isinstance(media, str) and "/" in media


@SETTINGS
@given(st.binary(max_size=4096))
def test_charset_detect_and_decode_total(data):
    cs = detect_charset(data)
    text, cs2 = decode_text(data)
    assert cs == cs2
    assert isinstance(text, str)


@SETTINGS
@given(st.text(max_size=2000))
def test_html_extractor_total_on_arbitrary_text(text):
    content, spans, meta = extract_html(text)
    assert isinstance(content, str)
    assert len(spans) == len([s for s in content.split("\n") if s]) or content == ""


@SETTINGS
@given(st.text(max_size=500))
def test_normalize_idempotent(s):
    once = normalize_block_text(s)
    assert normalize_block_text(once) == once
    assert "  " not in once


@SETTINGS
@given(st.text(max_size=500))
def test_tokenize_invariants(s):
    toks = tokenize(s)
    assert all(t == t.lower() and t for t in toks)
    # re-joining and re-tokenizing is stable
    assert tokenize(" ".join(toks)) == toks


@SETTINGS
@given(st.text(max_size=300))
def test_language_detection_total(text):
    profiles = _PROFILES
    out = detect_language(text, profiles)
    assert out is None or (isinstance(out, str) and len(out) == 2)


_PROFILES = build_profiles()


@SETTINGS
@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=1,
            max_size=60,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_pdf_roundtrip_arbitrary_ascii_lines(lines):
    """Any printable-ASCII page makes it through the PDF writer+parser
    byte-identically (escape handling is total)."""
    from rika_ray.stages.pdf_extract import extract_pdf

    data = docgen.build_pdf([lines])
    content, spans, _ = extract_pdf(data)
    assert content == docgen.expected_pdf_content([lines])
    assert [s["text"] for s in spans] == lines


@SETTINGS
@given(st.text(max_size=100), st.integers(min_value=0, max_value=50))
def test_truncation_prefix_property(text, n):
    """The char-slice used by the finalizer is a strict prefix, counted in
    codepoints (document_processing_spec.rb:88-105 analogue)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = pa.array([text], pa.large_string())
    sliced = pc.utf8_slice_codeunits(arr, 0, n)[0].as_py()
    assert text.startswith(sliced)
    assert len(sliced) <= n


@SETTINGS
@given(st.sampled_from(["text/plain", "text/html", "application/pdf"]),
       st.sampled_from([None, "UTF-8", "ISO-8859-1"]))
def test_content_type_split_roundtrip(media, charset):
    full = media if charset is None else f"{media}; charset={charset}"
    m, c = content_type_split(full)
    assert m == media and c == charset


def test_metadata_key_sort_invariant():
    """Key-sort invariant (parser_spec.rb:114-126 analogue): pairs sorted
    iff key_sort, case-insensitively."""
    import pyarrow as pa

    from rika_ray.stages.finalize import finalize_batch

    base = {
        "url": ["u"],
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "media_type": ["text/plain"],
        "error_type": pa.array([None], pa.string()),
        "error_message": pa.array([None], pa.string()),
        "content": pa.array(["x"], pa.large_string()),
        "content_type": ["text/plain"],
        "charset": ["UTF-8"],
        "language": ["en"],
        "spans": pa.array([[]], type=__import__("rika_ray.schema", fromlist=["SPANS_TYPE"]).SPANS_TYPE),
        "metadata": pa.array(
            [[{"key": "Zeta", "value": "1"}, {"key": "alpha", "value": "2"}]],
            type=__import__("rika_ray.schema", fromlist=["METADATA_TYPE"]).METADATA_TYPE,
        ),
    }
    batch = pa.table(base)
    sorted_out = finalize_batch(batch, key_sort=True).to_pylist()[0]
    keys = [p["key"] for p in sorted_out["metadata"]]
    assert keys == sorted(keys, key=lambda s: (s.lower(), s))
    unsorted_out = finalize_batch(batch, key_sort=False).to_pylist()[0]
    keys_u = [p["key"] for p in unsorted_out["metadata"]]
    assert keys_u[0] == "Zeta"  # original order preserved


@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF,
                                   blacklist_characters="\r"),
            min_size=1, max_size=60,
        ),
        min_size=1, max_size=5,
    )
)
@settings(max_examples=30, deadline=None)
def test_piecetable_doc_roundtrip_arbitrary_paragraphs(paras):
    """Piece-table DOC roundtrip over arbitrary text (mixed cp1252/UTF-16
    pieces, physically out-of-order): extracted content must equal the
    expected layout modulo cp1252-unrepresentable chars, which the builder
    encodes with errors='replace' (? substitution)."""
    from rika_ray.docgen import build_doc_piecetable, expected_doc_content
    from rika_ray.stages.office import extract_doc

    payload = build_doc_piecetable(paras)
    content, spans, meta = extract_doc(payload)
    # model the builder's piece-splitting + lossy cp1252 encode: odd pieces
    # go through cp1252 replace, even pieces through UTF-16 (lossless)
    text = "".join(p + "\r" for p in paras)
    third = max(1, len(text) // 3)
    pieces = [text[:third], text[third : 2 * third], text[2 * third :]]
    pieces = [p for p in pieces if p]
    rebuilt = "".join(
        p.encode("cp1252", errors="replace").decode("cp1252")
        if i % 2 == 1
        else p
        for i, p in enumerate(pieces)
    )
    expected_paras = [p for p in rebuilt.split("\r") if p != ""]
    assert content == expected_doc_content(expected_paras)


@given(
    st.lists(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1, max_size=50,
            ),
            min_size=1, max_size=4,
        ),
        min_size=1, max_size=3,
    )
)
@settings(max_examples=30, deadline=None)
def test_xrefstream_pdf_roundtrip_arbitrary_pages(pages):
    """xref-stream PDF roundtrip over arbitrary ASCII page lines — the
    modern layout must extract byte-identically to the classic layout."""
    from rika_ray.docgen import (
        build_pdf,
        build_pdf_xrefstream,
        expected_pdf_content,
    )
    from rika_ray.stages.pdf_extract import extract_pdf

    modern = build_pdf_xrefstream(pages)
    classic = build_pdf(pages)
    mc, _, _ = extract_pdf(modern)
    cc, _, _ = extract_pdf(classic)
    assert mc == cc == expected_pdf_content(pages)


@given(st.text(max_size=400))
@settings(max_examples=50, deadline=None)
def test_rolling_fingerprint_total_and_deterministic(text):
    from rika_ray.functions.text import rolling_fingerprint

    a = rolling_fingerprint(text)
    assert isinstance(a, int) and 0 <= a < (1 << 64)
    assert rolling_fingerprint(text) == a


@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=0x24F),
            min_size=5, max_size=120,
        ),
        min_size=1, max_size=4,
    ),
    st.lists(st.sampled_from(
        ["Home", "News", "About", "Archive", "Contact", "Sports",
         "Weather", "Opinion"]), min_size=3, max_size=8, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_fast_html_tokenizer_matches_stdlib_on_pages(paras, links):
    """Differential parity: the fast regex tokenizer must produce exactly
    the stdlib-HTMLParser-driven result on generated realistic pages."""
    from rika_ray.docgen import build_html_page
    from rika_ray.stages.html_extract import (
        extract_html,
        extract_html_reference,
    )

    page = build_html_page("T&itle", paras, links).decode()
    assert extract_html(page) == extract_html_reference(page)


@given(st.text(max_size=1500))
@settings(max_examples=60, deadline=None)
def test_fast_html_tokenizer_total(text):
    """The fast tokenizer is total on arbitrary text (never raises; sane
    types), like the stdlib-based path."""
    from rika_ray.stages.html_extract import extract_html

    content, spans, meta = extract_html(text)
    assert isinstance(content, str) and isinstance(spans, list)


@given(
    st.lists(
        st.text(
            # exclude surrogates (not utf-8) and UNASSIGNED code points:
            # RE2's Unicode tables are newer than CPython 3.11's, so chars
            # assigned after Unicode 14 (e.g. U+31350) legitimately differ
            # on isalpha — version drift, not an engine bug
            alphabet=st.characters(
                codec="utf-8", exclude_categories=["Cs", "Cn"]
            ),
            max_size=300,
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_quality_scorer_vectorized_matches_scalar(texts):
    """The vectorized (Arrow-kernel) QualityScorer.__call__ must be
    BIT-IDENTICAL to the scalar reference score_one on arbitrary Unicode
    text — including empty, whitespace-only, NBSP-laden and CJK rows."""
    import pyarrow as pa

    from rika_ray.pipelines.text_analysis import QualityScorer

    scorer = QualityScorer()
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = scorer(batch).to_pylist()
    for row, text in zip(got, texts):
        want = scorer.score_one(text)
        for key, val in want.items():
            assert row[key] == val, (key, repr(text), row[key], val)


@given(st.text(max_size=400))
@settings(max_examples=60, deadline=None)
def test_tokenize_python_matches_arrow(s):
    """tokenize() (Python) and tokenize_arrow() (RE2) agree on token count
    for ANY input — both split on the explicit RE2 \\s class, so exotic
    Unicode whitespace (U+00A0 etc.) can't make n_words disagree across
    the engine's own pipelines (round-2 ADVICE)."""
    import pyarrow as pa

    from rika_ray.functions.text import tokenize, tokenize_arrow

    toks, n = tokenize_arrow(pa.array([s], pa.string()))
    n_arrow = n.to_pylist()[0]
    py = tokenize(s)
    assert n_arrow == len(py)
    if py:
        got = [t for t in toks.to_pylist()[0] if t]
        assert got == py


@SETTINGS
@given(st.binary(max_size=4096))
def test_codecs_fail_typed_on_arbitrary_bytes(data):
    """Every pixel/PCM decoder is total-with-typed-failure: arbitrary
    bytes either decode or raise CodecError — never a stray
    IndexError/struct.error/ValueError that would escape the pipeline's
    §2.8 error-row contract as an untyped crash."""
    from rika_ray.stages import codecs

    for dec in (
        codecs.png_decode,
        codecs.bmp_decode,
        codecs.jpeg_decode,
        codecs.gif_decode,
        codecs.tiff_decode,
        codecs.psd_decode,
        codecs.ico_decode,
        codecs.vp8l_decode,
        codecs.wav_pcm_decode,
        codecs.flac_decode,
    ):
        try:
            dec(data)
        except codecs.CodecError:
            pass


@SETTINGS
@given(st.binary(max_size=4096))
def test_codecs_fail_typed_on_corrupted_valid_prefix(data):
    """Same totality, but against the adversarial half-valid case: a real
    encoded stream whose tail is replaced with fuzz — exercises the deep
    per-format parse paths, not just the magic check."""
    import numpy as np

    from rika_ray import docgen
    from rika_ray.stages import codecs

    px = docgen.gradient_pixels(8, 8, seed=0)
    pcm = docgen.tone_samples(500, 8000, 1, seed=0)
    for blob, dec in (
        (codecs.png_encode(px), codecs.png_decode),
        (codecs.jpeg_encode(px), codecs.jpeg_decode),
        (codecs.gif_encode(px), codecs.gif_decode),
        (codecs.tiff_encode(px), codecs.tiff_decode),
        (codecs.psd_encode(px), codecs.psd_decode),
        (codecs.ico_encode(px), codecs.ico_decode),
        (codecs.vp8l_encode(px), codecs.vp8l_decode),
        (codecs.bmp_encode(px), codecs.bmp_decode),
        (codecs.flac_encode(pcm, 8000), codecs.flac_decode),
    ):
        corrupt = blob[: max(12, len(blob) // 3)] + data
        try:
            out = dec(corrupt)
        except codecs.CodecError:
            continue
        # a successful decode of a corrupted stream must still be
        # well-shaped output, never garbage types
        arr = out[0] if isinstance(out, tuple) else out
        assert isinstance(arr, np.ndarray)


# Rows for the batch-independence property of language detection: every
# gate outcome, every script shortcut, the trigram model on several
# languages, and paragraphs split in two so that the raw concatenation of
# two neighbouring rows forms in-vocabulary trigrams across their boundary.
_LANG_SAMPLES = [
    "これは日本語のテキストです。言語検出器はこれを日本語として検出するべきです。",
    "这是中文文本。语言检测器应该检测出中文。城市的早晨从火车的声音开始。",
    "이것은 한국어 텍스트입니다. 언어 감지기는 이것을 한국어로 감지해야 합니다.",
    "صبح کے وقت اسٹیشن لوگوں اور شور سے بھر جاتا ہے۔ لوگ روٹی لے کر چلتے ہیں۔",
    "صبح ایستگاه پر از مردم و سر و صدا می‌شود. مردم با نان راه می‌روند.",
    "في الصباح تمتلئ المحطة بالناس والضجيج. يمشي الناس مع الخبز والصحف.",
    "Воз је стигао на станицу касно и путници су чекали са картама у рукама.",
    "Поезд прибыл на станцию с опозданием, и пассажиры ждали с билетами.",
    "Влакът пристигна на гарата със закъснение и пътниците чакаха с билети.",
    "Το πρωί ο σταθμός γεμίζει με κόσμο και θόρυβο και φωνές.",
    "ᏣᎳᎩ ᎦᏬᏂᎯᏍᏗ ᎠᎴ ᏗᎪᏪᎵ ᎠᏂᏃᎮᎵᏙᎯ ᎤᏂᏣᏘ ᎠᏂᏴᏫᏯ ᎠᏁᎲᎢ",
]


def _lang_paragraph(lang: str, seed: int) -> str:
    import random

    from rika_ray.corpus import WORD_POOL, _paragraph

    return _paragraph(random.Random(seed), WORD_POOL[lang], 2)


def _split_paragraph(lang: str, seed: int, cut: float) -> list[str]:
    text = _lang_paragraph(lang, seed)
    at = int(len(text) * cut)
    return [text[:at], text[at:]]


_LANG_CODES = st.sampled_from(["en", "de", "fr", "es", "ru"])
_LANG_ROW = st.one_of(
    st.none(),
    st.text(alphabet=" \t\r\n\u00a0\u3000", max_size=40),
    st.text(max_size=23),
    st.sampled_from(_LANG_SAMPLES),
    st.builds(_lang_paragraph, _LANG_CODES, st.integers(0, 10**6)),
    st.text(max_size=500),
)
_LANG_ROWS = st.lists(
    st.one_of(
        _LANG_ROW.map(lambda row: [row]),
        st.builds(
            _split_paragraph,
            _LANG_CODES,
            st.integers(0, 10**6),
            st.floats(0.2, 0.8),
        ),
    ),
    min_size=1,
).map(lambda chunks: [row for chunk in chunks for row in chunk])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 7, 128]), st.data())
def test_language_of_a_row_is_independent_of_its_batch(n, data):
    from rika_ray.stages.lang import detect_languages

    rows = data.draw(_LANG_ROWS)
    batch = (rows * (n // len(rows) + 1))[:n] if len(rows) < n else rows[:n]
    got = detect_languages(batch, _PROFILES)
    assert got == [detect_languages([row], _PROFILES)[0] for row in batch]
    # the trigram scores themselves, not only the labels, are per row
    texts = [row for row in batch if row is not None]
    best, margin = _PROFILES.scores(texts)
    for i, row in enumerate(texts):
        b1, m1 = _PROFILES.scores([row])
        assert (best[i], margin[i]) == (b1[0], m1[0])


def _mail_kernels():
    from rika_ray.stages import sniff
    from rika_ray.stages.extract import ExtractStage

    stage = ExtractStage()
    return ((stage._do_eml, sniff.EML), (stage._do_mbox, sniff.MBOX))


def _assert_mail_total(kernel, media, data):
    from rika_ray.stages.email_msg import EmailParseError

    try:
        content, ctype, charset, spans, meta = kernel(data, media)
    except EmailParseError:
        return
    assert isinstance(content, str) and ctype == media and charset is None
    assert isinstance(spans, list)
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items())


@SETTINGS
@given(st.binary(max_size=4096))
def test_mail_kernels_fail_typed_on_arbitrary_bytes(data):
    """``_do_eml`` / ``_do_mbox`` return a result or raise
    ``EmailParseError`` on any bytes (with and without a postmark)."""
    for kernel, media in _mail_kernels():
        _assert_mail_total(kernel, media, data)
        _assert_mail_total(kernel, media, b"From a@b Mon Jan 12 10:00:00 2026\n" + data)


@SETTINGS
@given(st.binary(max_size=4096), st.floats(0.0, 1.0))
def test_mail_kernels_fail_typed_on_corrupted_valid_prefix(data, keep):
    """Same totality on real messages whose tail is replaced with fuzz: a
    multipart/mixed message with an HTML alternative and an attachment,
    alone and in a mailbox."""
    msg = docgen.build_eml(
        "Grüße =?utf-8?q?aus_K=C3=B6ln?=",
        '"Doe, Jane" <jane@example.test>',
        "a@example.test,\n b@example.test",
        "Plain body with ümlauts.",
        html_body="<p>HTML body</p>",
        attachments=[("notes.txt", b"attached text", "text/plain")],
    )
    for kernel, media in _mail_kernels():
        blob = msg if media.endswith("rfc822") else docgen.build_mbox([msg, msg])
        _assert_mail_total(kernel, media, blob[: int(len(blob) * keep)] + data)
