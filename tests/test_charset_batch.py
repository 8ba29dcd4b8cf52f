"""Batch charset detection: a payload's verdict and decoded text do not
depend on its batch, and the array form applies the per-payload rules in
exact arithmetic (``_reference_charset`` is those rules as a loop, with
scores as fractions)."""

from __future__ import annotations

import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rika_ray.stages import charset
from rika_ray.stages.charset import decode_text, detect_charset, detect_charsets

# the sample texts of test_parsers.py's legacy, CJK and script matrices
_JA = (
    "これは日本語のテキストです。東京都内の鉄道網は世界有数の規模を"
    "誇り、毎日数百万人が利用しています。言語と文字コードの検出。"
)
_RU = "привет мир это русский текст для проверки кодировок"
_MATRIX = [
    (_RU, "cp1251"),
    (_RU, "koi8-r"),
    ("Привет Мир Смешанный Регистр русского текста", "cp1251"),
    ("Привет Мир Смешанный Регистр русского текста", "koi8-r"),
    ("L'été à Paris — c'est « magnifique », n'est-ce pas ? 5 €", "cp1252"),
    ("voilà une phrase française avec des accents très ordinaire", "latin-1"),
    ("こんにちは世界、これは日本語のテキストです。", "shift_jis"),
    ("see наша page for details about товар and среда conditions", "cp1251"),
    ("Müller straße größe fünf häuser schöne grüße", "latin-1"),
    ("的一是不了在人有我他这个上们来到时大地为子中你说生国年着就那和要她出也得很好。"
     "今天天气不错，我们去公园散步。", "gb18030"),
    ("這是一個很大的問題。他們說今天天氣不錯，我們去公園散步。", "big5"),
    ("이것은 아주 좋은 하루입니다. 사람들이 거리에서 이야기를 하고 있습니다.", "euc_kr"),
    (_JA, "euc_jp"),
    (_JA, "iso2022_jp"),
    ("Το πρωί ο σταθμός γεμίζει με κόσμο και θόρυβο.", "iso8859_7"),
    ("في الصباح تمتلئ المحطة بالناس والضجيج.", "cp1256"),
    ("בבוקר התחנה מתמלאת באנשים וברעש.", "cp1255"),
    ("สถานีรถไฟเต็มไปด้วยผู้คนในตอนเช้า", "tis_620"),
    ("Rano stacja wypełnia się ludźmi i hałasem.", "cp1250"),
    ("Vlak přijíždí na nádraží brzy ráno.", "cp1250"),
]
# a high byte closing one payload and one opening the next: joined they
# would make a two-byte pure-high word, which Thai scores highest
_EDGES = [b"abc \xe8", b"\xe9 abc", b"\xe8", b"\xe9\xe0"]


def _cut(pair: tuple[str, str], edge: int, delta: int, shift: bool) -> bytes:
    """A long payload cut near a detection window edge (2,048 or 8,192
    bytes), often mid-unit; ``shift`` moves every unit by one byte."""
    text, codec = pair
    unit = (text + " ").encode(codec)
    data = (b"x" if shift else b"") + unit * (edge // len(unit) + 2)
    return data[: edge + delta]


_PAYLOAD = st.one_of(
    st.sampled_from(_MATRIX).map(lambda pair: pair[0].encode(pair[1])),
    st.builds(_cut, st.sampled_from(_MATRIX), st.sampled_from([2048, 8192]),
              st.integers(-3, 3), st.booleans()),
    st.text(max_size=200).map(str.encode),
    st.sampled_from([b"\xff\xfe", b"\xfe\xff", b"\xef\xbb\xbf"]).flatmap(
        lambda bom: st.text(max_size=60).map(
            lambda s: bom + s.encode("utf-8" if bom[0] == 0xEF
                                     else "utf-16-le" if bom[0] == 0xFF
                                     else "utf-16-be"))),
    st.sampled_from([b"x\x1b$B\xff\xff garbage", b"plain \x1b escape",
                     _JA.encode("iso2022_jp")[:7]]),
    st.sampled_from(_EDGES),
    st.binary(max_size=600),
)


def _reference_charset(data: bytes) -> str:
    """The detection rules for one payload, scores as exact fractions."""
    cs = charset._detect_structural(data)
    if cs is not None:
        return cs
    sample = data[:8192]
    high = [b for b in sample if b >= 0x80]
    score = {
        name: Fraction(sum(charset._byte_weight(b, codec) for b in high),
                       10 * len(high)) if high else Fraction(0)
        for codec, name in charset._SINGLE_BYTE
    }
    pure = mixed = 0
    for word in re.findall(rb"[A-Za-z\x80-\xff]+", sample):
        has_high, has_ascii = max(word) >= 0x80, min(word) < 0x80
        pure += has_high and not has_ascii and len(word) >= 2
        mixed += has_high and has_ascii
    cjk, best = None, Fraction(0)
    for codec, name, common, ranges in charset._CJK if len(high) >= 6 else ():
        decoded = charset._strict_decode_window(
            sample[:2048], codec, len(sample) > 2048) or ""
        chars = [ch for ch in decoded if ord(ch) >= 0x80]
        script = [ch for ch in chars if "\u3000" <= ch <= "\u303f"
                  or any(lo <= ord(ch) <= hi for lo, hi in ranges)]
        if chars and Fraction(len(script), len(chars)) >= Fraction(1, 2):
            ratio = Fraction(sum(ch in common for ch in chars), len(chars))
            if ratio > best:
                cjk, best = name, ratio
    if best < Fraction(1, 5):
        cjk = None
    if pure > mixed:
        if cjk is not None:
            return cjk
        pick, top = None, Fraction(0)
        for _, name in charset._SINGLE_BYTE[:6]:
            if score[name] > top:
                pick, top = name, score[name]
        if pick is not None and top >= Fraction(4, 5):
            return pick
    if charset._looks_like_shift_jis(sample):
        return charset.SHIFT_JIS
    if cjk is not None:
        return cjk
    western = max(score[charset.WIN1252], score[charset.LATIN1])
    if score[charset.WIN1250] >= western + Fraction(1, 4):
        return charset.WIN1250
    if any(b in charset._CP1252_TYPO for b in sample) and score[charset.WIN1252] >= 0:
        return charset.WIN1252
    return charset.LATIN1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 7, 128]), st.data())
def test_charset_of_a_payload_is_independent_of_its_batch(n, data):
    rows = data.draw(st.lists(_PAYLOAD, min_size=1, max_size=n))
    batch = (rows * (n // len(rows) + 1))[:n]
    data.draw(st.randoms()).shuffle(batch)
    got = detect_charsets(batch)
    assert got == [detect_charsets([p])[0] for p in batch]
    for payload, cs in zip(batch, got):
        assert decode_text(payload, cs) == decode_text(payload)


@settings(max_examples=60, deadline=None)
@given(st.lists(_PAYLOAD, min_size=1, max_size=12))
def test_batch_detector_applies_the_rules_exactly(payloads):
    assert detect_charsets(payloads) == [_reference_charset(p) for p in payloads]


def test_high_byte_runs_do_not_join_across_payloads():
    alone = [detect_charset(p) for p in _EDGES]
    assert alone[:2] == ["ISO-8859-1", "ISO-8859-1"]
    assert detect_charset(b"".join(_EDGES[:2])) == "TIS-620"
    assert detect_charsets(_EDGES) == alone


def test_exact_ties_resolve_by_the_rule():
    """Scores that meet a threshold exactly pass it, in any batch: a
    cp1250 margin of exactly 0.25 (30 tenths over 12 high bytes) and a
    windows-1256 mean weight of exactly 0.8 (72 tenths over 9)."""
    margin = b"\xa8\xec\xa4F\xb1\xdf\xa4W\xb5\xf3\xb9D\xa4S\xa6w\xc0"
    script = (b'{"id": 0, "text"\x87\xdf\xe4\xef"\xb0\\\x18\xa5R\x08\x89\xc8'
              b'\xde\x08: "Was down she has now one people me what."}\n'
              b'{"id": 1, "text":')
    for payload, expected in ((margin, "windows-1250"), (script, "windows-1256")):
        assert _reference_charset(payload) == expected
        assert detect_charset(payload) == expected
        assert detect_charsets([b"\xe9t\xe9", payload, margin])[1] == expected
