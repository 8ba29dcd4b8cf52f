"""Charset detection + text decoding (operators M2/M3, SURVEY.md §2.2).

The reference surfaces charset detection only through the content type
(``"text/plain; charset=UTF-8"`` — ``spec/rika/parser_spec.rb:225-227``,
``README.md:245-247``); detection itself happens inside Tika, whose ICU
detector recognizes legacy single/multi-byte encodings by statistical
scoring. This module re-implements that semantics from scratch.

Normative spec (shared with the corpus generator's goldens):
- UTF-16/UTF-8 BOM wins.
- Bytes that validate as UTF-8 (ASCII included) → ``UTF-8``.
- Otherwise candidate single-byte codecs are scored by decoding the
  high-byte population and weighting character plausibility
  (common-Russian-lowercase frequency separates windows-1251 from KOI8-R,
  whose case planes are swapped; Latin text prefers windows-1252 when the
  0x80-0x9F typographic block is used, else ISO-8859-1).
- Structurally valid Shift-JIS with CJK-dominant decode wins over the
  single-byte candidates (checked first — its lead/trail structure is a
  stronger signal than letter frequencies).
- Anything inconclusive → ``ISO-8859-1`` (the universal single-byte
  fallback; every byte string decodes).

Batch form: ``detect_charsets(payloads)`` is the one detector;
``detect_charset(data)`` is its one-payload call. Each payload first gets
the checks that settle it at C speed: the BOMs, the ISO-2022-JP escape
scan and its strict decode, and a strict UTF-8 decode of the whole
payload. The payloads left over are decided together, in array
operations over their concatenated 8 KiB heads. Each head is followed by
a space, which ends word runs, so no run crosses from one payload into the
next. One pass over that buffer gives every payload's word composition,
its high-byte histogram (times a 9×256 weight table: the nine single-byte
scores; the cp1252 typography test) and, from four strict 2 KiB window
decodes per payload, the CJK script and common-character counts. Only the
heads are held, never a second copy of the payloads, and a payload's
verdict does not depend on the rest of its batch.

Scores are exact: the per-byte weights are integer tenths, so a score is
an integer sum, and every threshold is compared in integers.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable

import numpy as np

UTF8 = "UTF-8"
UTF16LE = "UTF-16LE"
UTF16BE = "UTF-16BE"
LATIN1 = "ISO-8859-1"
WIN1250 = "windows-1250"
WIN1251 = "windows-1251"
WIN1252 = "windows-1252"
WIN1255 = "windows-1255"
WIN1256 = "windows-1256"
ISO88597 = "ISO-8859-7"
TIS620 = "TIS-620"
KOI8R = "KOI8-R"
SHIFT_JIS = "Shift_JIS"
GB18030 = "GB18030"
BIG5 = "Big5"
EUCKR = "EUC-KR"
EUCJP = "EUC-JP"
ISO2022JP = "ISO-2022-JP"

_CODEC = {
    UTF16LE: "utf-16-le",
    UTF16BE: "utf-16-be",
    UTF8: "utf-8",
    LATIN1: "iso-8859-1",
    WIN1250: "cp1250",
    WIN1251: "cp1251",
    WIN1252: "cp1252",
    WIN1255: "cp1255",
    WIN1256: "cp1256",
    ISO88597: "iso8859_7",
    TIS620: "tis_620",
    KOI8R: "koi8-r",
    SHIFT_JIS: "shift_jis",
    GB18030: "gb18030",
    BIG5: "big5",
    EUCKR: "euc_kr",
    EUCJP: "euc_jp",
    ISO2022JP: "iso2022_jp",
}

_HEAD = 8192  # bytes of a payload the statistical steps read
_WINDOW = 2048  # bytes the multi-byte structure checks decode

# The seven most frequent Russian letters cover >40% of running text; their
# lowercase forms live at 0xE0+ in cp1251 but 0xC0-0xDF in KOI8-R, so a
# common-lowercase score cleanly separates the two. Per-script common-letter
# sets below are the same idea for the other legacy codepages: each codec
# decodes bytes into its OWN script, so one union set is safe — text under
# the right codec concentrates on its script's common letters, text under a
# wrong codec scatters across that script's full alphabet.
_RU_COMMON = set("оеаинтсрвлкмдпу")
_LATIN_COMMON = set("éèêëàâäçôöîïûüùñåæøßãóáíúý")
# Central European (cp1250): Polish/Czech/Hungarian accents whose bytes are
# typography or controls under latin-1/cp1252 — the separating signal
_CE_COMMON = set("ąćęłńśźżčďěňřšťůžőű")
# Top-frequency letters ONLY (≈ the top dozen of each script) — a set that
# covers most of the alphabet can't separate right-codec concentration
# from wrong-codec scatter
_EL_COMMON = set("αοετισνηρκπυάίό")
_AR_COMMON = set("اليمونهرتبكد")
_HE_COMMON = set("יהולארתשבמענ")
_TH_COMMON = set("ารนเอิกงมยลวสด่้")

# Per-codec scoring profile: (common letters, in-script predicate). Letters
# OUTSIDE the codec's primary script score low — mixed-script codepages
# (cp1256 carries Latin accents alongside Arabic) would otherwise score
# foreign text on their secondary script.
def _in_latin(ch: str) -> bool:
    return ch <= "\u024f"


def _in_cyrillic(ch: str) -> bool:
    return "\u0400" <= ch <= "\u04ff"


_PROFILE = {
    "cp1251": (_RU_COMMON, _in_cyrillic),
    "koi8-r": (_RU_COMMON, _in_cyrillic),
    "cp1252": (_LATIN_COMMON, _in_latin),
    "latin_1": (_LATIN_COMMON, _in_latin),
    "cp1250": (_LATIN_COMMON | _CE_COMMON, _in_latin),
    "iso8859_7": (_EL_COMMON, lambda ch: "\u0370" <= ch <= "\u03ff"),
    "cp1256": (_AR_COMMON, lambda ch: "\u0600" <= ch <= "\u06ff"),
    "cp1255": (_HE_COMMON, lambda ch: "\u0590" <= ch <= "\u05ff"),
    "tis_620": (_TH_COMMON, lambda ch: "\u0e00" <= ch <= "\u0e7f"),
}
# cp1252 0x80-0x9F typographic block (undefined: 81 8D 8F 90 9D)
_CP1252_TYPO = frozenset(
    range(0x80, 0xA0)
) - {0x81, 0x8D, 0x8F, 0x90, 0x9D}

# (codec, reported name) of the single-byte candidates, in decision order:
# the six non-Latin scripts of the pure-high-byte branch, then the Latin
# family (columns _CE, _W1252 and _LAT1 of the score matrix)
_SINGLE_BYTE = (
    ("cp1251", WIN1251),
    ("koi8-r", KOI8R),
    ("iso8859_7", ISO88597),
    ("cp1256", WIN1256),
    ("cp1255", WIN1255),
    ("tis_620", TIS620),
    ("cp1250", WIN1250),
    ("cp1252", WIN1252),
    ("latin_1", LATIN1),
)
_N_SCRIPT = 6
_CE, _W1252, _LAT1 = 6, 7, 8


def _byte_weight(b: int, codec: str) -> int:
    """Per-byte weight in integer tenths (the normative scoring semantics):
    common letters strong, case-plane mismatches weak, undecodable strongly
    negative. A payload's score under ``codec`` is the sum over its high
    bytes; the decisions divide by the high-byte count only on paper."""
    try:
        ch = bytes([b]).decode(codec)
    except UnicodeDecodeError:
        return -20
    common, in_script = _PROFILE[codec]
    if ch in common:
        return 20
    if ch.isalpha():
        if not in_script(ch):
            return 2  # plausible only as quoted foreign words
        # caseless scripts (Thai, Arabic, Hebrew) are running-text letters,
        # not "uppercase": only genuinely uppercase letters get the penalty
        return 4 if ch.isupper() else 10
    if b in _CP1252_TYPO and codec == "cp1252":
        return 3
    if ch.isprintable() or ch in " ":
        return 0
    return -10  # control chars never appear in real text


# ---------------------------------------------------------------------------
# CJK multi-byte candidates (GB18030 / Big5 / EUC-KR / EUC-JP)
#
# ICU-style recognition (the reference's detector family): C-speed strict
# decode of a bounded window (= structural unit validation), expected-script
# dominance of the decode, and a COMMON-CHARACTER frequency gate. The gate is
# the load-bearing part: the 94×94 GR planes make any run of 0xA1-0xFE byte
# pairs structurally valid in all three encodings (and in cp1251/KOI8-R as
# single bytes), but text decoded under the WRONG codec scatters uniformly
# over the plane, so its hit rate against the language's most frequent
# characters stays near 100/8836 ≈ 1%, while real text concentrates 20-60%
# of running characters in that set.
# ---------------------------------------------------------------------------

# Most frequent running-text characters (public frequency lists).
_ZH_SIMP_COMMON = (
    "的一是不了在人有我他这个上们来到时大地为子中你说生国年着就那和要她"
    "出也得里后自以会家可下而过天去能对小多然于心学么之都好看起发当没成"
    "只如事把还用第样道想作种开美总从无情己面最女但现前些所同日手又行意"
    "动方期它头经长儿回位分爱老因很给名法间斯知世什两次使身者被高已亲其"
)
_ZH_TRAD_COMMON = (
    "的一是不了在人有我他這個上們來到時大地為子中你說生國年著就那和要她"
    "出也得裡後自以會家可下而過天去能對小多然於心學麼之都好看起發當沒成"
    "只如事把還用第樣道想作種開美總從無情己面最女但現前些所同日手又行意"
    "動方期它頭經長兒回位分愛老因很給名法間斯知世什兩次使身者被高已親其"
)
_KO_COMMON = (
    "이다의에는하을를가고지서기도로사아니것수있그대한때문제들어자저나요"
    "말만사람중또같습니까게네와과라서면으며부터처럼보다안된해였습니다였"
    "거주요즘좀잘못더많거의"
)
# Japanese running text is kana-dominated (all of hiragana + common
# katakana) plus the most frequent kanji — kana membership is the cleanly
# separating signal vs the Chinese tables above.
_JA_COMMON = (
    "あいうえおかきくけこさしすせそたちつてとなにぬねのはひふへほまみむめ"
    "もやゆよらりるれろわをんがぎぐげござじずぜぞだぢづでどばびぶべぼぱぴ"
    "ぷぺぽゃゅょっアイウエオカキクケコサシスセソタチツテトナニヌネノハヒ"
    "フヘホマミムメモヤユヨラリルレロワヲンガギグゲゴザジズゼゾダヂヅデド"
    "バビブベボパピプペポャュョッー"
    "日本人年月時大中国出生子分上下前後間東京語学会社行見言事思手新聞電車"
)

# (codec, reported name, common characters, script code-point ranges) in
# decision order; CJK punctuation (U+3000-U+303F) counts as script for all
_CJK = (
    ("euc_kr", EUCKR, _KO_COMMON, ((0xAC00, 0xD7A3),)),  # Hangul syllables
    ("gb18030", GB18030, _ZH_SIMP_COMMON, ((0x4E00, 0x9FFF),)),  # Han
    ("big5", BIG5, _ZH_TRAD_COMMON, ((0x4E00, 0x9FFF),)),  # Han
    # kana OR Han: Japanese running text mixes both scripts
    ("euc_jp", EUCJP, _JA_COMMON, ((0x3040, 0x30FF), (0x4E00, 0x9FFF))),
)


def _codepoints(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


@functools.cache
def _tables() -> dict:
    """Lookup tables compiled once per process."""
    ascii_letter = np.zeros(256, dtype=bool)
    ascii_letter[0x41:0x5B] = True
    ascii_letter[0x61:0x7B] = True
    high = np.arange(256) >= 0x80
    return {
        "letterish": ascii_letter | high,
        "ascii_letter": ascii_letter,
        # the high half of the 9×256 weight table (the low half is zero)
        "weights": np.array(
            [[_byte_weight(b, codec) for b in range(0x80, 0x100)]
             for codec, _ in _SINGLE_BYTE],
            dtype=np.int64,
        ),
        "typo": np.array(sorted(_CP1252_TYPO)) - 0x80,
        "cjk_common": [np.unique(_codepoints(c)) for _, _, c, _ in _CJK],
    }


def _strict_decode_window(win: bytes, codec: str, truncated: bool):
    """Structural validation at C speed: a strict decode of the window.
    A unit cut in half by the WINDOW edge is tolerated; a decode error
    anywhere else (including a genuinely truncated file) rejects."""
    try:
        return win.decode(codec)
    except UnicodeDecodeError as e:
        if truncated and e.start >= len(win) - 4:
            try:
                return win[: e.start].decode(codec)
            except UnicodeDecodeError:
                return None
        return None


# Shift-JIS units: ASCII, a lead byte and its trail, or half-width kana
_SJIS_UNITS = re.compile(
    rb"(?:[\x00-\x7f]|[\x81-\x9f\xe0-\xef][\x40-\x7e\x80-\xfc]|[\xa1-\xdf])*"
)
# the multi-byte units alone; a scan from a unit boundary stays aligned
_SJIS_MB = re.compile(rb"[\x81-\x9f\xe0-\xef][\x40-\x7e\x80-\xfc]|[\xa1-\xdf]")
# kana, kanji and full-width punctuation
_JA_CHAR = re.compile("[\u3040-\u30ff\u4e00-\u9fff、。「」・ー！？]")


def _looks_like_shift_jis(data: bytes) -> bool:
    """Structural + content check: every high byte participates in a valid
    Shift-JIS unit, DOUBLE-BYTE units dominate (half-width kana alone is
    byte-identical to the KOI8-R lowercase plane), and the decode is
    full-width-CJK-dominant."""
    truncated = len(data) > _WINDOW
    data = data[:_WINDOW]  # bounded check; decisions don't need more
    end = _SJIS_UNITS.match(data).end()  # last complete-unit boundary
    if end < len(data):
        # only a lead byte cut in half by the window edge may be left over
        lead = 0x81 <= data[end] <= 0x9F or 0xE0 <= data[end] <= 0xEF
        if not (truncated and end == len(data) - 1 and lead):
            return False
    units = _SJIS_MB.findall(data, 0, end)
    dbl = sum(map(len, units)) - len(units)
    single_kana = len(units) - dbl
    # ≥3 double-byte units: one or two isolated accented Latin-1 bytes
    # followed by ASCII also parse as a "valid" SJIS unit
    if dbl < 3 or dbl < single_kana:
        return False
    try:
        decoded = data[:end].decode("shift_jis")
    except UnicodeDecodeError:
        return False
    cjk = len(_JA_CHAR.findall(decoded))
    non_ascii = len(decoded) - len(decoded.encode("ascii", "ignore"))
    return non_ascii > 0 and cjk / non_ascii >= 0.6


def _detect_structural(data: bytes) -> str | None:
    """The verdicts one C-speed check settles (BOMs, ISO-2022-JP, UTF-8);
    None when the payload needs the statistical steps."""
    if data.startswith(b"\xff\xfe"):
        return UTF16LE
    if data.startswith(b"\xfe\xff"):
        return UTF16BE
    if data.startswith(b"\xef\xbb\xbf"):
        return UTF8
    # ISO-2022-JP is pure 7-bit (it would pass the UTF-8 strict decode), so
    # its JIS X 0208 shift-in escapes are checked FIRST — the sequences
    # ESC $ B / ESC $ @ never occur in real UTF-8/ASCII text
    if data.find(b"\x1b$B", 0, _HEAD) >= 0 or data.find(b"\x1b$@", 0, _HEAD) >= 0:
        if _strict_decode_window(data[:_WINDOW], "iso2022_jp", len(data) > _WINDOW):
            return ISO2022JP
    if data.isascii():
        return UTF8
    try:
        data.decode("utf-8", errors="strict")
    except UnicodeDecodeError:
        return None
    return UTF8


def _segment_counts(seg: np.ndarray, mask: np.ndarray, n: int) -> np.ndarray:
    """How many of the positions selected by ``mask`` fall in each of the
    ``n`` segments (``seg`` = each position's segment)."""
    return np.bincount(seg[mask], minlength=n)


def _detect_cjk(heads: list[bytes]) -> list[str | None]:
    """Best GB18030/Big5/EUC-KR/EUC-JP candidate of each head, or None when
    no candidate is structurally valid, script-dominant AND above the
    common-character frequency gate."""
    n = len(heads)
    commons = _tables()["cjk_common"]
    ratios = np.zeros((len(_CJK), n))  # common hits per non-ASCII char
    for k, (codec, _name, _common, ranges) in enumerate(_CJK):
        decoded = [
            _strict_decode_window(h[:_WINDOW], codec, len(h) > _WINDOW) or ""
            for h in heads
        ]
        cp = _codepoints("".join(decoded))
        seg = np.repeat(np.arange(n), [len(d) for d in decoded])
        non_ascii = cp >= 0x80
        script = (cp >= 0x3000) & (cp <= 0x303F)  # CJK punctuation
        for lo, hi in ranges:
            script |= (cp >= lo) & (cp <= hi)
        n_non_ascii = _segment_counts(seg, non_ascii, n)
        n_script = _segment_counts(seg, script & non_ascii, n)
        n_common = _segment_counts(seg, np.isin(cp, commons[k]) & non_ascii, n)
        # script-dominant: at least half the non-ASCII characters
        ok = (n_non_ascii > 0) & (2 * n_script >= n_non_ascii)
        ratios[k, ok] = n_common[ok] / n_non_ascii[ok]
    best = ratios.argmax(axis=0)  # the first candidate on a tie
    return [
        _CJK[k][1] if ratios[k, j] >= 0.2 else None
        for j, k in enumerate(best.tolist())
    ]


def _detect_heads(heads: list[bytes]) -> list[str]:
    """The statistical verdict of each payload head (its first 8 KiB), all
    heads in one set of array operations."""
    t = _tables()
    n = len(heads)
    # each head + one closing space (not letterish: it ends word runs)
    arr = np.frombuffer(b" ".join(heads) + b" ", dtype=np.uint8)
    ends = np.cumsum([len(h) + 1 for h in heads])

    # high-byte histogram per head → the nine single-byte scores
    hi = np.flatnonzero(arr >= 0x80)
    hist = np.bincount(
        np.searchsorted(ends, hi, side="right") * 128 + (arr[hi] - 0x80),
        minlength=n * 128,
    ).reshape(n, 128)
    n_high = hist.sum(axis=1)
    scores = hist @ t["weights"].T  # (n, 9), integer tenths
    typo = hist[:, t["typo"]].any(axis=1)

    # WORD COMPOSITION separates the script families: Cyrillic/CJK words
    # are pure high-byte runs, while Latin words with accents mix ASCII
    # letters and isolated high bytes ("très" = t,r,0xE8,s). Density or
    # adjacency alone misclassify mostly-ASCII pages with a few Cyrillic
    # words, or accent clusters.
    edges = np.diff(t["letterish"][arr].view(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)  # each head's closing space ends its runs
    bounds = np.column_stack([starts, stops]).ravel()
    has_high = np.logical_or.reduceat(arr >= 0x80, bounds)[::2]
    has_ascii = np.logical_or.reduceat(t["ascii_letter"][arr], bounds)[::2]
    # a pure-high "word" must be a RUN (≥2 bytes): script words are
    # multi-byte, while Latin text sprinkles isolated high bytes —
    # standalone à, «, — , € — that would otherwise masquerade as
    # script words and drag Western pages into the script branch
    long_enough = (stops - starts) >= 2
    run_seg = np.searchsorted(ends, starts, side="right")
    pure_high = _segment_counts(run_seg, has_high & ~has_ascii & long_enough, n)
    mixed = _segment_counts(run_seg, has_high & has_ascii, n)

    # GB18030/Big5/EUC-KR/EUC-JP needs ≥3 multi-byte units to decide.
    # The candidate is consulted BEFORE the Cyrillic scoring (EUC-KR Hangul
    # bytes land on the KOI8-R lowercase plane and can clear its frequency
    # bar) — safe because Cyrillic text under a CJK codec scatters uniformly
    # and never clears the 20% common-character gate.
    cjk: list[str | None] = [None] * n
    rows = np.flatnonzero(n_high >= 6).tolist()
    for i, name in zip(rows, _detect_cjk([heads[i] for i in rows])):
        cjk[i] = name

    # pure-high-byte words: the non-Latin single-byte candidates — Cyrillic
    # (two case-plane-swapped layouts), Greek, Arabic, Hebrew, Thai. Their
    # letter-frequency signal must outrank SJIS's structural one (Russian
    # cp1251 lowercase pairs parse as valid SJIS kanji units, and KOI8-R
    # lowercase aliases SJIS half-width kana byte-for-byte). The first best
    # candidate wins if its mean weight is positive and at least 0.8.
    script_best = scores[:, :_N_SCRIPT].argmax(axis=1)
    script_score = scores[np.arange(n), script_best]
    script_ok = (pure_high > mixed) & (script_score > 0) & (script_score >= 8 * n_high)
    # Latin family. Central European cp1250 only on a clear margin (mean
    # weight ≥ 0.25 above both others): its accents (ł ż ą č ř ...) land on
    # typography/controls under latin-1/cp1252, so CE text scores visibly
    # higher under cp1250 while Western text ties or wins under cp1252
    # (shared é è ô positions).
    margin = scores[:, _CE] - np.maximum(scores[:, _W1252], scores[:, _LAT1])
    central = (n_high > 0) & (2 * margin >= 5 * n_high)
    # cp1252 only when the 0x80-0x9F typographic block is actually used
    # (otherwise the two are byte-identical in practice and ISO-8859-1 is
    # the reference's reported fallback)
    western = typo & (scores[:, _W1252] >= 0)

    out = []
    for i, head in enumerate(heads):
        if pure_high[i] > mixed[i] and cjk[i] is not None:
            out.append(cjk[i])
        elif script_ok[i]:
            out.append(_SINGLE_BYTE[script_best[i]][1])
        # SJIS before the Latin fallback: hiragana trail bytes live in the
        # ASCII-letter range, so Japanese text registers as "mixed words"
        elif _looks_like_shift_jis(head):
            out.append(SHIFT_JIS)
        # Big5 trail bytes 0x40-0x7E also register as mixed words — the CJK
        # candidate counts on this path too (after SJIS: Japanese
        # double-byte units are structurally valid GBK, the reverse check
        # is stronger)
        elif cjk[i] is not None:
            out.append(cjk[i])
        elif central[i]:
            out.append(WIN1250)
        elif western[i]:
            out.append(WIN1252)
        else:
            out.append(LATIN1)
    return out


def detect_charsets(payloads: Iterable[bytes]) -> list[str]:
    """The charset of each payload, in order (module docstring: the
    per-payload checks, then one set of array operations over the heads of
    the payloads they leave undecided)."""
    out: list[str | None] = []
    rows: list[int] = []
    heads: list[bytes] = []
    for data in payloads:
        cs = _detect_structural(data)
        if cs is None:
            rows.append(len(out))
            heads.append(data[:_HEAD])
        out.append(cs)
    if heads:
        for i, cs in zip(rows, _detect_heads(heads)):
            out[i] = cs
    return out


def detect_charset(data: bytes) -> str:
    return detect_charsets([data])[0]


def decode_text(data: bytes, charset: str | None = None) -> tuple[str, str]:
    """Decode bytes to str; returns (text, charset). BOMs are stripped."""
    cs = charset or detect_charset(data)
    if cs == UTF16LE:
        return data[2:].decode("utf-16-le", errors="replace"), cs
    if cs == UTF16BE:
        return data[2:].decode("utf-16-be", errors="replace"), cs
    if cs == UTF8:
        if data.startswith(b"\xef\xbb\xbf"):
            data = data[3:]
        return data.decode("utf-8", errors="replace"), cs
    return data.decode(_CODEC.get(cs, "iso-8859-1"), errors="replace"), cs
