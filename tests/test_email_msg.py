"""Mail extraction against the stdlib's own ``policy.default`` path.

``email_msg`` parses under a ``compat32`` policy and decodes only what it
reads and emits. The expected side here parses the same bytes with
``email.message_from_bytes(data, policy=email.policy.default)`` and walks
the tree with the header-registry API, under the same leaf rules
(multipart/alternative keeps its text/plain member, else the first).
Metadata and text leaves must be equal for every mail document of the
smoke corpus and for hand-built messages covering the header and charset
corner cases."""

from __future__ import annotations

import email
import email.policy

import pytest

from rika_ray.stages import email_msg, sniff
from rika_ray.stages.email_msg import (
    message_leaves,
    message_metadata,
    parse_message,
    split_mbox,
)

_HEADERS = (
    ("From", "Message:From"),
    ("To", "Message:To"),
    ("Cc", "Message:Cc"),
    ("Message-ID", "Message:Message-ID"),
    ("Date", "Message:Date"),
    ("Subject", "dc:title"),
)


def _expected(data: bytes):
    msg = email.message_from_bytes(data, policy=email.policy.default)
    meta = {}
    for hdr, key in _HEADERS:
        v = msg.get(hdr)
        if v:
            meta[key] = str(v)
    if "Message:From" in meta:
        meta["dc:creator"] = meta["Message:From"]
    leaves = []

    def walk(part):
        if part.is_multipart():
            children = part.get_payload()
            if part.get_content_subtype() == "alternative":
                children = [
                    next(
                        (c for c in children if c.get_content_type() == "text/plain"),
                        children[0],
                    )
                ]
            for c in children:
                walk(c)
        elif part.get_content_type().startswith("text/"):
            try:
                text = part.get_content()
            except Exception:
                raw = part.get_payload(decode=True) or b""
                text = raw.decode("utf-8", errors="replace")
            leaves.append((part.get_content_type(), text))
        elif part.get_content_type() != "message/rfc822":
            leaves.append(
                (part.get_content_type(), part.get_payload(decode=True) or b"")
            )

    walk(msg)
    return meta, leaves


def _assert_matches_default_policy(data: bytes) -> None:
    msg = parse_message(data)
    want_meta, want_leaves = _expected(data)
    assert message_metadata(msg) == want_meta
    assert message_leaves(msg) == want_leaves


def _corpus_mail(corpus_tables):
    pages, _ = corpus_tables
    for row in pages.to_pylist():
        data = row["html"] or b""
        media = sniff.sniff_bytes(data[:2048], data[-4096:])
        if media == sniff.EML:
            yield row["url"], [data]
        elif media == sniff.MBOX:
            yield row["url"], split_mbox(data)


def test_corpus_mail_matches_default_policy(corpus_tables):
    seen = 0
    for url, messages in _corpus_mail(corpus_tables):
        for data in messages:
            _assert_matches_default_policy(data)
            seen += 1
    assert seen >= 6, seen


_B64_SUBJECT = "=?utf-8?b?" + "R3LDvMOfZSBhdXMgS8O2bG4=" + "?="

_HAND_BUILT = {
    "b_encoded_subject": (
        f"From: a@example.test\nSubject: {_B64_SUBJECT}\n\nbody\n"
    ).encode(),
    "q_encoded_subject": (
        b"From: a@example.test\n"
        b"Subject: =?iso-8859-1?q?Caf=E9_cr=E8me?= and =?utf-8?Q?=C3=A9t=C3=A9?=\n"
        b"\nbody\n"
    ),
    "quoted_display_name": (
        b'From: "Doe, Jane (Ops)" <jane.doe@example.test>\n'
        b"To: Bob <bob@example.test>\n\nbody\n"
    ),
    "folded_to_cc": (
        b"From: a@example.test\n"
        b"To: first@example.test,\n second@example.test,\n\t\"Third, T\" <t@example.test>\n"
        b"Cc: =?utf-8?q?J=C3=BCrgen?= <j@example.test>,\n  k@example.test\n"
        b"Message-ID: <folded@example.test>\n"
        b"Date: Mon, 12 Jan 2026 10:00:00 +0000\n\nbody\n"
    ),
    "raw_8bit_utf8_headers": (
        "From: Jürgen Groß <jg@example.test>\n"
        "Subject: Grüße aus Köln — ünïcödé\n"
        "Content-Type: text/plain; charset=utf-8\n"
        "Content-Transfer-Encoding: 8bit\n\nÄpfel und Birnen\n"
    ).encode("utf-8"),
    "text_part_without_charset": (
        b"From: a@example.test\nContent-Type: text/plain\n"
        b"Content-Transfer-Encoding: 8bit\n\ndefault charset is ASCII: caf\xc3\xa9\n"
    ),
    "unknown_charset": (
        b"From: a@example.test\n"
        b"Content-Type: text/plain; charset=x-no-such-charset\n"
        b"Content-Transfer-Encoding: 8bit\n\n"
        + "café body\n".encode("utf-8")
    ),
    "multipart_alternative": (
        b"From: a@example.test\nSubject: alt\n"
        b'Content-Type: multipart/alternative; boundary="ALT"\n\n'
        b"--ALT\nContent-Type: text/html; charset=utf-8\n\n<p>html first</p>\n"
        b"--ALT\nContent-Type: text/plain; charset=iso-8859-1\n"
        b"Content-Transfer-Encoding: quoted-printable\n\nplain =E9t=E9 second\n"
        b"--ALT--\n"
    ),
    # RFC 2045 comments and trailing junk in Content-Type: the raw string
    # is not the parameter value, so the boundary must be read as
    # policy.default reads it or the parts are never split
    "content_type_comments": (
        b"From: a@example.test\n"
        b"Content-Type: multipart/mixed; boundary=MIX (mixed parts)\n\n"
        b"--MIX\nContent-Type: text/plain (body); charset=utf-8\n\nfirst\n"
        b'--MIX\nContent-Type: multipart/alternative; boundary="ALT"\x08\n\n'
        b"--ALT\nContent-Type: text/plain\n\nsecond\n--ALT--\n--MIX--\n"
    ),
    "forwarded_rfc822": (
        b"From: outer@example.test\nSubject: Fwd: inner\n"
        b'Content-Type: multipart/mixed; boundary="MIX"\n\n'
        b"--MIX\nContent-Type: text/plain\n\nsee below\n"
        b"--MIX\nContent-Type: message/rfc822\n\n"
        b"From: inner@example.test\nSubject: =?utf-8?q?inn=C3=A9r?=\n"
        b'Content-Type: multipart/alternative; boundary="IN"\n\n'
        b"--IN\nContent-Type: text/plain; charset=utf-8\n"
        b"Content-Transfer-Encoding: base64\n\naW5uZXIgYm9keQ==\n"
        b"--IN\nContent-Type: text/html\n\n<b>inner</b>\n--IN--\n"
        b"--MIX\nContent-Type: application/octet-stream\n"
        b"Content-Transfer-Encoding: base64\n\nAAECAw==\n--MIX--\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_HAND_BUILT))
def test_hand_built_mail_matches_default_policy(name):
    data = _HAND_BUILT[name]
    _assert_matches_default_policy(data)
    meta, leaves = _expected(data)
    assert meta.get("Message:From") and leaves  # the case is not vacuous


# Header values one at a time: the canonical shapes that ``email_msg``
# decodes without the header registry, and the neighbouring shapes that
# must still go through it.
_HEADER_VALUES = [
    ("From", "jane@example.test"),
    ("From", "Jane Doe <jane.doe@mail.example.test>"),
    ("To", "a@example.test, Bob <b.c@example.test>, d+tag@example.test"),
    ("To", "a@example.test,b@example.test"),  # no space after the comma
    ("To", "a@example.test ,  b@example.test"),
    ("From", "Jane  Doe <jane@example.test>"),  # two spaces
    ("From", "Jane Q. Doe <jane@example.test>"),  # dotted display name
    ("From", "J.R.R. Tolkien <jrrt@example.test>"),
    ("From", '"Doe, Jane" <jane@example.test>'),  # quoted display name
    ("From", '"Jane" <jane@example.test>'),
    ("From", '"jane doe"@example.test'),  # quoted local part
    ("To", "Team: a@example.test, b@example.test;"),  # group
    ("To", "undisclosed-recipients:;"),  # empty group
    ("From", "jane@example.test (Jane Doe)"),  # comment
    ("From", "Jane (the boss) Doe <jane@example.test>"),
    ("From", "=?utf-8?q?J=C3=BCrgen?= <j@example.test>"),  # encoded word
    ("Cc", "a@example.test, =?utf-8?b?SsO8cmdlbg==?= <j@example.test>"),
    ("From", "<a b@c>"),
    ("From", "Jane <a b@c>"),
    ("From", "<jane@example.test>"),  # bare angle address
    ("From", "jane@[192.0.2.1]"),  # domain literal
    ("From", "jane@"),
    ("From", "not an address"),
    ("Cc", "Ålice <alice@example.test>"),  # raw 8-bit
    ("To", "a@example.test,\n b@example.test,\n\tCarol <c@example.test>"),  # folded
    ("Message-ID", "<abc.123@mail.example.test>"),
    ("Message-ID", "<a b@c>"),
    ("Message-ID", "<abc@example.test> (comment)"),
    ("Message-ID", "<abc@[192.0.2.1]>"),
    ("Message-ID", "abc@example.test"),  # no angle brackets
    ("Message-ID", "<abc>"),
    ("Message-ID", "<=?utf-8?q?x?=@example.test>"),
    ("Message-ID", "<abc@example.test>\n <def@example.test>"),  # folded
    ("Date", "Mon, 12 Jan 2026 10:00:00 +0000"),
    ("Date", "Mon, 12 Jan 2026 10:00:00 -0000"),  # no zone information
    ("Date", "12 Jan 2026 10:00 +0100"),
    ("Date", "Mon, 12 Jan 2026 10:00:00 EST"),
    ("Date", "Mon, 12 Jan 2026 10:00:00 +0000 (UTC)"),
    ("Date", "Mon, 12 Jan 2026\n 10:00:00 +0200"),  # folded
    ("Date", "Mon, 32 Jan 2026 10:00:00 +0000"),  # bad day
    ("Date", "Mon, 12 Jan 2026 10:00:00 +9999"),  # bad zone
    ("Date", "yesterday"),
    ("Date", "Mon, 12 Jan 99999999999999999999 10:00:00 +0000"),  # overflows
    ("Date", "Mon, 12 Jan 2026 10:00:00 +0000 é"),  # raw 8-bit
    ("Subject", "plain ascii subject"),
    ("Subject", "  spaced\tout  "),
    ("Subject", "a =? b"),  # not an encoded word
    ("Subject", "=?utf-8?q?caf=C3=A9?= and more"),
    ("Subject", "Grüße"),
    ("Subject", "control \x01 char"),
    ("Subject", "folded\n\tsubject\n line"),
]


@pytest.mark.parametrize("header,value", _HEADER_VALUES)
def test_header_matches_default_policy(header, value):
    data = f"{header}: {value}\n\nbody\n".encode()
    try:
        want = email.message_from_bytes(data, policy=email.policy.default).get(header)
    except Exception:  # the registry raises: the header is left out
        want = None
    got = message_metadata(parse_message(data)).get(dict(_HEADERS)[header])
    assert got == (str(want) if want else None)


@pytest.mark.parametrize(
    "header,value",
    [
        ("from", "Jane Doe <jane.doe@mail.example.test>"),
        ("to", "a@example.test, Bob <b.c@example.test>"),
        ("message-id", "<abc.123@mail.example.test>"),
        ("date", "Mon, 12 Jan 2026 10:00:00 -0000"),
        ("date", "yesterday"),
        ("subject", "plain ascii subject"),
    ],
)
def test_canonical_values_skip_the_header_registry(monkeypatch, header, value):
    want = str(email.policy.default.header_factory(header, value))
    monkeypatch.setattr(email_msg, "_HEADER_CLASS", {})
    assert email_msg._decoded(header, value) == want
