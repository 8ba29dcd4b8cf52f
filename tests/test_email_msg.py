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

from rika_ray.stages import sniff
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
