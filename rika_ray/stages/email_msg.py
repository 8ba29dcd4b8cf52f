"""RFC 5322 / MIME email extraction — the Tika RFC822Parser and
MboxParser analogues (the reference inherits both via the Tika jar,
``/root/reference/lib/rika/tika_loader.rb:12-26``).

Built on the Python stdlib ``email`` package (public API), which owns
header unfolding, RFC 2047 encoded-word decoding, charset handling, and
base64 / quoted-printable content-transfer-encoding decode. Messages are
parsed under a ``compat32`` policy, which keeps raw header strings, so the
MIME walk needs no header-registry object per lookup; what it reads, and
the emitted headers, are decoded exactly as under ``policy.default`` (see
``_Policy`` and ``_decoded``). This module only flattens the MIME tree into renderable
leaves; the per-leaf routing (HTML bodies through the boilerplate
extractor, binary attachments through the magic-byte dispatch) is driven
by ``ExtractStage`` like the archive kernels, so an email with a PDF
attachment extracts the PDF text through the exact same code path as a
standalone PDF.

multipart/alternative policy: prefer the ``text/plain`` member, else the
first member — one rendering per alternative group, never both (the MIME
convention is that alternatives carry the same content; emitting both
would double-count the body in downstream dedup / token statistics).
"""

from __future__ import annotations

import email
import email.policy
import functools
import re
from email import utils
from email.message import Message


class EmailParseError(Exception):
    pass


# Message parsing reads headers through the policy's header_fetch_parse
# only. policy.default builds a header-registry object on every read, and
# the parser and the MIME walk read Content-Type again and again; compat32
# returns the raw string (both policies share ``header_source_parse``).
# The two headers that shape the tree and the decoded text read as the text
# of policy.default's object, cached per raw value, so every content-type,
# boundary, charset and transfer-encoding lookup sees what it sees under
# policy.default.
@functools.lru_cache(maxsize=1024)
def _structural(name: str, value: str) -> str:
    return str(email.policy.default.header_fetch_parse(name, value))


class _Policy(email.policy.Compat32):
    def header_fetch_parse(self, name, value):
        if name.lower() in ("content-type", "content-transfer-encoding"):
            return _structural(name.lower(), value)
        return super().header_fetch_parse(name, value)


_POLICY = _Policy()

# metadata surface modeled on Tika's RFC822Parser keys
_HEADER_KEYS = (
    ("from", "Message:From"),
    ("to", "Message:To"),
    ("cc", "Message:Cc"),
    ("message-id", "Message:Message-ID"),
    ("date", "Message:Date"),
    ("subject", "dc:title"),
)
# policy.default's header_fetch_parse(name, raw) unfolds the raw value and
# calls its header factory, which makes a new class per call: the class
# for each emitted header is made once here instead
_HEADER_CLASS = {
    hdr: email.policy.default.header_factory[hdr] for hdr, _ in _HEADER_KEYS
}
_LINESEP = re.compile(r"\n|\r")

# Values the header classes return unchanged, told apart without them: an
# ASCII Subject (unstructured text changes only at encoded words), a
# ``<dot-atom@dot-atom>`` Message-ID, and a ", "-separated list of
# ``addr-spec`` or ``atom-phrase <addr-spec>``. Anything else (encoded
# words, quoting, comments, groups, other spacing, non-ASCII) goes through
# the header class.
_ATOM = r"[A-Za-z0-9!#$%&'*+/=?^_`{|}~-]+"
_DOT_ATOM = rf"{_ATOM}(?:\.{_ATOM})*"
_MAILBOX = rf"(?:(?:{_ATOM} )+<{_DOT_ATOM}@{_DOT_ATOM}>|{_DOT_ATOM}@{_DOT_ATOM})"
_MAILBOXES = re.compile(rf"{_MAILBOX}(?:, {_MAILBOX})*").fullmatch
_CANONICAL = {
    "from": _MAILBOXES,
    "to": _MAILBOXES,
    "cc": _MAILBOXES,
    "message-id": re.compile(rf"<{_DOT_ATOM}@{_DOT_ATOM}>").fullmatch,
    "subject": lambda value: True,
}


def _decoded(hdr: str, value: str) -> str:
    """The unfolded ``value`` of header ``hdr`` as policy.default decodes
    it."""
    if value.isascii() and "=?" not in value:
        if hdr == "date":
            # DateHeader.parse's two calls; it keeps an invalid date as is
            try:
                return utils.format_datetime(utils.parsedate_to_datetime(value))
            except ValueError:
                return value
        if _CANONICAL[hdr](value):
            return value
    return str(_HEADER_CLASS[hdr](hdr, value))


def parse_message(data: bytes) -> Message:
    try:
        msg = email.message_from_bytes(data, policy=_POLICY)
    except Exception as e:  # the email package can raise on mangled input
        raise EmailParseError(f"unparseable message: {e}") from None
    if not msg.keys():
        raise EmailParseError("no RFC 5322 headers")
    return msg


def message_metadata(msg: Message) -> dict[str, str]:
    """The emitted headers, each as ``msg.get`` returns it under
    policy.default (its first occurrence, decoded)."""
    first: dict[str, str] = {}
    for name, raw in msg.raw_items():
        first.setdefault(name.lower(), raw)
    meta: dict[str, str] = {}
    for hdr, key in _HEADER_KEYS:
        try:
            v = _decoded(hdr, _LINESEP.sub("", first[hdr]))
        except Exception:  # absent, or defective: survives as absent
            continue
        if v:
            meta[key] = v
    if "Message:From" in meta:
        meta["dc:creator"] = meta["Message:From"]
    return meta


def message_leaves(msg: Message) -> list[tuple[str, str | bytes]]:
    """Flatten the MIME tree to renderable leaves in document order:
    ``(content_type, payload)`` where payload is decoded ``str`` for text/*
    leaves (charset + CTE handled by the email package) and raw ``bytes``
    for everything else (routed by the caller's dispatch)."""
    out: list[tuple[str, str | bytes]] = []
    _walk(msg, out, depth=0)
    return out


_MAX_MIME_DEPTH = 8  # MIME-bomb guard: deeper nesting is never legitimate


def _walk(part: Message, out: list, depth: int) -> None:
    if depth > _MAX_MIME_DEPTH:
        return
    if part.is_multipart():
        children = part.get_payload()
        if not isinstance(children, list):
            return
        if part.get_content_subtype() == "alternative":
            chosen = next(
                (c for c in children if c.get_content_type() == "text/plain"),
                children[0] if children else None,
            )
            if chosen is not None:
                _walk(chosen, out, depth + 1)
        else:
            for c in children:
                _walk(c, out, depth + 1)
        return
    ctype = part.get_content_type()
    if ctype == "message/rfc822":
        # forwarded message: recurse into the embedded message's tree
        inner = part.get_payload()
        if isinstance(inner, list):
            for c in inner:
                _walk(c, out, depth + 1)
        return
    if ctype.startswith("text/"):
        # policy.default's text decode (contentmanager.get_text_content)
        try:
            raw = part.get_payload(decode=True)
            payload = raw.decode(part.get_param("charset", "ASCII"), "replace")
        except Exception:
            raw = part.get_payload(decode=True) or b""
            payload = raw.decode("utf-8", errors="replace")
        out.append((ctype, payload))
    else:
        out.append((ctype, part.get_payload(decode=True) or b""))


# ---------------------------------------------------------------------------
# mbox

# The mbox postmark: "From " at line start followed by an envelope
# sender and a ctime-style date ("Mon Jan 12 10:00:00 2026"). The date
# shape is REQUIRED at split points — a body line that merely starts
# with "From " (prose, unstuffed quoting) must not split the mailbox.
_POSTMARK = b"From "
_POSTMARK_RE = re.compile(
    rb"From \S+ +[A-Z][a-z]{2} [A-Z][a-z]{2} [ \d]\d"
    rb" \d\d:\d\d:\d\d \d{4}\r?\n"
)


def split_mbox(data: bytes) -> list[bytes]:
    """Split an mbox file into per-message byte blobs (postmark lines
    dropped). Tika's MboxParser treats each message as an embedded
    document; the caller parses each blob through the RFC822 path."""
    if not data.startswith(_POSTMARK):
        raise EmailParseError("not an mbox: missing leading postmark")
    messages: list[bytes] = []
    pos = 0
    n = len(data)
    while pos < n:
        # skip the postmark line itself
        eol = data.find(b"\n", pos)
        body_start = n if eol == -1 else eol + 1
        # the next message starts at the next line-anchored POSTMARK
        # (validated against the full shape, not just "\nFrom ")
        nxt = data.find(b"\nFrom ", body_start)
        while nxt != -1 and not _POSTMARK_RE.match(data, nxt + 1):
            nxt = data.find(b"\nFrom ", nxt + 1)
        body_end = n if nxt == -1 else nxt + 1
        blob = data[body_start:body_end]
        # drop the ONE blank separator line before the next postmark — it
        # is mailbox framing; any further trailing blank lines are genuine
        # message body and must survive the round trip
        if blob.endswith(b"\n\n"):
            blob = blob[:-1]
        messages.append(blob)
        pos = body_end
    return messages
