"""Textual web-format extractors: CSV/TSV tables, JSON and NDJSON,
Markdown, SVG, RSS/Atom feeds (format breadth beyond the M3 plain-text
kernel, SURVEY.md §2.2).

The reference reaches these formats through Tika behind its one-parse
surface (``/root/reference/lib/rika/parser.rb:21-29``): TextAndCSVParser
(delimiter-consistency detection, text passthrough, ``csv:delimiter``
metadata), the feed parser (entry titles + descriptions), and XML-root
detection for SVG. Re-expressed here as pure per-document functions called
from the ExtractStage dispatch — one ``map_batches`` scan, no extra pass.

Every function returns ``(content, spans, metadata)`` like its peer
extractors and never depends on ambient state, so a row's result does not
depend on the worker or the batch that runs it.
"""

from __future__ import annotations

import csv
import io
import json
import re
import xml.etree.ElementTree as ET

_DELIM_NAME = {",": "comma", "\t": "tab"}


def extract_csv(text: str, delimiter: str) -> tuple[str, list, dict]:
    """CSV/TSV: content is the text itself (Tika's TextAndCSVParser streams
    the characters through unchanged); shape goes to metadata."""
    n_rows = 0
    n_cols = 0
    for row in csv.reader(io.StringIO(text), delimiter=delimiter):
        if not row:
            continue
        n_rows += 1
        n_cols = max(n_cols, len(row))
    meta = {
        "csv:delimiter": _DELIM_NAME.get(delimiter, delimiter),
        "csv:num-rows": str(n_rows),
        "csv:num-columns": str(n_cols),
    }
    return text, [], meta


def extract_json(text: str) -> tuple[str, list, dict]:
    """JSON: content passes through (Tika has no structural JSON parser —
    the text IS the extraction); validity and top-level shape go to
    metadata so pipelines can filter malformed payloads without re-parsing."""
    meta: dict[str, str] = {}
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        meta["json:valid"] = "false"
    else:
        meta["json:valid"] = "true"
        if isinstance(obj, dict):
            meta["json:num-keys"] = str(len(obj))
        elif isinstance(obj, list):
            meta["json:num-elements"] = str(len(obj))
    return text, [], meta


def extract_ndjson(text: str) -> tuple[str, list, dict]:
    """Newline-delimited JSON: content passes through; the record count
    (lines that parse as JSON) goes to metadata."""
    n_ok = 0
    n_lines = 0
    for line in text.split("\n"):
        if not line.strip():
            continue
        n_lines += 1
        try:
            json.loads(line)
            n_ok += 1
        except (ValueError, RecursionError):
            pass
    return text, [], {
        "ndjson:num-lines": str(n_lines),
        "ndjson:num-records": str(n_ok),
    }


# Markdown inline syntax, innermost-first so nested emphasis unwraps:
# images before links (shared prefix), code spans, then paired emphasis.
_MD_IMAGE = re.compile(r"!\[([^\]]*)\]\([^)]*\)")
_MD_LINK = re.compile(r"\[([^\]]+)\]\([^)]*\)")
_MD_CODE = re.compile(r"`([^`]+)`")
_MD_BOLD = re.compile(r"\*\*([^*]+)\*\*|__([^_]+)__")
_MD_EMPH = re.compile(r"\*([^*]+)\*")
_MD_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_MD_BULLET = re.compile(r"^(\s*)(?:[-*+]|\d{1,9}\.)\s+")
_MD_HRULE = re.compile(r"^\s{0,3}(?:-{3,}|\*{3,}|_{3,})\s*$")


def extract_markdown(text: str) -> tuple[str, list, dict]:
    """Markdown → plain text: headings keep their text (markers stripped),
    list bullets and blockquote markers drop, emphasis/code/link syntax
    unwraps to the inner text, fence lines and horizontal rules drop.
    The first heading becomes ``dc:title`` (the reference surfaces document
    titles through metadata for every format Tika titles)."""
    out_lines: list[str] = []
    n_headings = 0
    title: str | None = None
    in_fence = False
    for line in text.split("\n"):
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            continue
        if in_fence:
            out_lines.append(line)  # code content verbatim, fence markers gone
            continue
        if _MD_HRULE.match(line):
            continue
        m = _MD_HEADING.match(line)
        if m:
            n_headings += 1
            line = m.group(2)
            if title is None:
                title = _strip_inline(line)
        else:
            line = _MD_BULLET.sub(r"\1", line)
            if line.startswith(">"):
                line = line.lstrip(">").lstrip(" ")
        out_lines.append(_strip_inline(line))
    content = "\n".join(out_lines)
    meta = {"md:num-headings": str(n_headings)}
    if title:
        meta["dc:title"] = title
    return content, [], meta


def _strip_inline(line: str) -> str:
    line = _MD_IMAGE.sub(r"\1", line)
    line = _MD_LINK.sub(r"\1", line)
    line = _MD_CODE.sub(r"\1", line)
    line = _MD_BOLD.sub(lambda m: m.group(1) or m.group(2), line)
    line = _MD_EMPH.sub(r"\1", line)
    return line


def _local(tag: object) -> str:
    """Element local name with any ``{namespace}`` prefix removed."""
    return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""


def _norm_ws(s: str) -> str:
    return " ".join(s.split())


def extract_svg(data: bytes) -> tuple[str, list, dict]:
    """SVG: extracted content is the human-readable text — ``<title>``,
    ``<desc>`` and ``<text>`` (with nested tspans flattened in document
    order), one line each. Root ``width``/``height`` go to metadata like
    the raster image kernels' dimensions."""
    root = ET.fromstring(data)
    parts: list[str] = []
    title: str | None = None
    for el in root.iter():
        local = _local(el.tag)
        if local in ("title", "desc", "text"):
            # itertext flattens tspan/textPath children, so nested text
            # nodes are collected exactly once, in document order
            txt = _norm_ws("".join(el.itertext()))
            if txt:
                parts.append(txt)
                if local == "title" and title is None:
                    title = txt
    meta: dict[str, str] = {}
    if title:
        meta["dc:title"] = title
    for attr in ("width", "height"):
        v = root.get(attr)
        if v is not None:
            meta[f"svg:{attr}"] = v
    content = "\n".join(parts) + ("\n" if parts else "")
    return content, [], meta


_ATOM_NS = "{http://www.w3.org/2005/Atom}"


def extract_feed(data: bytes, kind: str) -> tuple[str, list, dict]:
    """RSS 2.0 / Atom: feed title + description, then per entry its title
    and description/summary, one line each (the reference's feed handling
    surfaces exactly the entry titles + descriptions as content). Entry
    count and feed title go to metadata."""
    root = ET.fromstring(data)
    lines: list[str] = []
    feed_title: str | None = None
    n_entries = 0

    def _push(el) -> None:
        if el is not None and el.text:
            txt = _norm_ws(el.text)
            if txt:
                lines.append(txt)

    if kind == "atom":
        _push(root.find(f"{_ATOM_NS}title"))
        feed_title = lines[0] if lines else None
        _push(root.find(f"{_ATOM_NS}subtitle"))
        for entry in root.findall(f"{_ATOM_NS}entry"):
            n_entries += 1
            _push(entry.find(f"{_ATOM_NS}title"))
            _push(entry.find(f"{_ATOM_NS}summary"))
    else:  # rss
        channel = root.find("channel")
        if channel is not None:
            _push(channel.find("title"))
            feed_title = lines[0] if lines else None
            _push(channel.find("description"))
            for item in channel.findall("item"):
                n_entries += 1
                _push(item.find("title"))
                _push(item.find("description"))
    meta: dict[str, str] = {"feed:num-entries": str(n_entries)}
    if feed_title:
        meta["dc:title"] = feed_title
    content = "\n".join(lines) + ("\n" if lines else "")
    return content, [], meta


def extract_ical(text: str) -> tuple[str, list, dict]:
    """iCalendar (RFC 5545): content passes through — Tika detects
    text/calendar by the BEGIN:VCALENDAR magic and falls back to the text
    parser for the body, so the extraction IS the text (the reference
    inherits this via the Tika jar,
    ``/root/reference/lib/rika/tika_loader.rb:12-26``). Component shape
    goes to metadata the way ``csv:*`` does for tables: spec VERSION and
    the VEVENT count, plus the first SUMMARY as the title surface."""
    meta: dict[str, str] = {}
    n_events = 0
    title: str | None = None
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if line.startswith("VERSION:") and "ical:version" not in meta:
            meta["ical:version"] = line[8:].strip()
        elif line == "BEGIN:VEVENT":
            n_events += 1
        elif line.startswith("SUMMARY:") and title is None:
            title = line[8:].strip()
    meta["ical:num-events"] = str(n_events)
    if title:
        meta["dc:title"] = title
    return text, [], meta


def extract_vcard(text: str) -> tuple[str, list, dict]:
    """vCard (RFC 6350): content passes through (same Tika
    magic-detect-plus-text-parse convention as iCalendar); the card count
    and the first formatted name go to metadata."""
    meta: dict[str, str] = {}
    n_cards = 0
    fn: str | None = None
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if line == "BEGIN:VCARD":
            n_cards += 1
        elif line.startswith("FN:") and fn is None:
            fn = line[3:].strip()
    meta["vcard:num-cards"] = str(n_cards)
    if fn:
        meta["dc:title"] = fn
    return text, [], meta
