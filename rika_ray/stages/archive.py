"""ZIP / TAR archive container extraction (format breadth, SURVEY.md §2.2).

The reference handles archives via Tika's ``PackageParser`` behind the one
``Rika.parse`` surface (``/root/reference/lib/rika/parser.rb:21-29``): an
``application/zip`` / ``application/x-tar`` document yields the
concatenated extracted text of its embedded members, each member routed
through the same auto-detect + parse path, with the container recorded in
metadata. Re-implemented here from the public ZIP APPNOTE / POSIX ustar
specs via the stdlib ``zipfile`` / ``tarfile`` readers.

Scale/bomb guards (a crawl corpus WILL contain zip bombs):
- at most ``MAX_ENTRIES`` members are walked; the rest are counted but
  skipped (recorded in ``rika:entry-count`` so truncation is visible);
- each member may expand to at most ``MAX_ENTRY_BYTES``; the whole archive
  to at most ``MAX_TOTAL_BYTES`` — a member over budget is skipped, an
  archive over budget stops walking (never raises mid-document);
- nesting depth is bounded by the caller (ExtractStage threads the same
  ``_depth`` counter used for gzip, so zip-in-gzip-in-zip terminates).

Only the bounded, already-expanded member bytes exist at once, and only
for one row: the router expands one document's container, extracts its
members and drops them before the next row, so a batch's transient memory
is one archive's expansion whatever the batch size.
"""

from __future__ import annotations

import tarfile
import zipfile
from io import BytesIO
from typing import Iterator

MAX_ENTRIES = 128
MAX_ENTRY_BYTES = 64 * 1024 * 1024
MAX_TOTAL_BYTES = 256 * 1024 * 1024


class ArchiveParseError(Exception):
    pass


def iter_zip_entries(data: bytes) -> Iterator[tuple[str, bytes | None, int]]:
    """Yield ``(name, member_bytes | None, total_entry_count)`` for up to
    MAX_ENTRIES regular members in central-directory order. ``None`` bytes
    mark a member skipped by the bomb guards (over-size or encrypted).
    Raises ArchiveParseError on a corrupt container."""
    try:
        zf = zipfile.ZipFile(BytesIO(data))
        infos = zf.infolist()
    except (zipfile.BadZipFile, ValueError, OSError) as e:
        raise ArchiveParseError(f"bad zip: {e}") from None
    files = [i for i in infos if not i.is_dir()]
    total = 0
    for info in files[:MAX_ENTRIES]:
        if info.file_size > MAX_ENTRY_BYTES or info.flag_bits & 0x1:
            # over-budget or traditionally-encrypted member: skip, keep going
            yield info.filename, None, len(files)
            continue
        if total + info.file_size > MAX_TOTAL_BYTES:
            return
        try:
            member = zf.read(info.filename)
        except (zipfile.BadZipFile, RuntimeError, ValueError, OSError):
            yield info.filename, None, len(files)
            continue
        total += len(member)
        yield info.filename, member, len(files)


def iter_tar_entries(data: bytes) -> Iterator[tuple[str, bytes | None, int]]:
    """TAR analogue of :func:`iter_zip_entries` (uncompressed ustar/GNU —
    .tar.gz arrives here already unwrapped by the gzip kernel)."""
    try:
        tf = tarfile.open(fileobj=BytesIO(data), mode="r:")
        members = tf.getmembers()
    except (tarfile.TarError, ValueError, OSError) as e:
        raise ArchiveParseError(f"bad tar: {e}") from None
    files = [m for m in members if m.isfile()]
    total = 0
    for m in files[:MAX_ENTRIES]:
        if m.size > MAX_ENTRY_BYTES:
            yield m.name, None, len(files)
            continue
        if total + m.size > MAX_TOTAL_BYTES:
            return
        fh = tf.extractfile(m)
        if fh is None:
            yield m.name, None, len(files)
            continue
        member = fh.read()
        total += len(member)
        yield m.name, member, len(files)
