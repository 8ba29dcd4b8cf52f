"""7z / RAR / zstd container extraction (round-3 verdict item 9: the last
PackageParser gap — these formats previously sniffed as opaque containers).

Fixtures are built by docgen's deterministic writers, which emit exactly
the documented subset: 7z single-folder archives in every supported codec
(including the LZMA2-packed metadata header 7-Zip writes by default),
stored RAR4/RAR5 members, raw/RLE-block zstd frames."""

from __future__ import annotations

import pytest

from rika_ray import docgen
from rika_ray.stages import sniff
from rika_ray.stages.rar import iter_rar_entries
from rika_ray.stages.sevenz import iter_7z_entries
from rika_ray.stages.archive import ArchiveParseError
from rika_ray.stages.zstd import ZstdUnsupported, decompress_zstd

ENTRIES = [
    ("a.txt", b"alpha member text\n"),
    ("docs/b.txt", b"second body with more words " * 8),
]


def _stage():
    from rika_ray.stages.extract import ExtractStage

    return ExtractStage()


@pytest.mark.parametrize("codec", ["copy", "lzma2", "lzma1", "bzip2"])
@pytest.mark.parametrize("encoded_header", [False, True])
def test_7z_roundtrip_all_codecs(codec, encoded_header):
    blob = docgen.build_7z(ENTRIES, codec=codec, encoded_header=encoded_header)
    assert sniff.sniff_bytes(blob[:2048], blob[-4096:]) == sniff.SEVENZ
    got = [(n, m) for n, m, total in iter_7z_entries(blob)]
    assert got == ENTRIES


def test_7z_solid_block_splits_members():
    """One folder holds BOTH members (solid): substream sizes must slice
    the decoded stream back into the original files."""
    blob = docgen.build_7z(ENTRIES, codec="lzma2")
    members = {n: m for n, m, _ in iter_7z_entries(blob)}
    assert members["a.txt"] == ENTRIES[0][1]
    assert members["docs/b.txt"] == ENTRIES[1][1]


def test_7z_through_extraction_pipeline():
    blob = docgen.build_7z(
        [("x.txt", b"seven zip text payload\n"), ("y.html", b"<html><body><p>seven zip html member with enough words to survive extraction thresholds</p></body></html>")],
        codec="lzma2",
        encoded_header=True,
    )
    content, ctype, _cs, _spans, meta = _stage()._route(blob, sniff.SEVENZ)
    assert "seven zip text payload" in content
    assert meta["rika:container"] == sniff.SEVENZ
    assert meta["rika:entry-count"] == "2"


@pytest.mark.parametrize("n_copy_members", [1, 2])
def test_7z_multicoder_folder_skips_without_desync(n_copy_members):
    """A BCJ+LZMA coder-chain folder (7-Zip's default for executables)
    carries one kCodersUnpackSize entry PER CODER OUT STREAM; the header
    reader must consume both and keep parsing, so the chain member skips
    to None while the sibling Copy folder still decodes (round-4 advice:
    one-number-per-folder desynced and failed the whole archive)."""
    entries = [("a.txt", b"copy folder text payload\n")]
    if n_copy_members == 2:
        entries.append(("b.txt", b"second member body"))
    blob = docgen.build_7z_mixed_folders("prog.exe", entries)
    got = {n: m for n, m, _ in iter_7z_entries(blob)}
    assert got["prog.exe"] is None  # unsupported chain, skipped cleanly
    for name, data in entries:
        assert got[name] == data


def test_7z_corrupt_raises_archive_error():
    blob = docgen.build_7z(ENTRIES, codec="lzma2")
    with pytest.raises(ArchiveParseError):
        list(iter_7z_entries(blob[:40]))  # truncated next header
    with pytest.raises(ArchiveParseError):
        list(iter_7z_entries(b"7z\xbc\xaf\x27\x1c" + b"\x00" * 10))


def test_rar4_stored_members_extracted():
    blob = docgen.build_rar4(ENTRIES)
    assert sniff.sniff_bytes(blob[:2048], blob[-4096:]) == sniff.RAR
    got = [(n, m) for n, m, _ in iter_rar_entries(blob)]
    assert got == ENTRIES


def test_rar5_stored_members_extracted():
    blob = docgen.build_rar5(ENTRIES)
    assert sniff.sniff_bytes(blob[:2048], blob[-4096:]) == sniff.RAR
    got = [(n, m) for n, m, _ in iter_rar_entries(blob)]
    assert got == ENTRIES


@pytest.mark.parametrize("builder", [docgen.build_rar4, docgen.build_rar5])
def test_rar_compressed_members_listed_but_skipped(builder):
    """Proprietary-method members surface by NAME with None bytes — the
    archive still parses and stored members elsewhere would extract."""
    blob = builder(ENTRIES, fake_compressed=True)
    got = list(iter_rar_entries(blob))
    assert [n for n, _, _ in got] == [n for n, _ in ENTRIES]
    assert all(m is None for _, m, _ in got)


def test_rar_through_extraction_pipeline():
    blob = docgen.build_rar5([("t.txt", b"rar five stored text\n")])
    content, _ctype, _cs, _spans, meta = _stage()._route(blob, sniff.RAR)
    assert "rar five stored text" in content
    assert meta["rika:container"] == sniff.RAR


def test_zstd_raw_and_rle_blocks_decode():
    z = docgen.build_zstd_raw(b"zstd payload body\n", rle_tail=b"zzzzzzzz")
    assert sniff.sniff_bytes(z[:2048], z[-4096:]) == sniff.ZSTD
    assert decompress_zstd(z, 1 << 20) == b"zstd payload body\nzzzzzzzz"


def test_zstd_unwrap_through_pipeline_resniffs_inner():
    inner = b"just a plain utf-8 text file with several words\n"
    z = docgen.build_zstd_raw(inner)
    content, ctype, _cs, _spans, meta = _stage()._route(z, sniff.ZSTD)
    assert content == inner.decode()
    assert meta["rika:container"] == sniff.ZSTD


def test_zstd_compressed_block_is_loud_not_silent():
    """A compressed block needs the FSE/Huffman entropy stage (no zstd lib
    in this environment): the kernel must RAISE (→ parse_error row), never
    return wrong bytes."""
    frame = bytearray(docgen.build_zstd_raw(b"x" * 10))
    # rewrite the block header's type bits raw(0) → compressed(2)
    hdr_off = 4 + 1 + 1  # magic + descriptor + 1-byte content size
    hdr = int.from_bytes(frame[hdr_off : hdr_off + 3], "little")
    hdr = (hdr & ~0x06) | (2 << 1)
    frame[hdr_off : hdr_off + 3] = hdr.to_bytes(3, "little")
    with pytest.raises(ZstdUnsupported):
        decompress_zstd(bytes(frame), 1 << 20)


def test_zstd_bomb_guard_caps_expansion():
    big = docgen.build_zstd_raw(b"", rle_tail=b"a" * 100_000)
    with pytest.raises(Exception):
        decompress_zstd(big, cap=1000)


def test_package_members_route_through_full_dispatch():
    """A 7z holding a PDF member: the member routes through the SAME
    auto-detect + parse path as a standalone document (Tika PackageParser
    semantics, reference lib/rika/parser.rb:21-29)."""
    pdf = docgen.build_pdf([["nested pdf line one", "nested pdf line two"]])
    blob = docgen.build_7z([("doc.pdf", pdf)], codec="lzma2")
    content, *_ = _stage()._route(blob, sniff.SEVENZ)
    assert "nested pdf line one" in content
    assert "nested pdf line two" in content
