"""Pure-numpy codec goldens: PNG unfilter paths, BMP row
flip/padding/swizzle, WAV PCM normalization — plus the multimodal
decode dispatching each format to its codec."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from rika_ray.stages.codecs import (
    CodecError,
    bmp_decode,
    bmp_encode,
    png_decode,
    png_encode,
    wav_pcm_decode,
)


def _grad(h, w, seed=0):
    from rika_ray.docgen import gradient_pixels

    return gradient_pixels(h, w, seed=seed)


@pytest.mark.parametrize("f", [0, 1, 2, 3, 4])
def test_png_roundtrip_each_filter(f):
    px = _grad(9, 7, seed=f)
    data = png_encode(px, filters=[f] * 9)
    assert (png_decode(data) == px).all()


def test_png_roundtrip_mixed_filters():
    px = _grad(25, 16, seed=5)
    data = png_encode(px, filters=[y % 5 for y in range(25)])
    assert (png_decode(data) == px).all()


def test_png_sub_filter_hand_case():
    # one row, two RGB pixels; Sub stores right pixel minus left
    px = np.array([[[10, 20, 30], [40, 50, 60]]], dtype=np.uint8)
    data = png_encode(px, filters=[1])
    # the filtered scanline inside IDAT must be 01 0a 14 1e 1e 1e 1e
    raw = zlib.decompress(data[data.index(b"IDAT") + 4 : data.rindex(b"IEND") - 4])
    assert raw == bytes([1, 10, 20, 30, 30, 30, 30])
    assert (png_decode(data) == px).all()


def _png_chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + ctype
        + body
        + struct.pack(">I", zlib.crc32(ctype + body))
    )


def _raw_png(w, h, color, scanlines: bytes, plte: bytes | None = None):
    out = b"\x89PNG\r\n\x1a\n" + _png_chunk(
        b"IHDR", struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    )
    if plte is not None:
        out += _png_chunk(b"PLTE", plte)
    return out + _png_chunk(b"IDAT", zlib.compress(scanlines)) + _png_chunk(b"IEND", b"")


def test_png_grayscale_and_rgba_and_palette():
    # gray: 2x2, values 0,64,128,255 → replicated into 3 channels
    g = _raw_png(2, 2, 0, bytes([0, 0, 64, 0, 128, 255]))
    got = png_decode(g)
    assert got.shape == (2, 2, 3)
    assert (got[0, 1] == [64, 64, 64]).all() and (got[1, 1] == [255, 255, 255]).all()
    # RGBA: alpha dropped
    ra = _raw_png(1, 1, 6, bytes([0, 9, 8, 7, 200]))
    assert (png_decode(ra)[0, 0] == [9, 8, 7]).all()
    # palette: index 1 → (1,2,3)
    p = _raw_png(2, 1, 3, bytes([0, 1, 0]), plte=bytes([250, 250, 250, 1, 2, 3]))
    got = png_decode(p)
    assert (got[0, 0] == [1, 2, 3]).all() and (got[0, 1] == [250, 250, 250]).all()


def test_png_rejects_header_only_and_interlaced():
    from rika_ray import docgen

    with pytest.raises(CodecError):  # docgen.build_png is header-only
        png_decode(docgen.build_png(8, 8))
    il = b"\x89PNG\r\n\x1a\n" + _png_chunk(
        b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1)
    )
    with pytest.raises(CodecError):
        png_decode(il + _png_chunk(b"IDAT", zlib.compress(b"\x00" * 14)))


def test_bmp_roundtrip_with_padding():
    px = _grad(5, 3, seed=2)  # stride 9 → padded to 12
    data = bmp_encode(px)
    assert (bmp_decode(data) == px).all()
    # dims in the header match the image_meta reader
    from rika_ray.stages.image_meta import bmp_dimensions

    assert bmp_dimensions(data) == (3, 5)


def test_wav_pcm_decode_16bit_stereo_mix():
    # 2 frames of 16-bit stereo: (16384, -16384) → 0.0 mix; (8192, 8192) → 0.25
    pcm = struct.pack("<4h", 16384, -16384, 8192, 8192)
    fmt = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
    body = (
        b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(pcm)) + pcm
    )
    data = b"RIFF" + struct.pack("<I", len(body)) + body
    samples, rate = wav_pcm_decode(data)
    assert rate == 8000
    assert np.allclose(samples, [0.0, 0.25])


def test_wav_pcm_decode_8bit_and_silence():
    from rika_ray import docgen

    samples, rate = wav_pcm_decode(docgen.build_wav(22050, 1, 16, 100))
    assert rate == 22050 and samples.shape == (100,) and (samples == 0).all()
    pcm8 = bytes([128, 255, 0])
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
    body = (
        b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(pcm8)) + pcm8
    )
    samples, _ = wav_pcm_decode(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert np.allclose(samples, [0.0, 127 / 128, -1.0])


def test_decode_image_uses_real_codec_for_png_and_bmp():
    from rika_ray import docgen
    from rika_ray.pipelines.multimodal import decode_image

    px = _grad(12, 10, seed=4)
    got, media = decode_image(docgen.build_png_rgb(px, filters=[2] * 12))
    assert media == "image/png" and (got == px).all()
    got, media = decode_image(docgen.build_bmp_rgb(px))
    assert media == "image/bmp" and (got == px).all()


def test_decode_audio_uses_real_pcm_for_wav():
    from rika_ray.pipelines.multimodal import decode_audio

    pcm = struct.pack("<2h", 16384, -32768)
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = (
        b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(pcm)) + pcm
    )
    samples = decode_audio(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert np.allclose(samples, [0.5, -1.0])


# ------------------------------------------------------- GIF (round 5) ----


def test_gif_roundtrip_lossless():
    from rika_ray.stages.codecs import gif_decode, gif_encode

    px = (_grad(23, 31, seed=5) // 64) * 64  # noise → ≤4³ distinct colors
    out = gif_decode(gif_encode(px))
    assert out.shape == px.shape and (out == px).all()


def test_gif_lzw_code_width_growth_and_dict_reset():
    from rika_ray.stages.codecs import gif_decode, gif_encode

    rng = np.random.RandomState(7)
    # grayscale noise with ~250 levels: forces 8-bit codes, width growth
    # to 12 bits and at least one dictionary reset on a 120x130 image
    g = rng.randint(0, 250, size=(120, 130)).astype(np.uint8)
    px = np.stack([g, g, g], axis=2)
    assert (gif_decode(gif_encode(px)) == px).all()


def test_gif_two_color_minimum_code_size():
    from rika_ray.stages.codecs import gif_decode, gif_encode

    px = np.zeros((9, 14, 3), np.uint8)
    px[::2, ::3] = 255
    assert (gif_decode(gif_encode(px)) == px).all()


def test_gif_rejects_truncated_and_header_only():
    from rika_ray import docgen
    from rika_ray.stages.codecs import gif_decode, gif_encode

    with pytest.raises(CodecError):  # docgen.build_gif is header-only
        gif_decode(docgen.build_gif(8, 8))
    full = gif_encode((_grad(10, 10) // 32) * 32)
    with pytest.raises(CodecError):
        gif_decode(full[: len(full) // 2])


# ------------------------------------------------------ TIFF (round 5) ----


@pytest.mark.parametrize("packbits", [False, True])
@pytest.mark.parametrize("rps", [None, 1, 5])
def test_tiff_roundtrip_strip_layouts(packbits, rps):
    from rika_ray.stages.codecs import tiff_decode, tiff_encode

    px = _grad(17, 23, seed=11)
    out = tiff_decode(tiff_encode(px, packbits=packbits, rows_per_strip=rps))
    assert (out == px).all()


def test_tiff_packbits_run_heavy():
    from rika_ray.stages.codecs import tiff_decode, tiff_encode

    px = np.zeros((20, 31, 3), np.uint8)
    px[5:9] = 200
    px[:, ::3] = 7
    enc = tiff_encode(px, packbits=True, rows_per_strip=4)
    raw = tiff_encode(px)
    assert len(enc) < len(raw)  # PackBits actually compresses runs
    assert (tiff_decode(enc) == px).all()


def test_tiff_big_endian_and_gray():
    from rika_ray.stages.codecs import tiff_decode

    # hand-built big-endian grayscale TIFF, 2x3, one strip
    pix = bytes([10, 20, 30, 40, 50, 60])
    ifd_off = 8
    n = 6
    data_off = ifd_off + 2 + 12 * n + 4

    def entry(tag, ftype, count, val):
        return struct.pack(">HHI", tag, ftype, count) + val

    entries = (
        entry(256, 3, 1, struct.pack(">HH", 3, 0))
        + entry(257, 3, 1, struct.pack(">HH", 2, 0))
        + entry(259, 3, 1, struct.pack(">HH", 1, 0))
        + entry(262, 3, 1, struct.pack(">HH", 1, 0))
        + entry(273, 4, 1, struct.pack(">I", data_off))
        + entry(279, 4, 1, struct.pack(">I", len(pix)))
    )
    blob = (
        b"MM\x00*"
        + struct.pack(">I", ifd_off)
        + struct.pack(">H", n)
        + entries
        + struct.pack(">I", 0)
        + pix
    )
    out = tiff_decode(blob)
    assert out.shape == (2, 3, 3)
    assert (out[:, :, 0].reshape(-1) == np.frombuffer(pix, np.uint8)).all()
    assert (out[:, :, 0] == out[:, :, 1]).all()


def test_tiff_rejects_header_only_and_bad_compression():
    from rika_ray import docgen
    from rika_ray.stages.codecs import tiff_decode

    with pytest.raises(CodecError):  # docgen.build_tiff has no strips
        tiff_decode(docgen.build_tiff(8, 8))


# ------------------------------------------------------ JPEG (round 5) ----


def test_jpeg_solid_color_near_exact():
    from rika_ray.stages.codecs import jpeg_decode, jpeg_encode

    px = np.full((24, 33, 3), (120, 40, 200), np.uint8)
    out = jpeg_decode(jpeg_encode(px, 95))
    assert out.shape == px.shape
    assert np.abs(out.astype(int) - px.astype(int)).max() <= 3


def test_jpeg_gradient_tolerance_q95():
    from rika_ray.stages.codecs import jpeg_decode, jpeg_encode

    px = _grad(40, 56, seed=4)
    out = jpeg_decode(jpeg_encode(px, 95))
    assert np.abs(out.astype(int) - px.astype(int)).mean() < 8.0


@pytest.mark.parametrize("quality", [1, 25, 60, 90, 100])
def test_jpeg_quality_sweep_decodes(quality):
    from rika_ray.stages.codecs import jpeg_decode, jpeg_encode

    px = _grad(17, 19, seed=2)  # non-multiple-of-8 dims
    out = jpeg_decode(jpeg_encode(px, quality))
    assert out.shape == px.shape and out.dtype == np.uint8


def test_jpeg_byte_stuffing_and_determinism():
    from rika_ray.stages.codecs import jpeg_decode, jpeg_encode

    rng = np.random.RandomState(3)
    px = rng.randint(0, 256, (32, 32, 3), np.uint8)
    enc = jpeg_encode(px, 85)
    # scan section must never contain a bare 0xFF followed by a marker
    # byte other than 0x00 / D9 (stuffing worked)
    assert jpeg_decode(enc).shape == px.shape
    assert jpeg_encode(px, 85) == enc


def test_jpeg_fill_bytes_and_lengthless_markers():
    """``FF`` fill bytes may precede any marker, and TEM / RSTn carry no
    length field: both are skipped, and the pixels are unchanged."""
    from rika_ray.stages.codecs import jpeg_decode, jpeg_encode

    enc = jpeg_encode(_grad(16, 24, seed=5), 90)
    want = jpeg_decode(enc)
    i = enc.find(b"\xff\xdb")  # DQT
    for extra in (b"\xff\xff", b"\xff\x01", b"\xff\xd3\xff\xff"):
        out = jpeg_decode(enc[:i] + extra + enc[i:])
        assert np.array_equal(out, want)


def test_jpeg_idct_hand_case():
    """A block whose DCT has only the DC term must decode to a flat
    block at DC/8 + 128 (orthonormal 2-D DCT scaling)."""
    from rika_ray.stages.codecs import _DCT_M

    block = np.zeros((8, 8))
    block[0, 0] = 64.0  # DC
    spatial = _DCT_M.T @ block @ _DCT_M + 128.0
    assert np.allclose(spatial, 128.0 + 64.0 / 8.0)


def test_jpeg_rejects_header_only_and_non_baseline():
    from rika_ray import docgen
    from rika_ray.stages.codecs import jpeg_decode, jpeg_encode

    with pytest.raises(CodecError):  # no scan data
        jpeg_decode(docgen.build_jpeg(16, 16))
    # flipping SOF0 to SOF2 (progressive) must be refused, not garbled
    enc = bytearray(jpeg_encode(_grad(8, 8), 90))
    i = bytes(enc).find(b"\xff\xc0")
    enc[i + 1] = 0xC2
    with pytest.raises(CodecError):
        jpeg_decode(bytes(enc))


def test_jpeg_grayscale_single_component():
    """Hand-rolled single-component scan: encode via the 3-component
    encoder, then decode a grayscale JPEG produced by zeroing chroma —
    simpler: verify the decoder accepts PIL-style grayscale by building
    one with the encoder's own tables through a luma-only pipeline."""
    from rika_ray.stages import codecs as c

    # encode a gray image; chroma channels are constant 128 → decoded
    # RGB stays gray within quantization error
    g = np.repeat(_grad(16, 16, seed=6)[:, :, :1], 3, axis=2)
    out = c.jpeg_decode(c.jpeg_encode(g, 95))
    spread = out.astype(int).max(axis=2) - out.astype(int).min(axis=2)
    assert spread.max() <= 6


# --------------------------------------------------------------- FLAC ----


def _tone(n, rate, channels=1, seed=0):
    from rika_ray.docgen import tone_samples

    return tone_samples(n, rate, channels, seed=seed)


def test_flac_mono_roundtrip_lossless():
    from rika_ray.stages.codecs import flac_decode, flac_encode

    pcm = _tone(8000, 16000, 1, seed=1)
    blob = flac_encode(pcm, 16000)
    mono, rate = flac_decode(blob)
    assert rate == 16000
    ref = (pcm[0].astype(np.float64) / 32768).astype(np.float32)
    assert mono.shape == ref.shape
    assert np.abs(mono - ref).max() == 0.0
    # Rice coding actually compresses the tone
    assert len(blob) < pcm.nbytes


@pytest.mark.parametrize(
    "mode", ["independent", "left-side", "right-side", "mid-side"]
)
def test_flac_stereo_modes_roundtrip(mode):
    from rika_ray.stages.codecs import flac_decode, flac_encode

    pcm = _tone(7001, 16000, 2, seed=3)  # odd length, multi-frame
    blob = flac_encode(pcm, 16000, stereo_mode=mode, block_size=1024)
    mono, rate = flac_decode(blob)
    ref = pcm.astype(np.float64).mean(axis=0) / 32768
    assert np.abs(mono - ref).max() == 0.0


def test_flac_constant_and_escape_paths():
    from rika_ray.stages.codecs import flac_decode, flac_encode

    flat = np.full((1, 5000), -123, np.int16)
    mono, _ = flac_decode(flac_encode(flat, 8000))
    assert np.all(mono == np.float32(-123 / 32768))
    # full-scale noise forces the raw-residual escape in some partitions
    rng = np.random.RandomState(11)
    loud = rng.randint(-32768, 32767, (1, 4096)).astype(np.int16)
    mono, _ = flac_decode(flac_encode(loud, 8000, fixed_order=0))
    assert np.abs(mono - loud[0] / 32768).max() == 0.0


def test_flac_lpc_subframe_handcrafted():
    """The encoder never emits LPC; pin the decoder's LPC reconstruction
    (warmup + quantized-coefficient recurrence + arithmetic shift) with a
    hand-built stream."""
    from rika_ray.stages.codecs import (
        _crc8,
        _crc16,
        _MsbWriter,
        _utf8_number,
        flac_decode,
    )

    rate, n, bits = 8000, 64, 16
    c0, c1, shift, prec = 3, -2, 1, 4
    rng = np.random.RandomState(3)
    res = rng.randint(-20, 20, n - 2)
    x = [100, -50]
    for i in range(2, n):
        x.append(int(res[i - 2]) + ((c0 * x[i - 1] + c1 * x[i - 2]) >> shift))
    packed = (rate << 44) | (0 << 41) | ((bits - 1) << 36) | n
    si = (
        struct.pack(">HH", n, n)
        + b"\x00" * 6
        + packed.to_bytes(8, "big")
        + b"\x00" * 16
    )
    out = bytearray(b"fLaC" + bytes([0x80]) + len(si).to_bytes(3, "big") + si)
    w = _MsbWriter()
    w.put(0b11111111111110, 14)
    w.put(0, 2)
    w.put(7, 4); w.put(0, 4); w.put(0, 4); w.put(4, 3); w.put(0, 1)
    for byte in _utf8_number(0):
        w.put(byte, 8)
    w.put(n - 1, 16)
    w.align()
    hdr = w.bytes()
    b = _MsbWriter()
    b.put(0, 1); b.put(32 + (2 - 1), 6); b.put(0, 1)  # LPC order 2
    b.put(x[0], bits); b.put(x[1], bits)
    b.put(prec - 1, 4); b.put(shift, 5)
    b.put(c0, prec); b.put(c1, prec)
    b.put(0, 2); b.put(0, 4)
    param = 5
    b.put(param, 4)
    for v in res:
        z = (int(v) << 1) if v >= 0 else ((-int(v) << 1) - 1)
        b.put(0, z >> param); b.put(1, 1); b.put(z, param)
    b.align()
    frame = hdr + bytes([_crc8(hdr)]) + b.bytes()
    out += frame + struct.pack(">H", _crc16(frame))
    mono, r = flac_decode(bytes(out))
    assert r == rate
    assert np.abs(mono - np.asarray(x, np.float64) / 32768).max() == 0.0


def test_flac_metadata_only_and_errors():
    from rika_ray.docgen import build_flac
    from rika_ray.stages.codecs import CodecError, flac_decode, flac_encode

    # STREAMINFO-only stream (the old metadata fixture): zero samples
    mono, rate = flac_decode(build_flac(44100, 2, 16, 44100))
    assert mono.size == 0 and rate == 44100
    with pytest.raises(CodecError):
        flac_decode(b"fLaX" + b"\x00" * 40)
    blob = flac_encode(_tone(3000, 8000, 1, seed=2), 8000)
    with pytest.raises(CodecError):
        flac_decode(blob[: len(blob) - 40])  # truncated mid-frame


def test_decode_audio_dispatches_flac_and_wav():
    from rika_ray.docgen import build_flac_pcm, build_wav
    from rika_ray.pipelines.multimodal import decode_audio

    pcm = _tone(4000, 8000, 1, seed=9)
    ref = (pcm[0].astype(np.float64) / 32768).astype(np.float32)
    got_flac = decode_audio(build_flac_pcm(pcm, 8000))
    got_wav = decode_audio(build_wav(8000, 1, 16, samples=pcm))
    assert np.abs(got_flac - ref).max() == 0.0
    assert np.abs(got_wav - ref).max() == 0.0


# ---------------------------------------------------------------- PSD ----


@pytest.mark.parametrize("rle", [True, False])
def test_psd_roundtrip(rle):
    from rika_ray.stages.codecs import psd_decode, psd_encode

    px = _grad(33, 47, seed=8)
    assert (psd_decode(psd_encode(px, rle=rle)) == px).all()


def test_psd_run_heavy_rle():
    from rika_ray.stages.codecs import psd_decode, psd_encode

    px = np.zeros((20, 300, 3), np.uint8)
    px[:, 150:, :] = 200  # long runs in every row -> RLE repeats
    blob = psd_encode(px, rle=True)
    assert len(blob) < px.nbytes // 4
    assert (psd_decode(blob) == px).all()


def test_psd_header_only_and_errors():
    from rika_ray.docgen import build_psd
    from rika_ray.stages.codecs import CodecError, psd_decode

    with pytest.raises(CodecError):
        psd_decode(build_psd(64, 48))  # legacy header-only fixture
    with pytest.raises(CodecError):
        psd_decode(b"8BPT" + b"\x00" * 30)


# ---------------------------------------------------------------- ICO ----


def test_ico_bmp_dib_roundtrip():
    from rika_ray.stages.codecs import ico_decode, ico_encode

    px = _grad(32, 48, seed=12)
    assert (ico_decode(ico_encode(px)) == px).all()
    big = _grad(256, 256, seed=1)  # entry w/h bytes wrap to 0 at 256
    assert (ico_decode(ico_encode(big)) == big).all()


def test_ico_png_entry():
    from rika_ray.stages.codecs import ico_decode, png_encode

    px = _grad(32, 48, seed=12)
    blob = png_encode(px)
    entry = struct.pack("<BBBBHHII", 48, 32, 0, 0, 1, 32, len(blob), 22)
    ico = b"\x00\x00\x01\x00\x01\x00" + entry + blob
    assert (ico_decode(ico) == px).all()


def test_ico_stub_and_errors():
    from rika_ray.docgen import build_ico
    from rika_ray.stages.codecs import CodecError, ico_decode

    with pytest.raises(CodecError):
        ico_decode(build_ico(32, 32))  # legacy header-stub fixture
    with pytest.raises(CodecError):
        ico_decode(b"\x00\x00\x02\x00\x01\x00" + b"\x00" * 20)  # .cur


# --------------------------------------------------------------- VP8L ----


def test_vp8l_roundtrip_shapes():
    from rika_ray.stages.codecs import vp8l_decode, vp8l_encode

    for h, w, seed in ((8, 8, 0), (17, 9, 3), (1, 1, 2), (7, 301, 9)):
        px = _grad(h, w, seed=seed)
        assert (vp8l_decode(vp8l_encode(px)) == px).all()


def test_vp8l_lz77_runs_and_constant():
    from rika_ray.stages.codecs import vp8l_decode, vp8l_encode

    px = np.zeros((20, 300, 3), np.uint8)
    px[:, 150:, :] = 200
    blob = vp8l_encode(px)
    assert len(blob) < px.nbytes // 50  # runs actually compress
    assert (vp8l_decode(blob) == px).all()
    const = np.full((50, 40, 3), 77, np.uint8)
    assert (vp8l_decode(vp8l_encode(const)) == const).all()
    # a run longer than one token's 4,096-pixel reach: black except for
    # a 10-row gradient, so the black tail is one 5,600-pixel run
    tail = np.zeros((80, 80, 3), np.uint8)
    tail[:10] = np.arange(80, dtype=np.uint8)[None, :, None] * 3
    assert (vp8l_decode(vp8l_encode(tail)) == tail).all()


def test_vp8l_random_images_roundtrip():
    from rika_ray.stages.codecs import vp8l_decode, vp8l_encode

    rng = np.random.RandomState(1)
    for _ in range(20):
        px = rng.randint(
            0, 256, (rng.randint(1, 40), rng.randint(1, 40), 3), np.uint8
        )
        assert (vp8l_decode(vp8l_encode(px)) == px).all()


def test_vp8l_refusals():
    from rika_ray.docgen import build_webp
    from rika_ray.stages.codecs import CodecError, vp8l_decode

    with pytest.raises(CodecError):
        vp8l_decode(build_webp(64, 48))  # VP8X-only, no VP8L chunk
    with pytest.raises(CodecError):
        vp8l_decode(b"RIFF\x00\x00\x00\x00WEBPVP8 ")  # lossy VP8
    with pytest.raises(CodecError):
        vp8l_decode(b"\x00" * 10)


# ---------------------------------------------------------------- AVI ----


def test_avi_mjpeg_roundtrip():
    from rika_ray.docgen import gradient_pixels
    from rika_ray.stages.codecs import (
        avi_mjpeg_encode,
        avi_mjpeg_frames,
        jpeg_decode,
    )

    frames = np.stack([gradient_pixels(24, 32, seed=i) for i in range(6)])
    blob = avi_mjpeg_encode(frames, fps=6, quality=95)
    blobs = avi_mjpeg_frames(blob)
    assert len(blobs) == 6
    for i, jb in enumerate(blobs):
        dec = jpeg_decode(jb)
        assert dec.shape == (24, 32, 3)
        assert np.abs(dec.astype(int) - frames[i].astype(int)).mean() < 6.0


def test_avi_refusals():
    from rika_ray.stages.codecs import CodecError, avi_mjpeg_frames

    with pytest.raises(CodecError):
        avi_mjpeg_frames(b"RIFF\x00\x00\x00\x00WAVE")
    with pytest.raises(CodecError):
        avi_mjpeg_frames(b"not an avi at all")
