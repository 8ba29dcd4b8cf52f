"""Pure-Python/numpy pixel, PCM and video-frame codecs for the
multimodal block.

The engine depends on no imaging/audio library, so the decode paths are
implemented here from the public specs: PNG (zlib inflate —
stdlib — plus per-scanline unfilter), baseline sequential JPEG (ITU
T.81: stream-read quant/Huffman tables, DPCM/run-length entropy decode,
vectorized dequant + IDCT, YCbCr→RGB), GIF (variable-width LZW), baseline
TIFF (raw or PackBits strips, both byte orders), uncompressed BMP (row
flip + BGR swizzle), PSD composites, ICO, lossless WebP (VP8L), RIFF/WAVE
PCM, native FLAC and Motion-JPEG AVI frames. Each decoder has a matching
encoder so fixtures and tests share one spec implementation and
round-trip losslessly (JPEG: within quantization tolerance). A payload
outside these (lossy WebP, MP3, MP4, a truncated file) raises
``CodecError``.

The reference never decodes pixels (rika/Tika read image *metadata*
only, ``/root/reference/lib/rika/parser.rb``); this module serves the
task brief's multimodal requirement, not reference parity.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


class CodecError(Exception):
    pass


# ---------------------------------------------------------------- PNG ----

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _unfilter_sub(raw: np.ndarray, ch: int) -> np.ndarray:
    # recon[x] = raw[x] + recon[x-ch]: a per-channel-phase running sum —
    # cumsum in a wide dtype, wrapped mod 256 (uint8 addition semantics)
    out = np.empty_like(raw)
    for p in range(ch):
        out[p::ch] = np.cumsum(raw[p::ch], dtype=np.uint64) & 0xFF
    return out


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa_ = abs(p - a)
    pb = abs(p - b)
    pc = abs(p - c)
    if pa_ <= pb and pa_ <= pc:
        return a
    return b if pb <= pc else c


def png_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from an 8-bit non-interlaced PNG (color types
    0 gray / 2 RGB / 3 palette / 4 gray+alpha / 6 RGBA; alpha dropped,
    matching a convert-to-RGB). All five scanline filters implemented
    per the public PNG spec; Sub is a cumsum, Up a vector add, Average
    and Paeth walk the row (left-neighbor recursion is sequential by
    construction)."""
    if not data.startswith(_PNG_SIG):
        raise CodecError("not a PNG")
    pos = 8
    width = height = None
    color = depth = interlace = None
    plte: bytes | None = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (clen,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + clen]
        if len(body) != clen:
            raise CodecError("truncated chunk")
        if ctype == b"IHDR":
            if len(body) != 13:
                raise CodecError("PNG: bad IHDR length")
            width, height, depth, color, _comp, _filt, interlace = (
                struct.unpack(">IIBBBBB", body)
            )
        elif ctype == b"PLTE":
            plte = bytes(body)
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
        pos += 12 + clen  # len + type + body + crc
    if width is None:
        raise CodecError("no IHDR")
    if depth != 8 or interlace != 0:
        raise CodecError(f"unsupported PNG (depth={depth}, interlace={interlace})")
    ch = _PNG_CHANNELS.get(color)
    if ch is None:
        raise CodecError(f"unsupported color type {color}")
    if not idat:
        raise CodecError("no IDAT")
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as e:
        raise CodecError(f"bad IDAT stream: {e}") from None
    stride = width * ch
    if len(raw) != height * (stride + 1):
        raise CodecError("IDAT size does not match dimensions")
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = raw[:, 0]
    rows = raw[:, 1:]
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        f = int(filters[y])
        r = rows[y]
        if f == 0:
            rec = r.copy()
        elif f == 1:
            rec = _unfilter_sub(r, ch)
        elif f == 2:
            rec = r + prev  # uint8 wraps
        elif f == 3:
            rec = np.empty(stride, dtype=np.uint8)
            for x in range(stride):
                left = int(rec[x - ch]) if x >= ch else 0
                rec[x] = (int(r[x]) + ((left + int(prev[x])) >> 1)) & 0xFF
        elif f == 4:
            rec = np.empty(stride, dtype=np.uint8)
            for x in range(stride):
                left = int(rec[x - ch]) if x >= ch else 0
                ul = int(prev[x - ch]) if x >= ch else 0
                rec[x] = (int(r[x]) + _paeth(left, int(prev[x]), ul)) & 0xFF
        else:
            raise CodecError(f"bad filter type {f}")
        out[y] = rec
        prev = rec
    px = out.reshape(height, width, ch)
    if color == 2:
        return px
    if color == 6:
        return px[:, :, :3].copy()
    if color == 0:
        return np.repeat(px, 3, axis=2)
    if color == 4:
        return np.repeat(px[:, :, :1], 3, axis=2)
    # color == 3: palette lookup
    if plte is None or len(plte) % 3:
        raise CodecError("palette image without a valid PLTE")
    pal = np.frombuffer(plte, dtype=np.uint8).reshape(-1, 3)
    idx = px[:, :, 0]
    if int(idx.max(initial=0)) >= pal.shape[0]:
        raise CodecError("palette index out of range")
    return pal[idx]


def png_encode(pixels: np.ndarray, filters: list[int] | None = None) -> bytes:
    """8-bit RGB PNG encoder (the exact inverse of ``png_decode``) —
    exists so fixtures can exercise every unfilter path with known pixel
    values. ``filters`` gives the per-row filter type (default all 0)."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, ch = px.shape
    if ch != 3:
        raise CodecError("encoder writes RGB only")
    fs = filters if filters is not None else [0] * h
    if len(fs) != h:
        raise CodecError("one filter per row")
    lines = bytearray()
    prev = np.zeros(w * ch, dtype=np.uint8)
    for y in range(h):
        cur = px[y].reshape(-1)
        f = fs[y]
        if f == 0:
            enc = cur.copy()
        elif f == 1:
            enc = cur.copy()
            enc[ch:] = cur[ch:] - cur[:-ch]
        elif f == 2:
            enc = cur - prev
        elif f == 3:
            enc = np.empty_like(cur)
            for x in range(w * ch):
                left = int(cur[x - ch]) if x >= ch else 0
                enc[x] = (int(cur[x]) - ((left + int(prev[x])) >> 1)) & 0xFF
        elif f == 4:
            enc = np.empty_like(cur)
            for x in range(w * ch):
                left = int(cur[x - ch]) if x >= ch else 0
                ul = int(prev[x - ch]) if x >= ch else 0
                enc[x] = (int(cur[x]) - _paeth(left, int(prev[x]), ul)) & 0xFF
        else:
            raise CodecError(f"bad filter type {f}")
        lines.append(f)
        lines += enc.tobytes()
        prev = cur
    def _chunk(ctype: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + ctype
            + body
            + struct.pack(">I", zlib.crc32(ctype + body))
        )
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        _PNG_SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(bytes(lines)))
        + _chunk(b"IEND", b"")
    )


# ---------------------------------------------------------------- BMP ----


def bmp_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from an uncompressed (BI_RGB) 24/32-bit BMP.
    Rows are 4-byte padded and stored bottom-up when height > 0."""
    if not data.startswith(b"BM") or len(data) < 54:
        raise CodecError("not a BMP")
    (pix_off,) = struct.unpack("<I", data[10:14])
    dib, w, h, _planes, bpp, comp = struct.unpack("<IiiHHI", data[14:34])
    if dib < 40 or comp != 0:
        raise CodecError(f"unsupported BMP (dib={dib}, compression={comp})")
    if bpp not in (24, 32):
        raise CodecError(f"unsupported BMP bpp {bpp}")
    flip = h > 0
    h = abs(h)
    nch = bpp // 8
    stride = (w * nch + 3) & ~3
    need = pix_off + stride * h
    if len(data) < need:
        raise CodecError("truncated pixel array")
    arr = np.frombuffer(data[pix_off : pix_off + stride * h], dtype=np.uint8)
    arr = arr.reshape(h, stride)[:, : w * nch].reshape(h, w, nch)
    if flip:
        arr = arr[::-1]
    return arr[:, :, 2::-1].copy()  # BGR(A) → RGB


def bmp_encode(pixels: np.ndarray) -> bytes:
    """24-bit bottom-up BI_RGB BMP from (H, W, 3) uint8 RGB — the
    fixture-side inverse of ``bmp_decode``."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, _ = px.shape
    stride = (w * 3 + 3) & ~3
    rows = bytearray()
    for y in range(h - 1, -1, -1):
        bgr = px[y][:, ::-1].tobytes()
        rows += bgr + b"\x00" * (stride - len(bgr))
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(rows), 0, 0, 0, 0)
    header = b"BM" + struct.pack(
        "<IHHI", 14 + len(dib) + len(rows), 0, 0, 14 + len(dib)
    )
    return header + dib + bytes(rows)


# ---------------------------------------------------------------- WAV ----


def wav_pcm_decode(data: bytes) -> tuple[np.ndarray, int]:
    """(mono float32 samples in [-1, 1], sample_rate) from integer-PCM
    RIFF/WAVE (8/16-bit, any channel count — channels are mean-mixed)."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CodecError("not a RIFF/WAVE file")
    rate = bits = channels = None
    pcm: bytes | None = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (csize,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + csize]
        if cid == b"fmt " and len(body) >= 16:
            tag, channels, rate, _br, _ba, bits = struct.unpack(
                "<HHIIHH", body[:16]
            )
            if tag != 1:
                raise CodecError(f"not integer PCM (format tag {tag})")
        elif cid == b"data":
            pcm = bytes(body)
            break
        pos += 8 + csize + (csize & 1)
    if rate is None or pcm is None:
        raise CodecError("missing fmt or data chunk")
    if bits == 16:
        x = np.frombuffer(pcm[: len(pcm) & ~1], dtype="<i2").astype(np.float32)
        x /= 32768.0
    elif bits == 8:
        x = (np.frombuffer(pcm, dtype=np.uint8).astype(np.float32) - 128.0) / 128.0
    else:
        raise CodecError(f"unsupported bit depth {bits}")
    if channels and channels > 1:
        n = (x.size // channels) * channels
        x = x[:n].reshape(-1, channels).mean(axis=1)
    return x.astype(np.float32), int(rate)


# ---------------------------------------------------------------- GIF ----
# GIF89a LZW per the public GIF spec (variable code width 3..12 bits,
# LSB-first packing, clear/EOI codes). Entropy decode is inherently
# sequential per image; at pipeline level parallelism comes from the
# actor pool running one image per loop iteration across batches.


def _gif_lzw_decode(blob: bytes, min_code: int, n_pixels: int) -> np.ndarray:
    clear = 1 << min_code
    eoi = clear + 1
    width = min_code + 1
    # dictionary: entries are index strings; 0..clear-1 are roots
    table: list[bytes] = [bytes([i]) for i in range(clear)] + [b"", b""]
    out = bytearray()
    acc = 0
    nbits = 0
    prev: bytes | None = None
    pos = 0
    n = len(blob)
    while len(out) < n_pixels:
        while nbits < width:
            if pos >= n:
                raise CodecError("GIF: LZW stream truncated")
            acc |= blob[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << width) - 1)
        acc >>= width
        nbits -= width
        if code == clear:
            table = [bytes([i]) for i in range(clear)] + [b"", b""]
            width = min_code + 1
            prev = None
            continue
        if code == eoi:
            break
        if prev is None:
            if code >= len(table):
                raise CodecError("GIF: bad first code")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise CodecError("GIF: code out of range")
        out += entry
        prev = entry
        if len(table) == (1 << width) and width < 12:
            width += 1
    if len(out) < n_pixels:
        raise CodecError("GIF: not enough pixel data")
    return np.frombuffer(bytes(out[:n_pixels]), dtype=np.uint8)


def _gif_lzw_encode(indices: np.ndarray, min_code: int) -> bytes:
    clear = 1 << min_code
    eoi = clear + 1
    width = min_code + 1
    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = eoi + 1
    bits: list[tuple[int, int]] = [(clear, width)]  # (code, width at emit)
    cur = b""
    for b in indices.tobytes():
        nxt = cur + bytes([b])
        if nxt in table:
            cur = nxt
            continue
        bits.append((table[cur], width))
        table[nxt] = next_code
        next_code += 1
        # decoder grows width when ITS table hits 2^width: its table lags
        # ours by one entry, so grow after we pass the boundary
        if next_code == (1 << width) + 1 and width < 12:
            width += 1
        if next_code == 4097:  # table full: reset
            bits.append((clear, width))
            table = {bytes([i]): i for i in range(clear)}
            next_code = eoi + 1
            width = min_code + 1
        cur = bytes([b])
    if cur:
        bits.append((table[cur], width))
    bits.append((eoi, width))
    acc = nbits = 0
    out = bytearray()
    for code, w in bits:
        acc |= code << nbits
        nbits += w
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def gif_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from a non-interlaced GIF87a/89a (first frame;
    global or local palette; real LZW decode)."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise CodecError("not a GIF")
    if len(data) < 13:
        raise CodecError("GIF: truncated header")
    _w, _h, flags, _bg, _ar = struct.unpack("<HHBBB", data[6:13])
    pos = 13
    gct = None
    if flags & 0x80:
        n = 2 << (flags & 0x07)
        gct = np.frombuffer(data[pos : pos + 3 * n], dtype=np.uint8)
        if gct.size != 3 * n:
            raise CodecError("GIF: truncated global color table")
        gct = gct.reshape(-1, 3)
        pos += 3 * n
    while pos < len(data):
        b0 = data[pos]
        if b0 == 0x3B:  # trailer
            break
        if b0 == 0x21:  # extension block: label byte + sub-blocks
            pos += 2
            while pos < len(data) and data[pos] != 0:
                pos += 1 + data[pos]
            pos += 1
            continue
        if b0 != 0x2C:
            raise CodecError(f"GIF: unexpected block 0x{b0:02x}")
        if pos + 10 > len(data):
            raise CodecError("GIF: truncated image descriptor")
        _l, _t, iw, ih, iflags = struct.unpack("<HHHHB", data[pos + 1 : pos + 10])
        pos += 10
        if iflags & 0x40:
            raise CodecError("GIF: interlaced images unsupported")
        pal = gct
        if iflags & 0x80:
            n = 2 << (iflags & 0x07)
            pal = np.frombuffer(data[pos : pos + 3 * n], dtype=np.uint8)
            if pal.size != 3 * n:
                raise CodecError("GIF: truncated local color table")
            pal = pal.reshape(-1, 3)
            pos += 3 * n
        if pal is None:
            raise CodecError("GIF: image without a color table")
        if pos >= len(data):
            raise CodecError("GIF: truncated before LZW data")
        min_code = data[pos]
        pos += 1
        if not 2 <= min_code <= 11:
            raise CodecError(f"GIF: bad LZW min code size {min_code}")
        blob = bytearray()
        while pos < len(data) and data[pos] != 0:
            ln = data[pos]
            blob += data[pos + 1 : pos + 1 + ln]
            pos += 1 + ln
        idx = _gif_lzw_decode(bytes(blob), min_code, iw * ih)
        if int(idx.max(initial=0)) >= pal.shape[0]:
            raise CodecError("GIF: palette index out of range")
        return pal[idx].reshape(ih, iw, 3)
    raise CodecError("GIF: no image data")


def gif_encode(pixels: np.ndarray) -> bytes:
    """GIF89a from (H, W, 3) uint8 RGB with ≤256 distinct colors (palette
    built from the data; real LZW compress) — the lossless fixture-side
    inverse of ``gif_decode``."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, _ = px.shape
    flat = px.reshape(-1, 3)
    pal, idx = np.unique(flat, axis=0, return_inverse=True)
    if pal.shape[0] > 256:
        raise CodecError(f"GIF encoder needs ≤256 colors, got {pal.shape[0]}")
    pal_bits = max(1, int(np.ceil(np.log2(max(2, pal.shape[0])))))
    pal_n = 1 << pal_bits
    pal_full = np.zeros((pal_n, 3), dtype=np.uint8)
    pal_full[: pal.shape[0]] = pal
    min_code = max(2, pal_bits)
    lzw = _gif_lzw_encode(idx.astype(np.uint8), min_code)
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (pal_bits - 1), 0, 0)
    out += pal_full.tobytes()
    out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0)
    out.append(min_code)
    for i in range(0, len(lzw), 255):
        chunk = lzw[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out += b"\x00\x3b"
    return bytes(out)


# --------------------------------------------------------------- TIFF ----


def _packbits_decode(src: bytes, expect: int) -> bytes:
    out = bytearray()
    i = 0
    n = len(src)
    while i < n and len(out) < expect:
        c = src[i]
        i += 1
        if c < 128:  # literal run of c+1 bytes
            out += src[i : i + c + 1]
            i += c + 1
        elif c > 128:  # repeat next byte 257-c times
            if i >= n:
                raise CodecError("TIFF: truncated PackBits run")
            out += bytes([src[i]]) * (257 - c)
            i += 1
        # c == 128: no-op
    if len(out) < expect:
        raise CodecError("TIFF: PackBits underrun")
    return bytes(out[:expect])


def _packbits_encode(src: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(src)
    while i < n:
        # find a repeat run of ≥3
        j = i
        while j + 1 < n and src[j + 1] == src[j] and j - i < 127:
            j += 1
        run = j - i + 1
        if run >= 3:
            out.append(257 - run)
            out.append(src[i])
            i = j + 1
            continue
        # literal run until the next ≥3 repeat (or 128 bytes)
        j = i
        while j < n and j - i < 128:
            if j + 2 < n and src[j] == src[j + 1] == src[j + 2]:
                break
            j += 1
        out.append(j - i - 1)
        out += src[i:j]
        i = j
    return bytes(out)


def tiff_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from an 8-bit RGB or grayscale baseline TIFF
    (both byte orders; compression none or PackBits; strip layout)."""
    if data[:4] == b"II*\x00":
        e = "<"
    elif data[:4] == b"MM\x00*":
        e = ">"
    else:
        raise CodecError("not a TIFF")
    if len(data) < 8:
        raise CodecError("TIFF: truncated header")
    (ifd_off,) = struct.unpack(e + "I", data[4:8])
    if ifd_off + 2 > len(data):
        raise CodecError("TIFF: bad IFD offset")
    (n_tags,) = struct.unpack(e + "H", data[ifd_off : ifd_off + 2])
    if ifd_off + 2 + 12 * n_tags > len(data):
        raise CodecError("TIFF: truncated IFD")
    tags: dict[int, tuple[int, int, bytes]] = {}
    for i in range(n_tags):
        off = ifd_off + 2 + 12 * i
        tag, ftype, count = struct.unpack(e + "HHI", data[off : off + 8])
        tags[tag] = (ftype, count, data[off + 8 : off + 12])
    type_size = {1: 1, 3: 2, 4: 4}

    def vals(tag: int, default=None) -> list[int] | None:
        if tag not in tags:
            return default
        ftype, count, raw4 = tags[tag]
        sz = type_size.get(ftype)
        if sz is None:
            raise CodecError(f"TIFF: tag {tag} has unsupported type {ftype}")
        total = sz * count
        if total <= 4:
            raw = raw4[:total]
        else:
            (voff,) = struct.unpack(e + "I", raw4)
            raw = data[voff : voff + total]
            if len(raw) != total:
                raise CodecError(f"TIFF: tag {tag} values truncated")
        fmt = {1: "B", 3: "H", 4: "I"}[ftype]
        return list(struct.unpack(e + fmt * count, raw))

    w = (vals(256) or [0])[0]
    h = (vals(257) or [0])[0]
    if not w or not h:
        raise CodecError("TIFF: missing dimensions")
    comp = (vals(259, [1]))[0]
    if comp not in (1, 32773):
        raise CodecError(f"TIFF: unsupported compression {comp}")
    photo = (vals(262, [1]))[0]
    spp = (vals(277, [1]))[0]
    bits = vals(258, [8])
    if any(b != 8 for b in bits):
        raise CodecError(f"TIFF: unsupported bit depths {bits}")
    if (vals(317, [1]))[0] != 1:
        raise CodecError("TIFF: predictors unsupported")
    if (photo, spp) not in ((2, 3), (1, 1), (0, 1)):
        raise CodecError(f"TIFF: unsupported photometric {photo}/spp {spp}")
    offsets = vals(273)
    counts = vals(279)
    if not offsets or not counts or len(offsets) != len(counts):
        raise CodecError("TIFF: missing strip layout")
    rows_per = (vals(278, [h]))[0] or h
    raw = bytearray()
    row_bytes = w * spp
    done_rows = 0
    for so, sc in zip(offsets, counts):
        strip = data[so : so + sc]
        if len(strip) != sc:
            raise CodecError("TIFF: truncated strip")
        n_rows = min(rows_per, h - done_rows)
        if comp == 32773:
            raw += _packbits_decode(strip, n_rows * row_bytes)
        else:
            if len(strip) < n_rows * row_bytes:
                raise CodecError("TIFF: strip smaller than its rows")
            raw += strip[: n_rows * row_bytes]
        done_rows += n_rows
    if done_rows < h:
        raise CodecError("TIFF: strips cover fewer rows than ImageLength")
    arr = np.frombuffer(bytes(raw), dtype=np.uint8).reshape(h, w, spp)
    if spp == 1:
        if photo == 0:  # WhiteIsZero
            arr = 255 - arr
        return np.repeat(arr, 3, axis=2)
    return arr.copy()


def tiff_encode(
    pixels: np.ndarray,
    packbits: bool = False,
    rows_per_strip: int | None = None,
    make: str = "",
) -> bytes:
    """Little-endian 8-bit RGB baseline TIFF from (H, W, 3) uint8 —
    fixture-side inverse of ``tiff_decode`` (strip layout, optional
    PackBits compression, optional Make tag for EXIF-surface parity with
    ``docgen.build_tiff``)."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, ch = px.shape
    if ch != 3:
        raise CodecError("encoder writes RGB only")
    rps = rows_per_strip or h
    strips = []
    for y0 in range(0, h, rps):
        blob = px[y0 : y0 + rps].tobytes()
        strips.append(_packbits_encode(blob) if packbits else blob)
    n_strips = len(strips)
    make_raw = make.encode("ascii") + b"\x00" if make else b""
    # layout: header(8) | IFD | deferred values | strip data
    tag_list = [256, 257, 258, 259, 262, 273, 277, 278, 279]
    if make:
        tag_list.append(0x010F)  # Make
    tag_list.sort()
    n_tags = len(tag_list)
    ifd_off = 8
    deferred_off = ifd_off + 2 + 12 * n_tags + 4
    deferred = bytearray()

    def _defer(blob: bytes) -> int:
        off = deferred_off + len(deferred)
        deferred.extend(blob)
        if len(deferred) & 1:
            deferred.append(0)
        return off

    bits_off = _defer(struct.pack("<HHH", 8, 8, 8))
    make_off = _defer(make_raw) if len(make_raw) > 4 else None
    # strip offsets filled after we know where data starts
    entries: list[bytes] = []
    data_off_pos: dict[int, int] = {}

    def _entry(tag: int, ftype: int, count: int, value: bytes) -> bytes:
        return struct.pack("<HHI", tag, ftype, count) + value.ljust(4, b"\x00")

    strip_table_off = None
    if n_strips > 1:
        strip_table_off = _defer(b"\x00" * 4 * n_strips)
        counts_table_off = _defer(
            struct.pack("<" + "I" * n_strips, *[len(s) for s in strips])
        )
    data_start = deferred_off + len(deferred)
    offs = []
    pos = data_start
    for s in strips:
        offs.append(pos)
        pos += len(s)
    if strip_table_off is not None:
        deferred[
            strip_table_off - deferred_off : strip_table_off - deferred_off + 4 * n_strips
        ] = struct.pack("<" + "I" * n_strips, *offs)
    for tag in tag_list:
        if tag == 256:
            entries.append(_entry(256, 3, 1, struct.pack("<H", w)))
        elif tag == 257:
            entries.append(_entry(257, 3, 1, struct.pack("<H", h)))
        elif tag == 258:
            entries.append(_entry(258, 3, 3, struct.pack("<I", bits_off)))
        elif tag == 259:
            entries.append(
                _entry(259, 3, 1, struct.pack("<H", 32773 if packbits else 1))
            )
        elif tag == 262:
            entries.append(_entry(262, 3, 1, struct.pack("<H", 2)))
        elif tag == 0x010F:
            if make_off is not None:
                entries.append(_entry(0x010F, 2, len(make_raw), struct.pack("<I", make_off)))
            else:
                entries.append(_entry(0x010F, 2, len(make_raw), make_raw))
        elif tag == 273:
            if n_strips == 1:
                entries.append(_entry(273, 4, 1, struct.pack("<I", offs[0])))
            else:
                entries.append(_entry(273, 4, n_strips, struct.pack("<I", strip_table_off)))
        elif tag == 277:
            entries.append(_entry(277, 3, 1, struct.pack("<H", 3)))
        elif tag == 278:
            entries.append(_entry(278, 3, 1, struct.pack("<H", rps)))
        elif tag == 279:
            if n_strips == 1:
                entries.append(_entry(279, 4, 1, struct.pack("<I", len(strips[0]))))
            else:
                entries.append(_entry(279, 4, n_strips, struct.pack("<I", counts_table_off)))
    out = bytearray(b"II*\x00" + struct.pack("<I", ifd_off))
    out += struct.pack("<H", n_tags)
    out += b"".join(entries)
    out += struct.pack("<I", 0)
    out += deferred
    for s in strips:
        out += s
    return bytes(out)


# --------------------------------------------------------------- JPEG ----
# Baseline sequential DCT JPEG (SOF0) per the public JPEG spec (ITU T.81):
# 8x8 DCT + quantization + zigzag + DPCM/run-length + canonical Huffman.
# The decoder reads quant/Huffman tables from the stream (DQT/DHT), so it
# decodes any baseline 4:4:4 or grayscale JPEG without restart markers;
# progressive (SOF2) and subsampled files raise CodecError. DCT/dequant
# stages are vectorized over all blocks; only the entropy coder walks the
# bitstream sequentially (inherent to Huffman).

_JPEG_QL = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
_JPEG_QC = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)
_ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10,
        17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34,
        27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36,
        29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46,
        53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)
_UNZIGZAG = np.argsort(_ZIGZAG)

# canonical Huffman specs (BITS, HUFFVAL): the widely published baseline
# tables. Correctness of decode does NOT depend on these being the Annex K
# values — the decoder rebuilds codes from the DHT segment in the file.
_HT_DC_L = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
_HT_DC_C = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
_HT_AC_L = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
        0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
        0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
        0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
        0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
        0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
        0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
        0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
        0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)
_HT_AC_C = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
        0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
        0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
        0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
        0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
        0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
        0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
        0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
        0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
        0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
        0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)


def _dct_matrix() -> np.ndarray:
    x = np.arange(8)
    u = x.reshape(-1, 1)
    m = np.cos((2 * x + 1) * u * np.pi / 16)
    m[0] *= 1 / np.sqrt(2)
    return m * 0.5  # orthonormal DCT-II basis


_DCT_M = _dct_matrix()


def _canonical_codes(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length) per the canonical construction (T.81 C.2)."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    q = min(100, max(1, quality))
    scale = 5000 / q if q < 50 else 200 - 2 * q
    ql = np.clip(np.floor((_JPEG_QL * scale + 50) / 100), 1, 255)
    qc = np.clip(np.floor((_JPEG_QC * scale + 50) / 100), 1, 255)
    return ql, qc


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def put(self, value: int, length: int) -> None:
        if length == 0:
            return
        self.acc = (self.acc << length) | (value & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            byte = (self.acc >> (self.n - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)  # byte stuffing
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self) -> bytes:
        if self.n:
            pad = 8 - self.n
            self.put((1 << pad) - 1, pad)
        return bytes(self.out)


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """(H, W) float → (n_blocks, 8, 8), padding by edge replication;
    blocks ordered row-major (the baseline MCU order for 1x1 sampling)."""
    h, w = plane.shape
    ph, pw = (h + 7) & ~7, (w + 7) & ~7
    padded = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    return (
        padded.reshape(ph // 8, 8, pw // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


def _rgb_to_ycbcr(px: np.ndarray) -> np.ndarray:
    r = px[:, :, 0].astype(np.float64)
    g = px[:, :, 1].astype(np.float64)
    b = px[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=0)


def jpeg_encode(pixels: np.ndarray, quality: int = 90) -> bytes:
    """Baseline JFIF 4:4:4 JPEG from (H, W, 3) uint8 RGB."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, ch = px.shape
    if ch != 3:
        raise CodecError("encoder writes RGB only")
    if h > 65535 or w > 65535 or h == 0 or w == 0:
        raise CodecError("bad dimensions")
    ql, qc = _quality_tables(quality)
    planes = _rgb_to_ycbcr(px)  # (3, H, W)
    quant = [ql, qc, qc]
    coeff_zz: list[np.ndarray] = []
    for ci in range(3):
        blocks = _blocks_of(planes[ci] - 128.0)
        dct = np.einsum("ij,njk,lk->nil", _DCT_M, blocks, _DCT_M)
        qd = np.round(dct / quant[ci]).astype(np.int32)
        coeff_zz.append(qd.reshape(-1, 64)[:, _ZIGZAG])
    # entropy coding
    dc_l = _canonical_codes(*_HT_DC_L)
    dc_c = _canonical_codes(*_HT_DC_C)
    ac_l = _canonical_codes(*_HT_AC_L)
    ac_c = _canonical_codes(*_HT_AC_C)
    dc_tabs = [dc_l, dc_c, dc_c]
    ac_tabs = [ac_l, ac_c, ac_c]
    bw = _BitWriter()
    pred = [0, 0, 0]
    n_blocks = coeff_zz[0].shape[0]

    def _put_magnitude(v: int) -> tuple[int, int]:
        s = int(abs(v)).bit_length()
        return (s, v if v >= 0 else v + (1 << s) - 1)

    for bi in range(n_blocks):
        for ci in range(3):
            zz = coeff_zz[ci][bi]
            diff = int(zz[0]) - pred[ci]
            pred[ci] = int(zz[0])
            s, mag = _put_magnitude(diff)
            code, length = dc_tabs[ci][s]
            bw.put(code, length)
            bw.put(mag, s)
            run = 0
            last_nz = int(np.max(np.nonzero(zz)[0])) if np.any(zz[1:]) else 0
            for k in range(1, 64):
                v = int(zz[k])
                if v == 0:
                    if k > last_nz:
                        code, length = ac_tabs[ci][0x00]  # EOB
                        bw.put(code, length)
                        break
                    run += 1
                    if run == 16:
                        code, length = ac_tabs[ci][0xF0]  # ZRL
                        bw.put(code, length)
                        run = 0
                    continue
                s, mag = _put_magnitude(v)
                code, length = ac_tabs[ci][(run << 4) | s]
                bw.put(code, length)
                bw.put(mag, s)
                run = 0
    scan = bw.flush()

    def seg(marker: int, body: bytes) -> bytes:
        return bytes([0xFF, marker]) + struct.pack(">H", 2 + len(body)) + body

    def dqt(tid: int, tbl: np.ndarray) -> bytes:
        return seg(0xDB, bytes([tid]) + tbl.astype(np.uint8).reshape(-1)[_ZIGZAG].tobytes())

    def dht(tclass: int, tid: int, spec) -> bytes:
        bits, vals = spec
        return seg(0xC4, bytes([(tclass << 4) | tid]) + bytes(bits) + bytes(vals))

    app0 = seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    sof0 = seg(
        0xC0,
        bytes([8])
        + struct.pack(">HH", h, w)
        + bytes([3])
        + bytes([1, 0x11, 0])  # Y: 1x1 sampling, quant table 0
        + bytes([2, 0x11, 1])
        + bytes([3, 0x11, 1]),
    )
    sos = seg(
        0xDA,
        bytes([3])
        + bytes([1, 0x00])  # Y: DC table 0, AC table 0
        + bytes([2, 0x11])
        + bytes([3, 0x11])
        + bytes([0, 63, 0]),
    )
    return (
        b"\xff\xd8"
        + app0
        + dqt(0, ql)
        + dqt(1, qc)
        + dht(0, 0, _HT_DC_L)
        + dht(1, 0, _HT_AC_L)
        + dht(0, 1, _HT_DC_C)
        + dht(1, 1, _HT_AC_C)
        + sof0
        + sos
        + scan
        + b"\xff\xd9"
    )


# LUT-based entropy decode: Huffman codes are ≤16 bits, so a 65536-entry
# table maps the next 16 bits straight to (symbol, code length) — one
# string slice + int() + two list lookups per symbol instead of a
# per-bit Python loop. LUTs are cached process-wide keyed by the DHT
# spec bytes (every image from one encoder shares tables).
_HUFF_LUT_CACHE: dict[bytes, tuple[list[int], list[int]]] = {}


def _huff_lut(bits: list[int], vals: list[int]) -> tuple[list[int], list[int]]:
    key = bytes(bits) + bytes(vals)
    hit = _HUFF_LUT_CACHE.get(key)
    if hit is not None:
        return hit
    sym = [-1] * 65536
    ln = [0] * 65536
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            start = code << (16 - length)
            span = 1 << (16 - length)
            if start + span > 65536:
                raise CodecError("JPEG: invalid Huffman bit lengths")
            sym[start : start + span] = [vals[k]] * span
            ln[start : start + span] = [length] * span
            code += 1
            k += 1
        code <<= 1
    if len(_HUFF_LUT_CACHE) > 64:
        _HUFF_LUT_CACHE.clear()
    _HUFF_LUT_CACHE[key] = (sym, ln)
    return sym, ln


class _BitStream:
    """Destuffed scan data as a '0'/'1' string: C-speed int() parsing
    for magnitude bits and 16-bit LUT peeks for Huffman symbols."""

    __slots__ = ("s", "pos", "n")

    def __init__(self, data: bytes) -> None:
        # any 0xFF inside scan data must be a stuffed 0xFF00 (restart
        # markers are rejected at the DRI segment)
        i = data.find(b"\xff")
        while i != -1 and i < len(data) - 1:
            if data[i + 1] != 0x00:
                raise CodecError(
                    f"JPEG: unexpected marker 0xFF{data[i + 1]:02X} in scan"
                )
            i = data.find(b"\xff", i + 2)
        clean = data.replace(b"\xff\x00", b"\xff")
        # leading 0x01 sentinel keeps bin() from dropping leading zeros
        self.s = bin(int.from_bytes(b"\x01" + clean, "big"))[3:]
        self.pos = 0
        self.n = len(self.s)

    def bits(self, k: int) -> int:
        if k == 0:
            return 0
        p = self.pos
        if p + k > self.n:
            raise CodecError("JPEG: scan data exhausted")
        self.pos = p + k
        return int(self.s[p : p + k], 2)

    def coef(self, lut: tuple[list[int], list[int]]) -> tuple[int, int]:
        """One fused read: Huffman symbol + its SSSS magnitude bits with
        sign extension (T.81 EXTEND) — the hot path of the scan loop.
        Works for DC too (a DC symbol IS its size category)."""
        sym, ln = lut
        s_str = self.s
        p = self.pos
        chunk = s_str[p : p + 16]
        if len(chunk) < 16:
            if not chunk:
                raise CodecError("JPEG: scan data exhausted")
            chunk = chunk + "1" * (16 - len(chunk))
        idx = int(chunk, 2)
        v = sym[idx]
        if v < 0:
            raise CodecError("JPEG: invalid Huffman code")
        p += ln[idx]
        size = v & 15
        if size:
            q = p + size
            if q > self.n:
                raise CodecError("JPEG: scan data exhausted")
            mag = int(s_str[p:q], 2)
            p = q
            if mag < (1 << (size - 1)):
                mag -= (1 << size) - 1
        else:
            mag = 0
            if p > self.n:
                raise CodecError("JPEG: scan data exhausted")
        self.pos = p
        return v, mag


def jpeg_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from a baseline sequential JPEG (SOF0, 8-bit,
    1x1 sampling i.e. 4:4:4 or grayscale, no restart markers). Tables
    are read from the stream; progressive/subsampled files raise."""
    if data[:2] != b"\xff\xd8":
        raise CodecError("not a JPEG")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    htabs: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    h = w = None
    comps: list[tuple[int, int]] = []  # (comp_id, quant_id)
    scan_map: list[tuple[int, int]] = []  # (dc_tid, ac_tid)
    scan_start = None
    while pos + 2 <= len(data):
        if data[pos] != 0xFF:
            raise CodecError("JPEG: marker expected")
        marker = data[pos + 1]
        if marker == 0xFF:  # fill byte: any number may precede a marker
            pos += 1
            continue
        if marker == 0xD9:
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:  # TEM, RSTn: no length
            pos += 2
            continue
        if pos + 4 > len(data):
            raise CodecError("JPEG: truncated segment header")
        (ln,) = struct.unpack(">H", data[pos + 2 : pos + 4])
        body = data[pos + 4 : pos + 2 + ln]
        if not body and marker in (0xC0, 0xDA, 0xDD):
            raise CodecError("JPEG: empty segment body")
        if marker == 0xDB:
            bp = 0
            while bp < len(body):
                pq, tq = body[bp] >> 4, body[bp] & 0x0F
                if pq != 0:
                    raise CodecError("JPEG: 16-bit quant tables unsupported")
                zz = np.frombuffer(body[bp + 1 : bp + 65], dtype=np.uint8)
                if zz.size != 64:
                    raise CodecError("JPEG: truncated DQT")
                tbl = np.zeros(64, dtype=np.float64)
                tbl[_ZIGZAG] = zz  # stored in zigzag order
                qtabs[tq] = tbl.reshape(8, 8)
                bp += 65
        elif marker == 0xC4:
            bp = 0
            while bp < len(body):
                tc, th = body[bp] >> 4, body[bp] & 0x0F
                bits = list(body[bp + 1 : bp + 17])
                if len(bits) != 16:
                    raise CodecError("JPEG: truncated DHT")
                nv = sum(bits)
                vals = list(body[bp + 17 : bp + 17 + nv])
                if len(vals) != nv:
                    raise CodecError("JPEG: truncated DHT")
                htabs[(tc, th)] = _huff_lut(bits, vals)
                bp += 17 + nv
        elif marker == 0xC0:
            if body[0] != 8:
                raise CodecError("JPEG: only 8-bit precision supported")
            if len(body) < 6:
                raise CodecError("JPEG: truncated SOF0")
            h, w = struct.unpack(">HH", body[1:5])
            nc = body[5]
            if nc not in (1, 3):
                raise CodecError(f"JPEG: {nc}-component images unsupported")
            if len(body) < 6 + 3 * nc:
                raise CodecError("JPEG: truncated SOF0")
            for i in range(nc):
                cid, samp, tq = body[6 + 3 * i : 9 + 3 * i]
                if samp != 0x11:
                    raise CodecError("JPEG: subsampled components unsupported")
                comps.append((cid, tq))
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB):
            raise CodecError(f"JPEG: SOF{marker - 0xC0} (non-baseline) unsupported")
        elif marker == 0xDD:
            (ri,) = struct.unpack(">H", body[:2])
            if ri:
                raise CodecError("JPEG: restart intervals unsupported")
        elif marker == 0xDA:
            ns = body[0]
            if ns != len(comps):
                raise CodecError("JPEG: partial scans unsupported")
            if len(body) < 2 + 2 * ns:
                raise CodecError("JPEG: truncated SOS")
            for i in range(ns):
                td_ta = body[2 + 2 * i]
                scan_map.append((td_ta >> 4, td_ta & 0x0F))
            scan_start = pos + 2 + ln
            break
        pos += 2 + ln
    if h is None or scan_start is None:
        raise CodecError("JPEG: missing SOF/SOS")
    # find scan end (EOI)
    end = data.rfind(b"\xff\xd9")
    if end < scan_start:
        end = len(data)
    br = _BitStream(data[scan_start:end])
    bw_blocks = ((w + 7) // 8)
    bh_blocks = ((h + 7) // 8)
    n_blocks = bw_blocks * bh_blocks
    nc = len(comps)
    luts = []
    for ci in range(nc):
        dc_lut = htabs.get((0, scan_map[ci][0]))
        ac_lut = htabs.get((1, scan_map[ci][1]))
        if dc_lut is None or ac_lut is None:
            raise CodecError("JPEG: missing Huffman table")
        luts.append((dc_lut, ac_lut))
    coeffs = np.zeros((nc, n_blocks, 64), dtype=np.float64)
    pred = [0] * nc
    coef = br.coef
    for bi in range(n_blocks):
        for ci in range(nc):
            dc_lut, ac_lut = luts[ci]
            _s, diff = coef(dc_lut)  # DC symbol == size category
            pred[ci] += diff
            zzl = [0.0] * 64
            zzl[0] = pred[ci]
            k = 1
            while k < 64:
                sym, val = coef(ac_lut)
                if sym == 0x00:  # EOB
                    break
                if sym & 0x0F == 0:
                    if sym != 0xF0:
                        raise CodecError("JPEG: bad AC symbol")
                    k += 16
                    continue
                k += sym >> 4
                if k > 63:
                    raise CodecError("JPEG: AC run past block end")
                zzl[k] = val
                k += 1
            coeffs[ci, bi] = zzl
    planes = []
    for ci in range(nc):
        qt = qtabs.get(comps[ci][1])
        if qt is None:
            raise CodecError("JPEG: missing quant table")
        blk = coeffs[ci][:, _UNZIGZAG].reshape(-1, 8, 8) * qt
        spatial = np.einsum("ji,njk,kl->nil", _DCT_M, blk, _DCT_M) + 128.0
        plane = (
            spatial.reshape(bh_blocks, bw_blocks, 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(bh_blocks * 8, bw_blocks * 8)
        )
        planes.append(plane[:h, :w])
    if nc == 1:
        y = np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
        return np.repeat(y[:, :, None], 3, axis=2)
    y, cb, cr = planes[0], planes[1] - 128.0, planes[2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


# --------------------------------------------------------------- FLAC ----
# Native FLAC per the public format spec (RFC 9639 / xiph.org): STREAMINFO
# + frame stream, subframe types CONSTANT / VERBATIM / FIXED(0-4) / LPC,
# partitioned Rice residuals, left/right/mid-side stereo decorrelation.
# Entropy decode reuses the '0'/'1' bit-string technique from the JPEG
# decoder: Rice unary quotients become `str.find('1', pos)` — a C-speed
# scan — and k-bit reads are `int(s[a:b], 2)`. Like rika's Tika-side
# audio parsers, the *metadata* path lives in stages/audio_meta.py; this
# module adds the PCM decode the multimodal pipelines feature over.


def _crc8(data: bytes) -> int:
    """CRC-8 poly 0x07 init 0 (FLAC frame-header CRC)."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
    return crc


def _crc16(data: bytes) -> int:
    """CRC-16 poly 0x8005 init 0, unreflected (FLAC whole-frame CRC)."""
    crc = 0
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x8005 if crc & 0x8000 else crc << 1) & 0xFFFF
    return crc


def _utf8_number(value: int) -> bytes:
    """FLAC's UTF-8-style frame/sample-number coding (plain UTF-8 for
    the < 2^31 values an encoder of ours ever emits)."""
    if value < 0x80:
        return bytes([value])
    out = []
    n = 1
    while value >= (1 << (6 * n + (6 - n))):
        n += 1
    lead = (0xFF << (7 - n)) & 0xFF | (value >> (6 * n))
    out.append(lead)
    for i in range(n - 1, -1, -1):
        out.append(0x80 | ((value >> (6 * i)) & 0x3F))
    return bytes(out)


_FLAC_BLOCK_SIZES = {
    1: 192, 2: 576, 3: 1152, 4: 2304, 5: 4608,
    8: 256, 9: 512, 10: 1024, 11: 2048, 12: 4096,
    13: 8192, 14: 16384, 15: 32768,
}
_FLAC_RATES = {
    1: 88200, 2: 176400, 3: 192000, 4: 8000, 5: 16000, 6: 22050,
    7: 24000, 8: 32000, 9: 44100, 10: 48000, 11: 96000,
}
_FLAC_SAMPLE_SIZES = {1: 8, 2: 12, 4: 16, 5: 20, 6: 24, 7: 32}


class _FlacBits:
    """MSB-first bit reader over a '0'/'1' string (see module note)."""

    __slots__ = ("s", "pos")

    def __init__(self, data: bytes, bit_pos: int = 0) -> None:
        self.s = bin(int.from_bytes(b"\x01" + data, "big"))[3:]
        self.pos = bit_pos

    def bits(self, k: int) -> int:
        if k == 0:
            return 0
        p = self.pos
        q = p + k
        if q > len(self.s):
            raise CodecError("FLAC: bitstream exhausted")
        self.pos = q
        return int(self.s[p:q], 2)

    def signed(self, k: int) -> int:
        v = self.bits(k)
        return v - (1 << k) if v >> (k - 1) else v

    def unary(self) -> int:
        p = self.s.find("1", self.pos)
        if p == -1:
            raise CodecError("FLAC: bitstream exhausted in unary")
        q = p - self.pos
        self.pos = p + 1
        return q

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7

    def utf8_number(self) -> int:
        first = self.bits(8)
        if first < 0x80:
            return first
        n = 0
        while (first << n) & 0x80:
            n += 1
        if n < 2 or n > 7:
            raise CodecError("FLAC: bad UTF-8 coded number")
        value = first & (0x7F >> n)
        for _ in range(n - 1):
            cont = self.bits(8)
            if cont & 0xC0 != 0x80:
                raise CodecError("FLAC: bad UTF-8 continuation")
            value = (value << 6) | (cont & 0x3F)
        return value


_FIXED_COEFFS = {
    0: [],
    1: [1],
    2: [2, -1],
    3: [3, -3, 1],
    4: [4, -6, 4, -1],
}


def _flac_residual(br: _FlacBits, block_size: int, order: int) -> list[int]:
    method = br.bits(2)
    if method > 1:
        raise CodecError("FLAC: reserved residual method")
    param_bits = 4 + method
    escape = (1 << param_bits) - 1
    part_order = br.bits(4)
    n_parts = 1 << part_order
    if block_size % n_parts:
        raise CodecError("FLAC: partition/block-size mismatch")
    out: list[int] = []
    for part in range(n_parts):
        n = (block_size >> part_order) - (order if part == 0 else 0)
        if n < 0:
            raise CodecError("FLAC: negative partition length")
        param = br.bits(param_bits)
        if param == escape:
            raw = br.bits(5)
            if raw == 0:
                out.extend([0] * n)
            else:
                out.extend(br.signed(raw) for _ in range(n))
            continue
        for _ in range(n):
            q = br.unary()
            val = (q << param) | br.bits(param) if param else q
            out.append((val >> 1) ^ -(val & 1))
    return out


def _flac_subframe(
    br: _FlacBits, block_size: int, sbits: int
) -> np.ndarray:
    if br.bits(1):
        raise CodecError("FLAC: subframe padding bit set")
    stype = br.bits(6)
    wasted = 0
    if br.bits(1):
        wasted = br.unary() + 1
    sbits -= wasted
    if sbits <= 0:
        raise CodecError("FLAC: wasted bits exceed sample size")
    if stype == 0:  # CONSTANT
        x = np.full(block_size, br.signed(sbits), dtype=np.int64)
    elif stype == 1:  # VERBATIM
        x = np.fromiter(
            (br.signed(sbits) for _ in range(block_size)),
            dtype=np.int64, count=block_size,
        )
    elif 8 <= stype <= 12:  # FIXED, order = stype - 8
        order = stype - 8
        if order > block_size:
            raise CodecError("FLAC: fixed order exceeds block size")
        warm = [br.signed(sbits) for _ in range(order)]
        res = _flac_residual(br, block_size, order)
        x = np.empty(block_size, dtype=np.int64)
        x[:order] = warm
        coeffs = _FIXED_COEFFS[order]
        xs = x.tolist()  # python ints: the recurrence is sequential
        for i in range(order, block_size):
            xs[i] = res[i - order] + sum(
                c * xs[i - 1 - j] for j, c in enumerate(coeffs)
            )
        try:
            x = np.asarray(xs, dtype=np.int64)
        except OverflowError:
            raise CodecError("FLAC: sample values out of range") from None
    elif stype >= 32:  # LPC, order = (stype & 31) + 1
        order = (stype & 0x1F) + 1
        if order > block_size:
            raise CodecError("FLAC: LPC order exceeds block size")
        warm = [br.signed(sbits) for _ in range(order)]
        prec = br.bits(4)
        if prec == 15:
            raise CodecError("FLAC: invalid LPC precision")
        prec += 1
        shift = br.signed(5)
        if shift < 0:
            raise CodecError("FLAC: negative LPC shift")
        coeffs = [br.signed(prec) for _ in range(order)]
        res = _flac_residual(br, block_size, order)
        xs = warm + [0] * (block_size - order)
        for i in range(order, block_size):
            acc = 0
            for j, c in enumerate(coeffs):
                acc += c * xs[i - 1 - j]
            xs[i] = res[i - order] + (acc >> shift)
        try:
            x = np.asarray(xs, dtype=np.int64)
        except OverflowError:
            # corrupt predictor coefficients make the recurrence diverge
            # into Python bigints — a real decoder's clipped garbage; for
            # this engine it is a typed parse failure
            raise CodecError("FLAC: sample values out of range") from None
    else:
        raise CodecError(f"FLAC: reserved subframe type {stype}")
    if wasted:
        x <<= wasted
    return x


def flac_decode(data: bytes) -> tuple[np.ndarray, int]:
    """(mono float32 samples in [-1, 1], sample_rate) from a native FLAC
    stream — CONSTANT/VERBATIM/FIXED/LPC subframes, partitioned Rice
    residuals, all four channel assignments. Multi-channel input is
    mixed to mono (mean), mirroring ``wav_pcm_decode``."""
    if data[:4] != b"fLaC":
        raise CodecError("not a FLAC stream")
    pos = 4
    rate = channels = bits = None
    total = 0
    while True:
        if pos + 4 > len(data):
            raise CodecError("FLAC: truncated metadata")
        header = data[pos]
        length = int.from_bytes(data[pos + 1 : pos + 4], "big")
        body = data[pos + 4 : pos + 4 + length]
        if header & 0x7F == 0:  # STREAMINFO
            if length < 34:
                raise CodecError("FLAC: short STREAMINFO")
            packed = int.from_bytes(body[10:18], "big")
            rate = packed >> 44
            channels = ((packed >> 41) & 0x7) + 1
            bits = ((packed >> 36) & 0x1F) + 1
            total = packed & ((1 << 36) - 1)
        pos += 4 + length
        if header & 0x80:
            break
    if not rate:
        raise CodecError("FLAC: no STREAMINFO")
    if pos >= len(data):
        # metadata-only stream (no audio frames): legal, zero samples
        return np.zeros(0, dtype=np.float32), int(rate)

    br = _FlacBits(data[pos:])
    chans: list[list[np.ndarray]] = [[] for _ in range(channels)]
    n_out = 0
    while br.pos + 32 <= len(br.s) and (total == 0 or n_out < total):
        if br.bits(14) != 0b11111111111110:
            raise CodecError("FLAC: lost frame sync")
        br.bits(1)  # reserved
        br.bits(1)  # blocking strategy
        bs_code = br.bits(4)
        rate_code = br.bits(4)
        chan_code = br.bits(4)
        size_code = br.bits(3)
        br.bits(1)  # reserved
        br.utf8_number()
        if bs_code == 0:
            raise CodecError("FLAC: reserved block size code")
        elif bs_code == 6:
            block_size = br.bits(8) + 1
        elif bs_code == 7:
            block_size = br.bits(16) + 1
        else:
            block_size = _FLAC_BLOCK_SIZES[bs_code]
        if rate_code == 12:
            br.bits(8)
        elif rate_code in (13, 14):
            br.bits(16)
        elif rate_code == 15:
            raise CodecError("FLAC: invalid sample rate code")
        fbits = _FLAC_SAMPLE_SIZES.get(size_code, bits)
        br.bits(8)  # header CRC-8 (integrity is pinned by tests)
        if chan_code < 8:
            n_ch = chan_code + 1
            if n_ch != channels:
                raise CodecError("FLAC: frame/STREAMINFO channel mismatch")
            sub = [
                _flac_subframe(br, block_size, fbits) for _ in range(n_ch)
            ]
        elif chan_code in (8, 9, 10):
            if channels != 2:
                raise CodecError("FLAC: stereo decorrelation on non-stereo")
            side_first = chan_code == 9
            a = _flac_subframe(br, block_size, fbits + (1 if side_first else 0))
            b = _flac_subframe(br, block_size, fbits + (0 if side_first else 1))
            if chan_code == 8:  # left/side
                left, side = a, b
                right = left - side
            elif chan_code == 9:  # side/right
                side, right = a, b
                left = side + right
            else:  # mid/side
                mid, side = a, b
                mid = (mid << 1) | (side & 1)
                left = (mid + side) >> 1
                right = (mid - side) >> 1
            sub = [left, right]
        else:
            raise CodecError("FLAC: reserved channel assignment")
        br.align()
        br.bits(16)  # frame CRC-16
        for c in range(channels):
            chans[c].append(sub[c])
        n_out += block_size
    if not n_out:
        return np.zeros(0, dtype=np.float32), int(rate)
    stacked = np.stack([np.concatenate(c) for c in chans])
    if total:
        stacked = stacked[:, :total]
    mono = stacked.mean(axis=0) / float(1 << (bits - 1))
    return mono.astype(np.float32), int(rate)


class _MsbWriter:
    """MSB-first bit writer (no byte stuffing — FLAC, unlike JPEG)."""

    __slots__ = ("buf", "acc", "n")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def put(self, value: int, length: int) -> None:
        if length == 0:
            return
        self.acc = (self.acc << length) | (value & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            self.n -= 8
            self.buf.append((self.acc >> self.n) & 0xFF)
        self.acc &= (1 << self.n) - 1

    def align(self) -> None:
        if self.n:
            self.put(0, 8 - self.n)

    def bytes(self) -> bytes:
        assert self.n == 0
        return bytes(self.buf)


def _rice_param(res: np.ndarray) -> int:
    """Standard mean-based Rice parameter estimate."""
    if not res.size:
        return 0
    mean = float(np.abs(res).mean())
    p = 0
    while (1 << (p + 1)) < mean + 1 and p < 14:
        p += 1
    return p


def _encode_subframe(
    w: _MsbWriter, x: np.ndarray, sbits: int, order: int
) -> None:
    if np.all(x == x[0]) if x.size else True:
        w.put(0, 1); w.put(0, 6); w.put(0, 1)  # CONSTANT
        w.put(int(x[0]) if x.size else 0, sbits)
        return
    order = min(order, max(0, len(x) - 1))
    w.put(0, 1)
    w.put(8 + order, 6)  # FIXED
    w.put(0, 1)  # no wasted bits
    for v in x[:order]:
        w.put(int(v), sbits)
    res = x.astype(np.int64)
    for _ in range(order):
        res = np.diff(res)
    res = res[: len(x) - order] if order else res
    param = _rice_param(res)
    w.put(0, 2)   # residual method 0 (4-bit Rice)
    w.put(0, 4)   # partition order 0
    zig = np.where(res >= 0, res << 1, (-res << 1) - 1).astype(np.int64)
    if param >= 15 or (zig >> param).sum() > 8 * len(zig) + 4096:
        raw = int(max(1, (np.abs(res).max() if res.size else 0)).bit_length()) + 1
        w.put(15, 4)
        w.put(raw, 5)
        for v in res:
            w.put(int(v), raw)
        return
    w.put(param, 4)
    for v in zig:
        q = int(v) >> param
        w.put(0, q)
        w.put(1, 1)
        if param:
            w.put(int(v), param)


def flac_encode(
    samples: np.ndarray,
    sample_rate: int = 16000,
    *,
    block_size: int = 4096,
    stereo_mode: str = "independent",
    fixed_order: int = 2,
) -> bytes:
    """Native FLAC from int16 PCM (mono ``(n,)`` or planar ``(ch, n)``).
    Emits CONSTANT / FIXED-order subframes with single-partition Rice
    residuals; ``stereo_mode`` selects the channel decorrelation
    (independent / left-side / right-side / mid-side) so every decoder
    reconstruction path round-trips under test."""
    x = np.asarray(samples, dtype=np.int64)
    if x.ndim == 1:
        x = x[None, :]
    channels, n = x.shape
    if channels > 8:
        raise CodecError("FLAC: too many channels")
    if stereo_mode != "independent" and channels != 2:
        raise CodecError("FLAC: stereo_mode needs 2 channels")
    bits = 16
    packed = (
        (sample_rate << 44) | ((channels - 1) << 41) | ((bits - 1) << 36) | n
    )
    si = (
        struct.pack(">HH", min(block_size, n or 16), min(block_size, n or 16))
        + b"\x00" * 6
        + packed.to_bytes(8, "big")
        + b"\x00" * 16
    )
    out = bytearray(b"fLaC" + bytes([0x80]) + len(si).to_bytes(3, "big") + si)
    chan_code = {
        "independent": channels - 1,
        "left-side": 8,
        "right-side": 9,
        "mid-side": 10,
    }.get(stereo_mode)
    if chan_code is None:
        raise CodecError(f"FLAC: unknown stereo_mode {stereo_mode!r}")
    frame_no = 0
    for start in range(0, n, block_size):
        blk = x[:, start : start + block_size]
        bs = blk.shape[1]
        w = _MsbWriter()
        w.put(0b11111111111110, 14)
        w.put(0, 1)
        w.put(0, 1)          # fixed blocking
        w.put(7, 4)          # 16-bit explicit block size
        w.put(0, 4)          # rate: from STREAMINFO
        w.put(chan_code, 4)
        w.put(4, 3)          # 16-bit samples
        w.put(0, 1)
        header = w  # continue writing into the same stream
        for byte in _utf8_number(frame_no):
            header.put(byte, 8)
        header.put(bs - 1, 16)
        header.align()
        hdr_bytes = header.bytes()
        crc8 = _crc8(hdr_bytes)
        body = _MsbWriter()
        if stereo_mode == "independent":
            planes = [blk[c] for c in range(channels)]
            sbits = [bits] * channels
        elif stereo_mode == "left-side":
            planes = [blk[0], blk[0] - blk[1]]
            sbits = [bits, bits + 1]
        elif stereo_mode == "right-side":
            planes = [blk[0] - blk[1], blk[1]]
            sbits = [bits + 1, bits]
        else:  # mid-side
            side = blk[0] - blk[1]
            mid = (blk[0] + blk[1]) >> 1
            planes = [mid, side]
            sbits = [bits, bits + 1]
        for plane, sb in zip(planes, sbits):
            _encode_subframe(body, plane, sb, fixed_order)
        body.align()
        frame_wo_crc = hdr_bytes + bytes([crc8]) + body.bytes()
        out += frame_wo_crc + struct.pack(">H", _crc16(frame_wo_crc))
        frame_no += 1
    return bytes(out)


# ---------------------------------------------------------------- PSD ----
# Adobe Photoshop per the public PSD spec: 26-byte header, four length-
# prefixed sections, then the image-data section — planar channels,
# either raw or RLE rows (the RLE is PackBits, shared with the TIFF
# path above). 8-bit RGB and grayscale composites.


def psd_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from the PSD composite image-data section
    (depth 8, RGB or grayscale, raw or PackBits-RLE)."""
    if data[:4] != b"8BPS" or len(data) < 26:
        raise CodecError("not a PSD file")
    version = int.from_bytes(data[4:6], "big")
    if version != 1:
        raise CodecError(f"PSD: unsupported version {version}")
    channels = int.from_bytes(data[12:14], "big")
    h = int.from_bytes(data[14:18], "big")
    w = int.from_bytes(data[18:22], "big")
    depth = int.from_bytes(data[22:24], "big")
    mode = int.from_bytes(data[24:26], "big")
    if depth != 8:
        raise CodecError(f"PSD: unsupported depth {depth}")
    if mode not in (1, 3):  # grayscale, RGB
        raise CodecError(f"PSD: unsupported color mode {mode}")
    pos = 26
    for _section in range(3):  # color mode data, resources, layers
        if pos + 4 > len(data):
            raise CodecError("PSD: truncated section table")
        pos += 4 + int.from_bytes(data[pos : pos + 4], "big")
    if pos + 2 > len(data):
        raise CodecError("PSD: missing image data section")
    compression = int.from_bytes(data[pos : pos + 2], "big")
    pos += 2
    n_use = min(channels, 3)
    planes: list[np.ndarray] = []
    if compression == 0:  # raw planar
        need = channels * h * w
        if len(data) - pos < need:
            raise CodecError("PSD: truncated raw image data")
        for c in range(n_use):
            start = pos + c * h * w
            planes.append(
                np.frombuffer(data, np.uint8, h * w, start).reshape(h, w)
            )
    elif compression == 1:  # RLE: per-row byte counts, then PackBits rows
        n_rows = channels * h
        if pos + 2 * n_rows > len(data):
            raise CodecError("PSD: truncated RLE counts table")
        counts = np.frombuffer(data, ">u2", n_rows, pos)
        pos += 2 * n_rows
        offsets = np.zeros(n_rows + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        if pos + int(offsets[-1]) > len(data):
            raise CodecError("PSD: truncated RLE image data")
        for c in range(n_use):
            rows = []
            for y in range(h):
                i = c * h + y
                blob = data[pos + int(offsets[i]) : pos + int(offsets[i + 1])]
                rows.append(_packbits_decode(blob, w))
            planes.append(
                np.frombuffer(b"".join(rows), np.uint8).reshape(h, w)
            )
    else:
        raise CodecError(f"PSD: unsupported compression {compression}")
    if mode == 1 or n_use == 1:
        return np.repeat(planes[0][:, :, None], 3, axis=2).copy()
    return np.stack(planes[:3], axis=2)


def psd_encode(pixels: np.ndarray, rle: bool = True) -> bytes:
    """A real PSD (version 1, 8-bit RGB) from (H, W, 3) uint8 — planar
    composite image data, PackBits-RLE by default."""
    px = np.asarray(pixels, dtype=np.uint8)
    h, w, _ = px.shape
    head = (
        b"8BPS"
        + (1).to_bytes(2, "big")
        + b"\x00" * 6
        + (3).to_bytes(2, "big")
        + h.to_bytes(4, "big")
        + w.to_bytes(4, "big")
        + (8).to_bytes(2, "big")
        + (3).to_bytes(2, "big")
        + b"\x00" * 12  # empty color-mode / resource / layer sections
    )
    if not rle:
        planar = px.transpose(2, 0, 1).tobytes()
        return head + (0).to_bytes(2, "big") + planar
    rows = [
        _packbits_encode(px[y, :, c].tobytes())
        for c in range(3)
        for y in range(h)
    ]
    counts = b"".join(len(r).to_bytes(2, "big") for r in rows)
    return head + (1).to_bytes(2, "big") + counts + b"".join(rows)


# ---------------------------------------------------------------- ICO ----
# Windows icon per the public ICO format: ICONDIR + ICONDIRENTRY table,
# each image either a PNG stream or a BMP DIB whose BITMAPINFOHEADER
# height covers the XOR pixel plane PLUS the 1-bpp AND mask. Shares the
# bottom-up padded-row logic with the BMP path above.


def ico_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from the FIRST image of an ICO: PNG-compressed
    entries delegate to ``png_decode``; BMP DIB entries decode the 24/32-
    bit XOR plane (the AND mask is parsed past, not composited — rika's
    Tika-side convention reads icons as opaque raster)."""
    if len(data) < 22 or data[:4] != b"\x00\x00\x01\x00":
        raise CodecError("not an ICO file")
    (count,) = struct.unpack("<H", data[4:6])
    if count < 1:
        raise CodecError("ICO: empty directory")
    size, off = struct.unpack("<II", data[14:22])
    if off + size > len(data) or size < 8:
        raise CodecError("ICO: truncated image payload")
    blob = data[off : off + size]
    if blob[:8] == b"\x89PNG\r\n\x1a\n":
        return png_decode(blob)
    dib, w, h2, _planes, bpp, comp = struct.unpack("<IiiHHI", blob[:20])
    if dib < 40 or comp != 0:
        raise CodecError(f"ICO: unsupported DIB (dib={dib}, comp={comp})")
    if bpp not in (24, 32):
        raise CodecError(f"ICO: unsupported bpp {bpp}")
    h = abs(h2) // 2  # header height spans XOR plane + AND mask
    if h == 0:
        raise CodecError("ICO: zero-height image")
    nch = bpp // 8
    stride = (w * nch + 3) & ~3
    if dib + stride * h > len(blob):
        raise CodecError("ICO: truncated XOR plane")
    arr = np.frombuffer(blob[dib : dib + stride * h], dtype=np.uint8)
    arr = arr.reshape(h, stride)[:, : w * nch].reshape(h, w, nch)
    return arr[::-1, :, 2::-1].copy()  # bottom-up BGR(A) → RGB


def ico_encode(pixels: np.ndarray) -> bytes:
    """A real single-image ICO (32-bit BGRA DIB, opaque alpha, all-zero
    AND mask) from (H, W, 3) uint8 RGB."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, _ = px.shape
    if h > 256 or w > 256:
        raise CodecError("ICO: image exceeds 256x256")
    bgra = np.empty((h, w, 4), np.uint8)
    bgra[:, :, :3] = px[:, :, ::-1]
    bgra[:, :, 3] = 255
    xor_rows = bgra[::-1].tobytes()  # 4-byte pixels: rows already aligned
    mask_stride = ((w + 31) // 32) * 4
    and_mask = b"\x00" * (mask_stride * h)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, w, h * 2, 1, 32, 0,
        len(xor_rows) + len(and_mask), 0, 0, 0, 0,
    )
    img = dib + xor_rows + and_mask
    entry = struct.pack(
        "<BBBBHHII", w % 256, h % 256, 0, 0, 1, 32, len(img), 22
    )
    return b"\x00\x00\x01\x00\x01\x00" + entry + img


# --------------------------------------------------------------- VP8L ----
# WebP lossless per the public VP8L bitstream spec (RFC 9649 /
# developers.google.com/speed/webp/docs/webp_lossless_bitstream_
# specification): LSB-first bit packing, canonical prefix codes (read
# MSB-of-code first), the 5-code group (green+length+cache / red / blue
# / alpha / distance), LZ77 backward references (1D distances),
# optional color cache. The decoder rejects the
# four pixel transforms (predictor / color / subtract-green / palette)
# with a typed CodecError; the encoder never emits them. Spatially-coded
# meta-prefix groups are likewise refused — one code group per image.


_VP8L_CL_ORDER = [
    17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
]


class _LsbBits:
    """LSB-first bit reader (VP8L convention) over a bytes payload."""

    __slots__ = ("val", "pos", "n")

    def __init__(self, data: bytes) -> None:
        self.val = int.from_bytes(data, "little")
        self.pos = 0
        self.n = 8 * len(data)

    def bits(self, k: int) -> int:
        if self.pos + k > self.n:
            raise CodecError("VP8L: bitstream exhausted")
        out = (self.val >> self.pos) & ((1 << k) - 1)
        self.pos += k
        return out


class _PrefixCode:
    """Canonical prefix code: decode one symbol by accumulating bits
    MSB-of-code first (deflate-style canonical assignment)."""

    __slots__ = ("table", "min_len", "max_len", "single")

    def __init__(self, lengths: list[int]) -> None:
        used = [(l, s) for s, l in enumerate(lengths) if l > 0]
        if not used:
            raise CodecError("VP8L: empty prefix code")
        if len(used) == 1:
            # degenerate single-symbol code: consumes no bits
            self.single = used[0][1]
            self.table = {}
            self.min_len = self.max_len = 0
            return
        self.single = None
        # kraft check + canonical next-code assignment
        counts: dict[int, int] = {}
        for l, _s in used:
            counts[l] = counts.get(l, 0) + 1
        code = 0
        next_code: dict[int, int] = {}
        kraft = 0
        max_len = max(counts)
        for l in range(1, max_len + 1):
            code = (code + counts.get(l - 1, 0)) << 1
            next_code[l] = code
            kraft += counts.get(l, 0) << (max_len - l)
        if kraft != 1 << max_len:
            raise CodecError("VP8L: incomplete prefix code")
        table: dict[tuple[int, int], int] = {}
        for l, s in sorted(used):
            table[(l, next_code[l])] = s
            next_code[l] += 1
        self.table = table
        self.min_len = min(counts)
        self.max_len = max_len

    def read(self, br: _LsbBits) -> int:
        if self.single is not None:
            return self.single
        code = 0
        length = 0
        while True:
            code = (code << 1) | br.bits(1)
            length += 1
            if length >= self.min_len:
                sym = self.table.get((length, code))
                if sym is not None:
                    return sym
            if length > self.max_len:
                raise CodecError("VP8L: invalid prefix code word")


def _vp8l_read_code(br: _LsbBits, alphabet_size: int) -> _PrefixCode:
    if br.bits(1):  # simple code
        n_syms = br.bits(1) + 1
        if br.bits(1):  # first symbol is 8 bits
            first = br.bits(8)
        else:
            first = br.bits(1)
        lengths = [0] * alphabet_size
        if first >= alphabet_size:
            raise CodecError("VP8L: simple-code symbol out of range")
        if n_syms == 2:
            second = br.bits(8)
            if second >= alphabet_size:
                raise CodecError("VP8L: simple-code symbol out of range")
            lengths[first] = 1
            lengths[second] = 1
        else:
            lengths[first] = 1
            # single-symbol degenerate code
            code = _PrefixCode.__new__(_PrefixCode)
            code.single = first
            code.table = {}
            code.min_len = code.max_len = 0
            return code
        return _PrefixCode(lengths)
    num_cl = 4 + br.bits(4)
    cl_lengths = [0] * 19
    for i in range(num_cl):
        cl_lengths[_VP8L_CL_ORDER[i]] = br.bits(3)
    cl_code = _PrefixCode(cl_lengths)
    if br.bits(1):  # bounded number of coded symbols
        length_nbits = 2 + 2 * br.bits(3)
        max_symbol = 2 + br.bits(length_nbits)
    else:
        max_symbol = alphabet_size
    lengths = [0] * alphabet_size
    prev_len = 8
    sym = 0
    while sym < alphabet_size and max_symbol > 0:
        max_symbol -= 1
        cl = cl_code.read(br)
        if cl < 16:
            lengths[sym] = cl
            sym += 1
            if cl:
                prev_len = cl
        elif cl == 16:
            rep = 3 + br.bits(2)
            for _ in range(rep):
                if sym < alphabet_size:
                    lengths[sym] = prev_len
                    sym += 1
        elif cl == 17:
            sym += 3 + br.bits(3)
        else:  # 18
            sym += 11 + br.bits(7)
    return _PrefixCode(lengths)


def _vp8l_prefix_value(br: _LsbBits, prefix_code: int) -> int:
    """LZ77 length/distance prefix decoding (spec: 4 slots per doubling)."""
    if prefix_code < 4:
        return prefix_code + 1
    extra = (prefix_code - 2) >> 1
    offset = (2 + (prefix_code & 1)) << extra
    return offset + br.bits(extra) + 1


def vp8l_decode(data: bytes) -> np.ndarray:
    """(H, W, 3) uint8 from a lossless WebP (VP8L chunk in a RIFF/WEBP
    container, or a bare VP8L payload). Transform-free streams only —
    the subset the sibling encoder emits; transformed streams raise."""
    payload = data
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        pos = 12
        payload = None
        while pos + 8 <= len(data):
            tag = data[pos : pos + 4]
            (clen,) = struct.unpack("<I", data[pos + 4 : pos + 8])
            if tag == b"VP8L":
                payload = data[pos + 8 : pos + 8 + clen]
                break
            pos += 8 + clen + (clen & 1)
        if payload is None:
            raise CodecError("WebP: no VP8L chunk (lossy VP8 unsupported)")
    if not payload or payload[0] != 0x2F:
        raise CodecError("VP8L: bad signature")
    br = _LsbBits(payload[1:])
    w = br.bits(14) + 1
    h = br.bits(14) + 1
    br.bits(1)  # alpha hint
    if br.bits(3) != 0:
        raise CodecError("VP8L: unsupported version")
    if br.bits(1):
        raise CodecError("VP8L: pixel transforms unsupported")
    cache_bits = 0
    if br.bits(1):
        cache_bits = br.bits(4)
        if not 1 <= cache_bits <= 11:
            raise CodecError("VP8L: bad color cache size")
    if br.bits(1):
        raise CodecError("VP8L: meta prefix groups unsupported")
    cache_size = (1 << cache_bits) if cache_bits else 0
    green_code = _vp8l_read_code(br, 256 + 24 + cache_size)
    red_code = _vp8l_read_code(br, 256)
    blue_code = _vp8l_read_code(br, 256)
    alpha_code = _vp8l_read_code(br, 256)
    dist_code = _vp8l_read_code(br, 40)
    n = w * h
    argb = np.zeros((n, 4), dtype=np.uint8)  # [a, r, g, b]
    cache = [0] * cache_size
    i = 0
    while i < n:
        s = green_code.read(br)
        if s < 256:
            g = s
            r = red_code.read(br)
            b = blue_code.read(br)
            a = alpha_code.read(br)
            argb[i] = (a, r, g, b)
            if cache_size:
                key = ((a << 24) | (r << 16) | (g << 8) | b) & 0xFFFFFFFF
                cache[(0x1E35A7BD * key & 0xFFFFFFFF) >> (32 - cache_bits)] = key
            i += 1
        elif s < 280:
            length = _vp8l_prefix_value(br, s - 256)
            d_prefix = dist_code.read(br)
            d = _vp8l_prefix_value(br, d_prefix)
            if d > 120:
                dist = d - 120
            else:
                # the 2D near-pixel distance map (codes 1-120) is an
                # explicit 120-entry spec table; this subset decoder
                # refuses it (typed) rather than risk mis-mapping — the
                # sibling encoder always emits the dist+120 form
                raise CodecError("VP8L: 2D distance codes unsupported")
            if dist > i or i + length > n:
                raise CodecError("VP8L: backward reference out of range")
            for k in range(length):
                argb[i + k] = argb[i + k - dist]
                if cache_size:
                    a, r, g, b = argb[i + k]
                    key = (
                        (int(a) << 24) | (int(r) << 16) | (int(g) << 8) | int(b)
                    )
                    cache[
                        (0x1E35A7BD * key & 0xFFFFFFFF) >> (32 - cache_bits)
                    ] = key
            i += length
        else:
            key = cache[s - 280]
            argb[i] = (
                (key >> 24) & 0xFF,
                (key >> 16) & 0xFF,
                (key >> 8) & 0xFF,
                key & 0xFF,
            )
            i += 1
    return argb[:, 1:4].reshape(h, w, 3).copy()


class _LsbWriter:
    """LSB-first bit writer (VP8L convention)."""

    __slots__ = ("val", "pos")

    def __init__(self) -> None:
        self.val = 0
        self.pos = 0

    def put(self, value: int, length: int) -> None:
        self.val |= (value & ((1 << length) - 1)) << self.pos
        self.pos += length

    def put_code(self, code: int, length: int) -> None:
        # prefix-code words are read MSB-of-code first: emit accordingly
        for i in range(length - 1, -1, -1):
            self.put((code >> i) & 1, 1)

    def bytes(self) -> bytes:
        return self.val.to_bytes((self.pos + 7) // 8, "little")


def _limited_lengths(freqs: dict[int, int], limit: int) -> dict[int, int]:
    """Complete prefix-code lengths (Kraft sum exactly 1) for the used
    symbols, all lengths <= limit. Huffman + clamp + Kraft repair."""
    import heapq

    used = sorted(s for s, f in freqs.items() if f > 0)
    if not used:
        raise CodecError("VP8L: no symbols to code")
    if len(used) == 1:
        return {used[0]: 1}
    heap: list[tuple[int, list[int]]] = [(freqs[s], [s]) for s in used]
    heapq.heapify(heap)
    lengths = {s: 0 for s in used}
    while len(heap) > 1:
        f1, s1 = heapq.heappop(heap)
        f2, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            lengths[s] += 1
        heapq.heappush(heap, (f1 + f2, s1 + s2))
    lengths = {s: min(l, limit) for s, l in lengths.items()}
    target = 1 << limit
    kraft = sum(1 << (limit - l) for l in lengths.values())
    order = sorted(used, key=lambda s: (-lengths[s], freqs[s]))
    while kraft > target:  # overfull: deepen the cheapest deepenable leaf
        for s in order:
            if lengths[s] < limit:
                kraft -= 1 << (limit - lengths[s] - 1)
                lengths[s] += 1
                break
        else:
            raise CodecError("VP8L: cannot limit code lengths")
        order = sorted(used, key=lambda s: (-lengths[s], freqs[s]))
    while kraft < target:  # underfull: shallow the deepest leaf that fits
        for s in sorted(used, key=lambda t: -lengths[t]):
            gain = 1 << (limit - lengths[s])
            if lengths[s] > 1 and kraft + gain <= target:
                lengths[s] -= 1
                kraft += gain
                break
        else:
            raise CodecError("VP8L: cannot complete code")
    return lengths


def _canonical_code_table(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length), canonical assignment (shorter first,
    ascending symbol) — the decoder's exact inverse."""
    counts: dict[int, int] = {}
    for l in lengths.values():
        counts[l] = counts.get(l, 0) + 1
    code = 0
    next_code: dict[int, int] = {}
    for l in range(1, max(counts) + 1):
        code = (code + counts.get(l - 1, 0)) << 1
        next_code[l] = code
    table: dict[int, tuple[int, int]] = {}
    for l, s in sorted((l, s) for s, l in lengths.items()):
        table[s] = (next_code[l], l)
        next_code[l] += 1
    return table


def _vp8l_write_code(
    w: _LsbWriter, lengths: dict[int, int], alphabet_size: int
) -> dict[int, tuple[int, int]]:
    """Serialize one prefix code (simple form for <=2 symbols, else the
    code-length-coded normal form) and return its encode table."""
    used = sorted(lengths)
    if used[-1] >= alphabet_size:
        raise CodecError(
            f"VP8L: symbol {used[-1]} outside a {alphabet_size}-symbol code"
        )
    if len(used) <= 2 and max(used) < 256:
        w.put(1, 1)                     # simple
        w.put(len(used) - 1, 1)
        w.put(1, 1)                     # first symbol in 8 bits
        w.put(used[0], 8)
        if len(used) == 2:
            w.put(used[1], 8)
            return {used[0]: (0, 1), used[1]: (1, 1)}
        return {used[0]: (0, 0)}
    w.put(0, 1)                         # normal
    # RLE the per-symbol lengths into code-length symbols (+ extra bits)
    full = [lengths.get(s, 0) for s in range(alphabet_size)]
    stream: list[tuple[int, int, int]] = []  # (cl_symbol, extra, extra_bits)
    i = 0
    while i < alphabet_size:
        if full[i] == 0:
            run = 1
            while i + run < alphabet_size and full[i + run] == 0:
                run += 1
            i += run
            while run >= 11:
                rep = min(run, 138)
                stream.append((18, rep - 11, 7))
                run -= rep
            while run >= 3:
                rep = min(run, 10)
                stream.append((17, rep - 3, 3))
                run -= rep
            for _ in range(run):
                stream.append((0, 0, 0))
        else:
            stream.append((full[i], 0, 0))
            i += 1
    cl_freqs: dict[int, int] = {}
    for sym, _e, _b in stream:
        cl_freqs[sym] = cl_freqs.get(sym, 0) + 1
    cl_lengths = _limited_lengths(cl_freqs, 7)
    cl_table = _canonical_code_table(cl_lengths)
    if len(cl_lengths) == 1:
        # single-symbol codes consume no bits on the decode side
        cl_table = {next(iter(cl_lengths)): (0, 0)}
    order_pos = {c: i for i, c in enumerate(_VP8L_CL_ORDER)}
    num_cl = max(4, 1 + max(order_pos[s] for s in cl_lengths))
    w.put(num_cl - 4, 4)
    for i in range(num_cl):
        w.put(cl_lengths.get(_VP8L_CL_ORDER[i], 0), 3)
    w.put(0, 1)                          # no max-symbol prelude
    for sym, extra, ebits in stream:
        code, ln = cl_table[sym]
        if ln == 0:
            # degenerate single-symbol CL code consumes no bits
            pass
        else:
            w.put_code(code, ln)
        if ebits:
            w.put(extra, ebits)
    if len(lengths) == 1:
        return {next(iter(lengths)): (0, 0)}
    return _canonical_code_table(lengths)


def _vp8l_prefix_encode(value: int) -> tuple[int, int, int]:
    """Inverse of ``_vp8l_prefix_value``: value -> (code, extra, bits)."""
    x = value - 1
    if x < 4:
        return x, 0, 0
    e = x.bit_length() - 2
    half = (x >> e) & 1
    return 2 * e + 2 + half, x - ((2 + half) << e), e


_VP8L_MAX_RUN = 4096


def vp8l_encode(pixels: np.ndarray) -> bytes:
    """Lossless WebP (RIFF/WEBP/VP8L) from (H, W, 3) uint8: no
    transforms, no color cache, one prefix-code group, literals plus
    dist-1 LZ77 runs — exactly the subset ``vp8l_decode`` accepts."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, wd, _ = px.shape
    if h > 16384 or wd > 16384:
        raise CodecError("VP8L: image exceeds 16384x16384")
    flat = px.reshape(-1, 3)
    n = len(flat)
    # tokenize: literals and runs of the previous pixel (distance 1)
    same = np.zeros(n, dtype=bool)
    if n > 1:
        same[1:] = np.all(flat[1:] == flat[:-1], axis=1)
    tokens: list[tuple[int, int]] = []  # (kind 0=lit,1=run, index|length)
    g_freq: dict[int, int] = {}
    r_freq: dict[int, int] = {}
    b_freq: dict[int, int] = {}
    i = 0
    while i < n:
        if same[i]:
            # one token copies at most 4,096 pixels (the largest length
            # the 24 length prefix codes reach); a longer run takes more
            run = 1
            while run < _VP8L_MAX_RUN and i + run < n and same[i + run]:
                run += 1
            if run >= 4:
                tokens.append((1, run))
                code, _x, _b = _vp8l_prefix_encode(run)
                g_freq[256 + code] = g_freq.get(256 + code, 0) + 1
                i += run
                continue
        r, g, b = int(flat[i, 0]), int(flat[i, 1]), int(flat[i, 2])
        tokens.append((0, i))
        g_freq[g] = g_freq.get(g, 0) + 1
        r_freq[r] = r_freq.get(r, 0) + 1
        b_freq[b] = b_freq.get(b, 0) + 1
        i += 1
    has_runs = any(k == 1 for k, _ in tokens)
    w = _LsbWriter()
    w.put(wd - 1, 14)
    w.put(h - 1, 14)
    w.put(0, 1)                          # alpha hint
    w.put(0, 3)                          # version
    w.put(0, 1)                          # no transforms
    w.put(0, 1)                          # no color cache
    w.put(0, 1)                          # no meta prefix groups
    g_table = _vp8l_write_code(w, _limited_lengths(g_freq, 15), 280)
    r_table = _vp8l_write_code(w, _limited_lengths(r_freq or {0: 1}, 15), 256)
    b_table = _vp8l_write_code(w, _limited_lengths(b_freq or {0: 1}, 15), 256)
    a_table = _vp8l_write_code(w, {255: 1}, 256)      # constant alpha
    # distance code: only ever dist 1 -> 1D form 1 + 120 = 121
    d_code, d_extra, d_bits = _vp8l_prefix_encode(121)
    d_table = _vp8l_write_code(
        w, {d_code: 1} if has_runs else {0: 1}, 40
    )
    for kind, v in tokens:
        if kind == 0:
            r, g, b = (int(c) for c in flat[v])
            code, ln = g_table[g]
            w.put_code(code, ln)
            code, ln = r_table[r]
            if ln:
                w.put_code(code, ln)
            code, ln = b_table[b]
            if ln:
                w.put_code(code, ln)
            code, ln = a_table[255]
            if ln:
                w.put_code(code, ln)
        else:
            lcode, lextra, lbits = _vp8l_prefix_encode(v)
            code, ln = g_table[256 + lcode]
            w.put_code(code, ln)
            if lbits:
                w.put(lextra, lbits)
            code, ln = d_table[d_code]
            if ln:
                w.put_code(code, ln)
            if d_bits:
                w.put(d_extra, d_bits)
    payload = b"\x2f" + w.bytes()
    vp8l = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        vp8l += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(vp8l)) + b"WEBP" + vp8l


# ---------------------------------------------------------------- AVI ----
# Motion-JPEG AVI per the public RIFF/AVI spec: 'hdrl' header list
# (avih + per-stream strl), 'movi' list of '00dc' frame chunks — each
# chunk a complete baseline JPEG, decoded by ``jpeg_decode`` above. This
# is the one video coding whose entire decode path the engine already
# implements, so video rows get REAL frames.


def avi_mjpeg_frames(data: bytes) -> list[bytes]:
    """The '00dc'/'00db' frame payloads (JPEG streams) of an AVI, in
    order — frames stay encoded so callers can sample BEFORE decoding."""
    if data[:4] != b"RIFF" or data[8:12] != b"AVI ":
        raise CodecError("not an AVI file")
    frames: list[bytes] = []

    def walk(start: int, end: int) -> None:
        pos = start
        while pos + 8 <= end:
            tag = data[pos : pos + 4]
            (clen,) = struct.unpack("<I", data[pos + 4 : pos + 8])
            body_end = pos + 8 + clen
            if body_end > end:
                raise CodecError("AVI: truncated chunk")
            if tag == b"LIST":
                sub = data[pos + 8 : pos + 12]
                if sub in (b"movi", b"rec "):
                    walk(pos + 12, body_end)
            elif tag[2:4] in (b"dc", b"db"):
                frames.append(data[pos + 8 : body_end])
            pos = body_end + (clen & 1)

    walk(12, len(data))
    return frames


def avi_mjpeg_encode(
    frames: np.ndarray, fps: int = 12, quality: int = 85
) -> bytes:
    """A real Motion-JPEG AVI from (n, H, W, 3) uint8 frames — spec-
    shaped avih/strh/strf headers plus a movi list of '00dc' JPEGs."""
    fr = np.asarray(frames, dtype=np.uint8)
    n, h, w, _ = fr.shape

    def chunk(tag: bytes, payload: bytes) -> bytes:
        pad = b"\x00" if len(payload) & 1 else b""
        return tag + struct.pack("<I", len(payload)) + payload + pad

    def lst(sub: bytes, payload: bytes) -> bytes:
        return chunk(b"LIST", sub + payload)

    jpegs = [jpeg_encode(fr[i], quality=quality) for i in range(n)]
    max_bytes = max((len(j) for j in jpegs), default=0)
    avih = struct.pack(
        "<14I",
        1_000_000 // fps, max_bytes * fps, 0, 0x10,  # AVIF_HASINDEX-free
        n, 0, 1, max_bytes, w, h, 0, 0, 0, 0,
    )
    strh = (
        b"vidsMJPG"
        + struct.pack("<IHHIIIIIII", 0, 0, 0, 0, 1, fps, 0, n, max_bytes, 0)
        + struct.pack("<I", 0)            # sample size
        + struct.pack("<4H", 0, 0, w, h)  # rcFrame
    )
    strf = struct.pack(
        "<IiiHH4sIiiII", 40, w, h, 1, 24, b"MJPG", w * h * 3, 0, 0, 0, 0
    )
    hdrl = lst(
        b"hdrl",
        chunk(b"avih", avih)
        + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)),
    )
    movi = lst(b"movi", b"".join(chunk(b"00dc", j) for j in jpegs))
    body = b"AVI " + hdrl + movi
    return b"RIFF" + struct.pack("<I", len(body)) + body
