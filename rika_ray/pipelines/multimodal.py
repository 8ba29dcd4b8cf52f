"""Multimodal columns (task brief "Multimodal columns" block).

Images/audio/video ride through the engine as opaque ``large_binary``
columns with typed metadata. Each media family has ONE decode path: a
table from the sniffed media type to a codec of
``rika_ray.stages.codecs`` (pure Python/numpy, written from the public
format specs):

- images: header dimensions are parsed first
  (``rika_ray.stages.image_meta``), then PNG (stdlib zlib + unfilter),
  baseline JPEG (Huffman + IDCT), GIF (LZW), baseline TIFF
  (raw/PackBits strips), lossless WebP (VP8L prefix codes + LZ77), PSD
  composites (raw/PackBits planes), ICO (BMP-DIB and PNG entries) and
  uncompressed BMP decode to pixels;
- audio: RIFF/WAVE integer PCM and native FLAC (Rice + fixed/LPC
  predictors) decode to PCM;
- video: Motion-JPEG AVI decodes to frames, sampled BEFORE decoding.

A payload no codec here can decode (MP3/Vorbis audio, MP4/H.264 video,
lossy WebP, a truncated file) raises ``CodecError``; its stage turns that
into an error row (§2.8) instead of inventing features. Resize, feature
extraction and frame sampling are numpy math over the decoded arrays.

Scale notes: each decode stage is built once where the plan is made and
runs as plain tasks (no standing actor reservation, so the pipelines run
on any cluster down to one CPU), with ``batch_size`` sized for multi-MB
payloads; decoded pixels are emitted as fixed-shape ``large_list<uint8>``
+ shape columns so Arrow keeps them off the Python heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from rika_ray.stages import codecs
from rika_ray.stages.codecs import CodecError
from rika_ray.stages.image_meta import (
    ImageParseError,
    bmp_dimensions,
    gif_dimensions,
    ico_dimensions,
    jpeg_dimensions,
    png_dimensions,
    psd_dimensions,
    tiff_dimensions,
    webp_dimensions,
)
from rika_ray.stages.sniff import (
    AVI,
    BMP,
    FLAC,
    GIF,
    ICO,
    JPEG,
    PNG,
    PSD,
    SVG,
    TIFF,
    WAV,
    WEBP,
    sniff_bytes,
)

# media type -> (header dimensions, pixel decode)
_IMAGE_CODECS = {
    JPEG: (jpeg_dimensions, codecs.jpeg_decode),
    PNG: (png_dimensions, codecs.png_decode),
    GIF: (gif_dimensions, codecs.gif_decode),
    TIFF: (tiff_dimensions, codecs.tiff_decode),
    BMP: (bmp_dimensions, codecs.bmp_decode),
    WEBP: (webp_dimensions, codecs.vp8l_decode),
    PSD: (psd_dimensions, codecs.psd_decode),
    ICO: (ico_dimensions, codecs.ico_decode),
}
# media type -> PCM decode returning (samples, rate)
_AUDIO_CODECS = {WAV: codecs.wav_pcm_decode, FLAC: codecs.flac_decode}
# video frame sampling: every FRAME_EVERY-th frame, at most MAX_FRAMES
FRAME_EVERY = 6
MAX_FRAMES = 8


def _sniff(payload: bytes) -> str:
    return sniff_bytes(payload[:2048], payload[-4096:])


def _sniff_filter(batch: pa.Table, family: str) -> pa.Table:
    """The rows of ``batch`` whose sniffed media type is in ``family``
    (e.g. ``"image/"``). It runs BEFORE a decoder, so other documents
    never reach it, and reads bounded windows only (like the sniff
    stage): a multi-MB payload is never copied to Python bytes just to
    read its magic. SVG is image/* but vector — it has no pixel grid and
    is extracted as text by the extraction pipeline instead."""
    prefixes = pc.binary_slice(batch["html"], 0, 2048).to_pylist()
    suffixes = pc.binary_slice(batch["html"], -4096, None).to_pylist()
    keep = [
        bool(p) and (m := sniff_bytes(p, s)).startswith(family) and m != SVG
        for p, s in zip(prefixes, suffixes)
    ]
    return batch.filter(pa.array(keep, pa.bool_()))


def decode_image(payload: bytes) -> tuple[np.ndarray, str]:
    """(pixels HxWx3 uint8, format). Header dims are parsed first, so a
    non-image fails with the typed ``ImageParseError``; a truncated file
    or an unsupported variant (lossy-VP8 WebP, header-only PSD) raises
    ``CodecError``."""
    media = _sniff(payload)
    if media not in _IMAGE_CODECS:
        raise ImageParseError(f"not a supported image: {media}")
    dims, decode = _IMAGE_CODECS[media]
    dims(payload)
    return decode(payload), media


def resize_nearest(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """REAL nearest-neighbor resize (pure numpy index math)."""
    h, w = pixels.shape[:2]
    rows = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    cols = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return pixels[rows][:, cols]


def image_features(pixels: np.ndarray, n_bins: int = 8) -> np.ndarray:
    """REAL feature vector: per-channel means + a grayscale histogram."""
    means = pixels.reshape(-1, pixels.shape[-1]).mean(axis=0)
    gray = pixels.mean(axis=-1)
    hist, _ = np.histogram(gray, bins=n_bins, range=(0, 256))
    hist = hist / max(1, gray.size)
    return np.concatenate([means / 255.0, hist]).astype(np.float32)


class ImageDecodeStage:
    """Per-batch stage: web_pages-shaped batch → decoded image rows
    (url, height, width, format, pixels, shape). Non-image / corrupt rows
    get error columns; nothing raises (§2.8)."""

    def __init__(self, target_size: tuple[int, int] | None = None) -> None:
        self.target_size = target_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, heights, widths, formats = [], [], [], []
        pixel_col, shapes, errors = [], [], []
        for i in range(len(batch)):
            payload = batch["html"][i].as_py()
            url = batch["url"][i].as_py()
            urls.append(url)
            try:
                pixels, media = decode_image(payload or b"")
                if self.target_size is not None:
                    pixels = resize_nearest(pixels, *self.target_size)
                heights.append(pixels.shape[0])
                widths.append(pixels.shape[1])
                formats.append(media)
                pixel_col.append(pixels.reshape(-1))
                shapes.append(list(pixels.shape))
                errors.append(None)
            except Exception as e:  # noqa: BLE001 — poison rows stay rows
                heights.append(None)
                widths.append(None)
                formats.append(None)
                pixel_col.append(None)
                shapes.append(None)
                errors.append(f"{type(e).__name__}: {e}")
        # pixels column built from raw numpy buffers (offsets + one
        # concatenated values array) — never per-pixel Python objects
        lengths = [0 if p is None else p.size for p in pixel_col]
        offsets = np.zeros(len(pixel_col) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = (
            np.concatenate([p for p in pixel_col if p is not None])
            if any(p is not None for p in pixel_col)
            else np.empty(0, dtype=np.uint8)
        )
        mask = pa.array([p is None for p in pixel_col], pa.bool_())
        pixels_arr = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()),
            pa.array(flat, pa.uint8()),
            mask=mask,
        )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "height": pa.array(heights, pa.int32()),
                "width": pa.array(widths, pa.int32()),
                "format": pa.array(formats, pa.string()),
                "pixels": pixels_arr,
                "shape": pa.array(shapes, pa.list_(pa.int32())),
                "error": pa.array(errors, pa.string()),
            }
        )


class ImageFeatureStage:
    """Per-batch stage: decoded image rows → feature vectors
    (list<float32>), ANN-ready."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        # zero-copy per-row views into the list column's flat buffer —
        # no per-pixel as_py() materialization
        col = batch["pixels"].combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False)
        offsets = col.offsets.to_numpy(zero_copy_only=False)
        feats = []
        for i in range(len(batch)):
            if not col[i].is_valid:
                feats.append(None)
                continue
            shape = batch["shape"][i].as_py()
            pixels = flat[offsets[i] : offsets[i + 1]].reshape(shape)
            feats.append(image_features(pixels).tolist())
        return pa.table(
            {
                "url": batch["url"],
                "format": batch["format"],
                "embedding": pa.array(feats, pa.list_(pa.float32())),
                "error": batch["error"],
            }
        )


def image_feature_pipeline(
    web_pages: ray.data.Dataset,
    target_size: tuple[int, int] | None = (32, 32),
) -> ray.data.Dataset:
    """web_pages → image rows only → decode(+resize) → features.

    batch_size is small (32) because decoded pixel rows are fat; the filter
    happens BEFORE decode so non-image documents never reach the decoder."""
    decoder = ImageDecodeStage(target_size)
    featurizer = ImageFeatureStage()

    def _decode(batch: pa.Table) -> pa.Table:
        return decoder(batch)

    def _features(batch: pa.Table) -> pa.Table:
        return featurizer(batch)

    return (
        web_pages.map_batches(
            _sniff_filter, batch_format="pyarrow", fn_kwargs={"family": "image/"}
        )
        .map_batches(_decode, batch_format="pyarrow", batch_size=32)
        .map_batches(_features, batch_format="pyarrow", batch_size=32)
    )




# ---------------------------------------------------------------------------
# Audio: PCM decode + frame sampling
# ---------------------------------------------------------------------------


def decode_audio(payload: bytes) -> np.ndarray:
    """Mono float32 PCM of a RIFF/WAVE integer-PCM or native FLAC
    payload; any other audio codec (MP3, Vorbis) raises ``CodecError``."""
    media = _sniff(payload)
    if media not in _AUDIO_CODECS:
        raise CodecError(f"unsupported audio codec: {media}")
    samples, _rate = _AUDIO_CODECS[media](payload)
    return samples


def frame_sample(
    pcm: np.ndarray, frame_len: int = 400, hop: int = 160
) -> np.ndarray:
    """REAL frame sampling: (n_frames, frame_len) strided windows."""
    if len(pcm) < frame_len:
        return pcm[None, :] if len(pcm) else np.empty((0, frame_len), np.float32)
    n = 1 + (len(pcm) - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n)[:, None]
    return pcm[idx]


class AudioFrameStage:
    """Per-batch stage: binary audio rows → sniffed format + per-row
    frame count + frame energy summary over the decoded PCM. Undecodable
    rows become error rows (§2.8), like ``ImageDecodeStage``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        formats, n_frames, energies, errors = [], [], [], []
        for i in range(len(batch)):
            payload = batch["html"][i].as_py() or b""
            formats.append(_sniff(payload))
            try:
                frames = frame_sample(decode_audio(payload))
                n_frames.append(frames.shape[0])
                energies.append(
                    float(np.square(frames).mean()) if frames.size else 0.0
                )
                errors.append(None)
            except Exception as e:  # noqa: BLE001 — poison rows stay rows
                n_frames.append(None)
                energies.append(None)
                errors.append(f"{type(e).__name__}: {e}")
        return pa.table(
            {
                "url": batch["url"],
                "format": pa.array(formats, pa.string()),
                "n_frames": pa.array(n_frames, pa.int32()),
                "mean_energy": pa.array(energies, pa.float64()),
                "error": pa.array(errors, pa.string()),
            }
        )


def audio_frame_pipeline(web_pages: ray.data.Dataset) -> ray.data.Dataset:
    """web_pages → audio rows only → decode → frame-sample features,
    mirroring ``image_feature_pipeline``: the sniff filter runs BEFORE
    the decoder so non-audio documents never reach it."""
    framer = AudioFrameStage()

    def _frames(batch: pa.Table) -> pa.Table:
        return framer(batch)

    return web_pages.map_batches(
        _sniff_filter, batch_format="pyarrow", fn_kwargs={"family": "audio/"}
    ).map_batches(_frames, batch_format="pyarrow", batch_size=32)


# ---------------------------------------------------------------------------
# Video: sampled frame decode + per-frame features
# ---------------------------------------------------------------------------


def decode_video_frames(payload: bytes) -> np.ndarray:
    """Sampled decoded frames ``(k, H, W, 3)`` of a Motion-JPEG AVI:
    frame chunks are sampled BEFORE decoding, so only the kept frames pay
    the JPEG decode. Any other container (MP4/H.264) raises
    ``CodecError``."""
    media = _sniff(payload)
    if media != AVI:
        raise CodecError(f"unsupported video codec: {media}")
    blobs = codecs.avi_mjpeg_frames(payload)[::FRAME_EVERY][:MAX_FRAMES]
    if not blobs:
        return np.empty((0, 0, 0, 3), np.uint8)
    return np.stack([codecs.jpeg_decode(b) for b in blobs])


class VideoFrameStage:
    """Per-batch stage: binary video rows → sampled-frame count + a
    per-video feature vector (mean of per-frame image features).
    Undecodable rows become error rows (§2.8)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_sampled, feats, errors = [], [], []
        for i in range(len(batch)):
            payload = batch["html"][i].as_py() or b""
            try:
                frames = decode_video_frames(payload)
                n_sampled.append(frames.shape[0])
                if frames.shape[0]:
                    per_frame = np.stack([image_features(f) for f in frames])
                    feats.append(per_frame.mean(axis=0).tolist())
                else:
                    feats.append([0.0] * 11)
                errors.append(None)
            except Exception as e:  # noqa: BLE001 — poison rows stay rows
                n_sampled.append(None)
                feats.append(None)
                errors.append(f"{type(e).__name__}: {e}")
        return pa.table(
            {
                "url": batch["url"],
                "n_frames_sampled": pa.array(n_sampled, pa.int32()),
                "embedding": pa.array(feats, pa.list_(pa.float32())),
                "error": pa.array(errors, pa.string()),
            }
        )


def video_means(batch: pa.Table) -> pa.Table:
    """``VideoFrameStage`` rows → url, sampled-frame count and channel
    means. Error rows are dropped first: their embedding is null, and the
    flat-buffer slices below index the embedding values by list offsets,
    so a null would hand its row another video's values."""
    batch = batch.filter(pc.is_null(batch["error"]))
    emb = batch["embedding"].combine_chunks()
    flat = emb.values.to_numpy(zero_copy_only=False)
    starts = emb.offsets.to_numpy(zero_copy_only=False)[:-1]
    return pa.table(
        {
            "url": batch["url"],
            "n_sampled": batch["n_frames_sampled"],
            "mean_r": pa.array(flat[starts].astype("float64")),
            "mean_g": pa.array(flat[starts + 1].astype("float64")),
            "mean_b": pa.array(flat[starts + 2].astype("float64")),
        }
    )


def video_frame_pipeline(web_pages: ray.data.Dataset) -> ray.data.Dataset:
    """web_pages → video rows only → per-video sampled-frame features.
    batch_size is tiny (8): decoded frame stacks are the fattest rows in
    the engine (multi-MB per video)."""
    sampler = VideoFrameStage()

    def _sampled(batch: pa.Table) -> pa.Table:
        return sampler(batch)

    return web_pages.map_batches(
        _sniff_filter, batch_format="pyarrow", fn_kwargs={"family": "video/"}
    ).map_batches(_sampled, batch_format="pyarrow", batch_size=8)
