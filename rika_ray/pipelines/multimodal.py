"""Multimodal column plumbing (task brief "Multimodal columns" block).

Images/audio/video ride through the engine as opaque ``large_binary``
columns with typed metadata. The Ray-side plumbing — schemas, per-batch
stage signatures, small batch sizes for fat binary rows, output layout —
AND the codec step are real (``rika_ray.stages.codecs``, pure
Python/numpy from the public format specs); only the entropy codings
with no tractable pure-Python decode (MP3/Vorbis audio, H.264-family
video) keep a clearly-marked deterministic stub:

- header parsing (dimensions, format) is REAL (rika_ray.stages.image_meta);
- pixel/PCM decode is REAL for every raster format — PNG (stdlib zlib +
  unfilter), baseline JPEG (pure-numpy Huffman + IDCT), GIF (LZW),
  baseline TIFF (raw/PackBits strips), lossless WebP (VP8L prefix codes
  + LZ77), PSD composites (raw/PackBits planes), ICO (BMP-DIB and PNG
  entries), uncompressed BMP — and for RIFF/WAVE PCM and native FLAC
  (Rice + fixed/LPC predictors) (``rika_ray.stages.codecs``); only
  MP3/Vorbis audio uses a clearly-marked deterministic fake (or PIL /
  a real audio lib when importable);
- video frame decode is REAL for Motion-JPEG AVI (frames sampled
  BEFORE decoding); other containers (MP4/H.264) use the stub;
- resize / feature-extract / frame-sample are REAL numpy math over the
  decoded arrays (they work identically on stub or real frames).

Scale notes: each decode stage is built once where the plan is made and
runs as plain tasks (no standing actor reservation, so the pipelines run
on any cluster down to one CPU), with ``batch_size`` sized for multi-MB
payloads; decoded pixels are emitted as fixed-shape ``large_list<uint8>``
+ shape columns so Arrow keeps them off the Python heap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from rika_ray.stages.image_meta import (
    ImageParseError,
    gif_dimensions,
    jpeg_dimensions,
    png_dimensions,
)
from rika_ray.stages.sniff import sniff_bytes

try:  # real decoder if present (not in this container)
    from PIL import Image as _PIL_Image  # noqa: F401

    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False


def decode_image(payload: bytes) -> tuple[np.ndarray, str]:
    """(pixels HxWx3 uint8, format). Header dims are parsed first, so a
    non-image fails with the typed error; then every supported raster
    format is decoded for real (PIL when importable, else the pure-numpy
    codecs of ``rika_ray.stages.codecs``)."""
    from rika_ray.stages.image_meta import (
        bmp_dimensions,
        ico_dimensions,
        psd_dimensions,
        tiff_dimensions,
        webp_dimensions,
    )

    media = sniff_bytes(payload[:2048], payload[-4096:])
    dims = {
        "image/jpeg": jpeg_dimensions,
        "image/png": png_dimensions,
        "image/gif": gif_dimensions,
        "image/tiff": tiff_dimensions,
        "image/bmp": bmp_dimensions,
        "image/webp": webp_dimensions,
        "image/vnd.adobe.photoshop": psd_dimensions,
        "image/vnd.microsoft.icon": ico_dimensions,
    }.get(media)
    if dims is None:
        raise ImageParseError(f"not a supported image: {media}")
    w, h = dims(payload)
    if HAVE_PIL:  # pragma: no cover - not available in this container
        import io

        img = _PIL_Image.open(io.BytesIO(payload)).convert("RGB")
        return np.asarray(img, dtype=np.uint8), media
    # REAL pure-numpy decode for EVERY supported raster format
    # (rika_ray.stages.codecs). A CodecError from a truncated or
    # unsupported-variant file (e.g. lossy-VP8 WebP, header-only PSD)
    # propagates — ImageDecodeStage turns it into an error row (§2.8),
    # exactly like a real codec library would.
    from rika_ray.stages import codecs

    real = {
        "image/png": codecs.png_decode,
        "image/bmp": codecs.bmp_decode,
        "image/jpeg": codecs.jpeg_decode,
        "image/gif": codecs.gif_decode,
        "image/tiff": codecs.tiff_decode,
        "image/webp": codecs.vp8l_decode,
        "image/vnd.adobe.photoshop": codecs.psd_decode,
        "image/vnd.microsoft.icon": codecs.ico_decode,
    }[media]
    _ = (w, h)  # dims pre-parse keeps the typed not-an-image error first
    return real(payload), media


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

    def _only_images(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # bounded windows only (like the sniff stage) — never materialize
        # a multi-MB payload to Python bytes just to read its magic
        prefixes = pc.binary_slice(batch["html"], 0, 2048).to_pylist()
        suffixes = pc.binary_slice(batch["html"], -4096, None).to_pylist()
        # raster types only: SVG is image/* but vector — it has no pixel
        # grid to decode/resize and is extracted as text by the extraction
        # pipeline instead
        keep = [
            bool(p)
            and (m := sniff_bytes(p, s)).startswith("image/")
            and m != "image/svg+xml"
            for p, s in zip(prefixes, suffixes)
        ]
        return batch.filter(pa.array(keep, pa.bool_()))

    return (
        web_pages.map_batches(_only_images, batch_format="pyarrow")
        .map_batches(_decode, batch_format="pyarrow", batch_size=32)
        .map_batches(_features, batch_format="pyarrow", batch_size=32)
    )


# ---------------------------------------------------------------------------
# Audio: stubbed decode + REAL frame sampling
# ---------------------------------------------------------------------------


def decode_audio_stub(payload: bytes, sample_rate: int = 16000) -> np.ndarray:
    """Deterministic FAKE PCM decode (1 s of hash-seeded float32 samples).
    Replace with soundfile/librosa when available."""
    seed = int(pd.util.hash_array(np.asarray([payload], dtype=object))[0]) & 0x7FFFFFFF
    rng = np.random.RandomState(seed)
    return rng.standard_normal(sample_rate).astype(np.float32)


def decode_audio(payload: bytes) -> np.ndarray:
    """Mono float32 PCM: REAL decode for RIFF/WAVE integer PCM and for
    native FLAC (pure Python/numpy Rice + fixed/LPC predictors,
    ``rika_ray.stages.codecs``); the deterministic stub covers the
    codecs the container has no decoder for (MP3/Vorbis)."""
    from rika_ray.stages import codecs

    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        samples, _rate = codecs.wav_pcm_decode(payload)
        return samples
    if payload[:4] == b"fLaC":
        samples, _rate = codecs.flac_decode(payload)
        return samples
    return decode_audio_stub(payload)


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
    frame count + frame energy summary (REAL math over the decoded PCM —
    real decode for WAV/FLAC, stub for MP3/Vorbis). Corrupt rows become
    error rows (§2.8), like ``ImageDecodeStage``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        formats, n_frames, energies, errors = [], [], [], []
        for i in range(len(batch)):
            payload = batch["html"][i].as_py() or b""
            formats.append(sniff_bytes(payload[:2048], payload[-4096:]))
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

    def _only_audio(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        prefixes = pc.binary_slice(batch["html"], 0, 2048).to_pylist()
        suffixes = pc.binary_slice(batch["html"], -4096, None).to_pylist()
        keep = [
            bool(p) and sniff_bytes(p, s).startswith("audio/")
            for p, s in zip(prefixes, suffixes)
        ]
        return batch.filter(pa.array(keep, pa.bool_()))

    return web_pages.map_batches(_only_audio, batch_format="pyarrow").map_batches(
        _frames, batch_format="pyarrow", batch_size=32
    )


# ---------------------------------------------------------------------------
# Video: stubbed frame decode + REAL frame sampling / per-frame features
# ---------------------------------------------------------------------------


def decode_video_stub(
    payload: bytes, n_frames: int = 24, height: int = 36, width: int = 64
) -> np.ndarray:
    """Deterministic FAKE video decode: (n_frames, H, W, 3) uint8 frames
    seeded from the payload hash — stands in for the codec only (PyAV /
    ffmpeg not in this container); shape/dtype/layout match a real
    decode."""
    seed = (
        int(
            pd.util.hash_array(
                np.asarray([payload], dtype=object), categorize=False
            )[0]
        )
        & 0x7FFFFFFF
    )
    rng = np.random.RandomState(seed)
    return rng.randint(
        0, 256, size=(n_frames, height, width, 3), dtype=np.uint8
    )


def sample_frames(
    frames: np.ndarray, every: int = 6, max_frames: int = 8
) -> np.ndarray:
    """REAL frame sampling: every ``every``-th frame, capped — the
    standard keyframe-ish subsampling for video feature extraction."""
    return frames[::every][:max_frames]


def decode_video_frames(
    payload: bytes, every: int = 6, max_frames: int = 8
) -> np.ndarray:
    """Sampled decoded frames ``(k, H, W, 3)``. REAL decode for
    Motion-JPEG AVI — frame chunks are sampled BEFORE decoding so only
    the kept frames pay the JPEG decode (``rika_ray.stages.codecs``);
    other containers (MP4/H.264 etc.) fall back to the deterministic
    stub, sampled identically."""
    if payload[:4] == b"RIFF" and payload[8:12] == b"AVI ":
        from rika_ray.stages.codecs import avi_mjpeg_frames, jpeg_decode

        blobs = avi_mjpeg_frames(payload)[::every][:max_frames]
        if not blobs:
            return np.empty((0, 0, 0, 3), np.uint8)
        return np.stack([jpeg_decode(b) for b in blobs])
    return sample_frames(decode_video_stub(payload), every, max_frames)


class VideoFrameStage:
    """Per-batch stage: binary video rows → sampled-frame count + a
    per-video feature vector (mean of per-frame image features — REAL
    numpy math; REAL frames for MJPEG AVI, stub frames elsewhere).
    Corrupt rows become error rows (§2.8)."""

    def __init__(self, every: int = 6, max_frames: int = 8) -> None:
        self.every = every
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_sampled, feats, errors = [], [], []
        for i in range(len(batch)):
            payload = batch["html"][i].as_py() or b""
            try:
                frames = decode_video_frames(
                    payload, self.every, self.max_frames
                )
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
    import pyarrow.compute as pc

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


def video_frame_pipeline(
    web_pages: ray.data.Dataset,
    every: int = 6,
    max_frames: int = 8,
    only_video: bool = True,
) -> ray.data.Dataset:
    """web_pages → per-video sampled-frame features. batch_size is tiny
    (8): decoded frame stacks are the fattest rows in the engine
    (~166 KB/video at stub size, multi-MB real). ``only_video`` sniffs
    video/* BEFORE the decoder (like the image/audio pipelines); pass
    False to force arbitrary payloads through the stub path."""
    sampler = VideoFrameStage(every, max_frames)

    def _sampled(batch: pa.Table) -> pa.Table:
        return sampler(batch)

    if only_video:
        def _only_video(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            prefixes = pc.binary_slice(batch["html"], 0, 2048).to_pylist()
            suffixes = pc.binary_slice(batch["html"], -4096, None).to_pylist()
            keep = [
                bool(p) and sniff_bytes(p, s).startswith("video/")
                for p, s in zip(prefixes, suffixes)
            ]
            return batch.filter(pa.array(keep, pa.bool_()))

        web_pages = web_pages.map_batches(_only_video, batch_format="pyarrow")
    return web_pages.map_batches(_sampled, batch_format="pyarrow", batch_size=8)
