"""Multimodal tests: header parse + decode + resize/feature math, error
rows for codecs the engine does not decode, Ray pipeline layout."""

from __future__ import annotations

import numpy as np
import pytest

from rika_ray import docgen
from rika_ray.pipelines.multimodal import (
    AudioFrameStage,
    ImageDecodeStage,
    VideoFrameStage,
    decode_image,
    frame_sample,
    image_feature_pipeline,
    image_features,
    resize_nearest,
)


def test_decode_image_jpeg_real_pixels():
    src = docgen.gradient_pixels(48, 72, seed=8)
    jpeg = docgen.build_jpeg_rgb(src, quality=95)
    pixels, media = decode_image(jpeg)
    assert media == "image/jpeg"
    assert pixels.shape == (48, 72, 3) and pixels.dtype == np.uint8
    # REAL decode: close to the source within quantization error
    assert np.abs(pixels.astype(int) - src.astype(int)).mean() < 8.0
    # and deterministic
    pixels2, _ = decode_image(jpeg)
    assert (pixels == pixels2).all()
    # header-only JPEG (no scan data) is refused, not faked
    from rika_ray.stages.codecs import CodecError

    with pytest.raises(CodecError):
        decode_image(docgen.build_jpeg(72, 48))


def test_decode_rejects_non_image():
    with pytest.raises(Exception):
        decode_image(b"plain text, not an image")


def test_resize_nearest_shapes():
    px = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    out = resize_nearest(px, 2, 3)
    assert out.shape == (2, 3, 3)
    assert (resize_nearest(px, 8, 12)[0, 0] == px[0, 0]).all()


def test_image_features_shape_and_range():
    px = np.zeros((8, 8, 3), dtype=np.uint8)
    f = image_features(px)
    assert f.shape == (11,) and f.dtype == np.float32
    assert f[:3].max() == 0.0  # all-black means
    assert abs(f[3] - 1.0) < 1e-6  # all mass in first histogram bin


def test_frame_sampling():
    pcm = np.arange(1000, dtype=np.float32)
    frames = frame_sample(pcm, frame_len=400, hop=160)
    assert frames.shape == (4, 400)
    assert frames[1, 0] == 160.0
    assert frame_sample(np.empty(0, np.float32)).shape == (0, 400)


def test_image_pipeline_over_corpus(ray_session, corpus_dir):
    import ray.data

    web_pages = ray.data.read_parquet(f"{corpus_dir}/web_pages.parquet")
    out = image_feature_pipeline(web_pages, target_size=(16, 16)).take_all()
    # corpus: jpeg (x2 urls), jpeg-exif, png, gif, tiff, bmp, webp, psd,
    # ico, psd-pixels (x2), ico-pixels, webp-pixels + the scaled
    # png/bmp/gif/tiff/jpeg -grad oracle families (5 × 3 at n=3)
    assert len(out) == 29
    errs = [r for r in out if r["error"] is not None]
    # the header-only psd/ico stubs and the VP8X-only (lossy-path) webp
    # fixture carry no decodable pixels: the REAL codecs refuse them
    # typed instead of faking pixels
    assert sorted(e["url"].rsplit("/", 2)[-2] for e in errs) == [
        "ico", "psd", "webp",
    ]
    for r in out:
        if r["error"] is None:
            assert len(r["embedding"]) == 11


def test_decode_stage_poison_rows(ray_session):
    import pyarrow as pa

    batch = pa.table(
        {
            "url": ["u1", "u2", "u3"],
            "html": pa.array(
                [
                    docgen.build_png_rgb(docgen.gradient_pixels(4, 4)),
                    b"\x89PNG\r\n\x1a\nGARBAGE",
                    # header-only PNG: dims parse but there is no pixel
                    # data — the REAL decoder correctly refuses it
                    docgen.build_png(4, 4),
                ],
                pa.large_binary(),
            ),
        }
    )
    out = ImageDecodeStage()(batch)
    rows = out.to_pylist()
    assert rows[0]["error"] is None and rows[0]["height"] == 4
    assert rows[1]["error"] is not None and rows[1]["pixels"] is None
    assert rows[2]["error"] is not None and "IDAT" in rows[2]["error"]


def test_audio_stage_batch():
    import pyarrow as pa

    wav = docgen.build_wav(16000, 1, 16, samples=docgen.tone_samples(16000, 16000))
    batch = pa.table(
        {"url": ["a", "b"], "html": pa.array([wav, b"fakeaudio"], pa.large_binary())}
    )
    out = AudioFrameStage()(batch).to_pylist()
    assert out[0]["error"] is None
    assert out[0]["n_frames"] == 98  # 1 s at 16 kHz: 400-sample frames, hop 160
    assert out[0]["mean_energy"] > 0
    # bytes no codec decodes are an error row, not made-up PCM
    assert out[1]["error"].startswith("CodecError: unsupported audio codec")
    assert out[1]["n_frames"] is None and out[1]["mean_energy"] is None


def test_video_frame_sampling_math():
    """Every 6th frame is decoded, at most 8: a 60-frame clip keeps
    frames 0, 6, ..., 42."""
    from rika_ray.pipelines.multimodal import decode_video_frames
    from rika_ray.stages.codecs import avi_mjpeg_frames, jpeg_decode

    src = np.stack([docgen.gradient_pixels(8, 8, seed=i) for i in range(60)])
    avi = docgen.build_avi_mjpeg(src)
    sampled = decode_video_frames(avi)
    assert sampled.shape == (8, 8, 8, 3) and sampled.dtype == np.uint8
    blobs = avi_mjpeg_frames(avi)
    assert (sampled[1] == jpeg_decode(blobs[6])).all()
    assert (sampled[7] == jpeg_decode(blobs[42])).all()


def test_video_stage_batch():
    import pyarrow as pa

    avi = docgen.build_avi_mjpeg(
        np.stack([docgen.gradient_pixels(8, 8, seed=i) for i in range(24)])
    )
    tbl = pa.table(
        {
            "url": pa.array(["v://avi", "v://mp4", "v://bytes"], pa.string()),
            "html": pa.array(
                [avi, docgen.build_mp4(), b"videobytes"], pa.large_binary()
            ),
        }
    )
    avi_row, mp4_row, bytes_row = VideoFrameStage()(tbl).to_pylist()
    assert avi_row["error"] is None and avi_row["n_frames_sampled"] == 4  # 24/6
    assert len(avi_row["embedding"]) == 11  # 3 channel means + 8 hist bins
    assert mp4_row["error"] == "CodecError: unsupported video codec: video/mp4"
    for r in (mp4_row, bytes_row):
        assert r["error"].startswith("CodecError")
        assert r["n_frames_sampled"] is None and r["embedding"] is None


def test_video_means_skips_error_rows():
    """An error row's null embedding must not shift the channel means of
    the rows after it (the means are sliced from the flat value buffer)."""
    import pyarrow as pa

    from rika_ray.pipelines.multimodal import video_means

    hist = [0.0] * 8
    batch = pa.table(
        {
            "url": ["v://a", "v://bad", "v://c", "v://bad-last"],
            "n_frames_sampled": pa.array([4, None, 2, None], pa.int32()),
            "embedding": pa.array(
                [[1.0, 2.0, 3.0] + hist, None, [4.0, 5.0, 6.0] + hist, None],
                pa.list_(pa.float32()),
            ),
            "error": pa.array(
                [None, "CodecError: bad", None, "CodecError: bad"], pa.string()
            ),
        }
    )
    assert video_means(batch).to_pylist() == [
        {"url": "v://a", "n_sampled": 4, "mean_r": 1.0, "mean_g": 2.0, "mean_b": 3.0},
        {"url": "v://c", "n_sampled": 2, "mean_r": 4.0, "mean_g": 5.0, "mean_b": 6.0},
    ]


def test_audio_frame_pipeline_real_decodes(ray_session, tmp_path):
    """End-to-end audio pipeline over a corpus slice: wav + flac rows are
    decoded (format-tagged, no error); an MP3 row, which no codec here
    decodes, is a typed error row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rika_ray import docgen
    from rika_ray.pipelines.extraction import read_web_pages
    from rika_ray.pipelines.multimodal import audio_frame_pipeline, frame_sample
    from rika_ray.stages.codecs import flac_decode

    pcm = docgen.tone_samples(12000, 8000, 2, seed=4)
    flac = docgen.build_flac_pcm(pcm, 8000, stereo_mode="mid-side")
    wav = docgen.build_wav(8000, 2, 16, samples=pcm)
    rows = {
        "url": ["f", "w", "m", "h"],
        "warc_ts": [None] * 4,
        "html": pa.array(
            [flac, wav, docgen.build_mp3(title="t"), b"<html>x</html>"],
            pa.large_binary(),
        ),
        "text": [None] * 4,
        "lang": [None] * 4,
    }
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table(rows), path)
    out = {r["url"]: r for r in
           audio_frame_pipeline(read_web_pages(path)).take_all()}
    assert set(out) == {"f", "w", "m"}  # the html row never enters the pool
    assert out["m"]["format"] == "audio/mpeg"
    assert out["m"]["error"] == "CodecError: unsupported audio codec: audio/mpeg"
    assert out["m"]["n_frames"] is None and out["m"]["mean_energy"] is None
    assert out["f"]["format"] == "audio/x-flac"
    assert out["w"]["format"] == "audio/vnd.wave"
    assert out["f"]["error"] is None and out["w"]["error"] is None
    # identical PCM through either container -> identical features
    assert out["f"]["n_frames"] == out["w"]["n_frames"]
    assert out["f"]["mean_energy"] == out["w"]["mean_energy"]
    expected_frames = frame_sample(flac_decode(flac)[0]).shape[0]
    assert out["f"]["n_frames"] == expected_frames


def test_video_pipeline_real_avi(ray_session, tmp_path):
    """End-to-end video pipeline: an MJPEG AVI decodes REAL frames
    (sampled before decode), an MP4 is a typed error row, a non-video row
    never enters the pool."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rika_ray import docgen
    from rika_ray.pipelines.extraction import read_web_pages
    from rika_ray.pipelines.multimodal import (
        decode_video_frames,
        image_features,
        video_frame_pipeline,
    )

    frames = np.stack(
        [docgen.gradient_pixels(24, 32, seed=300 + i) for i in range(12)]
    )
    avi = docgen.build_avi_mjpeg(frames, fps=6)
    rows = {
        "url": ["v", "m", "t"],
        "warc_ts": [None] * 3,
        "html": pa.array(
            [avi, docgen.build_mp4(), b"plain text"], pa.large_binary()
        ),
        "text": [None] * 3,
        "lang": [None] * 3,
    }
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table(rows), path)
    out = {r["url"]: r for r in video_frame_pipeline(read_web_pages(path)).take_all()}
    assert set(out) == {"v", "m"}
    assert out["m"]["error"].startswith("CodecError: unsupported video codec")
    assert out["m"]["embedding"] is None
    r = out["v"]
    assert r["error"] is None and r["n_frames_sampled"] == 2  # 12/6
    ref = np.stack(
        [image_features(f) for f in decode_video_frames(avi)]
    ).mean(axis=0)
    assert np.allclose(r["embedding"], ref, atol=1e-6)
