"""Decode contract of the multimodal image path: every codec returns
pixels of the header's H×W×3 shape, dtype uint8, C-contiguous, and the
downstream feature vector has one fixed schema.
"""

from __future__ import annotations

import numpy as np
import pytest

from rika_ray import docgen
from rika_ray.pipelines import multimodal as mm


@pytest.mark.parametrize(
    "payload,h,w",
    [
        # all three exercise REAL pure-numpy codec paths (round 5: JPEG
        # and GIF joined PNG/BMP/TIFF in rika_ray.stages.codecs)
        (docgen.build_jpeg_rgb(docgen.gradient_pixels(32, 48)), 32, 48),
        (
            docgen.build_png_rgb(
                docgen.gradient_pixels(48, 64), filters=[2] * 48
            ),
            48,
            64,
        ),
        (
            docgen.build_gif_rgb(
                (docgen.gradient_pixels(16, 32) // 32) * 32
            ),
            16,
            32,
        ),
    ],
)
def test_decode_contract_shape_dtype_layout(payload, h, w):
    """The contract every decoder implementation must meet."""
    pixels, fmt = mm.decode_image(payload)
    assert pixels.shape == (h, w, 3)
    assert pixels.dtype == np.uint8
    assert pixels.flags["C_CONTIGUOUS"]
    feats = mm.image_features(pixels)
    assert feats.shape == (3 + 8,) and feats.dtype == np.float32
    small = mm.resize_nearest(pixels, 8, 8)
    assert small.shape == (8, 8, 3) and small.dtype == np.uint8


def test_no_image_stub_remains():
    # every raster format has a REAL decoder now; a pixel-less VP8X-only
    # WebP is refused typed, and a lossless WebP decodes bit-exact
    from rika_ray.stages.codecs import CodecError

    with pytest.raises(CodecError):
        mm.decode_image(docgen.build_webp(20, 10))
    src = docgen.gradient_pixels(10, 20, seed=2)
    pixels, media = mm.decode_image(docgen.build_webp_lossless(src))
    assert media == "image/webp"
    assert np.array_equal(pixels, src)
