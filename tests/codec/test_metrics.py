"""Codec fidelity metric tests + quality/rate behaviour of the codec."""

import math

import numpy as np
import pytest

from repro.codec import CodecConfig, ToyJpegCodec
from repro.codec.metrics import mse, psnr
from repro.data.synthetic import generate_image


class TestMetrics:
    def test_mse_zero_for_identical(self, rng):
        image = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        assert mse(image, image) == 0.0
        assert psnr(image, image) == math.inf

    def test_mse_known_value(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.full((2, 2), 2, dtype=np.uint8)
        assert mse(a, b) == 4.0

    def test_psnr_known_value(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 255, dtype=np.uint8)
        assert psnr(a, b) == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestRateDistortion:
    """The codec must trade rate for distortion monotonically."""

    @pytest.fixture(scope="class")
    def image(self):
        return generate_image(np.random.default_rng(5), 128, 160, texture=0.5)

    def test_psnr_increases_with_quality(self, image):
        values = []
        for quality in (20, 50, 80, 95):
            codec = ToyJpegCodec(CodecConfig(quality=quality))
            values.append(psnr(image, codec.decode(codec.encode(image))))
        assert values == sorted(values)
        # Textured content with 4:2:0 subsampling: ~25 dB at quality 95.
        assert values[-1] > 24.0

    def test_ratio_decreases_with_quality(self, image):
        ratios = []
        for quality in (20, 50, 80, 95):
            codec = ToyJpegCodec(CodecConfig(quality=quality))
            ratios.append(image.nbytes / len(codec.encode(image)))
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] > 4.0  # strong compression at low quality
