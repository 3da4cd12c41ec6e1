"""YCbCr conversion and chroma subsampling tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.colorspace import (
    rgb_to_ycbcr,
    subsample_420,
    upsample_420,
    ycbcr_to_rgb,
)


class TestColorConversion:
    def test_gray_pixel_has_neutral_chroma(self):
        gray = np.full((2, 2, 3), 128, dtype=np.uint8)
        ycc = rgb_to_ycbcr(gray)
        assert np.allclose(ycc[..., 0], 128.0)
        assert np.allclose(ycc[..., 1], 128.0, atol=1e-9)
        assert np.allclose(ycc[..., 2], 128.0, atol=1e-9)

    def test_luma_weights_follow_bt601(self):
        red = np.zeros((1, 1, 3), dtype=np.uint8)
        red[0, 0, 0] = 255
        assert abs(rgb_to_ycbcr(red)[0, 0, 0] - 0.299 * 255) < 1e-6

    def test_round_trip_is_near_lossless(self, rng):
        image = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        back = ycbcr_to_rgb(rgb_to_ycbcr(image))
        assert np.abs(back.astype(int) - image.astype(int)).max() <= 1

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed):
        image = np.random.default_rng(seed).integers(
            0, 256, size=(8, 8, 3), dtype=np.uint8
        )
        back = ycbcr_to_rgb(rgb_to_ycbcr(image))
        assert np.abs(back.astype(int) - image.astype(int)).max() <= 1

    def test_output_dtype_and_range(self, rng):
        ycc = rgb_to_ycbcr(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
        rgb = ycbcr_to_rgb(ycc)
        assert rgb.dtype == np.uint8


class TestSubsampling:
    def test_even_dimensions_pool_2x2_means(self):
        plane = np.array([[0.0, 4.0], [8.0, 4.0]])
        assert subsample_420(plane).item() == 4.0

    def test_odd_dimensions_pad_with_edge(self):
        plane = np.array([[1.0, 2.0, 3.0]])
        pooled = subsample_420(plane)
        assert pooled.shape == (1, 2)
        assert pooled[0, 0] == 1.5  # [[1,2],[1,2]] mean
        assert pooled[0, 1] == 3.0

    def test_upsample_restores_shape(self):
        plane = np.arange(12, dtype=np.float64).reshape(3, 4)
        up = upsample_420(subsample_420(plane), np.empty((3, 4)))
        assert up.shape == (3, 4)
        assert np.array_equal(up, [[2.5, 2.5, 4.5, 4.5], [2.5, 2.5, 4.5, 4.5], [8.5, 8.5, 10.5, 10.5]])

    def test_constant_plane_survives_round_trip_exactly(self):
        plane = np.full((10, 10), 7.0)
        up = upsample_420(subsample_420(plane), np.empty((10, 10)))
        assert np.array_equal(up, plane)

    def test_halves_resolution(self):
        plane = np.zeros((64, 48))
        assert subsample_420(plane).shape == (32, 24)
