"""Bilinear resize tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocessing.resize import resize_bilinear
from tests.preprocessing.oracles import resize_bilinear_reference


class TestResize:
    def test_identity_when_size_unchanged(self, rng):
        image = rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)
        out = resize_bilinear(image, 10, 12)
        assert np.array_equal(out, image)
        assert out is not image  # a copy, not an alias

    def test_output_shape_color(self, rng):
        image = rng.integers(0, 256, size=(100, 50, 3), dtype=np.uint8)
        assert resize_bilinear(image, 224, 224).shape == (224, 224, 3)

    def test_output_shape_grayscale(self, rng):
        image = rng.integers(0, 256, size=(30, 40), dtype=np.uint8)
        assert resize_bilinear(image, 7, 9).shape == (7, 9)

    def test_constant_image_stays_constant(self):
        image = np.full((13, 17, 3), 99, dtype=np.uint8)
        out = resize_bilinear(image, 224, 224)
        assert (out == 99).all()

    def test_preserves_dtype(self, rng):
        image = rng.integers(0, 256, size=(10, 10, 3), dtype=np.uint8)
        assert resize_bilinear(image, 5, 5).dtype == np.uint8
        imagef = rng.uniform(size=(10, 10)).astype(np.float32)
        assert resize_bilinear(imagef, 5, 5).dtype == np.float32

    def test_upscale_interpolates_between_values(self):
        image = np.array([[0.0, 100.0]])
        out = resize_bilinear(image, 1, 4)
        assert out[0, 0] <= out[0, 1] <= out[0, 2] <= out[0, 3]
        assert out[0, 1] > 0.0 and out[0, 2] < 100.0

    def test_downscale_mean_roughly_preserved(self, rng):
        image = rng.uniform(0, 255, size=(64, 64)).astype(np.float64)
        out = resize_bilinear(image, 16, 16)
        assert abs(out.mean() - image.mean()) < 10.0

    def test_values_stay_in_input_range(self, rng):
        image = rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8)
        out = resize_bilinear(image, 31, 31)
        assert out.min() >= image.min()
        assert out.max() <= image.max()

    def test_rejects_bad_output_size(self, rng):
        image = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            resize_bilinear(image, 0, 5)

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3), (0, 0)])
    def test_rejects_empty_input(self, shape):
        with pytest.raises(ValueError, match="empty"):
            resize_bilinear(np.zeros(shape, np.uint8), 2, 2)

    @given(
        in_h=st.integers(1, 32),
        in_w=st.integers(1, 32),
        out_h=st.integers(1, 48),
        out_w=st.integers(1, 48),
    )
    @settings(max_examples=30, deadline=None)
    def test_shape_property(self, in_h, in_w, out_h, out_w):
        image = np.zeros((in_h, in_w, 3), dtype=np.uint8)
        assert resize_bilinear(image, out_h, out_w).shape == (out_h, out_w, 3)


class TestMatchesReference:
    """The row-gathering resize is value-identical to widening up front."""

    @given(
        in_h=st.integers(1, 40),
        in_w=st.integers(1, 40),
        out_h=st.integers(1, 48),
        out_w=st.integers(1, 48),
        channels=st.sampled_from([None, 3]),
        dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_reference(self, in_h, in_w, out_h, out_w, channels, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (in_h, in_w) if channels is None else (in_h, in_w, channels)
        if dtype is np.uint8:
            image = rng.integers(0, 256, size=shape, dtype=np.uint8)
        else:
            image = rng.normal(0.0, 100.0, size=shape).astype(dtype)
        got = resize_bilinear(image, out_h, out_w)
        want = resize_bilinear_reference(image, out_h, out_w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_equals_reference_on_a_crop_view(self, rng):
        # RandomResizedCrop hands resize a non-contiguous slice.
        image = rng.integers(0, 256, size=(120, 90, 3), dtype=np.uint8)
        region = image[7:100, 13:77]
        assert resize_bilinear(region, 224, 224).tobytes() == (
            resize_bilinear_reference(region, 224, 224).tobytes()
        )
