"""Window decode: ``decode(data, window)`` is the full decode, sliced."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec import (
    CodecConfig,
    CorruptStreamError,
    ProgressiveCodecConfig,
    ProgressiveJpegCodec,
    ToyJpegCodec,
    truncate_scans,
)

MODES = ("color-420", "color-444", "gray")


def make_image(rng: np.random.Generator, height: int, width: int, mode: str) -> np.ndarray:
    image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    return image[..., 0].copy() if mode == "gray" else image


def codecs(mode: str, quality: int):
    base = CodecConfig(quality=quality, subsample=mode == "color-420")
    return ToyJpegCodec(base), ProgressiveJpegCodec(ProgressiveCodecConfig(base=base))


@st.composite
def windowed_images(draw):
    """(height, width, window) with the window anywhere inside the image."""
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    top = draw(st.integers(0, height - 1))
    left = draw(st.integers(0, width - 1))
    win_h = draw(st.integers(1, height - top))
    win_w = draw(st.integers(1, width - left))
    return height, width, (top, left, win_h, win_w)


class TestWindowIdentity:
    @given(
        case=windowed_images(),
        mode=st.sampled_from(MODES),
        quality=st.integers(1, 100),
        seed=st.integers(0, 2**16),
    )
    @example(case=(17, 33, (0, 0, 17, 33)), mode="color-420", quality=75, seed=0)
    @example(case=(17, 33, (16, 32, 1, 1)), mode="color-420", quality=75, seed=1)
    @example(case=(17, 33, (3, 5, 9, 27)), mode="color-420", quality=95, seed=2)
    @example(case=(16, 16, (8, 8, 8, 8)), mode="color-444", quality=50, seed=3)
    @example(case=(9, 9, (7, 1, 2, 8)), mode="gray", quality=1, seed=4)
    @settings(max_examples=60, deadline=None)
    def test_window_equals_sliced_full_decode(self, case, mode, quality, seed):
        height, width, window = case
        top, left, win_h, win_w = window
        image = make_image(np.random.default_rng(seed), height, width, mode)
        for codec in codecs(mode, quality):
            data = codec.encode(image)
            full = codec.decode(data)
            got = codec.decode(data, window=window)
            assert np.array_equal(got, full[top : top + win_h, left : left + win_w])

    @given(case=windowed_images(), scans=st.integers(1, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_truncated_progressive_window(self, case, scans, seed):
        height, width, window = case
        top, left, win_h, win_w = window
        _, codec = codecs("color-420", 80)
        image = make_image(np.random.default_rng(seed), height, width, "color-420")
        data = truncate_scans(codec.encode(image), scans)
        full = codec.decode(data)
        got = codec.decode(data, window=window)
        assert np.array_equal(got, full[top : top + win_h, left : left + win_w])

    def test_progressive_delegates_baseline_window(self, rng):
        image = make_image(rng, 20, 30, "color-420")
        data = ToyJpegCodec().encode(image)
        full = ToyJpegCodec().decode(data)
        got = ProgressiveJpegCodec().decode(data, window=(3, 4, 10, 11))
        assert np.array_equal(got, full[3:13, 4:15])


class TestWindowValidation:
    @pytest.mark.parametrize(
        "window",
        [(-1, 0, 4, 4), (0, -1, 4, 4), (0, 0, 0, 4), (0, 0, 4, 0), (10, 0, 7, 4), (0, 20, 4, 1)],
    )
    @pytest.mark.parametrize("codec_index", [0, 1])
    def test_rejects_windows_outside_the_image(self, rng, window, codec_index):
        codec = codecs("color-420", 75)[codec_index]
        data = codec.encode(make_image(rng, 16, 20, "color-420"))
        with pytest.raises(ValueError, match="does not fit"):
            codec.decode(data, window=window)

    @pytest.mark.parametrize(
        "window",
        [(0, 0, 2.5, 3), (True, 0, 3, 3), (0, 0, 3, np.float64(3)), (0, 0, 3), "abcd", 4],
    )
    @pytest.mark.parametrize("codec_index", [0, 1])
    def test_rejects_windows_that_are_not_four_integers(self, rng, window, codec_index):
        codec = codecs("color-420", 75)[codec_index]
        data = codec.encode(make_image(rng, 16, 20, "color-420"))
        with pytest.raises(ValueError, match="four integers"):
            codec.decode(data, window=window)

    def test_accepts_numpy_integer_windows(self, rng):
        codec = ToyJpegCodec()
        data = codec.encode(make_image(rng, 16, 20, "color-420"))
        window = tuple(np.int64(v) for v in (1, 2, 3, 4))
        assert np.array_equal(codec.decode(data, window=window), codec.decode(data)[1:4, 2:6])

    def test_window_still_validates_every_plane(self, rng):
        # The window reads one block per plane; a corrupt tail of the Cr
        # payload, whose blocks lie outside it, must still fail the decode.
        codec = ToyJpegCodec()
        data = bytearray(codec.encode(make_image(rng, 32, 32, "color-420")))
        data[-6:] = b"\xff" * 6
        with pytest.raises(CorruptStreamError):
            codec.decode(bytes(data), window=(0, 0, 1, 1))

    def test_window_still_rejects_trailing_bytes(self, rng):
        codec = ToyJpegCodec()
        data = codec.encode(make_image(rng, 16, 16, "gray"))
        with pytest.raises(CorruptStreamError):
            codec.decode(data + b"\x00", window=(0, 0, 8, 8))
