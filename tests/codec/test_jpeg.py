"""Toy codec end-to-end tests: fidelity, size behaviour, robustness."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import CodecConfig, CorruptStreamError, ToyJpegCodec
from repro.codec.errors import UnsupportedImageError
from repro.data.synthetic import generate_image


def make_codec(**kwargs) -> ToyJpegCodec:
    return ToyJpegCodec(CodecConfig(**kwargs))


class TestRoundTrip:
    def test_color_round_trip_low_error(self, rng):
        image = generate_image(rng, 96, 128, texture=0.3)
        codec = make_codec(quality=90)
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == image.shape
        error = np.abs(decoded.astype(int) - image.astype(int)).mean()
        # Quality 90 with 4:2:0 subsampling: mean error stays within ~10
        # levels on textured content (lossy, but visually faithful).
        assert error < 10.0

    def test_grayscale_round_trip(self, rng):
        image = rng.integers(0, 256, size=(40, 56), dtype=np.uint8)
        codec = make_codec()
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == image.shape
        assert decoded.dtype == np.uint8

    def test_non_multiple_of_8_dimensions(self, rng):
        image = generate_image(rng, 37, 53, texture=0.2)
        codec = make_codec()
        assert codec.decode(codec.encode(image)).shape == (37, 53, 3)

    def test_tiny_image(self):
        image = np.full((1, 1, 3), 200, dtype=np.uint8)
        codec = make_codec()
        decoded = codec.decode(codec.encode(image))
        assert decoded.shape == (1, 1, 3)
        assert abs(int(decoded[0, 0, 0]) - 200) < 20

    @given(
        h=st.integers(min_value=1, max_value=48),
        w=st.integers(min_value=1, max_value=48),
        quality=st.integers(min_value=20, max_value=95),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_round_trip_never_crashes_and_preserves_shape(self, h, w, quality, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        codec = make_codec(quality=quality)
        assert codec.decode(codec.encode(image)).shape == (h, w, 3)

    def test_quality_improves_fidelity(self, rng):
        image = generate_image(rng, 64, 64, texture=0.5)
        err = {}
        for quality in (20, 90):
            codec = make_codec(quality=quality)
            decoded = codec.decode(codec.encode(image))
            err[quality] = np.abs(decoded.astype(int) - image.astype(int)).mean()
        assert err[90] < err[20]


class TestSizeBehaviour:
    """The property SOPHON relies on: size responds to content and quality."""

    def test_smooth_images_compress_better_than_noisy(self, rng):
        smooth = generate_image(rng, 128, 128, texture=0.0)
        noisy = generate_image(rng, 128, 128, texture=1.0)
        codec = make_codec()
        assert len(codec.encode(smooth)) < len(codec.encode(noisy))

    def test_higher_quality_is_bigger(self, rng):
        image = generate_image(rng, 96, 96, texture=0.5)
        assert len(make_codec(quality=90).encode(image)) > len(
            make_codec(quality=30).encode(image)
        )

    def test_subsampling_shrinks_color_images(self, rng):
        image = generate_image(rng, 96, 96, texture=0.5)
        with_sub = len(make_codec(subsample=True).encode(image))
        without = len(make_codec(subsample=False).encode(image))
        assert with_sub < without

    def test_compression_beats_raw_for_natural_content(self, rng):
        image = generate_image(rng, 256, 256, texture=0.4)
        assert len(make_codec().encode(image)) < image.nbytes

    def test_encode_is_deterministic(self, rng):
        image = generate_image(rng, 64, 80, texture=0.6)
        codec = make_codec()
        assert codec.encode(image) == codec.encode(image)


class TestRobustness:
    def test_rejects_truncated_stream(self, rng):
        codec = make_codec()
        data = codec.encode(generate_image(rng, 32, 32, texture=0.2))
        with pytest.raises(CorruptStreamError):
            codec.decode(data[: len(data) // 2])

    def test_rejects_bad_magic(self):
        with pytest.raises(CorruptStreamError):
            make_codec().decode(b"NOPE" + b"\x00" * 60)

    def test_rejects_empty_stream(self):
        with pytest.raises(CorruptStreamError):
            make_codec().decode(b"")

    def test_rejects_corrupt_deflate_payload(self, rng):
        codec = make_codec()
        data = bytearray(codec.encode(generate_image(rng, 32, 32, texture=0.2)))
        data[-10:] = b"\xff" * 10
        with pytest.raises(CorruptStreamError):
            codec.decode(bytes(data))

    def test_rejects_plane_count_flag_mismatch(self, rng):
        # Regression: a color stream whose header claims one plane used to
        # slip past header validation and fail deep in plane decoding.
        import struct

        header = struct.Struct("<4sBBBIIB")
        data = make_codec().encode(generate_image(rng, 16, 16, texture=0.2))
        fields = list(header.unpack_from(data))
        fields[6] = 1  # num_planes
        with pytest.raises(CorruptStreamError):
            make_codec().decode(header.pack(*fields) + data[header.size :])

    def test_rejects_grayscale_flag_with_three_planes(self, rng):
        import struct

        header = struct.Struct("<4sBBBIIB")
        data = make_codec().encode(generate_image(rng, 16, 16, texture=0.2))
        fields = list(header.unpack_from(data))
        fields[2] |= 0x02  # grayscale flag on a 3-plane stream
        with pytest.raises(CorruptStreamError):
            make_codec().decode(header.pack(*fields) + data[header.size :])

    def test_rejects_plane_dimension_mismatch(self, rng):
        # Regression: plane headers disagreeing with the image header must
        # be rejected, not silently reshaped.
        import struct

        header = struct.Struct("<4sBBBIIB")
        data = make_codec().encode(generate_image(rng, 16, 16, texture=0.2))
        patched = bytearray(data)
        # First plane header immediately follows the stream header.
        struct.pack_into("<I", patched, header.size, 999)
        with pytest.raises(CorruptStreamError):
            make_codec().decode(bytes(patched))

    def test_rejects_trailing_garbage(self, rng):
        data = make_codec().encode(generate_image(rng, 16, 16, texture=0.2))
        with pytest.raises(CorruptStreamError):
            make_codec().decode(data + b"\x00")

    def test_rejects_deflate_bomb_without_inflating_it(self):
        # Regression: a grayscale 8x8 stream (one block, 128 coefficient
        # bytes) whose plane inflates to 128 MiB used to be inflated in
        # full before the block count rejected it.
        packer = zlib.compressobj(9)
        chunk = bytes(1 << 20)
        bomb = b"".join(packer.compress(chunk) for _ in range(128)) + packer.flush()
        header = struct.pack("<4sBBBIIB", b"TJPG", 1, 0x02, 75, 8, 8, 1)
        data = header + struct.pack("<III", 8, 8, len(bomb)) + bomb
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                make_codec().decode(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((4, 4, 3), dtype=np.float32),
            np.zeros((4, 4, 4), dtype=np.uint8),
            np.zeros((4,), dtype=np.uint8),
            "not an array",
        ],
    )
    def test_rejects_unsupported_inputs(self, bad):
        with pytest.raises(UnsupportedImageError):
            make_codec().encode(bad)

    def test_rejects_empty_image(self):
        with pytest.raises(UnsupportedImageError):
            make_codec().encode(np.zeros((0, 4, 3), dtype=np.uint8))

    @pytest.mark.parametrize("quality", [0, 101])
    def test_config_validates_quality(self, quality):
        with pytest.raises(ValueError):
            CodecConfig(quality=quality)

    def test_config_validates_zlib_level(self):
        with pytest.raises(ValueError):
            CodecConfig(zlib_level=10)
