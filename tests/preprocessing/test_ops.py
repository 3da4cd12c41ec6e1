"""Individual preprocessing op tests: real path vs simulated path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import ToyJpegCodec
from repro.data.synthetic import generate_image
from repro.preprocessing.ops import (
    Decode,
    Normalize,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
)
from repro.preprocessing.payload import Payload, PayloadKind, StageMeta

from tests.preprocessing.oracles import normalize_reference, to_tensor_reference


@pytest.fixture
def image_payload(rng):
    return Payload.image(generate_image(rng, 60, 80, texture=0.4))


@pytest.fixture
def encoded_payload(rng):
    image = generate_image(rng, 60, 80, texture=0.4)
    return Payload.encoded(ToyJpegCodec().encode(image), height=60, width=80)


class TestDecode:
    def test_produces_uint8_image_of_recorded_dims(self, encoded_payload):
        out = Decode().apply(encoded_payload, {})
        assert out.kind is PayloadKind.IMAGE_U8
        assert out.data.shape == (60, 80, 3)

    def test_simulate_matches_apply_size(self, encoded_payload):
        op = Decode()
        real = op.apply(encoded_payload, {})
        sim = op.simulate(encoded_payload.meta, {})
        assert sim.nbytes == real.nbytes

    def test_rejects_wrong_input_kind(self, image_payload):
        with pytest.raises(TypeError):
            Decode().apply(image_payload, {})

    def test_grayscale_promoted_to_three_channels(self, rng):
        gray = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        payload = Payload.encoded(ToyJpegCodec().encode(gray), height=24, width=24)
        out = Decode().apply(payload, {})
        assert out.data.shape == (24, 24, 3)

    def test_cost_charged_on_output_pixels(self):
        op = Decode()
        in_meta = StageMeta.for_encoded(1000, 60, 80)
        out_meta = StageMeta.for_image(60, 80)
        assert op.work_pixels(in_meta, out_meta, {}) == (0, 60 * 80)


class TestRandomResizedCrop:
    def test_output_always_target_size(self, image_payload, rng):
        op = RandomResizedCrop(size=32)
        params = op.draw_params(rng, image_payload.meta)
        out = op.apply(image_payload, params)
        assert out.data.shape == (32, 32, 3)

    def test_params_always_within_image(self, rng):
        op = RandomResizedCrop(size=16)
        meta = StageMeta.for_image(40, 30)
        for _ in range(200):
            params = op.draw_params(rng, meta)
            assert 0 <= params["top"] <= 40 - params["crop_h"]
            assert 0 <= params["left"] <= 30 - params["crop_w"]
            assert params["crop_h"] >= 1 and params["crop_w"] >= 1

    def test_crop_areas_span_scale_range(self, rng):
        op = RandomResizedCrop(size=16, scale=(0.08, 1.0))
        meta = StageMeta.for_image(100, 100)
        fractions = []
        for _ in range(300):
            params = op.draw_params(rng, meta)
            fractions.append(params["crop_h"] * params["crop_w"] / 10_000)
        assert min(fractions) < 0.3
        assert max(fractions) > 0.6

    def test_tiny_image_uses_fallback(self, rng):
        op = RandomResizedCrop(size=224)
        meta = StageMeta.for_image(2, 2)
        params = op.draw_params(rng, meta)
        assert params["crop_h"] >= 1 and params["crop_w"] >= 1

    def test_extreme_aspect_fallback_respects_ratio_bounds(self, rng):
        op = RandomResizedCrop(size=16, scale=(0.99, 1.0))
        meta = StageMeta.for_image(10, 1000)  # aspect 100, far above 4/3
        params = {"crop_h": 0, "crop_w": 0}
        # Force fallback by exhausting attempts: wide aspect rejects most draws.
        for _ in range(20):
            params = op.draw_params(rng, meta)
        assert params["crop_w"] <= 1000 and params["crop_h"] <= 10

    def test_simulate_size_is_target(self, rng):
        op = RandomResizedCrop(size=224)
        meta = StageMeta.for_image(480, 640)
        params = op.draw_params(rng, meta)
        assert op.simulate(meta, params).nbytes == 224 * 224 * 3

    def test_upscales_small_images(self, rng):
        small = Payload.image(np.full((8, 8, 3), 50, dtype=np.uint8))
        op = RandomResizedCrop(size=64)
        params = op.draw_params(rng, small.meta)
        assert op.apply(small, params).data.shape == (64, 64, 3)

    @pytest.mark.parametrize("kwargs", [
        {"size": 0},
        {"scale": (0.0, 1.0)},
        {"scale": (0.9, 0.1)},
        {"ratio": (2.0, 1.0)},
    ])
    def test_validates_constructor_args(self, kwargs):
        with pytest.raises(ValueError):
            RandomResizedCrop(**kwargs)


class TestRandomHorizontalFlip:
    def test_flip_reverses_columns(self, image_payload):
        op = RandomHorizontalFlip()
        flipped = op.apply(image_payload, {"flip": True})
        assert np.array_equal(flipped.data, image_payload.data[:, ::-1])

    def test_no_flip_passthrough(self, image_payload):
        op = RandomHorizontalFlip()
        out = op.apply(image_payload, {"flip": False})
        assert np.array_equal(out.data, image_payload.data)

    def test_flip_probability_roughly_respected(self, rng):
        op = RandomHorizontalFlip(p=0.25)
        meta = StageMeta.for_image(4, 4)
        flips = sum(op.draw_params(rng, meta)["flip"] for _ in range(2000))
        assert 400 < flips < 600

    def test_p_zero_never_flips(self, rng):
        op = RandomHorizontalFlip(p=0.0)
        meta = StageMeta.for_image(4, 4)
        assert not any(op.draw_params(rng, meta)["flip"] for _ in range(50))

    def test_size_unchanged(self, image_payload):
        op = RandomHorizontalFlip()
        assert op.simulate(image_payload.meta, {"flip": True}).nbytes == image_payload.nbytes

    def test_validates_probability(self):
        with pytest.raises(ValueError):
            RandomHorizontalFlip(p=1.5)

    def test_no_flip_costs_nothing(self):
        op = RandomHorizontalFlip()
        meta = StageMeta.for_image(10, 10)
        assert op.work_pixels(meta, meta, {"flip": False}) == (0, 0)


class TestToTensor:
    def test_scales_to_unit_range_chw(self, image_payload):
        out = ToTensor().apply(image_payload, {})
        assert out.kind is PayloadKind.TENSOR_F32
        assert out.data.shape == (3, 60, 80)
        assert 0.0 <= out.data.min() and out.data.max() <= 1.0

    def test_values_exact(self):
        image = Payload.image(np.array([[[255, 0, 127]]], dtype=np.uint8))
        out = ToTensor().apply(image, {})
        assert out.data[0, 0, 0] == pytest.approx(1.0)
        assert out.data[1, 0, 0] == pytest.approx(0.0)
        assert out.data[2, 0, 0] == pytest.approx(127 / 255)

    def test_quadruples_bytes(self, image_payload):
        out = ToTensor().apply(image_payload, {})
        assert out.nbytes == 4 * image_payload.nbytes

    def test_simulate_matches(self, image_payload):
        op = ToTensor()
        assert op.simulate(image_payload.meta, {}).nbytes == op.apply(image_payload, {}).nbytes


class TestNormalize:
    def test_normalizes_channelwise(self):
        tensor = Payload.tensor(np.full((3, 2, 2), 0.5, dtype=np.float32))
        op = Normalize(mean=(0.5, 0.25, 0.0), std=(1.0, 0.5, 0.25))
        out = op.apply(tensor, {})
        assert np.allclose(out.data[0], 0.0)
        assert np.allclose(out.data[1], 0.5)
        assert np.allclose(out.data[2], 2.0)

    def test_size_unchanged(self):
        tensor = Payload.tensor(np.zeros((3, 5, 5), dtype=np.float32))
        op = Normalize()
        assert op.apply(tensor, {}).nbytes == tensor.nbytes
        assert op.simulate(tensor.meta, {}).nbytes == tensor.nbytes

    def test_validates_zero_std(self):
        with pytest.raises(ValueError):
            Normalize(std=(0.0, 1.0, 1.0))

    def test_validates_length_mismatch(self):
        with pytest.raises(ValueError):
            Normalize(mean=(0.5,), std=(1.0, 1.0))

    def test_channel_count_mismatch_raises(self):
        tensor = Payload.tensor(np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            Normalize().apply(tensor, {})


#: Views an op may be handed: the array itself, RandomHorizontalFlip's
#: negative-stride view before its copy, and a strided sub-grid.
VIEWS = {
    "whole": lambda a: a,
    "flipped": lambda a: a[:, ::-1],
    "strided": lambda a: a[::2, 1::3],
}


class TestTensorOpsMatchReference:
    @given(
        height=st.integers(2, 40),
        width=st.integers(3, 40),
        seed=st.integers(0, 2**32 - 1),
        view=st.sampled_from(sorted(VIEWS)),
    )
    @settings(max_examples=50, deadline=None)
    def test_byte_identical_and_input_untouched(self, height, width, seed, view):
        rng = np.random.default_rng(seed)
        image = VIEWS[view](rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))
        tensor = ToTensor().apply(Payload.image(image), {}).data
        assert tensor.tobytes() == to_tensor_reference(image).tobytes()
        assert tensor.flags.c_contiguous

        op = Normalize()
        source = VIEWS[view](tensor.transpose(1, 2, 0)).transpose(2, 0, 1)
        before = source.copy()
        out = op.apply(Payload.tensor(source), {}).data
        assert out.tobytes() == normalize_reference(source, op.mean, op.std).tobytes()
        assert np.array_equal(source, before)
